"""Fully-implicit nonlinear residual assembly over a node cloud.

Unknown ordering is interleaved ``(p_0, Sw_0, p_1, Sw_1, ...)`` over all
nodes, virtual nodes included.  Every node contributes exactly two rows:

* interior and Robin nodes: backward-Euler oil and water flow residuals,
* virtual nodes: the host's derivative boundary condition for p and Sw,
* Dirichlet nodes: ``u - eta`` for both variables,

for ``2 (n1 + n2 + n3 + n3)`` equations in total.  The virtual and Dirichlet
rows are constant: each is one affine row of a single table (see
:class:`AffineRow`), which gives both its residual and its Jacobian entries.
The flow rows' Jacobian is exact.  The relative permeabilities are
evaluated once per node on dual numbers seeded in Sw, and each pair takes
them at its upwind node, chosen from the current iterate's pressures; the
pair fluxes' tangents then follow by the product rule, and the
accumulation terms run on duals seeded in the node's p and Sw.  Both
evaluation paths do the same floating-point arithmetic, so
``residual_and_jacobian`` returns the residual of ``residual`` bit for bit.

The sparsity pattern is frozen at construction.  The first Jacobian
evaluation compiles its CSC layout: the sorted row indices per column and
the slot each entry adds into.  Every evaluation then sums the entries
into those slots and returns a CSC matrix over the one shared pair
of index arrays, which the linear solver recognises as a known pattern.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from . import dual
from .cloud import NodeCloud, NodeKind
from .config import SegmentBC
from .errors import SetupError
from .operators import DiffOperators
from .physics import UNIT_ALPHA, ReservoirModel, kro, krw, pair_transmissibility_parts, porosity, upwind_nodes

__all__ = ["ImplicitSystem"]


def robin_triples(bc: SegmentBC):
    """The ``(a, b, g)`` triples of a robin condition, for p and for Sw."""
    for a, b, _ in (bc.p_robin, bc.sw_robin):
        if a == 0.0 and b == 0.0:
            raise SetupError("robin condition with a = b = 0 constrains nothing")
    return bc.p_robin, bc.sw_robin


class AffineRow(NamedTuple):
    """One constant (non-flow) row, kept in difference form:
    ``a*u_ref + sum_k coefs[k] * (u_cols[k] - u_ref) - g``.

    A value row ``u - g`` is ``AffineRow(row, 1.0, row, g)``, with no terms.
    """

    row: int
    a: float
    ref: int
    g: float
    cols: Sequence[int] = ()
    coefs: Sequence[float] = ()


class PairFluxSystem:
    """Shared two-phase evaluator over an abstract node-pair table.

    ``flow_ids`` are the nodes with flow equations; the flux of each directed
    pair ``pair_i -> pair_j`` is scaled by ``geometric_coef`` times the
    transmissibility.  Every other row is one :class:`AffineRow` of
    ``const_rows``, which gives both its residual and its Jacobian entries
    (``coefs[k]`` at ``u_cols[k]``, ``a - sum(coefs)`` at ``u_ref``).  How
    the pairs and the rows were obtained is up to the subclass.
    """

    def __init__(self, model: ReservoirModel, n_nodes: int, flow_ids, pair_i, pair_j, geometric_coef, const_rows):
        if len(model.permeability) != n_nodes:
            raise SetupError("model arrays must cover every node")
        self.model = model
        self.n_nodes = n_nodes
        self.n_unknowns = 2 * n_nodes
        self.flow_ids = np.asarray(flow_ids, dtype=np.int64)
        self.pair_i = np.asarray(pair_i, dtype=np.int64)
        self.pair_j = np.asarray(pair_j, dtype=np.int64)
        k_h, self.pair_mu_o, self.pair_mu_w = pair_transmissibility_parts(self.pair_i, self.pair_j, model)
        self.pair_coef = UNIT_ALPHA * k_h * np.asarray(geometric_coef, dtype=float)

        self.row = np.array([r.row for r in const_rows], dtype=np.int64)
        self.row_ref = np.array([r.ref for r in const_rows], dtype=np.int64)
        self.row_a = np.array([r.a for r in const_rows], dtype=float)
        self.row_g = np.array([r.g for r in const_rows], dtype=float)
        # value rows skip np.sum, whose call overhead added ~20% to the FDM strip's build
        self.ref_coef = np.array([r.a - np.sum(r.coefs) if len(r.coefs) else r.a for r in const_rows], dtype=float)
        n_terms = np.array([len(r.cols) for r in const_rows], dtype=np.int64)
        self.term_row = np.repeat(self.row, n_terms)
        self.term_ref = np.repeat(self.row_ref, n_terms)
        self.term_col = np.array([c for r in const_rows for c in r.cols], dtype=np.int64)
        self.term_coef = np.array([c for r in const_rows for c in r.coefs], dtype=float)
        self._csc = None  # compiled by the first residual_and_jacobian

    def _pattern(self, dtype=np.int64):
        """Row and column of every Jacobian contribution, in the order
        :meth:`_evaluate` lays out their values; repeated positions add up."""
        pi, pj, f = (ids.astype(dtype, copy=False) for ids in (self.pair_i, self.pair_j, self.flow_ids))
        pair_rows = np.column_stack([2 * pi] * 4 + [2 * pi + 1] * 4).ravel()
        pair_cols = np.column_stack([2 * pi, 2 * pj, 2 * pi + 1, 2 * pj + 1] * 2).ravel()
        acc_rows = np.column_stack([2 * f, 2 * f, 2 * f + 1, 2 * f + 1]).ravel()
        acc_cols = np.column_stack([2 * f, 2 * f + 1, 2 * f, 2 * f + 1]).ravel()
        rows = np.concatenate([pair_rows, acc_rows, self.term_row, self.row], dtype=dtype)
        cols = np.concatenate([pair_cols, acc_cols, self.term_col, self.row_ref], dtype=dtype)
        return rows, cols

    def _compile_csc(self):
        """CSC layout of the frozen pattern, ``(indptr, indices, slot)``:
        contribution ``k`` of :meth:`_pattern` adds into ``data[slot[k]]``.

        Keys ``col * n + row`` sort into CSC order; they are int32 while
        ``n**2`` fits, which keeps this one-time pass light on memory.  The
        index arrays are int32 whenever ``n + 1`` and ``nnz`` fit: scipy
        would copy int64 ones into every Jacobian, so none would share them.
        """
        n = self.n_unknowns
        dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        rows, cols = self._pattern(dtype)
        keys = cols * dtype(n) + rows
        del rows, cols
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        slot = np.empty(len(keys), dtype=dtype)
        slot[order] = np.cumsum(first, dtype=dtype) - 1
        del order
        keys = keys[first]
        index_dtype = np.int32 if max(n + 1, len(keys)) <= np.iinfo(np.int32).max else dtype
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(index_dtype)
        return indptr, (keys % dtype(n)).astype(index_dtype, copy=False), slot

    # -- evaluation -------------------------------------------------------------

    def _pair_fluxes(self, p, sw, tan=None):
        """Oil and water flux of every pair; given ``tan``, a zeroed
        ``(m, 8)`` array, also writes their Jacobian entries into it in
        :meth:`_pattern` order.

        The relative permeabilities are evaluated once per node, on duals
        seeded in Sw; each pair takes them at its upwind node.  Given the
        mobility ``lam`` and ``dlam/dSw`` there, the flux ``lam*dp*c`` has
        the tangents ``-lam*c`` and ``lam*c`` in the p columns, and
        ``dlam/dSw*dp*c`` in the upwind node's Sw column.
        """
        pi, pj = self.pair_i, self.pair_j
        dp = p[pj] - p[pi]
        up = upwind_nodes(dp, pi, pj)
        with_jac = tan is not None
        sw = dual.seed(sw, 0, 1) if with_jac else sw
        fluxes = []
        for k, (kr, mu) in enumerate(((kro(sw, self.model), self.pair_mu_o), (krw(sw, self.model), self.pair_mu_w))):
            lam = dual.value(kr)[up] / mu
            fluxes.append(lam * dp * self.pair_coef)
            if with_jac:
                lam_c = lam * self.pair_coef
                tan[:, 4 * k] = -lam_c
                tan[:, 4 * k + 1] = lam_c
                tan[np.arange(len(pi)), 4 * k + 2 + (up == pj)] = kr.tan[up, 0] / mu * dp * self.pair_coef
        return fluxes

    def _accumulations(self, p, sw, p_old, sw_old, dt, with_jac: bool):
        f = self.flow_ids
        if with_jac:
            p_c = dual.seed(p[f], 0, 2)
            sw_c = dual.seed(sw[f], 1, 2)
        else:
            p_c, sw_c = p[f], sw[f]
        phi_new = porosity(p_c, self.model, check=False)
        phi_old = porosity(p_old[f], self.model, check=False)
        acc_o = (phi_new * (1.0 - sw_c) - phi_old * (1.0 - sw_old[f])) / dt
        acc_w = (phi_new * sw_c - phi_old * sw_old[f]) / dt
        return acc_o, acc_w

    def _evaluate(self, x, x_old, dt, with_jac: bool):
        p, sw = x[0::2], x[1::2]
        p_old, sw_old = x_old[0::2], x_old[1::2]
        data = tan = None
        if with_jac:
            # every contribution in one buffer, so the pair tangents, the
            # bulk of it, are written in place and never copied
            m, n_acc = 8 * len(self.pair_i), 4 * len(self.flow_ids)
            data = np.zeros(m + n_acc + len(self.term_coef) + len(self.ref_coef))
            tan = data[:m].reshape(-1, 8)
        f_o, f_w = self._pair_fluxes(p, sw, tan)
        acc_o, acc_w = self._accumulations(p, sw, p_old, sw_old, dt, with_jac)

        residual = np.zeros(self.n_unknowns)
        residual[self.row] = self.row_a * x[self.row_ref] - self.row_g
        diffs = self.term_coef * (x[self.term_col] - x[self.term_ref])
        residual += np.bincount(self.term_row, weights=diffs, minlength=self.n_unknowns)
        n = self.n_nodes
        residual[0::2] += np.bincount(self.pair_i, weights=f_o, minlength=n)
        residual[1::2] += np.bincount(self.pair_i, weights=f_w, minlength=n)
        f = self.flow_ids
        residual[2 * f] += self.model.q_o[f] - dual.value(acc_o)
        residual[2 * f + 1] += self.model.q_w[f] - dual.value(acc_w)

        if not with_jac:
            return residual, None
        data[m : m + n_acc] = np.column_stack([-acc_o.tan, -acc_w.tan]).ravel()
        data[m + n_acc :] = np.concatenate([self.term_coef, self.ref_coef])
        return residual, self._scatter(data)

    def _scatter(self, data):
        """CSC matrix of the contributions ``data``, laid out as :meth:`_pattern`."""
        indptr, indices, slot = self._csc
        data = np.bincount(slot, weights=data, minlength=len(indices))
        return sp.csc_matrix((data, indices, indptr), shape=(self.n_unknowns, self.n_unknowns))

    def residual(self, x: np.ndarray, x_old: np.ndarray, dt: float) -> np.ndarray:
        r, _ = self._evaluate(x, x_old, dt, with_jac=False)
        return r

    def residual_and_jacobian(self, x: np.ndarray, x_old: np.ndarray, dt: float):
        if self._csc is None:
            self._csc = self._compile_csc()
        return self._evaluate(x, x_old, dt, with_jac=True)


class ImplicitSystem(PairFluxSystem):
    """Meshless residual/Jacobian evaluator for one cloud and radius.

    The constructor validates the setup (operators for exactly the flow
    nodes, a condition of the node's kind for every Dirichlet node and every
    virtual node's host, virtual nodes resolvable in their host stencils) and
    freezes the sparsity pattern.  ``specs`` maps those boundary nodes to
    their :class:`~gfdmflow.config.SegmentBC`.  Pair coefficients are the
    Laplacian rows ``e3 + e4`` of the difference operators.
    """

    def __init__(
        self,
        cloud: NodeCloud,
        ops: DiffOperators,
        model: ReservoirModel,
        specs: Mapping[int, SegmentBC],
    ):
        self.cloud = cloud
        self.ops = ops
        self.specs = dict(specs)

        flow_ids = np.flatnonzero((cloud.kinds == NodeKind.INTERIOR) | (cloud.kinds == NodeKind.ROBIN))
        dirichlet_ids = cloud.ids_of_kind(NodeKind.DIRICHLET)
        virtual_ids = cloud.ids_of_kind(NodeKind.VIRTUAL)
        if len(flow_ids) + len(dirichlet_ids) + len(virtual_ids) != len(cloud):
            raise SetupError("some node has no assembly rule (unknown kind)")
        if not np.array_equal(ops.nodes, flow_ids):
            missing = np.setdiff1d(flow_ids, ops.nodes)[:5].tolist()
            extra = np.setdiff1d(ops.nodes, flow_ids)[:5].tolist()
            raise SetupError(f"operators must cover exactly the flow nodes (missing {missing}, extra {extra})")

        # the pairs are the table's entries: each flow node with its stencil
        pair_i = np.repeat(ops.nodes, np.diff(ops.indptr))
        laplacian = ops.coef[2] + ops.coef[3]

        const_rows = []
        for c in dirichlet_ids:
            bc = self.specs.get(int(c))
            if bc is None or bc.kind != "dirichlet":
                raise SetupError(f"dirichlet node {int(c)} needs Dirichlet values for p and Sw")
            const_rows += [AffineRow(2 * c + k, 1.0, 2 * c + k, g) for k, g in enumerate((bc.p_value, bc.sw_value))]

        for b in virtual_ids:
            a_host = int(cloud.hosts[b])
            bc = self.specs.get(a_host)
            if bc is None or bc.kind != "robin":
                raise SetupError(f"robin node {a_host} needs Robin triples for p and Sw")
            stencil, rows = ops.stencils[a_host], ops.rows[a_host]
            if int(b) not in set(int(x) for x in stencil.neighbors):
                raise SetupError(
                    f"virtual node {int(b)} is outside the stencil of host {a_host}; "
                    "influence radius too small"
                )
            normal = cloud.normals[a_host]
            cdir = normal[0] * rows[0] + normal[1] * rows[1]
            for k, (a, coef, g) in enumerate(robin_triples(bc)):
                const_rows.append(AffineRow(2 * b + k, a, 2 * a_host + k, g, 2 * stencil.neighbors + k, coef * cdir))

        super().__init__(model, len(cloud), flow_ids, pair_i, ops.neighbors, laplacian, const_rows)
