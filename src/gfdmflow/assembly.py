"""Fully-implicit nonlinear residual assembly over a node cloud.

Unknown ordering is interleaved ``(p_0, Sw_0, p_1, Sw_1, ...)`` over all
nodes, virtual nodes included.  Every node contributes exactly two rows:

* interior and Robin nodes: backward-Euler oil and water flow residuals,
* virtual nodes: the host's derivative boundary condition for p and Sw,
* Dirichlet nodes: ``u - eta`` for both variables,

for ``2 (n1 + n2 + n3 + n3)`` equations in total.  The virtual and Dirichlet
rows are constant: each is one affine row of a single table of arrays (see
:class:`PairFluxSystem`), which gives both its residual and its Jacobian
entries; the systems build that table in array passes, not row by row.
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

from typing import Mapping

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


class PairFluxSystem:
    """Shared two-phase evaluator over an abstract node-pair table.

    ``flow_ids`` are the nodes with flow equations; the flux of each directed
    pair ``pair_i -> pair_j`` is scaled by ``geometric_coef`` times the
    transmissibility.  Every other row is constant, one entry ``k`` of a
    table of arrays kept in difference form: row ``row[k]`` reads

        a[k] * u[ref[k]] + sum_t coef[t] * (u[col[t]] - u[ref[k]]) - g[k]

    over its ``n_terms[k]`` terms, which follow those of row ``k - 1`` in
    ``term_col`` and ``term_coef``.  A value row ``u - g`` has ``ref == row``,
    ``a == 1`` and no terms.  Its Jacobian entries are ``coef[t]`` at
    ``u[col[t]]`` and ``a - sum(coef)`` at ``u[ref]``.  How the pairs and the
    rows were obtained is up to the subclass.
    """

    def __init__(
        self, model: ReservoirModel, n_nodes: int, flow_ids, pair_i, pair_j, geometric_coef,
        row, ref, a, g, n_terms=0, term_col=(), term_coef=(),
    ):
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

        self.row = np.asarray(row, dtype=np.int64)
        self.row_ref = np.asarray(ref, dtype=np.int64)
        self.row_a = np.asarray(a, dtype=float)
        self.row_g = np.asarray(g, dtype=float)
        n_terms = np.broadcast_to(np.asarray(n_terms, dtype=np.int64), self.row.shape)
        self.term_row = np.repeat(self.row, n_terms)
        self.term_ref = np.repeat(self.row_ref, n_terms)
        self.term_col = np.asarray(term_col, dtype=np.int64)
        self.term_coef = np.asarray(term_coef, dtype=float)
        # a - sum(coef) per row: np.sum along rows of one length adds each
        # row's terms in the pairwise order of a one-row np.sum
        self.ref_coef = self.row_a.copy()
        first = np.cumsum(n_terms) - n_terms
        for size in np.unique(n_terms[n_terms > 0]):
            rows = np.flatnonzero(n_terms == size)
            self.ref_coef[rows] -= np.sum(self.term_coef[first[rows, None] + np.arange(size)], axis=1)
        self._csc = None  # compiled by the first residual_and_jacobian

    def _pattern(self, dtype=np.int64):
        """Row and column of every Jacobian contribution, in the order
        :meth:`_evaluate` lays out their values; repeated positions add up."""
        pi, pj, f = (ids.astype(dtype, copy=False) for ids in (self.pair_i, self.pair_j, self.flow_ids))
        pair_rows = np.concatenate([2 * pi] * 4 + [2 * pi + 1] * 4)
        pair_cols = np.concatenate([2 * pi, 2 * pj, 2 * pi + 1, 2 * pj + 1] * 2)
        acc_rows = np.column_stack([2 * f, 2 * f, 2 * f + 1, 2 * f + 1]).ravel()
        acc_cols = np.column_stack([2 * f, 2 * f + 1, 2 * f, 2 * f + 1]).ravel()
        rows = np.concatenate([pair_rows, acc_rows, self.term_row, self.row], dtype=dtype)
        cols = np.concatenate([pair_cols, acc_cols, self.term_col, self.row_ref], dtype=dtype)
        return rows, cols

    def _compile_csc(self):
        """CSC layout of the frozen pattern, ``(indptr, indices, slot)``:
        contribution ``k`` of :meth:`_pattern` adds into ``data[slot[k]]``.

        Pattern rows 0, 2, 4 and 6 of the pair tangents fall in the 2x2
        diagonal block of ``pair_i``, a flow node, where its accumulation
        entries already name the slots; so only the other contributions are
        sorted, and those four rows copy their slots from the accumulation's.
        Keys ``col * n + row`` sort into CSC order; they are int32 while
        ``n**2`` fits, which keeps this one-time pass light on memory.  The
        index arrays are int32 whenever ``n + 1`` and ``nnz`` fit: scipy
        would copy int64 ones into every Jacobian, so none would share them.
        ``slot`` is ``np.intp``, which ``np.bincount`` takes without a copy.
        """
        n = self.n_unknowns
        dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        pi, pj, f = (ids.astype(dtype, copy=False) for ids in (self.pair_i, self.pair_j, self.flow_ids))
        m, n_acc, n_terms = len(pi), 4 * len(f), len(self.term_row)
        # the sorted keys: pattern rows 1, 3, 5, 7, at (2 pi + a, 2 pj + b)
        # for (a, b) = (0, 0), (0, 1), (1, 0), (1, 1), then the accumulation
        # entries (2 f + a, 2 f + b) in the same order per node, then the
        # term rows and the value rows
        keys = np.empty(4 * m + n_acc + n_terms + len(self.row), dtype=dtype)
        pair_keys, acc_keys = keys[: 4 * m].reshape(4, m), keys[4 * m : 4 * m + n_acc].reshape(-1, 4).T
        for base, out in ((2 * pj * dtype(n) + 2 * pi, pair_keys), (2 * f * dtype(n) + 2 * f, acc_keys)):
            for k, shift in enumerate((0, n, 1, n + 1)):
                np.add(base, dtype(shift), out=out[k])
        keys[4 * m + n_acc : 4 * m + n_acc + n_terms] = self.term_col * n + self.term_row
        keys[4 * m + n_acc + n_terms :] = self.row_ref * n + self.row
        del pair_keys, acc_keys, base, out
        order = np.argsort(keys)
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        rank = np.cumsum(first, dtype=np.intp)
        rank -= 1
        sorted_slot = np.empty_like(rank)
        sorted_slot[order] = rank
        del order, rank
        slot = np.empty(4 * m + len(sorted_slot), dtype=np.intp)
        pair_slot = slot[: 8 * m].reshape(8, m)
        pair_slot[1::2] = sorted_slot[: 4 * m].reshape(4, m)
        slot[8 * m :] = sorted_slot[4 * m :]
        # pattern row 2 k takes the k-th accumulation slot of node pair_i
        acc_slot = sorted_slot[4 * m : 4 * m + n_acc].reshape(-1, 4)
        flow_index = np.empty(self.n_nodes, dtype=np.intp)
        flow_index[self.flow_ids] = np.arange(len(f))
        pair_flow = flow_index[self.pair_i]
        for k in range(4):
            np.take(acc_slot[:, k], pair_flow, out=pair_slot[2 * k])
        keys = keys[first]
        index_dtype = np.int32 if max(n + 1, len(keys)) <= np.iinfo(np.int32).max else dtype
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(index_dtype)
        return indptr, (keys % dtype(n)).astype(index_dtype, copy=False), slot

    # -- evaluation -------------------------------------------------------------

    def _pair_fluxes(self, p, sw, tan=None):
        """Oil and water flux of every pair; given ``tan``, a zeroed
        ``(8, m)`` array, also writes their Jacobian entries into it in
        :meth:`_pattern` order, one contiguous row per entry of a pair.

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
        if with_jac:
            sw = dual.seed(sw, 0, 1)
            at_j = up == pj
        fluxes = []
        for k, (kr, mu) in enumerate(((kro(sw, self.model), self.pair_mu_o), (krw(sw, self.model), self.pair_mu_w))):
            lam = dual.value(kr)[up] / mu
            fluxes.append(lam * dp * self.pair_coef)
            if with_jac:
                lam_c = lam * self.pair_coef
                tan[4 * k] = -lam_c
                tan[4 * k + 1] = lam_c
                d_sw = kr.tan[up, 0] / mu * dp * self.pair_coef
                np.copyto(tan[4 * k + 2], d_sw, where=~at_j)
                np.copyto(tan[4 * k + 3], d_sw, where=at_j)
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
            tan = data[:m].reshape(8, -1)
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
        jac = sp.csc_matrix((data, indices, indptr), shape=(self.n_unknowns, self.n_unknowns))
        jac.has_canonical_format = True  # the layout's rows are sorted and unique per column
        return jac

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

        held = []  # (p, Sw) of each Dirichlet node
        for c in dirichlet_ids.tolist():
            bc = self.specs.get(c)
            if bc is None or bc.kind != "dirichlet":
                raise SetupError(f"dirichlet node {c} needs Dirichlet values for p and Sw")
            held.append((bc.p_value, bc.sw_value))

        # virtual node b holds its host's condition for p and Sw in two rows
        hosts = cloud.hosts[virtual_ids]
        n = len(cloud)
        entry_keys, wanted = pair_i * n + ops.neighbors, hosts * n + virtual_ids
        inside = np.searchsorted(entry_keys, wanted, "right") > np.searchsorted(entry_keys, wanted)
        triples = []  # (a, b, g) of each virtual node, for p and for Sw
        for b, a_host, ok in zip(virtual_ids.tolist(), hosts.tolist(), inside.tolist()):
            bc = self.specs.get(a_host)
            if bc is None or bc.kind != "robin":
                raise SetupError(f"robin node {a_host} needs Robin triples for p and Sw")
            if not ok:
                raise SetupError(
                    f"virtual node {b} is outside the stencil of host {a_host}; influence radius too small"
                )
            triples.append(robin_triples(bc))
        triples = np.array(triples, dtype=float).reshape(-1, 3)
        # each virtual row's terms are its host's stencil entries, in order
        row_host, row_k = np.repeat(hosts, 2), np.tile([0, 1], len(hosts))
        v_row, v_ref = 2 * np.repeat(virtual_ids, 2) + row_k, 2 * row_host + row_k
        k_host = np.searchsorted(ops.nodes, row_host)
        n_terms = np.diff(ops.indptr)[k_host]
        entry = np.repeat(ops.indptr[k_host] - (np.cumsum(n_terms) - n_terms), n_terms) + np.arange(n_terms.sum())
        normal = np.repeat(cloud.normals[row_host], n_terms, axis=0)
        cdir = normal[:, 0] * ops.coef[0, entry] + normal[:, 1] * ops.coef[1, entry]

        d_row = (2 * dirichlet_ids[:, None] + np.arange(2)).ravel()
        super().__init__(
            model, len(cloud), flow_ids, pair_i, ops.neighbors, laplacian,
            row=np.concatenate([d_row, v_row]),
            ref=np.concatenate([d_row, v_ref]),
            a=np.concatenate([np.ones(len(d_row)), triples[:, 0]]),
            g=np.concatenate([np.array(held, dtype=float).ravel(), triples[:, 2]]),
            n_terms=np.concatenate([np.zeros(len(d_row), dtype=np.int64), n_terms]),
            term_col=2 * ops.neighbors[entry] + np.repeat(row_k, n_terms),
            term_coef=np.repeat(triples[:, 1], n_terms) * cdir,
        )
