"""Fully-implicit nonlinear residual assembly over a node cloud.

Unknown ordering is interleaved ``(p_0, Sw_0, p_1, Sw_1, ...)`` over all
nodes, virtual nodes included.  Every node contributes exactly two rows:

* interior and Robin nodes: backward-Euler oil and water flow residuals,
* virtual nodes: the host's derivative boundary condition for p and Sw,
* Dirichlet nodes: ``u - eta`` for both variables,

for ``2 (n1 + n2 + n3 + n3)`` equations in total.  The Jacobian is exact,
obtained by running the residual kernels on vectorized dual numbers seeded
on the locally relevant unknowns (upwind branches are frozen at the current
iterate's pressures within each evaluation).

The sparsity pattern is frozen at construction.  The first Jacobian
evaluation compiles its CSC layout: the sorted row indices per column and
the slot each dual tangent adds into.  Every evaluation then sums the
tangents into those slots and returns a CSC matrix over the one shared pair
of index arrays, which the linear solver recognises as a known pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from . import dual
from .cloud import NodeCloud, NodeKind
from .errors import SetupError
from .operators import DiffOperators
from .physics import ReservoirModel, pair_transmissibility_parts, porosity, upwind_mobilities

__all__ = [
    "DirichletBC",
    "RobinBC",
    "BoundarySpec",
    "ImplicitSystem",
]


@dataclass(frozen=True)
class DirichletBC:
    """Prescribed value ``u = value`` on a boundary node."""

    value: float


@dataclass(frozen=True)
class RobinBC:
    """Derivative condition ``a*u + b*du/dn = g`` on a boundary node.

    Coefficients are named a/b/g to keep clear of the flux unit constant.
    ``noflow()`` is the common special case ``du/dn = 0``.
    """

    a: float
    b: float
    g: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise SetupError("robin condition with a = b = 0 constrains nothing")

    @classmethod
    def noflow(cls) -> "RobinBC":
        return cls(0.0, 1.0, 0.0)


@dataclass(frozen=True)
class BoundarySpec:
    """Per-node boundary data for the two variables."""

    p: DirichletBC | RobinBC
    sw: DirichletBC | RobinBC


class PairFluxSystem:
    """Shared two-phase evaluator over an abstract node-pair table.

    Subclasses fill ``flow_ids`` (nodes carrying flow equations), the pair
    arrays ``pair_i / pair_j / pair_coef`` (constant flux prefactor per
    directed pair) and the constant linear rows, then call
    :meth:`_finalize`.  Only the flux-law physics and the bookkeeping live
    here; how the pair coefficients were obtained is entirely up to the
    subclass.
    """

    model: ReservoirModel
    n_nodes: int

    def _init_tables(self, model: ReservoirModel, n_nodes: int):
        self.model = model
        self.n_nodes = n_nodes
        self.n_unknowns = 2 * n_nodes
        if len(model.permeability) != n_nodes:
            raise SetupError("model arrays must cover every node")
        self.flow_ids = np.empty(0, dtype=np.int64)
        self.pair_i = np.empty(0, dtype=np.int64)
        self.pair_j = np.empty(0, dtype=np.int64)
        self.pair_coef = np.empty(0)
        self.pair_mu_o = np.empty(0)
        self.pair_mu_w = np.empty(0)
        # Jacobian entries of the constant (linear) rows
        self._lin_rows: list[int] = []
        self._lin_cols: list[int] = []
        self._lin_data: list[float] = []
        # residual evaluation data: value rows and difference-form rows
        self._dir_rows: list[int] = []
        self._dir_cols: list[int] = []
        self._dir_rhs: list[float] = []
        self._rb_entry_row: list[int] = []
        self._rb_entry_col: list[int] = []
        self._rb_entry_host: list[int] = []
        self._rb_entry_coef: list[float] = []
        self._rb_row: list[int] = []
        self._rb_a_coef: list[float] = []
        self._rb_a_col: list[int] = []
        self._rb_g: list[float] = []

    def _set_pairs(self, pair_i, pair_j, geometric_coef):
        """Install the directed pair table; ``geometric_coef`` multiplies the
        transmissibility into the flux prefactor."""
        self.pair_i = np.asarray(pair_i, dtype=np.int64)
        self.pair_j = np.asarray(pair_j, dtype=np.int64)
        k_h, mu_o, mu_w = pair_transmissibility_parts(self.pair_i, self.pair_j, self.model)
        self.pair_mu_o = mu_o
        self.pair_mu_w = mu_w
        self.pair_coef = self.model.unit_alpha * k_h * np.asarray(geometric_coef, dtype=float)

    def _add_dirichlet_rows(self, node: int, p_value: float, sw_value: float):
        self._lin_rows += [2 * node, 2 * node + 1]
        self._lin_cols += [2 * node, 2 * node + 1]
        self._lin_data += [1.0, 1.0]
        self._dir_rows += [2 * node, 2 * node + 1]
        self._dir_cols += [2 * node, 2 * node + 1]
        self._dir_rhs += [p_value, sw_value]

    def _add_robin_row(self, row: int, member_cols, coeffs, host_col: int, a_coef: float, g: float):
        """Row ``a*u_host + sum_k c_k (u_k - u_host) = g`` (difference form)."""
        coeffs = list(coeffs)
        self._lin_rows += [row] * (len(member_cols) + 1)
        self._lin_cols += list(member_cols) + [host_col]
        self._lin_data += coeffs + [a_coef - float(np.sum(coeffs))]
        self._rb_entry_row += [row] * len(member_cols)
        self._rb_entry_col += list(member_cols)
        self._rb_entry_host += [host_col] * len(member_cols)
        self._rb_entry_coef += coeffs
        self._rb_row.append(row)
        self._rb_a_coef.append(a_coef)
        self._rb_a_col.append(host_col)
        self._rb_g.append(g)

    def _finalize(self):
        self.lin_rows = np.asarray(self._lin_rows, dtype=np.int64)
        self.lin_cols = np.asarray(self._lin_cols, dtype=np.int64)
        self.lin_data = np.asarray(self._lin_data, dtype=float)
        self.dir_rows = np.asarray(self._dir_rows, dtype=np.int64)
        self.dir_cols = np.asarray(self._dir_cols, dtype=np.int64)
        self.dir_rhs = np.asarray(self._dir_rhs, dtype=float)
        self.rb_entry_row = np.asarray(self._rb_entry_row, dtype=np.int64)
        self.rb_entry_col = np.asarray(self._rb_entry_col, dtype=np.int64)
        self.rb_entry_host = np.asarray(self._rb_entry_host, dtype=np.int64)
        self.rb_entry_coef = np.asarray(self._rb_entry_coef, dtype=float)
        self.rb_row = np.asarray(self._rb_row, dtype=np.int64)
        self.rb_a_coef = np.asarray(self._rb_a_coef, dtype=float)
        self.rb_a_col = np.asarray(self._rb_a_col, dtype=np.int64)
        self.rb_g = np.asarray(self._rb_g, dtype=float)
        self._csc = None  # compiled by the first residual_and_jacobian

    def _pattern(self, dtype=np.int64):
        """Row and column of every Jacobian contribution, in the order
        :meth:`_evaluate` lays out their values; repeated positions add up."""
        pi, pj, f = (ids.astype(dtype, copy=False) for ids in (self.pair_i, self.pair_j, self.flow_ids))
        pair_rows = np.column_stack([2 * pi] * 4 + [2 * pi + 1] * 4).ravel()
        pair_cols = np.column_stack([2 * pi, 2 * pj, 2 * pi + 1, 2 * pj + 1] * 2).ravel()
        acc_rows = np.column_stack([2 * f, 2 * f, 2 * f + 1, 2 * f + 1]).ravel()
        acc_cols = np.column_stack([2 * f, 2 * f + 1, 2 * f, 2 * f + 1]).ravel()
        rows = np.concatenate([pair_rows, acc_rows, self.lin_rows.astype(dtype, copy=False)])
        cols = np.concatenate([pair_cols, acc_cols, self.lin_cols.astype(dtype, copy=False)])
        return rows, cols

    def _compile_csc(self):
        """CSC layout of the frozen pattern, ``(indptr, indices, slot)``:
        contribution ``k`` of :meth:`_pattern` adds into ``data[slot[k]]``.

        Keys ``col * n + row`` sort into CSC order; they are int32 while
        ``n**2`` fits, which keeps this one-time pass light on memory.
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
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(dtype)
        return indptr, keys % dtype(n), slot

    # -- evaluation -------------------------------------------------------------

    def _pair_fluxes(self, p, sw, with_jac: bool):
        pi, pj = self.pair_i, self.pair_j
        if with_jac:
            p_i = dual.seed(p[pi], 0, 4)
            p_j = dual.seed(p[pj], 1, 4)
            sw_i = dual.seed(sw[pi], 2, 4)
            sw_j = dual.seed(sw[pj], 3, 4)
        else:
            p_i, p_j, sw_i, sw_j = p[pi], p[pj], sw[pi], sw[pj]
        lam_o, lam_w = upwind_mobilities(
            p_i, p_j, sw_i, sw_j, self.model, self.pair_mu_o, self.pair_mu_w
        )
        dp = p_j - p_i
        f_o = lam_o * dp * self.pair_coef
        f_w = lam_w * dp * self.pair_coef
        return f_o, f_w

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
        f_o, f_w = self._pair_fluxes(p, sw, with_jac)
        acc_o, acc_w = self._accumulations(p, sw, p_old, sw_old, dt, with_jac)

        residual = np.zeros(self.n_unknowns)
        residual[self.dir_rows] = x[self.dir_cols] - self.dir_rhs
        if len(self.rb_row):
            diffs = self.rb_entry_coef * (x[self.rb_entry_col] - x[self.rb_entry_host])
            residual += np.bincount(self.rb_entry_row, weights=diffs, minlength=self.n_unknowns)
            residual[self.rb_row] += self.rb_a_coef * x[self.rb_a_col] - self.rb_g
        n = self.n_nodes
        residual[0::2] += np.bincount(self.pair_i, weights=dual.value(f_o), minlength=n)
        residual[1::2] += np.bincount(self.pair_i, weights=dual.value(f_w), minlength=n)
        f = self.flow_ids
        residual[2 * f] += self.model.q_o[f] - dual.value(acc_o)
        residual[2 * f + 1] += self.model.q_w[f] - dual.value(acc_w)

        if not with_jac:
            return residual, None
        pair_data = np.column_stack([f_o.tan, f_w.tan]).ravel()
        acc_data = np.column_stack([-acc_o.tan, -acc_w.tan]).ravel()
        return residual, self._scatter(np.concatenate([pair_data, acc_data, self.lin_data]))

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

    The constructor validates the setup (operators present for all flow
    nodes, complete boundary specs, virtual nodes resolvable in their host
    stencils) and freezes the sparsity pattern.  Pair coefficients are the
    Laplacian rows ``e3 + e4`` of the difference operators.
    """

    def __init__(
        self,
        cloud: NodeCloud,
        ops: DiffOperators,
        model: ReservoirModel,
        specs: Mapping[int, BoundarySpec],
    ):
        self._init_tables(model, len(cloud))
        self.cloud = cloud
        self.ops = ops
        self.specs = dict(specs)

        kinds = cloud.kinds
        self.flow_ids = np.flatnonzero((kinds == NodeKind.INTERIOR) | (kinds == NodeKind.ROBIN))
        self.dirichlet_ids = cloud.ids_of_kind(NodeKind.DIRICHLET)
        self.virtual_ids = cloud.ids_of_kind(NodeKind.VIRTUAL)
        covered = len(self.flow_ids) + len(self.dirichlet_ids) + len(self.virtual_ids)
        if covered != self.n_nodes:
            raise SetupError("some node has no assembly rule (unknown kind)")
        missing = [int(i) for i in self.flow_ids if int(i) not in ops]
        if missing:
            raise SetupError(f"missing operators for flow nodes {missing[:5]}")

        pi, pj, cl = [], [], []
        for i in self.flow_ids:
            stencil = ops.stencil(int(i))
            pi.append(np.full(len(stencil), i, dtype=np.int64))
            pj.append(stencil.neighbors)
            cl.append(ops.laplacian_row(int(i)))
        if pi:
            self._set_pairs(np.concatenate(pi), np.concatenate(pj), np.concatenate(cl))

        for c in self.dirichlet_ids:
            spec = self.specs.get(int(c))
            if spec is None or not isinstance(spec.p, DirichletBC) or not isinstance(spec.sw, DirichletBC):
                raise SetupError(f"dirichlet node {int(c)} needs Dirichlet values for p and Sw")
            self._add_dirichlet_rows(int(c), spec.p.value, spec.sw.value)

        for b in self.virtual_ids:
            a_host = int(cloud.hosts[b])
            spec = self.specs.get(a_host)
            if spec is None or not isinstance(spec.p, RobinBC) or not isinstance(spec.sw, RobinBC):
                raise SetupError(f"robin node {a_host} needs Robin triples for p and Sw")
            stencil = ops.stencil(a_host)
            if int(b) not in set(int(x) for x in stencil.neighbors):
                raise SetupError(
                    f"virtual node {int(b)} is outside the stencil of host {a_host}; "
                    "influence radius too small"
                )
            normal = cloud.normals[a_host]
            cdir = ops.directional_row(a_host, (normal[0], normal[1]))
            for offset, bc in ((0, spec.p), (1, spec.sw)):
                member_cols = [2 * int(nbr) + offset for nbr in stencil.neighbors]
                self._add_robin_row(
                    2 * int(b) + offset, member_cols, bc.b * cdir, 2 * a_host + offset, bc.a, bc.g
                )

        self._finalize()
