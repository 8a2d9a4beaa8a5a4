"""Per-node difference operators from weighted least squares on Taylor expansions.

For a center node with neighbors at offsets ``(dx_j, dy_j)`` (neighbor minus
center) the five derivative values ``(ux, uy, uxx, uyy, uxy)`` are the
solution of the weighted normal equations

    A D = L^T W (u_j - u_0),   A = L^T W L,
    L_j = (dx_j, dy_j, dx_j^2/2, dy_j^2/2, dx_j*dy_j),
    W   = diag(w_j^2),

with the quartic-spline weight ``w``.  Rows of ``E = A^-1 L^T W`` are the
coefficient rows applied to neighbor differences.  The squared weights in
``W`` are essential: the golden coefficient tests do not reproduce with
unsquared weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import NodeCloud, NodeKind, Stencil, find_stencil
from .errors import DegenerateStencilError

__all__ = [
    "weight",
    "DiffOperators",
    "DerivativeBundle",
    "build_operators",
    "build_node_rows",
    "apply_operators",
    "stencil_quality",
    "StencilQuality",
    "write_operator_csv",
]

#: Reciprocal-condition threshold below which a stencil is rejected.
RCOND_DEGENERATE = 1e-12


def weight(r, r_e):
    """Quartic spline weight: ``1 - 6q^2 + 8q^3 - 3q^4`` for ``q = r/r_e <= 1``.

    Zero beyond the cutoff; total function of ``r >= 0``.
    """
    q = np.asarray(r, dtype=float) / r_e
    w = 1.0 - 6.0 * q**2 + 8.0 * q**3 - 3.0 * q**4
    return np.where(q <= 1.0, w, 0.0)


def _taylor_matrix(offsets: np.ndarray) -> np.ndarray:
    dx, dy = offsets[:, 0], offsets[:, 1]
    return np.column_stack([dx, dy, 0.5 * dx**2, 0.5 * dy**2, dx * dy])


def _solve_rows(stencil: Stencil, degenerate: str, label) -> np.ndarray:
    """Coefficient rows E of one stencil, or the diagnostic continuation.

    The normal equations are solved on radius-scaled offsets after symmetric
    Jacobi equilibration, so the degeneracy estimate is invariant to node
    spacing and to near-cutoff weights that merely scale a column (a weight
    of 1e-17 on the only xy-resolving neighbors is harmless scaling, not
    rank deficiency; true collinearity survives equilibration and is
    rejected).
    """
    r_e = stencil.radius
    L = _taylor_matrix(stencil.offsets / r_e)
    w2 = weight(stencil.distances, r_e) ** 2
    A = L.T @ (w2[:, None] * L)
    B = (L * w2[:, None]).T
    rcond = _equilibrated_rcond(A)
    if rcond < RCOND_DEGENERATE:
        if degenerate == "raise":
            raise DegenerateStencilError(
                f"degenerate stencil at node {label}: rcond={rcond:.2e} "
                "(neighbor geometry cannot determine all five derivatives)"
            )
        # Diagnostic continuation: explicit inverse of the raw (unscaled)
        # system, matching the reference analysis of rank-deficient boundary
        # stencils.  Entries along the null direction are not well-defined;
        # use only for diagnostics.
        L_raw = _taylor_matrix(stencil.offsets)
        A_raw = L_raw.T @ (w2[:, None] * L_raw)
        return np.linalg.inv(A_raw) @ (L_raw * w2[:, None]).T
    s = 1.0 / np.sqrt(np.diag(A))
    A_eq = A * np.outer(s, s)
    E_hat = s[:, None] * np.linalg.solve(A_eq, s[:, None] * B)
    # derivatives w.r.t. scaled coordinates back to physical units
    E_hat[0] /= r_e
    E_hat[1] /= r_e
    E_hat[2:] /= r_e**2
    return E_hat


def _equilibrated_rcond(A: np.ndarray) -> float:
    d = np.diag(A).copy()
    if np.any(d <= 0):
        return 0.0
    s = 1.0 / np.sqrt(d)
    sv = np.linalg.svd(A * np.outer(s, s), compute_uv=False)
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


@dataclass(frozen=True)
class DerivativeBundle:
    ux: float
    uy: float
    uxx: float
    uyy: float
    uxy: float


@dataclass(frozen=True)
class DiffOperators:
    """Coefficient rows per node, aligned with each node's stencil.

    ``rows[i]`` has shape ``(5, n_i)``; row ``m`` applied to the differences
    ``u_j - u_center`` yields the m-th derivative (x, y, xx, yy, xy order).
    Immutable and safe for concurrent reads.
    """

    stencils: dict[int, Stencil]
    rows: dict[int, np.ndarray]

    def laplacian_row(self, node: int) -> np.ndarray:
        rows = self.rows[node]
        return rows[2] + rows[3]

    def directional_row(self, node: int, normal: tuple[float, float]) -> np.ndarray:
        rows = self.rows[node]
        return normal[0] * rows[0] + normal[1] * rows[1]

    def __contains__(self, node: int) -> bool:
        return node in self.rows


def build_node_rows(cloud: NodeCloud, center: int, r_e: float, degenerate: str = "raise"):
    """Stencil and coefficient rows for a single node.

    ``degenerate='inverse'`` continues through rank-deficient stencils with an
    explicit matrix inverse instead of raising; see :func:`_solve_rows`.
    """
    stencil = find_stencil(cloud, center, r_e)
    rows = _solve_rows(stencil, degenerate, center)
    return stencil, rows


def build_operators(cloud: NodeCloud, r_e: float, degenerate: str = "raise") -> DiffOperators:
    """Operators for every node that carries a flow or derivative equation.

    Covers interior and Robin nodes; Dirichlet and virtual nodes need none.
    Raises :class:`DegenerateStencilError` naming the node when a local
    system is rank-deficient (e.g. all neighbors on one line), unless
    ``degenerate='inverse'`` is passed for diagnostic work.
    """
    if degenerate not in ("raise", "inverse"):
        raise ValueError("degenerate must be 'raise' or 'inverse'")
    stencils: dict[int, Stencil] = {}
    rows: dict[int, np.ndarray] = {}
    wanted = np.flatnonzero(
        (cloud.kinds == NodeKind.INTERIOR) | (cloud.kinds == NodeKind.ROBIN)
    )
    for center in wanted:
        stencil, coeff = build_node_rows(cloud, int(center), r_e, degenerate)
        stencils[int(center)] = stencil
        rows[int(center)] = coeff
    return DiffOperators(stencils, rows)


def apply_operators(ops: DiffOperators, field: np.ndarray, node: int) -> DerivativeBundle:
    """Evaluate all five derivatives of a nodal field at one node."""
    stencil = ops.stencils[node]
    field = np.asarray(field, dtype=float)
    if field.shape[0] <= max(int(stencil.neighbors.max()), node):
        raise ValueError("field does not cover all stencil members")
    diffs = field[stencil.neighbors] - field[node]
    ux, uy, uxx, uyy, uxy = ops.rows[node] @ diffs
    return DerivativeBundle(float(ux), float(uy), float(uxx), float(uyy), float(uxy))


@dataclass(frozen=True)
class StencilQuality:
    """Uniformity diagnostics for one node's stencil.

    ``centroid_offset`` is ``|mean neighbor offset| / r_e`` (0 for perfectly
    balanced clouds).  ``imbalance[m]`` groups the neighbors of coefficient
    row ``m`` into mirrored-pair families by ``|dx|`` and reports, for the
    family nearest the center, half the sum of the family's coefficients;
    zero for stencils mirror-symmetric about the vertical axis together with
    symmetric derivative content, growing as the one-sided error grows.
    """

    node: int
    n_neighbors: int
    centroid_offset: float
    imbalance: tuple[float, float, float, float, float]
    rcond: float


def _family_imbalances(offsets: np.ndarray, coeffs: np.ndarray, h_tol: float):
    """Half-sums of coefficients grouped by |dx| family (excluding dx == 0)."""
    adx = np.abs(offsets[:, 0])
    keys = np.round(adx / h_tol).astype(np.int64)
    sums: dict[float, float] = {}
    for key in np.unique(keys):
        if key == 0:
            continue
        mask = keys == key
        sums[float(np.mean(adx[mask]))] = 0.5 * float(np.sum(coeffs[mask]))
    return sums


def stencil_quality(ops: DiffOperators, node: int) -> StencilQuality:
    stencil = ops.stencils[node]
    rows = ops.rows[node]
    centroid = np.linalg.norm(stencil.offsets.mean(axis=0)) / stencil.radius
    h_tol = 1e-6 * stencil.radius
    per_row = []
    for m in range(5):
        fams = _family_imbalances(stencil.offsets, rows[m], h_tol)
        if fams:
            nearest = min(fams.keys())
            per_row.append(fams[nearest])
        else:
            per_row.append(0.0)
    L = _taylor_matrix(stencil.offsets / stencil.radius)
    w2 = weight(stencil.distances, stencil.radius) ** 2
    rcond = _equilibrated_rcond(L.T @ (w2[:, None] * L))
    return StencilQuality(
        node=int(node),
        n_neighbors=len(stencil),
        centroid_offset=float(centroid),
        imbalance=tuple(per_row),
        rcond=rcond,
    )


def write_operator_csv(ops: DiffOperators, path) -> None:
    """Diagnostic dump: one row per (node, neighbor) with all five coefficients."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "neighbor", "e1", "e2", "e3", "e4", "e5"])
        for node in sorted(ops.rows):
            stencil = ops.stencils[node]
            rows = ops.rows[node]
            for k, nbr in enumerate(stencil.neighbors):
                writer.writerow([node, int(nbr)] + [repr(float(rows[m, k])) for m in range(5)])
