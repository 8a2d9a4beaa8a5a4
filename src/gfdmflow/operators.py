"""Difference operators from weighted least squares on Taylor expansions.

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

The whole table is built in array passes over all centers at once: the 15
distinct entries of every ``A``, an unrolled 5x5 Cholesky factorization and
its inverse, and the coefficients entry by entry.  That inverse also gives
a certified lower bound on each stencil's reciprocal condition number, so
eigenvalues are computed only for stencils near the degeneracy threshold,
and for the table's ``rcond`` when it is first read.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cloud import NodeCloud, NodeKind
from .errors import DegenerateStencilError, StencilUnderdeterminedError

__all__ = [
    "weight",
    "Stencil",
    "DiffOperators",
    "build_operators",
    "build_node_rows",
    "stencil_quality",
    "StencilQuality",
    "write_operator_csv",
]

#: Reciprocal-condition threshold below which a stencil is rejected.
RCOND_DEGENERATE = 1e-12

#: A stencil whose certified rcond bound is at least this many times
#: ``RCOND_DEGENERATE`` is well-posed without an eigenvalue check.
CERTIFIED_MARGIN = 1e3

#: Minimum neighbor count needed to determine the five derivative unknowns.
MIN_NEIGHBORS = 5


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


@dataclass(frozen=True)
class Stencil:
    """One center's view of a :class:`DiffOperators` table, with the rcond
    of its equilibrated normal equations.  Offsets follow the
    neighbor-minus-center convention; this is the single global sign choice
    validated by the golden coefficient tests.
    """

    neighbors: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    radius: float
    rcond: float

    def __len__(self) -> int:
        return len(self.neighbors)


class _ByNode(Mapping):
    """Read-only ``node -> value(k)``, ``k`` the node's index in ``nodes``."""

    def __init__(self, nodes: np.ndarray, value):
        self._nodes, self._value = nodes, value

    def __getitem__(self, node):
        k = int(np.searchsorted(self._nodes, node))
        if k == len(self._nodes) or self._nodes[k] != node:
            raise KeyError(node)
        return self._value(k)

    def __iter__(self):
        return iter(self._nodes.tolist())

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass(frozen=True)
class DiffOperators:
    """The operators of the sorted center ``nodes``, as one read-only table.

    Center ``nodes[k]`` owns the entries ``indptr[k]:indptr[k + 1]``: its
    id-ordered ``neighbors``, their ``offsets`` and the coefficient rows
    ``coef[:, entries]``; row ``m`` applied to the differences
    ``u_j - u_center`` yields the m-th derivative (x, y, xx, yy, xy order).
    ``stencils`` and ``rows`` view the table per node; ``rcond`` is computed
    when first read.
    """

    nodes: np.ndarray
    indptr: np.ndarray
    neighbors: np.ndarray
    offsets: np.ndarray
    coef: np.ndarray
    radius: float

    @cached_property
    def rcond(self) -> np.ndarray:
        """rcond of each center's equilibrated normal equations, read off
        their eigenvalues by the helper the build's verdicts use; the build
        itself only certifies a lower bound for well-posed stencils."""
        rcond = _rcond(self.offsets, self.indptr, self.radius, np.arange(len(self.nodes)))
        rcond.flags.writeable = False
        return rcond

    @property
    def stencils(self) -> Mapping[int, Stencil]:
        def stencil(k):
            sl = slice(self.indptr[k], self.indptr[k + 1])
            off = self.offsets[sl]
            return Stencil(self.neighbors[sl], off, np.hypot(off[:, 0], off[:, 1]), self.radius, float(self.rcond[k]))

        return _ByNode(self.nodes, stencil)

    @property
    def rows(self) -> Mapping[int, np.ndarray]:
        return _ByNode(self.nodes, lambda k: self.coef[:, self.indptr[k] : self.indptr[k + 1]])

    def __contains__(self, node: int) -> bool:
        return node in self.rows


def _neighbor_table(cloud: NodeCloud, centers: np.ndarray, r_e: float):
    """``(indptr, neighbors)``: the nodes within ``r_e`` of ``centers[k]``,
    but the center, are ``neighbors[indptr[k]:indptr[k + 1]]``, id-ordered.

    One pair query over the cloud's tree finds every pair within ``r_e``,
    with the same distance test as a ball query per center; the pairs that
    start at a center, in both directions, sort by center, then by id.
    """
    n = len(cloud)
    pairs = cloud._tree.query_pairs(r_e, output_type="ndarray")
    row = np.full(n, -1, dtype=np.int64)
    row[centers] = np.arange(len(centers))
    # key row * n + neighbor; a pair whose first node is no center has a negative key
    keys = np.concatenate([row[pairs[:, 0]] * n + pairs[:, 1], row[pairs[:, 1]] * n + pairs[:, 0]])
    keys = np.sort(keys[keys >= 0])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=len(centers)))])
    return indptr, keys % n


# Row and column of the 15 distinct entries of a symmetric 5x5 matrix, and
# the place among them of every entry (a, b), in either order.
_UPPER = np.triu_indices(5)
_ENTRY = np.zeros((5, 5), dtype=np.intp)
_ENTRY[_UPPER] = _ENTRY.T[_UPPER] = np.arange(15)


def _normal_entries(offsets: np.ndarray, indptr: np.ndarray, r_e: float):
    """``(A, WL, w2)``: the 15 distinct entries of each center's normal
    matrix ``A = L^T W L`` on radius-scaled offsets, ``(15, centers)``, the
    weighted Taylor rows ``W L`` of the entries, ``(5, entries)``, and their
    squared weights.

    ``A`` is summed per center over ``indptr``.  A center without entries
    gets the next center's first product; it is never solved, as no center
    with fewer than ``MIN_NEIGHBORS`` is.
    """
    dx, dy = offsets.T / r_e
    w2 = weight(np.hypot(offsets[:, 0], offsets[:, 1]), r_e) ** 2
    L = np.stack([dx, dy, 0.5 * dx**2, 0.5 * dy**2, dx * dy])
    WL = L * w2
    # products L_a (W L)_b in _UPPER order; a zero last column closes the last segment
    products = np.zeros((15, len(w2) + 1))
    for a, first in enumerate(_ENTRY.diagonal()):
        np.multiply(L[a], WL[a:], out=products[first : first + 5 - a, :-1])
    return np.add.reduceat(products, indptr[:-1], axis=1), WL, w2


def _rcond(offsets: np.ndarray, indptr: np.ndarray, r_e: float, which: np.ndarray) -> np.ndarray:
    """rcond of the equilibrated normal matrix of each stencil ``which[i]``
    of the table ``(indptr, offsets)``; 0 for fewer than ``MIN_NEIGHBORS``.

    The equilibrated matrix is symmetric positive semidefinite, so its
    singular values are its eigenvalues; one a round-off below zero counts
    as zero, and a zero diagonal entry gives 0.  Stencils of one size share
    one stacked product and eigenvalue pass; each matrix is still its own
    product, so a stencil's rcond does not depend on which others are
    asked for, and a build's error message and the table's ``rcond`` agree
    bit for bit.
    """
    sizes = np.diff(indptr)[which]
    rcond = np.zeros(len(which))
    for size in np.unique(sizes[sizes >= MIN_NEIGHBORS]):
        group = np.flatnonzero(sizes == size)
        off = offsets[(indptr[which[group]][:, None] + np.arange(size)).ravel()]
        L = _taylor_matrix(off / r_e).reshape(len(group), size, 5)
        w2 = weight(np.hypot(off[:, 0], off[:, 1]), r_e) ** 2
        A = np.matmul(L.transpose(0, 2, 1), L * w2.reshape(len(group), size, 1))
        d = np.diagonal(A, axis1=1, axis2=2)
        eq = np.flatnonzero((d > 0).all(axis=1))
        s = 1.0 / np.sqrt(d[eq])[:, :, None]
        ev = np.linalg.eigvalsh(A[eq] * (s * s.transpose(0, 2, 1)))
        rcond[group[eq]] = np.maximum(ev[:, 0], 0.0) / ev[:, -1]
    return rcond


def _cholesky_inverse(A: np.ndarray):
    """``(inverse, ok)``: the 15 entries of the inverse of each symmetric
    5x5 matrix given by its 15 entries ``A``, ``(15, m)``, from an unrolled
    Cholesky factorization ``A = C C^T``, and whether all its pivots were
    positive.  A non-positive pivot is taken as 1, so the arithmetic stays
    finite; that inverse is meaningless.
    """
    m = A.shape[1]
    C = np.zeros((5, 5, m))
    ok = np.ones(m, dtype=bool)
    for j in range(5):
        pivot = A[_ENTRY[j, j]] - np.einsum("km,km->m", C[j, :j], C[j, :j])
        ok &= pivot > 0
        C[j, j] = np.sqrt(np.where(pivot > 0, pivot, 1.0))
        C[j + 1 :, j] = (A[_ENTRY[j + 1 :, j]] - np.einsum("ikm,km->im", C[j + 1 :, :j], C[j, :j])) / C[j, j]
    # Z = C^-1 row by row, from row i of C Z = I
    Z = np.zeros((5, 5, m))
    for i in range(5):
        Z[i, : i + 1] = -np.einsum("km,kjm->jm", C[i, :i], Z[:i, : i + 1])
        Z[i, i] += 1.0
        Z[i, : i + 1] /= C[i, i]
    # A^-1 = Z^T Z
    return np.einsum("kam,kbm->abm", Z, Z)[_UPPER], ok


def _build_table(cloud: NodeCloud, centers: np.ndarray, r_e: float, degenerate: str) -> DiffOperators:
    """The operator table of ``centers`` (sorted ids), in one array pass.

    The normal equations are solved on radius-scaled offsets after symmetric
    Jacobi equilibration, so the degeneracy estimate is invariant to node
    spacing and to near-cutoff weights that merely scale a column (a weight
    of 1e-17 on the only xy-resolving neighbors is harmless scaling, not
    rank deficiency; true collinearity survives equilibration and is
    rejected).  The stencils come from one pair query
    (:func:`_neighbor_table`); every later array spans all centers or all
    entries at once.  Each equilibrated matrix ``A_eq = s A s`` goes through an unrolled Cholesky
    (:func:`_cholesky_inverse`), and the coefficients are ``s A_eq^-1 s
    (W L)^T``.  The inverse certifies the verdict too: ``rcond >= 1 / (tr
    A_eq tr A_eq^-1)``, so a stencil that this bound clears by
    ``CERTIFIED_MARGIN`` is well-posed.  Only the others, among them those
    with a zero diagonal entry or a non-positive pivot, have their rcond
    read off eigenvalues (:func:`_rcond`), so the verdicts are the
    eigenvalues' verdicts.  A stencil that eigenvalues pass has its
    Cholesky pivots positive: with a unit diagonal and ``rcond >= 1e-12``
    its least eigenvalue is far above the ~``n^2 eps`` at which a 5x5
    Cholesky can break down (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, chapter 10); one that did would be rejected,
    not solved.
    """
    if degenerate not in ("raise", "inverse"):
        raise ValueError("degenerate must be 'raise' or 'inverse'")
    if r_e <= 0:
        raise ValueError("influence radius must be positive")
    indptr, neighbors = _neighbor_table(cloud, centers, r_e)
    sizes = np.diff(indptr)
    offsets = cloud.positions[neighbors] - cloud.positions[np.repeat(centers, sizes)]
    A, WL, w2 = _normal_entries(offsets, indptr, r_e)

    # a center with a zero diagonal entry or too few neighbors takes the
    # identity, for finite arithmetic
    d = A[_ENTRY.diagonal()]
    fit = (sizes >= MIN_NEIGHBORS) & (d > 0).all(axis=0)
    s = 1.0 / np.sqrt(np.where(fit, d, 1.0))
    ss = s[_UPPER[0]] * s[_UPPER[1]]
    A_eq = np.where(fit, A * ss, (_UPPER[0] == _UPPER[1])[:, None])
    inverse, pivots = _cholesky_inverse(A_eq)
    bound = 1.0 / (A_eq[_ENTRY.diagonal()].sum(axis=0) * inverse[_ENTRY.diagonal()].sum(axis=0))
    ok = fit & pivots & (bound >= CERTIFIED_MARGIN * RCOND_DEGENERATE)
    check = np.flatnonzero(~ok & (sizes >= MIN_NEIGHBORS))
    rcond = np.zeros(len(centers))
    rcond[check] = _rcond(offsets, indptr, r_e, check)
    ok[check] = (rcond[check] >= RCOND_DEGENERATE) & pivots[check]

    # coef = s A_eq^-1 s (W L)^T, entry by entry from the center's 15
    # entries, then derivatives w.r.t. scaled coordinates to physical units
    M = np.repeat(inverse * ss, sizes, axis=1)
    coef = np.zeros((5, len(neighbors)))
    for a in range(5):
        for b in range(5):
            coef[a] += M[_ENTRY[a, b]] * WL[b]
    coef[:2] /= r_e
    coef[2:] /= r_e**2

    # errors and inverses in center order: the lowest offending center is named
    under = sizes < MIN_NEIGHBORS
    flagged = ~under & ~ok
    offending = np.flatnonzero(under | flagged if degenerate == "raise" else under)
    stop = offending[0] if len(offending) else len(centers)
    for k in np.flatnonzero(flagged[:stop]):
        # Diagnostic continuation (degenerate='inverse' only): explicit
        # inverse of the raw (unscaled) system, matching the reference
        # analysis of rank-deficient boundary stencils.  Entries along the
        # null direction are not well-defined; use only for diagnostics.
        sl = slice(indptr[k], indptr[k + 1])
        L_raw = _taylor_matrix(offsets[sl])
        A_raw = L_raw.T @ (w2[sl, None] * L_raw)
        try:
            coef[:, sl] = np.linalg.inv(A_raw) @ (L_raw * w2[sl, None]).T
        except np.linalg.LinAlgError as exc:
            raise DegenerateStencilError(
                f"degenerate stencil at node {centers[k]}: rcond={rcond[k]:.2e} "
                "and the diagnostic inverse is singular"
            ) from exc
    if stop < len(centers):
        if under[stop]:
            raise StencilUnderdeterminedError(
                f"stencil underdetermined at node {centers[stop]}: "
                f"{sizes[stop]} neighbors within r_e={r_e} (need {MIN_NEIGHBORS})"
            )
        raise DegenerateStencilError(
            f"degenerate stencil at node {centers[stop]}: rcond={rcond[stop]:.2e} "
            "(neighbor geometry cannot determine all five derivatives)"
        )

    table = (centers, indptr, neighbors, offsets, coef)
    for array in table:
        array.flags.writeable = False
    return DiffOperators(*table, float(r_e))


def build_node_rows(cloud: NodeCloud, center: int, r_e: float, degenerate: str = "raise"):
    """Stencil and coefficient rows for a single node: the one-center table.

    ``degenerate='inverse'`` continues through rank-deficient stencils with an
    explicit matrix inverse instead of raising.
    """
    ops = _build_table(cloud, np.array([center], dtype=np.int64), r_e, degenerate)
    return ops.stencils[center], ops.rows[center]


def build_operators(cloud: NodeCloud, r_e: float, degenerate: str = "raise") -> DiffOperators:
    """Operators for every node that carries a flow or derivative equation.

    Covers interior and Robin nodes; Dirichlet and virtual nodes need none.
    Raises :class:`DegenerateStencilError` naming the node when a local
    system is rank-deficient (e.g. all neighbors on one line), unless
    ``degenerate='inverse'`` is passed for diagnostic work; the lowest
    offending node is named.
    """
    wanted = np.flatnonzero((cloud.kinds == NodeKind.INTERIOR) | (cloud.kinds == NodeKind.ROBIN))
    return _build_table(cloud, wanted, r_e, degenerate)


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
        per_row.append(fams[min(fams)] if fams else 0.0)
    return StencilQuality(
        node=int(node),
        n_neighbors=len(stencil),
        centroid_offset=float(centroid),
        imbalance=tuple(per_row),
        rcond=stencil.rcond,
    )


def write_operator_csv(ops: DiffOperators, path) -> None:
    """Diagnostic dump: one row per (node, neighbor) with all five coefficients."""
    centers = np.repeat(ops.nodes, np.diff(ops.indptr))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "neighbor", "e1", "e2", "e3", "e4", "e5"])
        for node, nbr, coef in zip(centers.tolist(), ops.neighbors.tolist(), ops.coef.T.tolist()):
            writer.writerow([node, nbr] + [repr(c) for c in coef])
