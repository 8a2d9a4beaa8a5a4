"""Node clouds: generation, boundary metadata, virtual nodes, CSV I/O.

A cloud is four arrays over its nodes (positions, kinds, normals, hosts),
checked in one place, :meth:`NodeCloud._validate`, whichever generator or
reader built it.  Clouds are immutable after construction and safe to query
from multiple threads (the spatial index that the stencil search of
:mod:`gfdmflow.operators` queries is a read-only ``cKDTree``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudError

__all__ = [
    "NodeKind",
    "NodeCloud",
    "Polygon",
    "generate_cartesian_cloud",
    "generate_irregular_cloud",
    "add_virtual_nodes",
    "write_cloud_csv",
    "read_cloud_csv",
]

_COINCIDENT_TOL = 1e-9


class NodeKind(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    ROBIN = 2
    VIRTUAL = 3


def point_segment_distance2(x, y, a, b):
    """Squared distance from the point(s) ``(x, y)`` to the segment ``a``-``b``;
    a zero-length segment is the point ``a``."""
    (x1, y1), (x2, y2) = a, b
    ex, ey = x2 - x1, y2 - y1
    ee = ex * ex + ey * ey
    t = 0.0 if ee == 0 else np.clip(((x - x1) * ex + (y - y1) * ey) / ee, 0.0, 1.0)
    return (x - (x1 + t * ex)) ** 2 + (y - (y1 + t * ey)) ** 2


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, counter-clockwise vertex order."""

    vertices_: tuple[tuple[float, float], ...]

    @property
    def vertices(self) -> np.ndarray:
        return np.asarray(self.vertices_, dtype=float)

    @property
    def signed_area(self) -> float:
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def contains(self, x, y, tol: float = 1e-12):
        """Even-odd ray casting; points on an edge count as inside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        inside, dist2 = self._ray_cast(x, y)
        return inside | (dist2 <= tol * tol)

    def _ray_cast(self, x, y):
        """The even-odd inside test of the points ``(x, y)`` and their squared
        distance to the boundary."""
        v = self.vertices
        inside = np.zeros(x.shape, dtype=bool)
        dist2 = np.full(x.shape, np.inf)
        n = len(v)
        for k in range(n):
            x1, y1 = v[k]
            x2, y2 = v[(k + 1) % n]
            # crossing test against the horizontal ray toward +x
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < x_cross)
            np.minimum(dist2, point_segment_distance2(x, y, v[k], v[(k + 1) % n]), out=dist2)
        return inside, dist2

    def inscribed_width(self) -> float:
        """Diameter of the largest inscribed circle, from above, within 1%.

        Branch and bound on square cells, as in Mapbox's polylabel: the
        distance to the boundary moves no faster than the point, so no point
        of a cell lies deeper than its centre's depth plus the half-diagonal
        ``r``.  Cells that cannot beat the deepest centre found are dropped
        and the rest split in four, until ``r`` is 1% of that depth, which
        plus ``r`` then bounds the inscribed radius.
        """
        if self.signed_area == 0.0:
            return 0.0
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        side = float(np.min(hi - lo))
        axes = [a + side * (np.arange(np.ceil((b - a) / side)) + 0.5) for a, b in zip(lo, hi)]
        centres = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2)
        best = -np.inf
        while True:
            inside, dist2 = self._ray_cast(centres[:, 0], centres[:, 1])
            depth = np.where(inside, 1.0, -1.0) * np.sqrt(dist2)
            best = max(best, float(depth.max()))
            r = side / np.sqrt(2.0)
            if r <= 0.01 * best:
                return 2.0 * (best + r)
            side /= 2
            quarters = 0.5 * side * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
            centres = (centres[depth + r > best][:, None, :] + quarters).reshape(-1, 2)


def _reject(bad: np.ndarray, problem: str) -> None:
    """Raise :class:`CloudError` naming the first node flagged in ``bad``."""
    if bad.any():
        raise CloudError(f"node {int(np.argmax(bad))}: {problem}")


@dataclass(frozen=True)
class NodeCloud:
    """Immutable set of nodes with boundary metadata, one array row per node.

    ``positions`` is ``(n, 2)``; ``kinds`` holds :class:`NodeKind` values.
    ``normals`` holds the unit outward normal of each robin node and NaN rows
    elsewhere; ``hosts`` holds, for each virtual node, the robin node it was
    spawned from, and -1 elsewhere.  ``h`` is the characteristic spacing.
    Construction validates these invariants and rejects coincident nodes.
    """

    positions: np.ndarray
    kinds: np.ndarray
    normals: np.ndarray
    hosts: np.ndarray
    h: float
    domain: Polygon | None = None
    _tree: cKDTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = np.ascontiguousarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "kinds", np.asarray(self.kinds, dtype=np.int8))
        object.__setattr__(self, "normals", np.asarray(self.normals, dtype=float))
        object.__setattr__(self, "hosts", np.asarray(self.hosts, dtype=np.int64))
        self._validate()

    def _validate(self):
        n = len(self.positions)
        if self.positions.shape != (n, 2) or self.normals.shape != (n, 2):
            raise CloudError("positions and normals must have shape (n, 2)")
        if not (len(self.kinds) == len(self.hosts) == n):
            raise CloudError("field lengths disagree")
        if self.h <= 0:
            raise CloudError("characteristic spacing must be positive")
        _reject(~np.isfinite(self.positions).all(axis=1), "position is not finite")
        # the spatial index needs the finite positions checked above
        object.__setattr__(self, "_tree", cKDTree(self.positions))
        pairs = self._tree.query_pairs(_COINCIDENT_TOL * self.h)
        if pairs:
            i, j = sorted(pairs)[0]
            raise CloudError(f"nodes {i} and {j} coincide")
        robin = self.kinds == NodeKind.ROBIN
        unit = np.abs(np.hypot(self.normals[:, 0], self.normals[:, 1]) - 1.0) <= 1e-12
        _reject(robin & ~unit, "robin nodes must carry unit normals")
        _reject(~robin & ~np.isnan(self.normals).all(axis=1), "only robin nodes may carry normals")
        virtual = self.kinds == NodeKind.VIRTUAL
        _reject(np.where(virtual, self.hosts < 0, self.hosts != -1), "host set iff node is virtual")
        _reject(virtual & (self.hosts >= n), "virtual host index beyond the last node")
        # every host now indexes a node (-1 the last one, for non-virtual nodes)
        _reject(virtual & (self.kinds[self.hosts] != NodeKind.ROBIN), "virtual hosts must be robin boundary nodes")

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def n_virtual(self) -> int:
        return int(np.sum(self.kinds == NodeKind.VIRTUAL))

    def ids_of_kind(self, kind: NodeKind) -> np.ndarray:
        return np.flatnonzero(self.kinds == kind)


# -- generators ---------------------------------------------------------------


#: The sides of a rectangle as its counter-clockwise edges from (0, 0), with
#: their outward normals.
SIDES = ("bottom", "right", "top", "left")
_SIDE_NORMALS = np.array([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
#: At a corner between two sides of the same kind the vertical side's
#: condition holds: the order in which the sides claim their nodes.
CORNER_ORDER = SIDES[1::2] + SIDES[0::2]


def lattice_sides(nx: int, ny: int):
    """Indices ``ix, iy`` of the ``nx * ny`` lattice nodes numbered
    ``ix * ny + iy``, and their node-side incidence, one column per side of
    :data:`SIDES`."""
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    return ix, iy, np.column_stack([iy == 0, ix == nx - 1, iy == ny - 1, ix == 0])


def _edge_kinds(kinds: Sequence[str], names: Sequence[str]) -> np.ndarray:
    for name, k in zip(names, kinds):
        if k.lower() not in ("dirichlet", "robin"):
            raise CloudError(f"{name}: boundary kind must be dirichlet or robin")
    return np.array([NodeKind[k.upper()] for k in kinds])


def _classify_nodes(incidence: np.ndarray, edge_kinds: np.ndarray, edge_normals: np.ndarray):
    """Node kinds and normals from an ``(n, n_edges)`` node-edge incidence.

    A node on no edge is interior.  A node on a Dirichlet edge is Dirichlet,
    the stronger constraint, also at a corner.  Any other boundary node is
    Robin: on one edge it keeps that edge's normal as given, at a corner it
    takes the normalized sum of its two edges' normals.
    """
    dirichlet = (incidence & (edge_kinds == NodeKind.DIRICHLET)).any(axis=1)
    robin = incidence.any(axis=1) & ~dirichlet
    kinds = np.where(dirichlet, NodeKind.DIRICHLET, np.where(robin, NodeKind.ROBIN, NodeKind.INTERIOR))
    # select the normals by index: summing them through a matmul with the
    # incidence would turn their -0.0 components into +0.0
    first = incidence.argmax(axis=1)
    last = incidence.shape[1] - 1 - incidence[:, ::-1].argmax(axis=1)
    normals = np.full((len(incidence), 2), np.nan)
    normals[robin] = edge_normals[first[robin]]
    corner = robin & (first != last)
    nvec = edge_normals[first[corner]] + edge_normals[last[corner]]
    normals[corner] = nvec / np.hypot(nvec[:, 0], nvec[:, 1])[:, None]
    return kinds.astype(np.int8), normals


def generate_cartesian_cloud(
    x_extent: float,
    y_extent: float,
    dx: float,
    dy: float,
    boundary_kinds: Mapping[str, str],
) -> NodeCloud:
    """Lattice cloud on ``[0, x_extent] x [0, y_extent]``.

    ``boundary_kinds`` maps each of ``left right top bottom`` to ``dirichlet``
    or ``robin``.  Corner nodes take the kind of the higher-priority side
    (Dirichlet beats Robin); a Robin corner's normal is the normalized sum of
    the adjoining side normals.  The cloud's domain is the :class:`Polygon`
    of the four corners.
    """
    if dx <= 0 or dy <= 0:
        raise CloudError("spacings must be positive")
    nx = x_extent / dx
    ny = y_extent / dy
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise CloudError("extents must be integer multiples of the spacings")
    nx, ny = int(round(nx)) + 1, int(round(ny)) + 1

    edge_kinds = _edge_kinds([boundary_kinds[side] for side in SIDES], [f"side {side}" for side in SIDES])
    ix, iy, incidence = lattice_sides(nx, ny)
    kinds, normals = _classify_nodes(incidence, edge_kinds, _SIDE_NORMALS)
    x1, y1 = float(x_extent), float(y_extent)
    return NodeCloud(
        np.column_stack([ix * dx, iy * dy]),
        kinds,
        normals,
        np.full(nx * ny, -1, dtype=np.int64),
        h=min(dx, dy),
        domain=Polygon(((0.0, 0.0), (x1, 0.0), (x1, y1), (0.0, y1))),
    )


def _conflicts(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray, min_dist: float) -> np.ndarray:
    """Which pairs ``(a[i], b[j])`` lie closer than ``min_dist``, by ``hypot``."""
    return np.hypot(a[i, 0] - b[j, 0], a[i, 1] - b[j, 1]) < min_dist


def _min_distance_fill(fixed: np.ndarray, candidates: np.ndarray, min_dist: float) -> np.ndarray:
    """Mask of the candidates that a greedy scan in their order accepts.

    The scan keeps a candidate unless it lies closer than ``min_dist`` to a
    ``fixed`` node or to a candidate kept before it.  kd-trees find every
    pair within a slightly larger radius, so the pairs they return hold all
    true conflicts; each is decided again by the scan's own ``hypot``
    comparison.  A candidate that clashes with a fixed node goes at once;
    then the candidate-candidate conflicts are walked in the order of their
    later member, whose earlier partner is final by then.
    """
    radius = min_dist * (1.0 + 1e-9)
    tree = cKDTree(candidates)
    near = tree.sparse_distance_matrix(cKDTree(fixed), radius, output_type="ndarray")
    keep = np.ones(len(candidates), dtype=bool)
    keep[near["i"][_conflicts(candidates, fixed, near["i"], near["j"], min_dist)]] = False
    pairs = tree.query_pairs(radius, output_type="ndarray")
    pairs = pairs[_conflicts(candidates, candidates, pairs[:, 0], pairs[:, 1], min_dist)]
    # query_pairs lists each pair as (i, j) with i < j
    for i, j in pairs[np.argsort(pairs[:, 1])].tolist():
        if keep[i]:
            keep[j] = False
    return keep


def generate_irregular_cloud(
    boundary_polygon: Sequence[tuple[float, float]],
    target_spacing: float,
    seed: int,
    jitter: float = 0.3,
    edge_kinds: Sequence[str] | None = None,
) -> NodeCloud:
    """Jittered-lattice cloud inside a simple CCW polygon.

    Boundary nodes (polygon vertices included) sit on the edges at roughly
    ``target_spacing``; interior nodes are lattice points displaced by
    ``jitter * target_spacing`` uniform noise, kept when inside the polygon
    or exactly on an edge (:meth:`Polygon.contains` with zero tolerance) and
    at least ``0.5 * target_spacing`` from every node accepted before them,
    walking the lattice y-major.  Deterministic for a fixed ``seed``.
    """
    if target_spacing <= 0:
        raise CloudError("target spacing must be positive")
    poly = Polygon(tuple((float(x), float(y)) for x, y in boundary_polygon))
    if poly.signed_area <= 0:
        raise CloudError("polygon must be simple and counter-clockwise")
    if poly.signed_area < target_spacing**2:
        raise CloudError("degenerate polygon: area smaller than spacing^2")
    if poly.inscribed_width() < target_spacing:
        raise CloudError("spacing larger than the polygon's inscribed width")

    verts = poly.vertices
    n_edges = len(verts)
    if edge_kinds is None:
        edge_kinds = ["robin"] * n_edges
    if len(edge_kinds) != n_edges:
        raise CloudError("one boundary kind per polygon edge required")
    edge_kinds = _edge_kinds(edge_kinds, [f"edge {e}" for e in range(n_edges)])
    ends = np.roll(verts, -1, axis=0)

    # boundary nodes: the vertices first, then the interior nodes of each edge
    positions = [verts]
    edge_of = [np.arange(n_edges)]
    for e, (p0, p1) in enumerate(zip(verts, ends)):
        n_seg = max(1, int(round(float(np.hypot(*(p1 - p0))) / target_spacing)))
        positions.append(p0 + (np.arange(1, n_seg)[:, None] / n_seg) * (p1 - p0))
        edge_of.append(np.full(n_seg - 1, e))
    positions = np.concatenate(positions)
    edge_of = np.concatenate(edge_of)

    # interior fill: jittered lattice with min-distance rejection against
    # the accepted nodes
    rng = np.random.default_rng(seed)
    min_dist = 0.5 * target_spacing
    x_lo, y_lo = verts.min(axis=0)
    x_hi, y_hi = verts.max(axis=0)
    xs = np.arange(x_lo + target_spacing, x_hi - 0.5 * target_spacing + 1e-12, target_spacing)
    ys = np.arange(y_lo + target_spacing, y_hi - 0.5 * target_spacing + 1e-12, target_spacing)
    # one jitter draw per lattice point, y-major as the lattice is walked
    gx, gy = np.meshgrid(xs, ys)
    delta = rng.uniform(-jitter, jitter, size=(gx.size, 2)) * target_spacing
    candidates = np.column_stack([gx.ravel() + delta[:, 0], gy.ravel() + delta[:, 1]])
    candidates = candidates[poly.contains(candidates[:, 0], candidates[:, 1], tol=0.0)]
    positions = np.concatenate([positions, candidates[_min_distance_fill(positions, candidates, min_dist)]])
    m = len(positions)

    # each vertex also ends the edge before it
    incidence = np.zeros((m, n_edges), dtype=bool)
    incidence[np.arange(len(edge_of)), edge_of] = True
    incidence[np.arange(n_edges), np.arange(n_edges) - 1] = True
    # outward unit normals of the CCW edges
    e = ends - verts
    edge_normals = np.column_stack([e[:, 1], -e[:, 0]])
    edge_normals /= np.hypot(edge_normals[:, 0], edge_normals[:, 1])[:, None]
    kinds, normals = _classify_nodes(incidence, edge_kinds, edge_normals)
    return NodeCloud(
        positions,
        kinds,
        normals,
        np.full(m, -1, dtype=np.int64),
        h=float(target_spacing),
        domain=poly,
    )


def add_virtual_nodes(cloud: NodeCloud, offset: float) -> NodeCloud:
    """One virtual node per Robin node, placed ``offset`` along its normal.

    Virtual positions must fall outside the domain; a position landing inside
    (possible next to non-convex boundaries) raises :class:`CloudError`
    naming the offending node.
    """
    if offset <= 0:
        raise ValueError("virtual-node offset must be positive")
    robin_ids = cloud.ids_of_kind(NodeKind.ROBIN)
    if len(robin_ids) == 0:
        return cloud

    new_positions = cloud.positions[robin_ids] + offset * cloud.normals[robin_ids]
    if cloud.domain is not None:
        inside = np.asarray(cloud.domain.contains(new_positions[:, 0], new_positions[:, 1]))
        if inside.any():
            bad = robin_ids[np.flatnonzero(inside)[0]]
            raise CloudError(
                f"virtual node for boundary node {bad} falls inside the domain; "
                "reduce the offset near non-convex boundary sections"
            )

    positions = np.vstack([cloud.positions, new_positions])
    kinds = np.concatenate([cloud.kinds, np.full(len(robin_ids), NodeKind.VIRTUAL, dtype=np.int8)])
    normals = np.vstack([cloud.normals, np.full((len(robin_ids), 2), np.nan)])
    hosts = np.concatenate([cloud.hosts, robin_ids.astype(np.int64)])
    return NodeCloud(positions, kinds, normals, hosts, cloud.h, cloud.domain)


# -- CSV interface -------------------------------------------------------------

_CSV_HEADER = ["id", "x", "y", "kind", "n_x", "n_y", "host"]


def write_cloud_csv(cloud: NodeCloud, path) -> None:
    """Dump a cloud in the fixture CSV format (one row per node)."""
    columns = (cloud.positions.tolist(), cloud.kinds.tolist(), cloud.normals.tolist(), cloud.hosts.tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i, ((x, y), kind, normal, host) in enumerate(zip(*columns)):
            normal = [repr(v) for v in normal] if kind == NodeKind.ROBIN else ["", ""]
            host = str(host) if kind == NodeKind.VIRTUAL else ""
            writer.writerow([i, repr(x), repr(y), NodeKind(kind).name.lower(), *normal, host])


def _parse_row(k: int, row: list[str]):
    """Position, kind, normal and host of node ``k`` from its CSV row; the
    normal cells belong to robin rows and the host cell to virtual rows."""
    nid, x, y, kind_name, nx, ny, host = (c.strip() for c in row)
    kind = NodeKind[kind_name.upper()]
    if int(nid) != k:
        raise ValueError(f"node id {nid} where id {k} is next")
    position = float(x), float(y)
    if not np.all(np.isfinite(position)):
        raise ValueError("position is not finite")
    if (kind == NodeKind.ROBIN) != bool(nx or ny):
        raise ValueError("robin rows, and only they, carry a normal")
    if (kind == NodeKind.VIRTUAL) != bool(host):
        raise ValueError("virtual rows, and only they, carry a host")
    normal = (float(nx), float(ny)) if kind == NodeKind.ROBIN else (np.nan, np.nan)
    return position, kind, normal, int(host) if host else -1


def read_cloud_csv(path, h: float | None = None, domain: Polygon | None = None) -> NodeCloud:
    """Load a cloud from a file in the fixture CSV format.

    When ``h`` is omitted it is estimated as the median nearest-neighbor
    distance of the non-virtual nodes.  A malformed row raises
    :class:`CloudError` naming its line.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise CloudError(f"cannot read cloud CSV: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != _CSV_HEADER:
        raise CloudError("cloud CSV must start with the header " + ",".join(_CSV_HEADER))
    body = [(line, row) for line, row in enumerate(rows[1:], start=2) if row]
    if not body:
        raise CloudError("cloud CSV holds no nodes")
    n = len(body)
    positions = np.empty((n, 2))
    kinds = np.empty(n, dtype=np.int8)
    normals = np.empty((n, 2))
    hosts = np.empty(n, dtype=np.int64)
    for k, (line, row) in enumerate(body):
        try:
            positions[k], kinds[k], normals[k], hosts[k] = _parse_row(k, row)
        except (KeyError, ValueError, OverflowError) as exc:
            raise CloudError(f"cloud CSV line {line}: cannot read {row!r} ({exc})") from exc
    if h is None:
        solid = positions[kinds != NodeKind.VIRTUAL]
        if len(solid) < 2:
            raise CloudError("cloud CSV needs two non-virtual nodes to infer the spacing")
        dists, _ = cKDTree(solid).query(solid, k=2)
        h = float(np.median(dists[:, 1]))
    return NodeCloud(positions, kinds, normals, hosts, h, domain)
