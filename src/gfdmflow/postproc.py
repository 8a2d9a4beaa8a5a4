"""Field snapshots, profile extraction, lattice interpolation, front metrics."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import NodeCloud, NodeKind
from .errors import GfdmFlowError
from .physics import SimState

__all__ = [
    "FieldSnapshot",
    "snapshot_from_state",
    "extract_profile",
    "interpolate_to_lattice",
    "front_positions",
    "front_width",
    "write_vtk_points",
]


@dataclass(frozen=True)
class FieldSnapshot:
    """Per-node fields at one time; virtual nodes are excluded."""

    time: float
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    sw: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "x", "y", "p", "Sw"])
            for k in range(len(self.x)):
                writer.writerow(
                    [
                        repr(float(self.time)),
                        repr(float(self.x[k])),
                        repr(float(self.y[k])),
                        repr(float(self.p[k])),
                        repr(float(self.sw[k])),
                    ]
                )

    @classmethod
    def read_csv(cls, path) -> "FieldSnapshot":
        """Inverse of :meth:`write_csv`; a malformed file raises :class:`GfdmFlowError`."""
        with open(path, newline="") as fh:
            try:
                rows = list(csv.reader(fh))
            except (csv.Error, UnicodeDecodeError) as exc:
                raise GfdmFlowError(f"cannot read snapshot CSV: {exc}") from exc
        if not rows or [c.strip() for c in rows[0]] != ["time", "x", "y", "p", "Sw"]:
            raise GfdmFlowError("snapshot CSV must carry header time,x,y,p,Sw")
        body = []
        for line, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            try:
                t, x, y, p, sw = values = tuple(float(v) for v in row)
            except ValueError as exc:
                raise GfdmFlowError(f"snapshot CSV line {line}: expected five numbers, got {row!r}") from exc
            if not np.all(np.isfinite(values)):
                raise GfdmFlowError(f"snapshot CSV line {line}: values must be finite, got {row!r}")
            body.append(values)
        if not body:
            raise GfdmFlowError("snapshot CSV holds no data rows")
        body = np.array(body)
        return cls(float(body[0, 0]), body[:, 1], body[:, 2], body[:, 3], body[:, 4])


def snapshot_from_state(cloud: NodeCloud, state: SimState) -> FieldSnapshot:
    keep = cloud.kinds != NodeKind.VIRTUAL
    return FieldSnapshot(
        time=state.t,
        x=cloud.positions[keep, 0].copy(),
        y=cloud.positions[keep, 1].copy(),
        p=state.p[keep].copy(),
        sw=state.sw[keep].copy(),
    )


def extract_profile(snapshot: FieldSnapshot, y_line: float, tol: float = 1e-6):
    """Nodes within ``tol`` of the horizontal line, sorted by x.

    Returns ``(x, p, sw)`` arrays; raises when the selection is empty.
    """
    mask = np.abs(snapshot.y - y_line) <= tol
    if not mask.any():
        raise GfdmFlowError(f"no nodes within {tol} of the line y = {y_line}")
    order = np.argsort(snapshot.x[mask], kind="stable")
    return snapshot.x[mask][order], snapshot.p[mask][order], snapshot.sw[mask][order]


def interpolate_to_lattice(snapshot: FieldSnapshot, domain, spacing: float, k: int = 4):
    """Inverse-distance interpolation (power 2, k nearest) onto a lattice.

    ``domain`` is a :class:`Polygon` or a :class:`NodeCloud` carrying one
    (a Cartesian cloud carries the polygon of its four corners).  Lattice
    points coincident with a node take the nodal value exactly; points
    outside the domain are marked NaN.
    Returns ``(X, Y, P, SW)`` with 2-D arrays shaped (ny, nx).
    """
    if spacing <= 0:
        raise ValueError("lattice spacing must be positive")
    if isinstance(domain, NodeCloud):
        if domain.domain is None:
            raise ValueError("cloud carries no domain geometry")
        domain = domain.domain
    verts = domain.vertices
    xs = np.arange(verts[:, 0].min(), verts[:, 0].max() + 0.5 * spacing, spacing)
    ys = np.arange(verts[:, 1].min(), verts[:, 1].max() + 0.5 * spacing, spacing)
    X, Y = np.meshgrid(xs, ys)
    P = np.full(X.shape, np.nan)
    SW = np.full(X.shape, np.nan)
    inside = np.asarray(domain.contains(X.ravel(), Y.ravel())).reshape(X.shape)
    if not inside.any():
        return X, Y, P, SW

    points = np.column_stack([snapshot.x, snapshot.y])
    tree = cKDTree(points)
    q = np.column_stack([X[inside], Y[inside]])
    k_eff = min(k, len(points))
    dist, idx = tree.query(q, k=k_eff)
    dist = np.atleast_2d(dist.reshape(len(q), k_eff))
    idx = np.atleast_2d(idx.reshape(len(q), k_eff))

    exact = dist[:, 0] < 1e-12 * max(spacing, 1.0)
    with np.errstate(divide="ignore"):
        w = 1.0 / dist**2
    w[exact] = 0.0
    w[exact, 0] = 1.0
    wsum = w.sum(axis=1)
    P[inside] = (w * snapshot.p[idx]).sum(axis=1) / wsum
    SW[inside] = (w * snapshot.sw[idx]).sum(axis=1) / wsum
    return X, Y, P, SW


def _crossing(x: np.ndarray, values: np.ndarray, level: float) -> float:
    """x-position of the last (largest-x) crossing of ``level``."""
    v = values - level
    hits = np.flatnonzero(v[:-1] * v[1:] <= 0)
    hits = hits[(v[hits] != 0) | (v[hits + 1] != 0)]
    if len(hits) == 0:
        exact = np.flatnonzero(v == 0)
        if len(exact):
            return float(x[exact[-1]])
        raise GfdmFlowError(f"profile never crosses level {level}")
    k = hits[-1]
    frac = v[k] / (v[k] - v[k + 1])
    return float(x[k] + frac * (x[k + 1] - x[k]))


def front_positions(x: np.ndarray, sw: np.ndarray, levels=(0.5,)):
    """Downstream-most crossing position of each saturation level."""
    return tuple(_crossing(x, sw, lv) for lv in levels)


def front_width(x: np.ndarray, sw: np.ndarray, high: float = 0.7, low: float = 0.3) -> float:
    """Width of the displacement front: x(sw=low) - x(sw=high) >= 0."""
    x_high, x_low = front_positions(x, sw, (high, low))
    return max(0.0, x_low - x_high)


def write_vtk_points(path, x, y, fields: dict[str, np.ndarray], title="gfdmflow fields") -> None:
    """Legacy-ASCII VTK point cloud with scalar point data."""
    x = np.asarray(x)
    y = np.asarray(y)
    n = len(x)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {n} double\n")
        for k in range(n):
            fh.write(f"{float(x[k])!r} {float(y[k])!r} 0.0\n")
        fh.write(f"POINT_DATA {n}\n")
        for name, values in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in np.asarray(values):
                fh.write(f"{float(v)!r}\n")
