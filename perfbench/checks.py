"""Correctness checks made at the end of every workload execution.

Each check compares the program's output with a computation made here, apart
from the solver (Buckley-Leverett front, point-in-polygon, quadratic
exactness), or tests a property the method must have (bounds, monotonicity,
strip invariance, Newton convergence).  None compares with a stored copy of
the program's output.  Every check returns a list of problems; an empty list
means it passed.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from gfdmflow.cloud import NodeKind

# Darcy flux constant for m, day, MPa, mPa*s and mD, taking 1 mD as 1e-15 m^2:
# 1e-15 m^2 * 1e6 Pa/MPa / (1e-3 Pa*s/mPa*s) * 86400 s/day.
DARCY_UNIT = 1e-15 * 1e6 / 1e-3 * 86400.0

# Criterion 8's tolerances on the pressure and saturation bounds.
P_TOL = 1e-2
SW_TOL = 1e-3
# The Sw = 0.5 crossing may trail the semi-analytic front by this many node
# spacings: first-order upwinding smears the shock.  Measured lags are 1.5 h
# (4 m cloud, r = 2.001, 500 d) and about 1 h (0.5 m strip, 50 d).
FRONT_TOL_SPACINGS = 3.0
# Rows of the y-independent strip must agree to round-off.
STRIP_TOL = 1e-9
# Relative error allowed when an operator row differentiates a quadratic.
QUADRATIC_TOL = 1e-8


def _fractional_flow(s, mu_o, mu_w):
    """Water fractional flow f and df/ds of quadratic relative permeabilities
    in the normalized saturation s."""
    a, b = s**2 / mu_w, (1.0 - s) ** 2 / mu_o
    da, db = 2.0 * s / mu_w, -2.0 * (1.0 - s) / mu_o
    return a / (a + b), (da * b - a * db) / (a + b) ** 2


def buckley_leverett_front(config, t: float, level: float = 0.5) -> float:
    """x where Sw = ``level`` in the 1-D Buckley-Leverett solution at time t.

    Incompressible water flood of a homogeneous slab of length ``width``,
    fixed pressures at both ends, the inlet at Sw = 1 - Sor.  The Welge
    tangent gives the shock saturation; the swept zone's resistance grows
    linearly with the front position, so the front obeys
    ``B L x + (A - B) x^2 / 2 = c t``, which is solved in closed form.
    """
    mu_o, mu_w = config.oil_viscosity, config.water_viscosity
    swc, sor = config.connate_water, config.residual_oil
    span = 1.0 - swc - sor
    lo, hi = 1e-9, 1.0
    for _ in range(200):  # Welge tangent: f(s) = s f'(s), f - s f' < 0 above it
        mid = 0.5 * (lo + hi)
        f, df = _fractional_flow(mid, mu_o, mu_w)
        lo, hi = (mid, hi) if f - mid * df < 0.0 else (lo, mid)
    s_f = 0.5 * (lo + hi)
    _, df_f = _fractional_flow(s_f, mu_o, mu_w)

    s = np.linspace(s_f, 1.0, 200001)
    _, df = _fractional_flow(s, mu_o, mu_w)
    inv_mobility = 1.0 / (s**2 / mu_w + (1.0 - s) ** 2 / mu_o)
    xi = df / df_f  # position in the swept zone as a share of the front's
    A = float(np.sum(0.5 * (inv_mobility[1:] + inv_mobility[:-1]) * -np.diff(xi)))
    B = mu_o  # unswept oil at connate water
    length = config.width
    p_in = config.boundaries["left"].p_value
    p_out = config.boundaries["right"].p_value
    c = DARCY_UNIT * config.permeability * (p_in - p_out) * df_f / (config.porosity * span)
    x_f = (B * length - np.sqrt((B * length) ** 2 - 2.0 * (B - A) * c * t)) / (B - A)

    s_level = (level - swc) / span
    if s_level <= s_f:
        return float(x_f)
    return float(x_f * _fractional_flow(s_level, mu_o, mu_w)[1] / df_f)


def _last_crossing(x, v, level) -> float:
    d = v - level
    hits = np.flatnonzero((d[:-1] >= 0) & (d[1:] < 0))
    if len(hits) == 0:
        return float("nan")
    k = hits[-1]
    return float(x[k] + d[k] / (d[k] - d[k + 1]) * (x[k + 1] - x[k]))


def _bounds_problems(config, p, sw) -> list[str]:
    dirichlet = [b.p_value for b in config.boundaries.values() if b.kind == "dirichlet"]
    p_lo = min(dirichlet + [config.initial_pressure])
    p_hi = max(dirichlet + [config.initial_pressure])
    sw_lo, sw_hi = config.connate_water, 1.0 - config.residual_oil
    problems = []
    if p.min() < p_lo - P_TOL or p.max() > p_hi + P_TOL:
        problems.append(f"p in [{p.min():.6g}, {p.max():.6g}] leaves [{p_lo:g}, {p_hi:g}]")
    if sw.min() < sw_lo - SW_TOL or sw.max() > sw_hi + SW_TOL:
        problems.append(f"Sw in [{sw.min():.6g}, {sw.max():.6g}] leaves [{sw_lo:g}, {sw_hi:g}]")
    return problems


def _mid_line_problems(wl, ex) -> list[str]:
    snap = ex.snapshot
    on_line = np.abs(snap.y - wl.mid_line) <= 1e-6
    order = np.argsort(snap.x[on_line], kind="stable")
    x, p, sw = snap.x[on_line][order], snap.p[on_line][order], snap.sw[on_line][order]
    problems = []
    if len(x) < 2:
        return [f"no mid-line nodes at y = {wl.mid_line:g}"]
    if np.any(np.diff(p) > P_TOL) or np.any(np.diff(sw) > SW_TOL):
        problems.append("p or Sw increases along the mid-line")
    h = ex.setup.mesh.h if wl.fdm is None else ex.setup.mesh.dx
    got = _last_crossing(x, sw, 0.5)
    want = buckley_leverett_front(ex.setup.config, snap.time)
    if not abs(got - want) <= FRONT_TOL_SPACINGS * h:
        problems.append(f"Sw = 0.5 front at {got:.3f} m, Buckley-Leverett {want:.3f} m (h = {h:g} m)")
    return problems


def _strip_problems(ex) -> list[str]:
    grid = ex.setup.mesh
    final = ex.states[max(ex.states)]
    problems = []
    for name, field in (("p", final.p), ("Sw", final.sw)):
        rows = field.reshape(grid.nx, grid.ny)
        spread = float(np.max(np.abs(rows - rows[:, [grid.ny // 2]])))
        if spread > STRIP_TOL:
            problems.append(f"strip rows of {name} differ by {spread:.3e}")
    return problems


def _newton_problems(ex) -> list[str]:
    tol = ex.setup.config.newton_tol
    bad = [s for s in ex.report.steps if not s.residual_norm <= tol]
    if bad:
        return [f"{len(bad)} accepted steps end above newton_tol, first at t={bad[0].t:g}"]
    return []


def _edge_distance(vertices, x, y):
    """Distance from each point to the polygon boundary."""
    best = np.full(np.shape(x), np.inf)
    for (x1, y1), (x2, y2) in zip(vertices, np.roll(vertices, -1, axis=0)):
        ex, ey = x2 - x1, y2 - y1
        t = np.clip(((x - x1) * ex + (y - y1) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        best = np.minimum(best, np.hypot(x - x1 - t * ex, y - y1 - t * ey))
    return best


def _winding(vertices, x, y):
    """Winding number of the polygon around each point (not on an edge)."""
    wn = np.zeros(np.shape(x), dtype=int)
    for (x1, y1), (x2, y2) in zip(vertices, np.roll(vertices, -1, axis=0)):
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        wn += ((y1 <= y) & (y2 > y) & (cross > 0)).astype(int)
        wn -= ((y1 > y) & (y2 <= y) & (cross < 0)).astype(int)
    return wn


def _polygon_problems(ex) -> list[str]:
    vertices = np.asarray(ex.setup.config.vertices, dtype=float)
    cloud = ex.setup.mesh
    h = cloud.h
    problems = []

    interior = cloud.positions[cloud.kinds == NodeKind.INTERIOR]
    ix, iy = interior[:, 0], interior[:, 1]
    if not np.all((_winding(vertices, ix, iy) != 0) & (_edge_distance(vertices, ix, iy) > 0.0)):
        problems.append("an interior node is not strictly inside the polygon")
    real = cloud.positions[cloud.kinds != NodeKind.VIRTUAL]
    dist, _ = cKDTree(real).query(interior, k=2)
    if dist[:, 1].min() < 0.5 * h:
        problems.append(f"interior nodes {dist[:, 1].min():.4g} m apart, below 0.5 h")

    X, Y, P, _SW = ex.lattice
    inside = (_winding(vertices, X, Y) != 0) | (_edge_distance(vertices, X, Y) <= 1e-9)
    if not np.array_equal(np.isnan(P), ~inside):
        problems.append("lattice NaN mask differs from the point-in-polygon test")
    return problems


def _quadratic_problems(ex, rng) -> list[str]:
    """Every operator row must differentiate a random quadratic exactly."""
    c = rng.uniform(-2.0, 2.0, size=6)
    pos = ex.setup.mesh.positions
    x, y = pos[:, 0], pos[:, 1]
    q = c[0] + c[1] * x + c[2] * y + c[3] * x**2 + c[4] * y**2 + c[5] * x * y
    worst = 0.0
    for i, rows in ex.setup.ops.rows.items():
        nbr = ex.setup.ops.stencils[i].neighbors
        want = np.array(
            [
                c[1] + 2 * c[3] * x[i] + c[5] * y[i],
                c[2] + 2 * c[4] * y[i] + c[5] * x[i],
                2 * c[3],
                2 * c[4],
                c[5],
            ]
        )
        got = rows @ (q[nbr] - q[i])
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
    if worst > QUADRATIC_TOL:
        return [f"operator rows miss a quadratic's derivatives by {worst:.3e} (relative)"]
    return []


def check_execution(wl, ex, rng) -> list[str]:
    """All checks that apply to the workload; ``rng`` seeds the quadratic."""
    final = ex.states[max(ex.states)]
    problems = _newton_problems(ex) + _bounds_problems(ex.setup.config, ex.snapshot.p, ex.snapshot.sw)
    if final.t != wl.t_end:
        problems.append(f"run ended at t={final.t:g}, not {wl.t_end:g}")
    if wl.mid_line is not None:
        problems += _mid_line_problems(wl, ex)
    if wl.fdm is not None:
        problems += _strip_problems(ex)
    if ex.setup.ops is not None:
        problems += _quadratic_problems(ex, rng)
    if wl.lattice is not None:
        problems += _polygon_problems(ex)
    return problems
