"""Fully-implicit time marching: Newton iterations with adaptive step control.

Works against any problem object exposing

    residual(x, x_old, dt) -> ndarray
    residual_and_jacobian(x, x_old, dt) -> (ndarray, sparse matrix)

so the meshless system and the reference finite-difference system share a
single Newton/time-stepping implementation.  Convergence is tested on the
infinity norm of the full residual vector (pressure and saturation rows
jointly); time-step cutting is the sole globalization mechanism.

Each step after a march's first starts Newton from the linear
extrapolation of the last two accepted states, the usual predictor of
implicit integrators (Hairer & Wanner, Solving Ordinary Differential
Equations II, 2nd ed., 1996, section IV.8); on the 4 m water flood most
steps then converge in one iteration instead of two.  If Newton fails from
that start, the step is retried once from the previous state at the same
``dt`` (a restart) before any cut.

The linear solve is an LU on a frozen pattern.  The assembly returns CSC
Jacobians that share one set of index arrays over a whole march, so
:func:`direct_solve` compiles a plan once per pattern.  A pattern whose
natural band is narrow, as on the FDM strip, is factored in LAPACK band
storage (``gbsv``).  Any other pattern takes SuperLU: its fill-reducing
column order is computed once, and the symmetrically permuted matrix is
factored in natural order, without relaxed supernodes.  Where that LU fills
densely it is kept and preconditions GMRES on the next Jacobians of the
march (a lagged preconditioner in the sense of Knoll & Keyes, J. Comput.
Phys. 193, 2004, section 3); a new factorization is made only when that
misses its residual target.  The pattern's plan holds that LU, so a solve
depends on the LU held from earlier solves of the same pattern, but
:func:`simulate` starts every march without one and drops it at the end:
a march's result does not depend on what ran before it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgbsv

from .errors import LinearSolveError, TimeStepCollapseError

__all__ = ["TimeControl", "StepRecord", "SolverReport", "newton_step", "advance", "simulate"]


@dataclass(frozen=True)
class TimeControl:
    """Adaptive backward-Euler controls.

    Defaults follow the shipped scenario configurations: growth 1.5 and cut
    0.5 around a tolerance of 1e-6 on the residual infinity norm.
    """

    dt_init: float
    dt_max: float
    t_end: float
    newton_tol: float = 1e-6
    max_newton: int = 20
    dt_grow: float = 1.5
    dt_cut: float = 0.5
    max_cuts: int = 10

    def __post_init__(self):
        broken = _broken_time_rules(self)
        if broken:
            raise ValueError(broken[0])


def _broken_time_rules(tc) -> list[str]:
    """The message of each time-control rule that ``tc`` breaks, in order.

    ``tc`` is anything with :class:`TimeControl`'s field names, such as a
    :class:`~gfdmflow.config.ScenarioConfig`.  Each predicate names the
    broken case, so a NaN fails only the rules written as ``not (...)``.
    """
    rules = (
        (not (0 < tc.dt_init <= tc.dt_max), "need 0 < dt_init <= dt_max"),
        (tc.t_end < 0, "t_end must be nonnegative"),
        (tc.newton_tol <= 0, "newton_tol must be positive"),
        (tc.max_newton < 1, "max_newton must be at least 1"),
        (not (tc.dt_grow > 1 > tc.dt_cut > 0), "need dt_grow > 1 > dt_cut > 0"),
    )
    return [message for broken, message in rules if broken]


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    newton_iters: int
    residual_norm: float


@dataclass
class SolverReport:
    steps: list[StepRecord] = field(default_factory=list)
    cut_events: int = 0
    restarts: int = 0

    @property
    def total_newton_iterations(self) -> int:
        return sum(s.newton_iters for s in self.steps)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "t", "dt", "newton_iters", "residual_norm"])
            for k, s in enumerate(self.steps):
                writer.writerow([k, repr(s.t), repr(s.dt), s.newton_iters, repr(s.residual_norm)])


@dataclass(eq=False)
class _Plan:
    """The index arrays of one CSC pattern (kept alive, so their addresses
    are not reused), how each solve on it goes, and the LU that solves keep
    for the next ones, if any: only a SuperLU plan keeps one."""

    indptr: np.ndarray
    indices: np.ndarray
    lu: spla.SuperLU | None = field(default=None, kw_only=True)

    def matches(self, a) -> bool:
        # Same buffers (the assembly shares its index arrays across calls),
        # else same contents.
        return all(
            mine.__array_interface__ == theirs.__array_interface__ or np.array_equal(mine, theirs)
            for mine, theirs in ((self.indptr, a.indptr), (self.indices, a.indices))
        )


@dataclass(eq=False)
class _FrozenOrdering(_Plan):
    """Fill-reducing symmetric permutation ``q`` of one CSC pattern, with the
    permuted pattern and the map that gathers ``A[q][:, q].data`` from
    ``A.data``."""

    q: np.ndarray
    perm_indptr: np.ndarray
    perm_indices: np.ndarray
    perm_data_map: np.ndarray

    @classmethod
    def compile(cls, a) -> "_FrozenOrdering":
        # SuperLU's column order Pc (A Pc = A[:, q]) from one MMD factorization
        q = np.argsort(spla.splu(a, permc_spec="MMD_AT_PLUS_A", relax=0).perm_c)
        slots = sp.csc_matrix((np.arange(a.nnz, dtype=a.indices.dtype), a.indices, a.indptr), shape=a.shape)
        slots = slots[q][:, q]
        slots.sort_indices()
        return cls(a.indptr, a.indices, q, slots.indptr, slots.indices, slots.data)

    def permuted(self, data: np.ndarray):
        n = len(self.q)
        return sp.csc_matrix((data[self.perm_data_map], self.perm_indices, self.perm_indptr), shape=(n, n))

    def solve(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        permuted, b = self.permuted(data), rhs[self.q]
        y = None if self.lu is None else _lagged_gmres(permuted, b, self.lu)
        if y is None:
            self.lu = None  # released before the new factorization
            lu = spla.splu(permuted, permc_spec="NATURAL", relax=0)
            y = lu.solve(b)
            if lu.nnz > KEEP_FILL * len(b):
                self.lu = lu
        x = np.empty(len(rhs))
        x[self.q] = y
        return x


@dataclass(eq=False)
class _BandedPattern(_Plan):
    """A CSC pattern with a narrow natural band: ``kl`` sub- and ``ku``
    super-diagonals, the slot of each entry of ``A.data`` in LAPACK band
    storage, and the band array itself (Fortran order), which every solve
    refills and ``gbsv`` factors in place."""

    kl: int
    ku: int
    slots: np.ndarray
    band: np.ndarray

    @classmethod
    def compile(cls, a, kl: int, ku: int) -> "_BandedPattern":
        # A[i, j] sits at band[kl + ku + i - j, j]; slots index the band's
        # Fortran-order storage, column j starting at j * (2 kl + ku + 1)
        rows = 2 * kl + ku + 1
        cols = _columns(a).astype(np.intp)
        slots = (kl + ku + a.indices - cols) + cols * rows
        return cls(a.indptr, a.indices, kl, ku, slots, np.zeros((rows, a.shape[1]), order="F"))

    def solve(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        band = self.band
        band.fill(0.0)
        band.reshape(-1, order="F")[self.slots] = data
        _, _, x, info = dgbsv(self.kl, self.ku, band, rhs, overwrite_ab=1)
        if info != 0:
            raise LinearSolveError(f"banded factorization failed: LAPACK gbsv info {info}")
        return x


def _columns(a) -> np.ndarray:
    """The column of each stored entry of the CSC matrix ``a``."""
    return np.repeat(np.arange(a.shape[1], dtype=a.indices.dtype), np.diff(a.indptr))


def _compile_pattern(a) -> _Plan:
    """The plan of a new pattern: banded when LAPACK's band LU needs at most
    ``KEEP_FILL`` entries per unknown (``2 kl + ku + 1``), else SuperLU on
    a frozen fill-reducing order."""
    offsets = a.indices - _columns(a)
    kl, ku = int(offsets.max(initial=0)), int(-offsets.min(initial=0))
    del offsets  # not held through the MMD factorization, a march's memory peak
    if 2 * kl + ku + 1 <= KEEP_FILL:
        return _BandedPattern.compile(a, kl, ku)
    return _FrozenOrdering.compile(a)


# One rule for cheap LUs.  A pattern whose natural band needs at most this
# many entries per unknown is factored banded, and a SuperLU factorization
# is kept for reuse only when it holds more than this many.  Measured natural
# band (2 kl + ku + 1) / SuperLU LU entries per unknown: 34 / 20 on the FDM
# strip, 6402 / 190 on the 4 m cloud at r = 2.001 (72 and 396 LU entries at
# r = 1.001 and 3.001), 25 574 / 144 on the polygon.  Below it a
# factorization is cheap next to the per-step cost of the Krylov loop.
KEEP_FILL = 40
# The lagged solve gives up after this many GMRES steps (one triangular solve
# pair and one product with the Jacobian each) and factors afresh; an
# accepted solve takes about eight on the 4 m cloud at r = 2.001.
GMRES_STEPS = 10
# A lagged solve is accepted only on a true residual ||b - A x|| at or below
# this share of ||b||, far below the Newton tolerance's scale.
GMRES_RTOL = 1e-10


# The plan of the most recent pattern, with the LU it holds: a Newton march
# solves one frozen pattern over and over.  :func:`simulate` drops the held
# LU when a march starts and when it ends.
_ordering: _Plan | None = None


def _lagged_gmres(a, b: np.ndarray, lu) -> np.ndarray | None:
    """GMRES from zero on ``a x = b``, right-preconditioned by an older LU.

    Classical Gram-Schmidt applied twice builds the Arnoldi basis; Givens
    rotations keep the least-squares residual ``|g[j+1]|`` at hand.  The loop
    stops at ``GMRES_STEPS`` or when that estimate meets ``GMRES_RTOL``; a
    breakdown (``H[j+1, j] = 0``, as when ``lu`` factors ``a`` itself) zeroes
    the estimate, so the loop stops before dividing by it.  Returns ``x``
    when the true residual meets ``GMRES_RTOL``, else ``None``.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    V = np.empty((GMRES_STEPS + 1, len(b)))
    Z = np.empty((GMRES_STEPS, len(b)))
    R = np.zeros((GMRES_STEPS, GMRES_STEPS))
    cs, sn = np.empty(GMRES_STEPS), np.empty(GMRES_STEPS)
    g = np.zeros(GMRES_STEPS + 1)
    g[0] = beta
    V[0] = b / beta
    for j in range(GMRES_STEPS):
        Z[j] = lu.solve(V[j])
        w = a @ Z[j]
        h = V[: j + 1] @ w
        w -= h @ V[: j + 1]
        dh = V[: j + 1] @ w
        w -= dh @ V[: j + 1]
        h += dh
        h_next = np.linalg.norm(w)
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        r = np.hypot(h[j], h_next)
        if r == 0.0:
            return None
        cs[j], sn[j] = h[j] / r, h_next / r
        h[j] = r
        R[: j + 1, j] = h
        g[j + 1] = -sn[j] * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= GMRES_RTOL * beta:
            break
        V[j + 1] = w / h_next
    k = j + 1
    x = solve_triangular(R[:k, :k], g[:k]) @ Z[:k]
    if np.linalg.norm(b - a @ x) <= GMRES_RTOL * beta:
        return x
    return None


def direct_solve(jac, rhs):
    """Default linear solver: an LU on a plan compiled once per sparsity
    pattern, banded where the natural band is narrow, else sparse on a
    frozen fill-reducing ordering and reused across the solves of a march.

    One plan is kept, keyed on the index arrays of ``jac``: the same
    buffers, else equal contents.  A new pattern's plan reads its natural
    band, ``kl`` sub- and ``ku`` super-diagonals, off the index arrays.

    When LAPACK's band LU needs at most ``KEEP_FILL`` entries per unknown
    (``2 kl + ku + 1``: 34 on the FDM strip, thousands on the node clouds),
    the plan maps ``jac.data`` into band storage.  Each call zeroes the
    plan's band array, scatters the data into it and solves with ``gbsv``,
    in natural order; nothing is held between calls.

    Any other pattern is factored once with SuperLU's ``MMD_AT_PLUS_A``
    order; the plan inverts its column permutation to ``q`` and compiles
    the map from ``jac.data`` to the data of ``jac[q][:, q]``.  Each call
    factors that permuted matrix in ``NATURAL`` order without relaxed
    supernodes (``relax=0``: relaxed supernodes keep the fill but take
    about 8x the time on jittered clouds).  A factorization with more than
    ``KEEP_FILL`` entries per unknown is held by the plan, so it is tied to
    the pattern, not to the buffers that carry it.  The next call on that
    pattern first runs :func:`_lagged_gmres` preconditioned by it and
    factors afresh only when that misses ``GMRES_RTOL`` within
    ``GMRES_STEPS``; the new LU replaces the old one, which is released
    first.  A sparser LU is never held, so such patterns take the exact path
    on every call.  The answer thus depends on the held LU; :func:`simulate`
    drops it when a march starts and ends, so a march's result does not
    depend on what ran before it.

    Raises :class:`LinearSolveError` when the factorization fails (a
    Jacobian without stored entries included) or the update is not finite.
    """
    global _ordering
    a = jac.tocsc()
    a.sum_duplicates()
    try:
        if _ordering is None or not _ordering.matches(a):
            _ordering = None  # the old plan and its LU go before the new one is compiled
            _ordering = _compile_pattern(a)
        delta = _ordering.solve(a.data, rhs)
    except (RuntimeError, ValueError) as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(delta)):
        raise LinearSolveError("linear solve produced non-finite update")
    return delta


def newton_step(problem, x_k: np.ndarray, x_old: np.ndarray, dt: float, linear_solver=direct_solve):
    """One full Newton update; returns the new iterate and its residual norm.

    ``linear_solver(jac, rhs)`` may be swapped for an iterative alternative
    without any other API change; it must raise :class:`LinearSolveError`
    on failure.
    """
    residual, jac = problem.residual_and_jacobian(x_k, x_old, dt)
    delta = linear_solver(jac, -residual)
    x_next = x_k + delta
    norm = float(np.linalg.norm(problem.residual(x_next, x_old, dt), ord=np.inf))
    return x_next, norm


def advance(
    problem, x_old: np.ndarray, t: float, dt: float, tc: TimeControl, linear_solver=direct_solve, x_start=None
):
    """Advance one accepted time step, cutting dt on Newton failure.

    Returns ``(x_new, record, dt_next, cuts, restarts)``.  The first
    attempt's Newton loop starts from ``x_start``, or from ``x_old`` when it
    is ``None``.  If an attempt from ``x_start`` fails, one more runs from
    ``x_old`` at the same ``dt``; it counts as a restart (``restarts`` is 1),
    not as a cut.  Every later attempt cuts ``dt`` and starts from ``x_old``.
    Convergence at exactly ``max_newton`` iterations counts as success.
    After ``max_cuts`` consecutive cuts a :class:`TimeStepCollapseError` is
    raised with diagnostics.
    """
    if not (0 < dt <= tc.dt_max):
        raise ValueError("dt must lie in (0, dt_max]")
    cuts = 0
    restarts = 0
    while True:
        x = (x_old if x_start is None else x_start).copy()
        iters = 0
        norm = float(np.linalg.norm(problem.residual(x, x_old, dt), ord=np.inf))
        try:
            while norm > tc.newton_tol and iters < tc.max_newton:
                x, norm = newton_step(problem, x, x_old, dt, linear_solver)
                iters += 1
        except LinearSolveError:
            pass  # norm keeps its last value, which is above the tolerance
        if norm <= tc.newton_tol:
            record = StepRecord(t=t + dt, dt=dt, newton_iters=iters, residual_norm=norm)
            dt_next = min(dt * tc.dt_grow, tc.dt_max)
            return x, record, dt_next, cuts, restarts
        if x_start is not None:
            x_start = None
            restarts += 1
            continue
        cuts += 1
        if cuts > tc.max_cuts:
            raise TimeStepCollapseError(
                f"time step collapse at t={t:.6g}: {tc.max_cuts} cuts from "
                f"dt={dt / tc.dt_cut ** (cuts - 1):.3g} reached dt={dt:.3g}, "
                f"last residual norm {norm:.3e}"
            )
        dt = dt * tc.dt_cut


def simulate(problem, x0: np.ndarray, tc: TimeControl, output_times=(), linear_solver=direct_solve):
    """March from t=0 to ``t_end`` with snapshots at the requested times.

    Snapshot times are hit exactly by clipping the step size (never by
    interpolation).  Returns ``(snapshots, report)`` where ``snapshots`` maps
    time to the state vector; the initial state is always included at t=0.

    The march's first step starts Newton at ``x0``.  Every later step starts
    at the linear extrapolation ``x + (dt_step / dt_prev) (x - x_prev)`` of
    the last two accepted states, where ``dt_prev`` is the last accepted
    step and ``dt_step`` the one about to be taken.  :func:`advance` grows
    the step it took by at most ``dt_grow``, so the factor never exceeds
    that.  The start point is not clipped to physical bounds and never
    carries over from another march.
    Deterministic for fixed inputs: the march starts without a held LU and
    drops the one :func:`direct_solve` holds when it ends, also on error.
    """
    targets = sorted({float(t) for t in output_times if 0.0 < t <= tc.t_end} | ({tc.t_end} if tc.t_end > 0 else set()))
    snapshots: dict[float, np.ndarray] = {0.0: x0.copy()}
    report = SolverReport()
    x = x0.copy()
    x_prev = dt_prev = None
    t = 0.0
    dt = tc.dt_init
    eps = 1e-9 * max(tc.t_end, 1.0)
    next_idx = 0
    _drop_held_lu()
    try:
        while t < tc.t_end - eps:
            dt_step = min(dt, tc.dt_max)
            if next_idx < len(targets):
                dt_step = min(dt_step, targets[next_idx] - t)
            x_start = None if x_prev is None else x + (dt_step / dt_prev) * (x - x_prev)
            x_new, record, dt, cuts, restarts = advance(problem, x, t, dt_step, tc, linear_solver, x_start)
            x_prev, x, dt_prev = x, x_new, record.dt
            report.steps.append(record)
            report.cut_events += cuts
            report.restarts += restarts
            t = record.t
            while next_idx < len(targets) and t >= targets[next_idx] - eps:
                snapshots[targets[next_idx]] = x.copy()
                next_idx += 1
    finally:
        _drop_held_lu()
    return snapshots, report


def _drop_held_lu() -> None:
    if _ordering is not None:
        _ordering.lu = None
