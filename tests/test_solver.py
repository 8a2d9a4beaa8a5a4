import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gfdmflow import (
    FdmGrid,
    FdmSystem,
    ImplicitSystem,
    LinearSolveError,
    NodeKind,
    ReservoirModel,
    SegmentBC,
    SimState,
    TimeControl,
    TimeStepCollapseError,
    add_virtual_nodes,
    advance,
    build_operators,
    generate_cartesian_cloud,
    kro,
    krw,
    newton_step,
    simulate,
)
from gfdmflow import solver

from test_assembly import SIDES, uniform_state, waterflood_setup


def same_buffers(a, b):
    """Whether the sparse matrices (or plans) ``a`` and ``b`` share their
    very index arrays."""
    return all(
        x.__array_interface__ == y.__array_interface__ for x, y in ((a.indptr, b.indptr), (a.indices, b.indices))
    )


def small_system(mult=1.001):
    cloud, ops, model, specs = waterflood_setup(width=16.0, height=8.0, mult=mult)
    return ImplicitSystem(cloud, ops, model, specs), cloud


class ScalarProblem:
    """Toy nonlinear problem x^2 = 4 + x_old for exercising the controller."""

    def __init__(self, solvable=True):
        self.solvable = solvable

    def residual(self, x, x_old, dt):
        if not self.solvable:
            return np.array([np.inf])
        return np.array([x[0] ** 2 - 4.0 - x_old[0]])

    def residual_and_jacobian(self, x, x_old, dt):
        jac = sp.csr_matrix(np.array([[2.0 * x[0] if self.solvable else 0.0]]))
        return self.residual(x, x_old, dt), jac



class RampProblem:
    """Backward Euler on x' = 1 written nonlinearly, (x - x_old - dt)(1 + x^2)
    = 0: the solution x(t) = x(0) + t is linear in t, yet Newton from x_old
    needs more than one iteration."""

    def residual(self, x, x_old, dt):
        return (x - x_old - dt) * (1.0 + x**2)

    def residual_and_jacobian(self, x, x_old, dt):
        jac = sp.csr_matrix(np.diag(1.0 + x**2 + 2.0 * x * (x - x_old - dt)))
        return self.residual(x, x_old, dt), jac


class CappedRampProblem:
    """arctan(s (x - min(x_old + dt, cap))) = 0: x rises with t up to ``cap``
    and stays there.  Newton on arctan diverges from starts more than about
    1.39 / s from the root, so on the step that reaches the cap the
    extrapolated start overshoots and fails while x_old converges."""

    s, cap = 20.0, 0.62

    def _u(self, x, x_old, dt):
        return self.s * (x - np.minimum(x_old + dt, self.cap))

    def residual(self, x, x_old, dt):
        return np.arctan(self._u(x, x_old, dt))

    def residual_and_jacobian(self, x, x_old, dt):
        u = self._u(x, x_old, dt)
        return np.arctan(u), sp.csr_matrix(np.diag(self.s / (1.0 + u**2)))


class StartRecorder:
    """Wraps a problem and records the point of each step's first
    evaluation, of either kind, that is, where its Newton iteration starts."""

    def __init__(self, problem):
        self.problem = problem
        self.starts = []  # (x, x_old, dt) per step
        self._step = None

    def _record(self, x, x_old, dt):
        step = (x_old.tobytes(), dt)
        if step != self._step:
            self.starts.append((x.copy(), x_old.copy(), dt))
            self._step = step

    def residual(self, x, x_old, dt):
        self._record(x, x_old, dt)
        return self.problem.residual(x, x_old, dt)

    def residual_and_jacobian(self, x, x_old, dt):
        self._record(x, x_old, dt)
        return self.problem.residual_and_jacobian(x, x_old, dt)

class TestJacobian:
    def test_dirichlet_row_is_identity(self):
        system, cloud = small_system()
        x = uniform_state(cloud).to_vector()
        _, jac = system.residual_and_jacobian(x, x, 1.0)
        dense = jac.toarray()
        for c in map(int, cloud.ids_of_kind(NodeKind.DIRICHLET)):
            for row in (2 * c, 2 * c + 1):
                expected = np.zeros(len(x))
                expected[row] = 1.0
                assert np.array_equal(dense[row], expected)

    @pytest.mark.parametrize("host_p", [None, (1.0, 2.0, 3.0)], ids=["noflow", "robin-a-nonzero"])
    def test_matches_central_differences(self, host_p):
        system, cloud = small_system()
        if host_p is not None:
            # the virtual row of this host has a != 0, so its host entry is a - sum(c)
            host = int(cloud.ids_of_kind(NodeKind.ROBIN)[0])
            specs = dict(system.specs)
            specs[host] = SegmentBC("robin", p_robin=host_p, sw_robin=specs[host].sw_robin)
            system = ImplicitSystem(cloud, system.ops, system.model, specs)
        rng = np.random.default_rng(2)
        # keep pressures well separated so no upwind switch sits inside the
        # finite-difference step
        x = SimState(
            rng.uniform(10, 15, len(cloud)), rng.uniform(0.25, 0.75, len(cloud))
        ).to_vector()
        x_old = uniform_state(cloud).to_vector()
        dt = 0.5
        _, jac = system.residual_and_jacobian(x, x_old, dt)
        dense = jac.toarray()
        fd = np.zeros_like(dense)
        for k in range(len(x)):
            eps = 1e-6 * max(1.0, abs(x[k]))
            xp = x.copy()
            xp[k] += eps
            xm = x.copy()
            xm[k] -= eps
            fd[:, k] = (system.residual(xp, x_old, dt) - system.residual(xm, x_old, dt)) / (2 * eps)
        scale = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(dense - fd) / scale) <= 1e-5

    def test_tie_takes_neighbor_mobility(self):
        # at uniform pressure every pair is a tie, so each flow row's entry in
        # a neighbor's p column is that neighbor's mobility times the pair
        # coefficient
        system, cloud = small_system(mult=2.001)
        rng = np.random.default_rng(4)
        sw = rng.uniform(0.25, 0.75, len(cloud))
        x = SimState(np.full(len(cloud), 12.0), sw).to_vector()
        _, jac = system.residual_and_jacobian(x, x, 0.5)
        jac = jac.tocsr()
        pi, pj, model = system.pair_i, system.pair_j, system.model
        oil = np.asarray(jac[2 * pi, 2 * pj]).ravel()
        water = np.asarray(jac[2 * pi + 1, 2 * pj]).ravel()
        np.testing.assert_allclose(oil, system.pair_coef * kro(sw[pj], model) / system.pair_mu_o, rtol=1e-14)
        np.testing.assert_allclose(water, system.pair_coef * krw(sw[pj], model) / system.pair_mu_w, rtol=1e-14)

    def test_frozen_mobility_pressure_block_constant(self, freeze_saturation):
        freeze_saturation(0.8)
        system, cloud = small_system()
        rng = np.random.default_rng(3)
        x_old = uniform_state(cloud).to_vector()
        jacs = []
        for _ in range(2):
            x = SimState(
                rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud))
            ).to_vector()
            _, jac = system.residual_and_jacobian(x, x_old, 0.5)
            jacs.append(jac.toarray())
        assert np.array_equal(jacs[0], jacs[1])


class TestDirectSolve:
    def test_alternating_patterns_match_fresh_mmd_solve(self):
        # two patterns in turn: each call must drop the other's ordering
        rng = np.random.default_rng(8)
        systems = []
        for mult in (1.001, 2.001):
            system, cloud = small_system(mult=mult)
            x = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud))).to_vector()
            residual, jac = system.residual_and_jacobian(x, uniform_state(cloud).to_vector(), 0.5)
            systems.append((jac, -residual))
        assert systems[0][0].nnz != systems[1][0].nnz
        for jac, rhs in systems * 3:
            want = spla.splu(jac.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
            got = solver.direct_solve(jac, rhs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_result_independent_of_cached_ordering(self, monkeypatch):
        system, cloud = small_system(mult=2.001)
        x = uniform_state(cloud).to_vector()
        residual, jac = system.residual_and_jacobian(x, x, 0.5)
        warm = solver.direct_solve(jac, -residual)
        monkeypatch.setattr(solver, "_ordering", None)
        cold = solver.direct_solve(jac, -residual)
        assert np.array_equal(warm, cold)

    def test_shared_indptr_with_other_rows_is_another_pattern(self):
        indptr = np.array([0, 2, 4, 6], dtype=np.int32)
        data = np.array([4.0, 1.0, 4.0, 1.0, 1.0, 4.0])
        a = sp.csc_matrix((data, np.array([0, 1, 1, 2, 0, 2], dtype=np.int32), indptr), shape=(3, 3))
        b = sp.csc_matrix((data, np.array([0, 2, 0, 1, 1, 2], dtype=np.int32), indptr), shape=(3, 3))
        rhs = np.array([1.0, 2.0, 3.0])
        for m in (a, b, a):
            assert np.allclose(solver.direct_solve(m, rhs), np.linalg.solve(m.toarray(), rhs), rtol=1e-14)

    def test_singular_matrix_on_cached_pattern_raises(self):
        a = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
        solver.direct_solve(a, np.ones(3))
        assert solver._ordering.matches(a)
        singular = a.copy()
        singular.data[singular.indices == 2] = 0.0  # zero third row, pattern kept
        assert np.array_equal(singular.indices, a.indices)
        with pytest.raises(LinearSolveError):
            solver.direct_solve(singular, np.ones(3))


def random_linear_system(system, cloud, seed):
    """A Jacobian and Newton right-hand side at a random state."""
    rng = np.random.default_rng(seed)
    x = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud))).to_vector()
    residual, jac = system.residual_and_jacobian(x, uniform_state(cloud).to_vector(), 0.5)
    return jac, -residual


def fresh_natural_solve(jac, rhs):
    """The exact path spelled out: MMD order, then a NATURAL factorization."""
    a = jac.tocsc()
    q = np.argsort(spla.splu(a, permc_spec="MMD_AT_PLUS_A", relax=0).perm_c)
    permuted = a[q][:, q]
    permuted.sort_indices()
    delta = np.empty(len(rhs))
    delta[q] = spla.splu(permuted, permc_spec="NATURAL", relax=0).solve(rhs[q])
    return delta


class TestLaggedSolve:
    """``direct_solve`` holds a dense-fill LU and preconditions GMRES by it."""

    @pytest.fixture
    def held_system(self):
        # 40 m x 16 m at r = 3.001: 86 LU entries per unknown, above KEEP_FILL
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0, mult=3.001)
        solver._ordering = None
        yield ImplicitSystem(cloud, ops, model, specs), cloud
        solver._ordering = None

    def test_held_jacobian_returns_exact_lu_answer(self, held_system):
        jac, rhs = random_linear_system(*held_system, seed=1)
        exact = solver.direct_solve(jac, rhs)
        ordering = solver._ordering
        held = ordering.lu
        assert held is not None and same_buffers(ordering, jac)

        # the preconditioned operator is the identity: GMRES breaks down at
        # its first step and must stop there, not divide by H[1, 0]
        steps = []

        class CountingLU:
            def solve(self, v):
                steps.append(1)
                return held.solve(v)

        with np.errstate(all="raise"):
            x = solver._lagged_gmres(ordering.permuted(jac.data), rhs[ordering.q], CountingLU())
            again = solver.direct_solve(jac, rhs)
        assert steps == [1]
        assert solver._ordering is ordering and ordering.lu is held  # accepted without refactoring
        np.testing.assert_allclose(x[np.argsort(ordering.q)], exact, rtol=1e-12, atol=0)
        np.testing.assert_allclose(again, exact, rtol=1e-12, atol=0)

    def test_copied_index_arrays_keep_the_held_lu(self, held_system):
        # the held LU belongs to the pattern: a Jacobian with equal index
        # contents in fresh buffers is preconditioned by it, not refactored
        jac, rhs = random_linear_system(*held_system, seed=1)
        exact = solver.direct_solve(jac, rhs)
        ordering = solver._ordering
        held = ordering.lu
        copied = sp.csc_matrix((jac.data, jac.indices.copy(), jac.indptr.copy()), shape=jac.shape)
        assert not same_buffers(copied, jac)
        again = solver.direct_solve(copied, rhs)
        assert solver._ordering is ordering and ordering.lu is held
        np.testing.assert_allclose(again, exact, rtol=1e-12, atol=0)

    def test_exact_breakdown_stops_before_dividing(self):
        # A z = b exactly after one step, so H[1, 0] is exactly zero
        a = sp.csc_matrix(np.diag([2.0, 4.0, 8.0]))
        lu = spla.splu(a, permc_spec="NATURAL")
        with np.errstate(all="raise"):
            x = solver._lagged_gmres(a, np.array([1.0, 0.0, 0.0]), lu)
        assert np.array_equal(x, [0.5, 0.0, 0.0])

    def test_distant_held_lu_meets_residual_target(self, held_system):
        far_jac, far_rhs = random_linear_system(*held_system, seed=2)
        solver.direct_solve(far_jac, far_rhs)
        system, cloud = held_system
        # pure injection state against the random one the LU came from
        x = uniform_state(cloud, p=15.0, sw=0.8).to_vector()
        residual, jac = system.residual_and_jacobian(x, uniform_state(cloud).to_vector(), 2.0)
        assert same_buffers(solver._ordering, jac) and solver._ordering.lu is not None
        delta = solver.direct_solve(jac, -residual)
        assert np.linalg.norm(jac @ delta + residual) <= solver.GMRES_RTOL * np.linalg.norm(residual)

    def test_singular_refactorization_raises(self, held_system):
        jac, rhs = random_linear_system(*held_system, seed=3)
        solver.direct_solve(jac, rhs)
        ordering = solver._ordering
        assert ordering.lu is not None
        data = jac.data.copy()
        data[jac.indices == 7] = 0.0  # zero one row on the held index buffers
        singular = sp.csc_matrix((data, jac.indices, jac.indptr), shape=jac.shape)
        assert same_buffers(ordering, singular)
        with pytest.raises(LinearSolveError):
            solver.direct_solve(singular, np.ones(len(rhs)))
        assert solver._ordering is ordering and ordering.lu is None

    def test_low_fill_pattern_takes_exact_path(self):
        # the five-point limit (27 LU entries per unknown) stays below
        # KEEP_FILL: no LU is held and every call is a fresh NATURAL solve
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0, mult=1.001)
        system = ImplicitSystem(cloud, ops, model, specs)
        for seed in (4, 5):
            jac, rhs = random_linear_system(system, cloud, seed)
            assert np.array_equal(solver.direct_solve(jac, rhs), fresh_natural_solve(jac, rhs))
            assert solver._ordering.lu is None


def strip_system(nx=41, ny=5):
    """A small FDM strip, nodes y-fastest: its natural band is kl = ku = 2 ny + 1."""
    grid = FdmGrid(nx=nx, ny=ny, dx=1.0, dy=1.0)
    sides = {
        "left": SegmentBC.dirichlet(15.0, 0.8),
        "right": SegmentBC.dirichlet(10.0, 0.2),
        "top": SegmentBC.noflow(),
        "bottom": SegmentBC.noflow(),
    }
    system = FdmSystem(grid, ReservoirModel.uniform(grid.n_nodes), sides)
    return system, SimState(np.full(grid.n_nodes, 10.0), np.full(grid.n_nodes, 0.2)).to_vector()


def random_strip_system(system, x0, seed):
    """A strip Jacobian and Newton right-hand side at a random state."""
    rng = np.random.default_rng(seed)
    n = len(x0) // 2
    x = SimState(rng.uniform(10, 15, n), rng.uniform(0.2, 0.8, n)).to_vector()
    residual, jac = system.residual_and_jacobian(x, x0, 0.5)
    return jac, -residual


def band_matrix(n, kl, ku, seed=0):
    """A diagonally dominant CSC matrix with exactly ``kl`` and ``ku`` off-diagonals."""
    rng = np.random.default_rng(seed)
    offsets = range(-kl, ku + 1)
    diags = [rng.uniform(-1, 1, n - abs(k)) + (2.0 * (kl + ku + 1) if k == 0 else 0.0) for k in offsets]
    return sp.diags(diags, offsets, format="csc")


class TestBandedSolve:
    """``direct_solve`` factors a narrow natural band with LAPACK's ``gbsv``."""

    def test_strip_is_banded_and_clouds_are_not(self):
        system, x0 = strip_system()
        jac, rhs = random_strip_system(system, x0, seed=1)
        solver.direct_solve(jac, rhs)
        plan = solver._ordering
        assert isinstance(plan, solver._BandedPattern)
        assert (plan.kl, plan.ku) == (11, 11)
        assert plan.band.shape == (2 * 11 + 11 + 1, len(rhs)) and plan.band.flags.f_contiguous
        for mult in (1.001, 2.001):
            cloud_system, cloud = small_system(mult=mult)
            solver.direct_solve(*random_linear_system(cloud_system, cloud, seed=1))
            assert isinstance(solver._ordering, solver._FrozenOrdering)

    @pytest.mark.parametrize("extra_ku, banded", [(0, True), (1, False)])
    def test_keep_fill_bounds_the_band(self, extra_ku, banded):
        # 2 kl + ku + 1 = KEEP_FILL is the widest banded pattern
        kl = (solver.KEEP_FILL - 1) // 3
        ku = solver.KEEP_FILL - 1 - 2 * kl + extra_ku
        a = band_matrix(80, kl, ku)
        rhs = np.linspace(1.0, 2.0, 80)
        got = solver.direct_solve(a, rhs)
        assert isinstance(solver._ordering, solver._BandedPattern) == banded
        np.testing.assert_allclose(got, np.linalg.solve(a.toarray(), rhs), rtol=1e-12, atol=0)

    def test_matches_dense_solve(self):
        system, x0 = strip_system()
        for seed in (2, 3):
            jac, rhs = random_strip_system(system, x0, seed)
            want = np.linalg.solve(jac.toarray(), rhs)
            assert np.linalg.norm(solver.direct_solve(jac, rhs) - want) <= 1e-12 * np.linalg.norm(want)

    def test_same_buffers_keep_the_plan(self, monkeypatch):
        compiled = []

        def counting_compile(a):
            compiled.append(1)
            return compile_pattern(a)

        compile_pattern = solver._compile_pattern
        monkeypatch.setattr(solver, "_compile_pattern", counting_compile)
        monkeypatch.setattr(solver, "_ordering", None)
        system, x0 = strip_system()
        jac, rhs = random_strip_system(system, x0, seed=4)
        solver.direct_solve(jac, rhs)
        plan = solver._ordering
        jac2, rhs2 = random_strip_system(system, x0, seed=5)
        assert same_buffers(jac, jac2) and same_buffers(plan, jac2)
        solver.direct_solve(jac2, rhs2)
        assert solver._ordering is plan and compiled == [1]

    def test_fine_strip_shares_index_buffers(self):
        # 47 000 unknowns: above 46 340, where n**2 overflows int32, the
        # index arrays must still be int32, or scipy copies them per Jacobian
        system, x0 = strip_system(nx=4700, ny=5)
        assert system.n_unknowns == 47_000
        jac, rhs = random_strip_system(system, x0, seed=9)
        jac2, _ = random_strip_system(system, x0, seed=10)
        solver.direct_solve(jac, rhs)
        assert same_buffers(jac, jac2) and same_buffers(solver._ordering, jac2)

    def test_result_independent_of_cached_plan(self, monkeypatch):
        system, x0 = strip_system()
        jac, rhs = random_strip_system(system, x0, seed=6)
        other, other_rhs = random_strip_system(system, x0, seed=7)
        solver.direct_solve(other, other_rhs)  # leaves another factorization in the band
        warm = solver.direct_solve(jac, rhs)
        monkeypatch.setattr(solver, "_ordering", None)
        cold = solver.direct_solve(jac, rhs)
        assert np.array_equal(warm, cold)

    def test_empty_jacobian_raises(self):
        with pytest.raises(LinearSolveError):
            solver.direct_solve(sp.csc_matrix((3, 3)), np.ones(3))

    def test_singular_band_raises(self):
        system, x0 = strip_system()
        jac, rhs = random_strip_system(system, x0, seed=8)
        data = jac.data.copy()
        data[jac.indices == 7] = 0.0  # zero one row, pattern kept
        singular = sp.csc_matrix((data, jac.indices, jac.indptr), shape=jac.shape)
        with pytest.raises(LinearSolveError, match="gbsv"):
            solver.direct_solve(singular, rhs)

    def test_overflowing_update_raises(self):
        a = sp.csc_matrix(np.diag([1e-300, 1.0, 1.0]))
        with pytest.raises(LinearSolveError, match="non-finite"):
            solver.direct_solve(a, np.array([1e300, 1.0, 1.0]))
        assert isinstance(solver._ordering, solver._BandedPattern)

    def test_march_matches_fresh_superlu(self):
        system, x0 = strip_system()
        tc = TimeControl(dt_init=0.01, dt_max=0.25, t_end=5.0)
        snaps_a, report_a = simulate(system, x0, tc)
        assert isinstance(solver._ordering, solver._BandedPattern)
        snaps_b, report_b = simulate(system, x0, tc, linear_solver=fresh_natural_solve)
        assert [(s.t, s.dt, s.newton_iters) for s in report_a.steps] == [
            (s.t, s.dt, s.newton_iters) for s in report_b.steps
        ]
        assert report_a.cut_events == report_b.cut_events
        np.testing.assert_allclose(snaps_a[5.0], snaps_b[5.0], rtol=0, atol=1e-12)


class TestNewtonStep:
    def test_fixed_point_stays(self):
        system, cloud = small_system()
        x_old = uniform_state(cloud).to_vector()
        tc = TimeControl(dt_init=0.5, dt_max=0.5, t_end=1.0)
        # equilibrium with matching boundary values
        eq_specs = {
            i: SegmentBC.dirichlet(10.0, 0.2)
            if s.kind == "dirichlet"
            else s
            for i, s in system.specs.items()
        }
        eq = ImplicitSystem(system.cloud, system.ops, system.model, eq_specs)
        x1, norm = newton_step(eq, x_old, x_old, 0.5)
        assert norm <= 1e-12
        assert np.allclose(x1, x_old, atol=1e-12)

    def test_frozen_mobility_single_iteration(self, freeze_saturation):
        freeze_saturation(0.8)
        system, cloud = small_system()
        x_old = uniform_state(cloud).to_vector()
        x1, norm = newton_step(system, x_old, x_old, 0.5)
        assert norm <= 1e-12

    def test_pure_dirichlet_single_iteration(self):
        from gfdmflow import SegmentBC, build_operators, generate_cartesian_cloud

        cloud = generate_cartesian_cloud(1, 1, 1, 1, {s: "dirichlet" for s in SIDES})
        model = ReservoirModel.uniform(len(cloud))
        specs = {
            int(i): SegmentBC.dirichlet(12.0, 0.5)
            for i in cloud.ids_of_kind(NodeKind.DIRICHLET)
        }
        system = ImplicitSystem(cloud, build_operators(cloud, 2.0), model, specs)
        x0 = uniform_state(cloud, p=0.0, sw=0.0).to_vector()
        x1, norm = newton_step(system, x0, x0, 1.0)
        assert norm <= 1e-12
        assert np.allclose(x1[0::2], 12.0) and np.allclose(x1[1::2], 0.5)

    def test_singular_jacobian_raises(self):
        problem = ScalarProblem(solvable=False)
        with pytest.raises(LinearSolveError):
            newton_step(problem, np.array([1.0]), np.array([0.0]), 0.1)

    def test_custom_linear_solver_hook(self):
        problem = ScalarProblem()
        calls = []

        def dense_solver(jac, rhs):
            calls.append(1)
            return np.linalg.solve(jac.toarray(), rhs)

        x1, _ = newton_step(problem, np.array([1.0]), np.array([0.0]), 0.1, dense_solver)
        assert calls == [1]
        assert x1[0] == pytest.approx(2.5)  # one Newton step on x^2 = 4 from 1


class TestAdvance:
    def test_equilibrium_grows_dt(self, freeze_saturation):
        freeze_saturation(0.8)
        system, cloud = small_system()
        x_old = uniform_state(cloud).to_vector()
        tc = TimeControl(dt_init=0.25, dt_max=2.0, t_end=10.0)
        x, record, dt_next, cuts, restarts = advance(system, x_old, 0.0, 0.25, tc)
        assert record.newton_iters <= 1
        assert (cuts, restarts) == (0, 0)
        assert dt_next == pytest.approx(0.375)

    def test_failure_cuts_dt_then_accepts(self):
        system, cloud = small_system()
        x_old = uniform_state(cloud).to_vector()
        # cap iterations so a huge step cannot converge on the first try
        tc = TimeControl(dt_init=500.0, dt_max=500.0, t_end=1e3, max_newton=5)
        x, record, dt_next, cuts, restarts = advance(system, x_old, 0.0, 500.0, tc)
        assert cuts >= 1
        assert restarts == 0  # without a start point a failure cuts at once
        assert record.dt < 500.0

    def test_collapse_raises(self):
        problem = ScalarProblem(solvable=False)
        tc = TimeControl(dt_init=1.0, dt_max=1.0, t_end=2.0, max_newton=2, max_cuts=3)
        with pytest.raises(TimeStepCollapseError, match="collapse") as info:
            advance(problem, np.array([1.0]), 0.0, 1.0, tc)
        err = info.value
        assert (err.t, err.dt, err.node, err.variable) == (0.0, 0.125, 0, "p")
        assert "t=0: 3 cuts from dt=1 reached dt=0.125" in str(err)
        assert "worst at node 0 (p)" in str(err)

    def test_collapse_names_worst_residual(self):
        # a residual that no update moves: (p, Sw) of nodes 0 and 1, the
        # worst in node 1's Sw row
        class StuckProblem:
            def residual(self, x, x_old, dt):
                return np.array([1e-3, -2.0, 5.0, -7.0])

            def residual_and_jacobian(self, x, x_old, dt):
                return self.residual(x, x_old, dt), sp.identity(4, format="csc")

        tc = TimeControl(dt_init=2.0, dt_max=2.0, t_end=10.0, max_newton=3, max_cuts=2)
        with pytest.raises(TimeStepCollapseError, match=r"at t=4: .* worst at node 1 \(Sw\)") as info:
            advance(StuckProblem(), np.zeros(4), 4.0, 2.0, tc)
        assert (info.value.t, info.value.dt, info.value.node, info.value.variable) == (4.0, 0.5, 1, "Sw")

    @pytest.mark.parametrize("dt", [0.0, -0.5, 1.5, np.nan], ids=["zero", "negative", "above-dt-max", "nan"])
    def test_dt_outside_range_rejected(self, dt):
        tc = TimeControl(dt_init=1.0, dt_max=1.0, t_end=2.0)
        with pytest.raises(ValueError, match=r"dt must lie in \(0, dt_max\]"):
            advance(ScalarProblem(), np.array([1.0]), 0.0, dt, tc)

    def test_no_newton_iterations_rejected(self):
        # with no iteration allowed every step would be cut until collapse
        with pytest.raises(ValueError, match="max_newton"):
            TimeControl(dt_init=1.0, dt_max=1.0, t_end=2.0, max_newton=0)

    def test_convergence_at_cap_counts(self):
        class CountedProblem(ScalarProblem):
            pass

        problem = CountedProblem()
        # x0 = 0 start, root of x^2 = 4: two to three iterations from 1.0;
        # pick the cap to land exactly on the converging iteration
        tc_probe = TimeControl(dt_init=1.0, dt_max=1.0, t_end=2.0, newton_tol=1e-10, max_newton=20)
        x, record, _, _, _ = advance(problem, np.array([1.0]), 0.0, 1.0, tc_probe)
        needed = record.newton_iters
        tc_exact = TimeControl(
            dt_init=1.0, dt_max=1.0, t_end=2.0, newton_tol=1e-10, max_newton=needed
        )
        x, record, _, cuts, _ = advance(problem, np.array([1.0]), 0.0, 1.0, tc_exact)
        assert record.newton_iters == needed
        assert cuts == 0


    def test_failed_start_retries_from_x_old_at_same_dt(self):
        # from x_start = 0.9 the root 0.62 is 5.6 / s away and Newton
        # diverges; from x_old = 0.6 it is 0.4 / s away and converges
        problem = CappedRampProblem()
        tc = TimeControl(dt_init=0.3, dt_max=0.3, t_end=1.0, max_newton=8)
        x_old = np.array([0.6])
        x, record, _, cuts, restarts = advance(problem, x_old, 0.0, 0.3, tc, x_start=np.array([0.9]))
        assert (cuts, restarts) == (0, 1)
        assert record.dt == 0.3 and record.residual_norm <= tc.newton_tol
        assert x[0] == pytest.approx(0.62)
        assert x_old[0] == 0.6

class TestSimulate:
    def test_zero_end_time_returns_initial(self):
        system, cloud = small_system()
        x0 = uniform_state(cloud).to_vector()
        tc = TimeControl(dt_init=0.1, dt_max=1.0, t_end=0.0)
        snapshots, report = simulate(system, x0, tc)
        assert list(snapshots) == [0.0]
        assert report.n_steps == 0

    def test_snapshot_times_hit_exactly(self):
        system, cloud = small_system()
        x0 = uniform_state(cloud).to_vector()
        tc = TimeControl(dt_init=0.37, dt_max=1.3, t_end=5.0)
        snapshots, report = simulate(system, x0, tc, output_times=(1.0, 2.5, 5.0))
        assert set(snapshots) == {0.0, 1.0, 2.5, 5.0}
        accepted = np.cumsum([s.dt for s in report.steps])
        for target in (1.0, 2.5, 5.0):
            assert np.min(np.abs(accepted - target)) < 1e-9

    def test_deterministic_reports(self):
        def run_once():
            system, cloud = small_system()
            x0 = uniform_state(cloud).to_vector()
            tc = TimeControl(dt_init=0.01, dt_max=2.0, t_end=10.0)
            return simulate(system, x0, tc, output_times=(10.0,))

        snaps_a, report_a = run_once()
        snaps_b, report_b = run_once()
        assert report_a.steps == report_b.steps
        assert np.array_equal(snaps_a[10.0], snaps_b[10.0])

    def test_march_independent_of_held_lu(self):
        # a dense-fill pattern, so the march reuses its LU; between the two
        # marches a solve close to the march's first one leaves an LU held
        # that would precondition that first solve
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0, mult=3.001)
        system = ImplicitSystem(cloud, ops, model, specs)
        x0 = uniform_state(cloud).to_vector()
        tc = TimeControl(dt_init=0.01, dt_max=2.0, t_end=10.0)
        snaps_a, report_a = simulate(system, x0, tc)
        assert solver._ordering.lu is None
        residual, jac = system.residual_and_jacobian(x0, x0, 0.02)
        solver.direct_solve(jac, -residual)
        assert solver._ordering.lu is not None
        snaps_b, report_b = simulate(system, x0, tc)
        assert report_a.steps == report_b.steps
        assert np.array_equal(snaps_a[10.0], snaps_b[10.0])

    def test_first_factorization_never_preconditions(self, monkeypatch):
        # the initial state's LU serves its own solve and is released: no
        # lagged solve of the march is preconditioned by it
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0, mult=3.001)
        system = ImplicitSystem(cloud, ops, model, specs)
        factorizations, preconditioners = [], []
        splu, lagged_gmres = solver.spla.splu, solver._lagged_gmres

        def recording_splu(a, permc_spec=None, **kwargs):
            lu = splu(a, permc_spec=permc_spec, **kwargs)
            if permc_spec == "NATURAL":
                factorizations.append(lu)
            return lu

        def recording_lagged_gmres(a, b, lu):
            preconditioners.append(lu)
            return lagged_gmres(a, b, lu)

        monkeypatch.setattr(solver.spla, "splu", recording_splu)
        monkeypatch.setattr(solver, "_lagged_gmres", recording_lagged_gmres)
        tc = TimeControl(dt_init=0.01, dt_max=2.0, t_end=10.0)
        simulate(system, uniform_state(cloud).to_vector(), tc)
        assert len(factorizations) >= 2 and preconditioners
        assert all(lu is not factorizations[0] for lu in preconditioners)

    def test_march_without_factorization_leaves_solves_holding(self):
        # the release is armed for a march only: a march that ends before
        # factoring anything leaves the next solve's LU held
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0, mult=3.001)
        system = ImplicitSystem(cloud, ops, model, specs)
        x0 = uniform_state(cloud).to_vector()
        simulate(system, x0, TimeControl(dt_init=0.01, dt_max=2.0, t_end=0.0))
        residual, jac = system.residual_and_jacobian(x0, x0, 0.02)
        solver.direct_solve(jac, -residual)
        assert solver._ordering.lu is not None

    def test_failed_march_drops_held_lu(self):
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0, mult=3.001)

        class FailingSystem(ImplicitSystem):
            calls = 0

            def residual_and_jacobian(self, x, x_old, dt):
                self.calls += 1
                if self.calls > 2:
                    raise RuntimeError("assembly failed")
                return super().residual_and_jacobian(x, x_old, dt)

        system = FailingSystem(cloud, ops, model, specs)
        tc = TimeControl(dt_init=0.01, dt_max=2.0, t_end=10.0)
        with pytest.raises(RuntimeError, match="assembly failed"):
            simulate(system, uniform_state(cloud).to_vector(), tc)
        assert system.calls == 3
        assert isinstance(solver._ordering, solver._FrozenOrdering) and solver._ordering.lu is None

    def test_report_totals_and_csv(self, tmp_path):
        system, cloud = small_system()
        x0 = uniform_state(cloud).to_vector()
        tc = TimeControl(dt_init=0.1, dt_max=1.0, t_end=2.0)
        _, report = simulate(system, x0, tc)
        assert report.total_newton_iterations == sum(s.newton_iters for s in report.steps)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t,dt,newton_iters,residual_norm"
        assert len(lines) == 1 + report.n_steps



class TestExtrapolatedStart:
    def test_linear_solution_needs_no_iteration(self):
        # a tight tolerance puts the first step within round-off of the line;
        # the extrapolation would carry a looser step's error forward
        tc = TimeControl(dt_init=0.1, dt_max=1.0, t_end=10.0, newton_tol=1e-10)
        snapshots, report = simulate(RampProblem(), np.array([1.0]), tc, output_times=(0.33, 5.0))
        iters = [s.newton_iters for s in report.steps]
        assert iters[0] >= 2
        assert iters[2:] == [0] * (len(iters) - 2)
        assert all(s.residual_norm <= tc.newton_tol for s in report.steps)
        assert snapshots[10.0][0] == pytest.approx(11.0, abs=1e-9)

    def test_diverging_start_restarts_without_cut(self):
        problem = CappedRampProblem()
        tc = TimeControl(dt_init=0.05, dt_max=0.2, t_end=1.2, max_newton=8)
        snapshots, report = simulate(problem, np.zeros(1), tc)
        assert (report.cut_events, report.restarts) == (0, 1)
        # the sixth step reaches the cap and restarts, yet takes the full dt_max
        assert [s.dt for s in report.steps] == pytest.approx([0.05, 0.075, 0.1125, 0.16875, 0.2, 0.2, 0.2, 0.19375])
        assert all(s.residual_norm <= tc.newton_tol for s in report.steps)
        assert snapshots[1.2][0] == pytest.approx(problem.cap)

    def test_start_factor_bounded_and_marches_start_at_x0(self):
        problem = StartRecorder(RampProblem())
        x0 = np.array([1.0])
        # the 0.33 d snapshot clips the third step to 0.08 d, so the fourth
        # extrapolates with the full factor dt_grow
        tc = TimeControl(dt_init=0.1, dt_max=1.0, t_end=4.0)
        reports = [simulate(problem, x0, tc, output_times=(0.33,))[1] for _ in range(2)]
        assert reports[0].steps == reports[1].steps
        n = reports[0].n_steps
        assert len(problem.starts) == 2 * n
        factors = []
        for march in (problem.starts[:n], problem.starts[n:]):
            x, x_old, _ = march[0]
            assert np.array_equal(x, x0) and np.array_equal(x_old, x0)
            for (_, x_prev, _), (x, x_old, _) in zip(march, march[1:]):
                factors.append(((x - x_old) / (x_old - x_prev))[0])
        dts = [s.dt for s in reports[0].steps]
        assert dts[2] == pytest.approx(0.08)
        assert max(factors) <= tc.dt_grow * (1 + 1e-9)
        assert factors[2] == pytest.approx(tc.dt_grow)
        assert factors[: n - 1] == pytest.approx([b / a for a, b in zip(dts, dts[1:])])

class TestPhysicalBounds:
    def test_pressure_extremum_and_saturation_bounds(self):
        cloud, ops, model, specs = waterflood_setup(width=40.0, height=16.0)
        system = ImplicitSystem(cloud, ops, model, specs)
        x0 = SimState(np.full(len(cloud), 10.0), np.full(len(cloud), 0.2)).to_vector()
        tc = TimeControl(dt_init=0.01, dt_max=2.0, t_end=30.0)
        snapshots, _ = simulate(system, x0, tc, output_times=(30.0,))
        state = SimState.from_vector(snapshots[30.0], 30.0)
        real = cloud.kinds != NodeKind.VIRTUAL
        assert np.all(state.p[real] >= 10.0 - 1e-2)
        assert np.all(state.p[real] <= 15.0 + 1e-2)
        assert np.all(state.sw[real] >= 0.2 - 1e-3)
        assert np.all(state.sw[real] <= 0.8 + 1e-3)
