from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gfdmflow import (
    FdmGrid,
    FdmSystem,
    ImplicitSystem,
    NodeKind,
    ReservoirModel,
    SegmentBC,
    SetupError,
    SimState,
    add_virtual_nodes,
    build_operators,
    generate_cartesian_cloud,
    load_config,
)
from gfdmflow.pipeline import assign_boundary_specs, build_cloud, build_model

from conftest import make_cloud
from oracle import oracle_residual
from test_fdm import SIDES as FDM_SIDES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SIDES = {"left": "dirichlet", "right": "dirichlet", "top": "robin", "bottom": "robin"}


def waterflood_setup(width=16.0, height=8.0, dx=4.0, mult=1.001):
    cloud = generate_cartesian_cloud(
        width, height, dx, dx, SIDES
    )
    cloud = add_virtual_nodes(cloud, dx)
    r_e = mult * np.sqrt(2.0) * dx
    ops = build_operators(cloud, r_e)
    model = ReservoirModel.uniform(len(cloud))
    specs = {}
    for i in cloud.ids_of_kind(NodeKind.DIRICHLET):
        inflow = cloud.positions[i, 0] == 0.0
        specs[int(i)] = SegmentBC.dirichlet(15.0 if inflow else 10.0, 0.8 if inflow else 0.2)
    for i in cloud.ids_of_kind(NodeKind.ROBIN):
        specs[int(i)] = SegmentBC.noflow()
    return cloud, ops, model, specs


def uniform_state(cloud, p=10.0, sw=0.2, t=0.0):
    return SimState(np.full(len(cloud), p), np.full(len(cloud), sw), t)


def residual(state_new, state_old, dt, cloud, ops, model, specs):
    """Residual of a freshly built :class:`ImplicitSystem`."""
    system = ImplicitSystem(cloud, ops, model, specs)
    return system.residual(state_new.to_vector(), state_old.to_vector(), dt)


class TestRowStructure:
    def test_row_count_matches_node_budget(self):
        cloud, ops, model, specs = waterflood_setup()
        state = uniform_state(cloud)
        r = residual(state, state, 1.0, cloud, ops, model, specs)
        n1, n2, n3 = (len(cloud.ids_of_kind(k)) for k in (NodeKind.INTERIOR, NodeKind.DIRICHLET, NodeKind.ROBIN))
        assert len(r) == 2 * (n1 + n2 + n3 + n3)

    def test_all_dirichlet_two_by_two(self):
        cloud = generate_cartesian_cloud(1, 1, 1, 1, {s: "dirichlet" for s in SIDES})
        model = ReservoirModel.uniform(len(cloud))
        specs = {
            int(i): SegmentBC.dirichlet(12.0, 0.5)
            for i in cloud.ids_of_kind(NodeKind.DIRICHLET)
        }
        ops = build_operators(cloud, 2.0)  # no flow nodes: nothing to build
        state = uniform_state(cloud, p=12.0, sw=0.5)
        system = ImplicitSystem(cloud, ops, model, specs)
        x = state.to_vector()
        r = system.residual(x, x, 1.0)
        assert len(r) == 8
        assert np.allclose(r, 0.0)
        # each row touches exactly its own unknown
        _, jac = system.residual_and_jacobian(x, x, 1.0)
        assert np.array_equal(jac.toarray(), np.eye(8))

    def test_unknown_kind_or_missing_spec_rejected(self):
        cloud, ops, model, specs = waterflood_setup()
        bad = dict(specs)
        first_dirichlet = int(cloud.ids_of_kind(NodeKind.DIRICHLET)[0])
        del bad[first_dirichlet]
        with pytest.raises(SetupError):
            ImplicitSystem(cloud, ops, model, bad)

    def test_operators_of_another_cloud_rejected(self):
        cloud, _, model, specs = waterflood_setup()
        # a wider cloud's table covers node ids this cloud lacks; a narrower one misses some
        _, wider, _, _ = waterflood_setup(width=24.0)
        with pytest.raises(SetupError, match=r"missing \[\], extra \[12, "):
            ImplicitSystem(cloud, wider, model, specs)
        _, narrower, _, _ = waterflood_setup(width=12.0)
        with pytest.raises(SetupError, match=r"missing \[9, 10, 11\], extra \[\]"):
            ImplicitSystem(cloud, narrower, model, specs)

    def test_radius_too_small_for_virtual(self):
        cloud = generate_cartesian_cloud(24, 16, 4, 4, SIDES)
        cloud = add_virtual_nodes(cloud, 12.0)  # farther than the radius reaches
        model = ReservoirModel.uniform(len(cloud))
        ops = build_operators(cloud, 9.0)
        specs = {}
        for i in cloud.ids_of_kind(NodeKind.DIRICHLET):
            specs[int(i)] = SegmentBC.dirichlet(10.0, 0.2)
        for i in cloud.ids_of_kind(NodeKind.ROBIN):
            specs[int(i)] = SegmentBC.noflow()
        with pytest.raises(SetupError, match="radius too small|outside the stencil"):
            ImplicitSystem(cloud, ops, model, specs)
        # a host without its robin spec is named before the radius
        first_host = int(cloud.hosts[cloud.ids_of_kind(NodeKind.VIRTUAL)[0]])
        del specs[first_host]
        with pytest.raises(SetupError, match=f"robin node {first_host} needs Robin triples"):
            ImplicitSystem(cloud, ops, model, specs)


def _row_by_row(cloud, ops, specs):
    """The constant-row arrays built one row at a time: each Dirichlet node's
    value rows, then each virtual node's two rows over its host's stencil,
    with ``a - sum(coefs)`` from a one-row ``np.sum``."""
    rows = []  # (row, a, ref, g, cols, coefs)
    for c in map(int, cloud.ids_of_kind(NodeKind.DIRICHLET)):
        bc = specs[c]
        rows += [(2 * c + k, 1.0, 2 * c + k, g, [], []) for k, g in enumerate((bc.p_value, bc.sw_value))]
    for b in map(int, cloud.ids_of_kind(NodeKind.VIRTUAL)):
        host = int(cloud.hosts[b])
        stencil, coef = ops.stencils[host], ops.rows[host]
        normal = cloud.normals[host]
        cdir = normal[0] * coef[0] + normal[1] * coef[1]
        for k, (a, c, g) in enumerate((specs[host].p_robin, specs[host].sw_robin)):
            rows.append((2 * b + k, a, 2 * host + k, g, 2 * stencil.neighbors + k, c * cdir))
    return _row_arrays(rows)


def _row_arrays(rows):
    n_terms = [len(cols) for *_, cols, _ in rows]
    return {
        "row": np.array([r[0] for r in rows], dtype=np.int64),
        "row_ref": np.array([r[2] for r in rows], dtype=np.int64),
        "row_a": np.array([r[1] for r in rows], dtype=float),
        "row_g": np.array([r[3] for r in rows], dtype=float),
        "ref_coef": np.array([r[1] - np.sum(r[5]) if len(r[5]) else r[1] for r in rows], dtype=float),
        "term_row": np.repeat(np.array([r[0] for r in rows], dtype=np.int64), n_terms),
        "term_ref": np.repeat(np.array([r[2] for r in rows], dtype=np.int64), n_terms),
        "term_col": np.array([c for r in rows for c in r[4]], dtype=np.int64),
        "term_coef": np.array([c for r in rows for c in r[5]], dtype=float),
    }


def _assert_rows_equal(system, want):
    for name, array in want.items():
        got = getattr(system, name)
        assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name


def _robin_specs(cloud):
    """Dirichlet values and distinct, nonzero robin triples per boundary node."""
    specs = {}
    for i in map(int, cloud.ids_of_kind(NodeKind.DIRICHLET)):
        specs[i] = SegmentBC.dirichlet(10.0 + 0.1 * i, 0.2 + 1e-3 * i)
    for i in map(int, cloud.ids_of_kind(NodeKind.ROBIN)):
        specs[i] = SegmentBC("robin", p_robin=(0.1 * i, 1.0 + i, 3.0), sw_robin=(0.5, 1.0 / (1 + i), 0.1 * i))
    return specs


class TestConstantRows:
    """The constant rows from array passes against the row-at-a-time
    construction, byte for byte."""

    @pytest.mark.parametrize("mult", [1.001, 2.001])
    def test_cartesian_virtual_rows(self, mult):
        cloud, ops, model, _ = waterflood_setup(mult=mult)
        specs = _robin_specs(cloud)
        _assert_rows_equal(ImplicitSystem(cloud, ops, model, specs), _row_by_row(cloud, ops, specs))

    def test_polygon_mixed_stencil_sizes(self):
        config = load_config(CONFIGS / "waterflood_polygon.cfg")
        cloud = build_cloud(config)
        ops = build_operators(cloud, config.influence_radius())
        specs = _robin_specs(cloud)
        assert cloud.n_virtual > 0 and len(set(np.diff(ops.indptr))) > 5
        system = ImplicitSystem(cloud, ops, build_model(config, len(cloud)), specs)
        _assert_rows_equal(system, _row_by_row(cloud, ops, specs))

    def test_all_dirichlet(self):
        cloud = generate_cartesian_cloud(2, 1, 1, 1, {s: "dirichlet" for s in SIDES})
        specs = _robin_specs(cloud)
        ops = build_operators(cloud, 2.0)
        system = ImplicitSystem(cloud, ops, ReservoirModel.uniform(len(cloud)), specs)
        _assert_rows_equal(system, _row_by_row(cloud, ops, specs))

    def test_fdm_held_sides(self):
        grid = FdmGrid(nx=6, ny=4, dx=4.0, dy=4.0)
        sides = {**FDM_SIDES, "left": SegmentBC.dirichlet(20.0, 0.8), "right": SegmentBC.dirichlet(5.0, 0.3)}
        system = FdmSystem(grid, ReservoirModel.uniform(grid.n_nodes), sides)
        ix, iy = np.divmod(np.arange(grid.n_nodes), grid.ny)
        held = [(i, sides["left" if x == 0 else "right"]) for i, x in enumerate(ix.tolist()) if x in (0, grid.nx - 1)]
        rows = [(2 * i + k, 1.0, 2 * i + k, g, [], []) for i, bc in held for k, g in enumerate((bc.p_value, bc.sw_value))]
        _assert_rows_equal(system, _row_arrays(rows))


class TestResidualValues:
    def test_uniform_equilibrium_is_zero(self):
        cloud, ops, model, specs = waterflood_setup()
        state = uniform_state(cloud, p=10.0, sw=0.2)
        # boundary rows vanish only when the prescribed values match
        eq_specs = {
            i: SegmentBC.dirichlet(10.0, 0.2)
            if s.kind == "dirichlet"
            else s
            for i, s in specs.items()
        }
        assert np.all(residual(state, state, 0.5, cloud, ops, model, eq_specs) == 0.0)

    def test_flow_residual_zero_for_linear_pressure(self):
        cloud, ops, model, specs = waterflood_setup()
        state = uniform_state(cloud)
        state.p = 15.0 - cloud.positions[:, 0] / 10.0
        state.sw = np.full(len(cloud), 0.8)
        interior = int(cloud.ids_of_kind(NodeKind.INTERIOR)[1])
        r = residual(state, state, 1.0, cloud, ops, model, specs)
        r_oil, r_water = r[2 * interior], r[2 * interior + 1]
        assert abs(r_oil) < 1e-10
        assert abs(r_water) < 1e-10

    def test_three_node_line_hand_computed(self):
        """1-D three-node chain against a by-hand evaluation of the scheme."""
        cloud = make_cloud(
            # the chain, then off-line padding so the 5-unknown fit is determined
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1.0), (1.5, 1.0), (0.5, -1.0), (1.5, -1.0)],
            [NodeKind.DIRICHLET, NodeKind.INTERIOR, NodeKind.DIRICHLET] + [NodeKind.INTERIOR] * 4,
            h=1.0,
        )
        ops = build_operators(cloud, 2.3)
        model = ReservoirModel.uniform(len(cloud))
        state_new = SimState(
            np.array([15.0, 12.0, 10.0, 12.0, 12.0, 12.0, 12.0]),
            np.array([0.8, 0.5, 0.2, 0.5, 0.5, 0.5, 0.5]),
        )
        state_old = SimState(state_new.p.copy(), np.array([0.8, 0.45, 0.2, 0.5, 0.5, 0.5, 0.5]))
        dt = 0.25

        specs = {
            0: SegmentBC.dirichlet(15.0, 0.8),
            2: SegmentBC.dirichlet(10.0, 0.2),
        }
        r_oil, r_water = residual(state_new, state_old, dt, cloud, ops, model, specs)[2:4]

        # direct spreadsheet-style evaluation at node 1
        stencil = ops.stencils[1]
        rows = ops.rows[1]
        flux_o = flux_w = 0.0
        for k, j in enumerate(stencil.neighbors):
            j = int(j)
            lap = rows[2, k] + rows[3, k]
            s_up = state_new.sw[j] if state_new.p[j] >= state_new.p[1] else state_new.sw[1]
            s_eff = min(max(s_up, 0.2), 0.8)
            krw_up = ((s_eff - 0.2) / 0.6) ** 2
            kro_up = ((0.8 - s_eff) / 0.6) ** 2
            dp = state_new.p[j] - state_new.p[1]
            flux_o += 0.0864 * 100.0 * kro_up / 10.0 * lap * dp
            flux_w += 0.0864 * 100.0 * krw_up / 2.0 * lap * dp
        acc_o = 0.3 * ((1 - 0.5) - (1 - 0.45)) / dt
        acc_w = 0.3 * (0.5 - 0.45) / dt
        assert r_oil == pytest.approx(flux_o - acc_o, abs=1e-12)
        assert r_water == pytest.approx(flux_w - acc_w, abs=1e-12)

    def test_dirichlet_residual_cases(self):
        cloud = generate_cartesian_cloud(1, 1, 1, 1, {s: "dirichlet" for s in SIDES})
        model = ReservoirModel.uniform(len(cloud))
        ops = build_operators(cloud, 2.0)
        specs = {i: SegmentBC.dirichlet(15.0, 0.8) for i in range(len(cloud))}
        state = SimState(np.array([15.0, 10.0, 10.0, 10.0]), np.array([0.8, 0.2, 0.2, 0.2]))
        r = residual(state, state, 1.0, cloud, ops, model, specs)
        assert r[0] == 0.0  # p at node 0
        assert r[2] == -5.0  # p at node 1
        assert r[3] == pytest.approx(-0.6)  # Sw at node 1


class TestRobinRows:
    def setup_robin(self):
        cloud, ops, model, specs = waterflood_setup()
        robin = int(cloud.ids_of_kind(NodeKind.ROBIN)[1])
        virtual = int(np.flatnonzero(cloud.hosts == robin)[0])
        return cloud, ops, model, specs, robin, virtual

    @staticmethod
    def p_row(state, cloud, ops, model, specs, virtual):
        """The virtual node's pressure row: its host's condition on p."""
        return residual(state, state, 1.0, cloud, ops, model, specs)[2 * virtual]

    def test_noflow_constant_field(self):
        cloud, ops, model, specs, robin, virtual = self.setup_robin()
        state = uniform_state(cloud, p=13.0, sw=0.4)
        r = self.p_row(state, cloud, ops, model, specs, virtual)
        assert r == pytest.approx(0.0, abs=1e-14)

    def test_noflow_x_only_field(self):
        cloud, ops, model, specs, robin, virtual = self.setup_robin()
        state = uniform_state(cloud)
        state.p = 1.0 + 3.0 * cloud.positions[:, 0]
        r = self.p_row(state, cloud, ops, model, specs, virtual)
        assert r == pytest.approx(0.0, abs=1e-8)

    def test_value_form_reduces_to_dirichlet(self):
        cloud, ops, model, specs, robin, virtual = self.setup_robin()
        specs[robin] = SegmentBC("robin", p_robin=(1.0, 0.0, 5.0), sw_robin=(0.0, 1.0, 0.0))
        state = uniform_state(cloud)
        state.p[robin] = 7.0
        r = self.p_row(state, cloud, ops, model, specs, virtual)
        assert r == pytest.approx(2.0)


class TestOracleEquivalence:
    def test_dense_oracle_small_cloud(self):
        cloud, ops, model, specs = waterflood_setup(width=16.0, height=8.0)
        assert len(cloud) <= 30
        rng = np.random.default_rng(17)
        state_new = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        state_old = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        got = residual(state_new, state_old, 0.7, cloud, ops, model, specs)
        want = oracle_residual(cloud, ops, model, specs, state_new, state_old, 0.7)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_oracle_on_larger_radius(self):
        cloud, ops, model, specs = waterflood_setup(width=16.0, height=8.0, mult=2.001)
        rng = np.random.default_rng(23)
        state_new = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        state_old = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        got = residual(state_new, state_old, 2.0, cloud, ops, model, specs)
        want = oracle_residual(cloud, ops, model, specs, state_new, state_old, 2.0)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestStructuralProperties:
    def test_deterministic_reassembly(self):
        cloud, ops, model, specs = waterflood_setup()
        rng = np.random.default_rng(5)
        state_new = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        state_old = uniform_state(cloud)
        a = residual(state_new, state_old, 1.0, cloud, ops, model, specs)
        b = residual(state_new, state_old, 1.0, cloud, ops, model, specs)
        assert np.array_equal(a, b)

    def test_fixed_sparsity_across_states(self):
        cloud, ops, model, specs = waterflood_setup()
        system = ImplicitSystem(cloud, ops, model, specs)
        rng = np.random.default_rng(9)
        x_old = uniform_state(cloud).to_vector()
        patterns = []
        for _ in range(3):
            x = SimState(
                rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud))
            ).to_vector()
            _, jac = system.residual_and_jacobian(x, x_old, 0.5)
            patterns.append((jac.indptr.copy(), jac.indices.copy()))
        for indptr, indices in patterns[1:]:
            assert np.array_equal(indptr, patterns[0][0])
            assert np.array_equal(indices, patterns[0][1])

    @pytest.mark.parametrize("case", ["r1.001", "r2.001", "polygon", "fdm"])
    def test_jacobian_path_returns_the_residual(self, case):
        # residual() and residual_and_jacobian() are one evaluation: the dual
        # values are computed with the plain run's arithmetic, bit for bit
        if case == "fdm":
            grid = FdmGrid(nx=11, ny=5, dx=4.0, dy=4.0)
            system = FdmSystem(grid, ReservoirModel.uniform(grid.n_nodes), FDM_SIDES)
        elif case == "polygon":
            config = load_config(CONFIGS / "waterflood_polygon.cfg").with_overrides(spacing=8.0, radius_absolute=16.0)
            cloud = build_cloud(config)
            ops = build_operators(cloud, config.influence_radius())
            model = build_model(config, len(cloud))
            system = ImplicitSystem(cloud, ops, model, assign_boundary_specs(cloud, config))
        else:
            system = ImplicitSystem(*waterflood_setup(mult=float(case[1:])))
        n = system.n_nodes
        rng = np.random.default_rng(17)
        for _ in range(3):
            x = SimState(rng.uniform(10, 15, n), rng.uniform(0.1, 0.9, n)).to_vector()
            x_old = SimState(rng.uniform(10, 15, n), rng.uniform(0.1, 0.9, n)).to_vector()
            dt = rng.uniform(0.1, 3.0)
            r = system.residual(x, x_old, dt)
            rj, _ = system.residual_and_jacobian(x, x_old, dt)
            assert r.tobytes() == rj.tobytes()

    def test_oil_water_sum_cancels_accumulation(self):
        # with Cr = 0 and q = 0 the saturation accumulation cancels in the
        # phase sum, leaving the total-mobility pressure operator
        cloud, ops, model, specs = waterflood_setup()
        rng = np.random.default_rng(31)
        state_new = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        state_old = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        dt = 0.3
        r = residual(state_new, state_old, dt, cloud, ops, model, specs)
        from gfdmflow.physics import UNIT_ALPHA, kro, krw, pair_transmissibility_parts, upwind_nodes

        for i in map(int, cloud.ids_of_kind(NodeKind.INTERIOR)[:20]):
            stencil = ops.stencils[i]
            lap = ops.rows[i][2] + ops.rows[i][3]
            nbr = stencil.neighbors
            k_h, mu_o, mu_w = pair_transmissibility_parts(np.full(len(nbr), i), nbr, model)
            sw_up = state_new.sw[upwind_nodes(state_new.p[nbr] - state_new.p[i], np.full(len(nbr), i), nbr)]
            lam_o, lam_w = kro(sw_up, model) / mu_o, krw(sw_up, model) / mu_w
            total = float(
                np.sum(UNIT_ALPHA * k_h * (lam_o + lam_w) * lap * (state_new.p[nbr] - state_new.p[i]))
            )
            assert r[2 * i] + r[2 * i + 1] == pytest.approx(total, abs=1e-12)


def argsort_layout(system):
    """The CSC layout ``(indptr, indices, slot)`` of ``system``'s pattern by
    one stable argsort over every contribution's ``col * n + row`` key."""
    rows, cols = system._pattern()
    n = system.n_unknowns
    keys = cols * n + rows
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([[True], keys[1:] != keys[:-1]])
    slot = np.empty(len(keys), dtype=np.intp)
    slot[order] = np.cumsum(first) - 1
    unique = keys[first]
    return np.searchsorted(unique, np.arange(n + 1) * n), unique % n, slot


class TestCompiledCsc:
    """The Jacobian is scattered into a CSC layout compiled once per system."""

    @pytest.mark.parametrize("case", ["meshless", "fdm", "jittered"])
    def test_layout_matches_argsort_oracle(self, case):
        # the pair tangents' diagonal blocks take the accumulation's slots
        # unsorted; the layout must equal the one sort over everything
        if case == "fdm":
            grid = FdmGrid(nx=11, ny=5, dx=4.0, dy=4.0)
            system = FdmSystem(grid, ReservoirModel.uniform(grid.n_nodes), FDM_SIDES)
        elif case == "jittered":
            config = load_config(CONFIGS / "waterflood_polygon.cfg").with_overrides(spacing=8.0, radius_absolute=16.0)
            cloud = build_cloud(config)
            ops = build_operators(cloud, config.influence_radius())
            model = build_model(config, len(cloud))
            system = ImplicitSystem(cloud, ops, model, assign_boundary_specs(cloud, config))
        else:
            system = ImplicitSystem(*waterflood_setup(mult=2.001))
            # both kinds of constant row: Dirichlet (ref == row) and virtual
            assert np.any(system.row == system.row_ref) and np.any(system.row != system.row_ref)
        indptr, indices, slot = system._compile_csc()
        want = argsort_layout(system)
        assert indptr.dtype == indices.dtype == np.int32 and slot.dtype == np.intp
        for got, wanted in zip((indptr, indices, slot), want):
            assert np.array_equal(got, wanted)

    @staticmethod
    def scatter_and_scipy(mult):
        """The evaluator's CSC Jacobian, SciPy's COO->CSC of the same
        contributions, and the COO matrix of those contributions, for the
        meshless system at radius multiple ``mult`` or, if None, the FDM one."""
        if mult is None:
            grid = FdmGrid(nx=6, ny=4, dx=4.0, dy=4.0)
            system = FdmSystem(grid, ReservoirModel.uniform(grid.n_nodes), FDM_SIDES)
            n_nodes = grid.n_nodes
        else:
            cloud, ops, model, specs = waterflood_setup(mult=mult)
            system = ImplicitSystem(cloud, ops, model, specs)
            n_nodes = len(cloud)
        rng = np.random.default_rng(41)
        x = SimState(rng.uniform(10, 15, n_nodes), rng.uniform(0.2, 0.8, n_nodes)).to_vector()
        x_old = SimState(rng.uniform(10, 15, n_nodes), rng.uniform(0.2, 0.8, n_nodes)).to_vector()
        contributions = []
        scatter = system._scatter
        system._scatter = lambda data: contributions.append(data) or scatter(data)
        _, jac = system.residual_and_jacobian(x, x_old, 0.4)
        coo = sp.coo_matrix((contributions[0], system._pattern()), shape=jac.shape)
        want = coo.tocsc()
        assert jac.format == "csc"
        assert np.array_equal(jac.indptr, want.indptr)
        assert np.array_equal(jac.indices, want.indices)
        return jac, want, coo

    @staticmethod
    def reordering_bound(coo):
        """Per CSC entry of ``coo``, the error of summing its k terms in
        another order, (k - 1) eps sum|terms|."""
        abs_sum = sp.coo_matrix((np.abs(coo.data), (coo.row, coo.col)), shape=coo.shape).tocsc().data
        terms = sp.coo_matrix((np.ones(coo.nnz), (coo.row, coo.col)), shape=coo.shape).tocsc().data
        return (terms - 1) * np.finfo(float).eps * abs_sum

    @pytest.mark.parametrize("mult", [1.001, None], ids=["meshless", "fdm"])
    def test_scatter_matches_scipy_within_one_ulp(self, mult):
        # SciPy sorts a column of at most 16 COO entries by insertion sort,
        # which is stable, so it adds repeated entries in COO order, as the
        # scatter does: equal bits.  A longer column is sorted by introsort,
        # which is not stable, so there only the reordering bound holds.
        jac, want, coo = self.scatter_and_scipy(mult)
        short = np.repeat(np.bincount(coo.col, minlength=coo.shape[1]) <= 16, np.diff(jac.indptr))
        assert short.any() and not short.all()
        assert np.array_equal(jac.data[short], want.data[short])
        assert np.all(np.abs(jac.data - want.data)[~short] <= self.reordering_bound(coo)[~short])

    def test_scatter_matches_scipy_wide_stencil(self):
        # SciPy sorts columns longer than 16 entries with an unstable sort, so
        # it adds repeated entries in another order: bound the difference by
        # the reordering error of summing k terms.
        jac, want, coo = self.scatter_and_scipy(2.001)
        assert np.all(np.abs(jac.data - want.data) <= self.reordering_bound(coo))

    def test_layout_compiled_once_and_shared(self):
        cloud, ops, model, specs = waterflood_setup()
        system = ImplicitSystem(cloud, ops, model, specs)
        x = uniform_state(cloud).to_vector()
        assert system._csc is None  # nothing compiled at set-up
        _, a = system.residual_and_jacobian(x, x, 0.5)
        _, b = system.residual_and_jacobian(x, x, 0.5)
        assert np.shares_memory(a.indices, b.indices)
        assert np.shares_memory(a.indptr, b.indptr)
