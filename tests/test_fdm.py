import math
from pathlib import Path

import numpy as np
import pytest

from gfdmflow import (
    FdmGrid,
    FdmSystem,
    NodeKind,
    ReservoirModel,
    SegmentBC,
    SetupError,
    SimState,
    TimeControl,
    add_virtual_nodes,
    build_operators,
    generate_cartesian_cloud,
    load_config,
    read_cloud_csv,
    relative_error,
    run_fdm_scenario,
    run_scenario,
    simulate,
)
from gfdmflow.pipeline import assign_boundary_specs, build_cloud, build_model, fdm_side_specs

from conftest import waterflood_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CLOSED = SegmentBC.noflow()

SIDES = {
    "left": SegmentBC.dirichlet(15.0, 0.8),
    "right": SegmentBC.dirichlet(10.0, 0.2),
    "top": CLOSED,
    "bottom": CLOSED,
}


class TestGrid:
    def test_positions_are_lattice(self):
        grid = FdmGrid(nx=3, ny=2, dx=4.0, dy=2.0)
        pos = grid.positions()
        assert pos.shape == (6, 2)
        assert (0.0, 0.0) in map(tuple, pos)
        assert (8.0, 2.0) in map(tuple, pos)

    def test_validation(self):
        with pytest.raises(SetupError):
            FdmGrid(nx=1, ny=3, dx=1.0, dy=1.0)
        with pytest.raises(SetupError):
            FdmGrid(nx=3, ny=3, dx=0.0, dy=1.0)


class TestRunFdm:
    def test_equilibrium_preserved(self):
        grid = FdmGrid(nx=5, ny=3, dx=4.0, dy=4.0)
        model = ReservoirModel.uniform(grid.n_nodes)
        sides = {
            "left": SegmentBC.dirichlet(10.0, 0.2),
            "right": SegmentBC.dirichlet(10.0, 0.2),
            "top": CLOSED,
            "bottom": CLOSED,
        }
        tc = TimeControl(dt_init=0.5, dt_max=2.0, t_end=10.0)
        x0 = SimState(np.full(grid.n_nodes, 10.0), np.full(grid.n_nodes, 0.2)).to_vector()
        raw, _ = simulate(FdmSystem(grid, model, sides), x0, tc)
        final = SimState.from_vector(raw[10.0], 10.0)
        assert np.max(np.abs(final.p - 10.0)) <= 1e-12
        assert np.max(np.abs(final.sw - 0.2)) <= 1e-12

    def test_waterflood_y_symmetry(self):
        grid = FdmGrid(nx=11, ny=5, dx=4.0, dy=4.0)
        model = ReservoirModel.uniform(grid.n_nodes)
        tc = TimeControl(dt_init=0.01, dt_max=2.0, t_end=40.0)
        x0 = SimState(np.full(grid.n_nodes, 10.0), np.full(grid.n_nodes, 0.2)).to_vector()
        raw, _ = simulate(FdmSystem(grid, model, SIDES), x0, tc)
        final = SimState.from_vector(raw[40.0], 40.0)
        sw = final.sw.reshape(grid.nx, grid.ny)
        p = final.p.reshape(grid.nx, grid.ny)
        assert np.max(np.abs(sw - sw[:, ::-1])) <= 1e-10
        assert np.max(np.abs(p - p[:, :1])) <= 1e-10

    def test_missing_side_spec(self):
        grid = FdmGrid(nx=3, ny=3, dx=1.0, dy=1.0)
        model = ReservoirModel.uniform(grid.n_nodes)
        with pytest.raises(SetupError, match="side"):
            FdmSystem(grid, model, {"left": CLOSED})


class TestBoundaryConsistency:
    """The reference runs Dirichlet and closed sides; it refuses the rest."""

    @staticmethod
    def config_with_top(bc):
        boundaries = {**waterflood_config().boundaries, "top": bc}
        return waterflood_config(t_end=2.0, output_times=(2.0,), boundaries=boundaries)

    def test_general_robin_side_rejected(self):
        config = self.config_with_top(SegmentBC("robin", p_robin=(1.0, 1.0, 5.0), sw_robin=(1.0, 1.0, 5.0)))
        with pytest.raises(SetupError, match="side top"):
            run_fdm_scenario(config)

    @pytest.mark.parametrize("run", [run_scenario, run_fdm_scenario], ids=["gfdm", "fdm"])
    def test_vacuous_robin_side_rejected(self, run):
        config = self.config_with_top(SegmentBC("robin", p_robin=(0.0, 0.0, 0.0), sw_robin=(0.0, 0.0, 0.0)))
        with pytest.raises(SetupError, match="constrains nothing"):
            run(config)

    def test_zero_flux_robin_side_is_noflow(self):
        robin = SegmentBC("robin", p_robin=(0.0, 1.0, 0.0), sw_robin=(0.0, 1.0, 0.0))
        _, states, report = run_fdm_scenario(self.config_with_top(robin))
        _, want_states, want_report = run_fdm_scenario(self.config_with_top(SegmentBC.noflow()))
        assert report.steps == want_report.steps
        assert np.array_equal(states[2.0].p, want_states[2.0].p)
        assert np.array_equal(states[2.0].sw, want_states[2.0].sw)


class TestScenarioSetupErrors:
    def test_fdm_needs_rectangle(self):
        config = load_config(CONFIGS / "waterflood_polygon.cfg")
        with pytest.raises(SetupError, match="needs a rectangular domain"):
            run_fdm_scenario(config)

    def test_fdm_spacing_must_divide_width(self):
        config = load_config(CONFIGS / "waterflood_4m.cfg")
        with pytest.raises(SetupError, match="must divide the domain width"):
            run_fdm_scenario(config, dx=3.0)

    @pytest.mark.parametrize("strip_ny", [None, 3], ids=["full-height", "strip"])
    def test_fdm_dy_must_divide_full_height(self, strip_ny):
        # 3 m does not divide the 80 m height; a strip keeps any height
        config = load_config(CONFIGS / "waterflood_4m.cfg").with_overrides(t_end=0.1, output_times=(0.1,))
        if strip_ny is None:
            with pytest.raises(SetupError, match="must divide the domain height"):
                run_fdm_scenario(config, dy=3.0)
        else:
            grid, states, _ = run_fdm_scenario(config, dy=3.0, strip_ny=strip_ny)
            assert (grid.ny, grid.dy) == (strip_ny, 3.0) and max(states) == 0.1

    def test_csv_node_off_every_edge(self):
        # the fixture's boundary row runs from x = -2, left of the rectangle
        path = CONFIGS / "fixtures" / "layout_single_virtual_row.csv"
        with pytest.raises(SetupError, match=r"boundary node 0 at \(-2.0, 0.0\) matches no boundary segment"):
            assign_boundary_specs(read_cloud_csv(path), waterflood_config())


class TestCornerRule:
    """A corner between two sides of the same kind takes the vertical side's
    condition on every cloud, as the reference does."""

    @pytest.mark.parametrize("cloud_type", ["cartesian", "irregular"])
    @pytest.mark.parametrize(
        "left, bottom",
        [
            (SegmentBC.dirichlet(20.0, 0.8), SegmentBC.dirichlet(5.0, 0.3)),
            (
                SegmentBC("robin", p_robin=(1.0, 2.0, 3.0), sw_robin=(0.5, 1.5, 0.1)),
                SegmentBC("robin", p_robin=(2.0, 1.0, 4.0), sw_robin=(1.0, 1.0, 0.2)),
            ),
        ],
        ids=["dirichlet", "robin"],
    )
    def test_corner_takes_left_side(self, cloud_type, left, bottom):
        boundaries = {**waterflood_config().boundaries, "left": left, "bottom": bottom}
        config = waterflood_config(cloud_type=cloud_type, spacing=4.0, boundaries=boundaries)
        cloud = build_cloud(config)
        corner = int(np.flatnonzero((cloud.positions == 0.0).all(axis=1))[0])
        spec = assign_boundary_specs(cloud, config)[corner]
        assert spec == fdm_side_specs(config)["left"]
        if left.kind == "dirichlet":
            grid = FdmGrid(nx=11, ny=5, dx=4.0, dy=4.0)
            system = FdmSystem(grid, build_model(config, grid.n_nodes), fdm_side_specs(config))
            held = [system.row_g[system.row == 2 * grid.index(0, 0) + k][0] for k in (0, 1)]
            assert held == [spec.p_value, spec.sw_value] == [20.0, 0.8]


class TestDegeneracyCrossCheck:
    def test_gfdm_laplacian_matches_five_point(self):
        """At the tightest radius the meshless Laplacian row reduces to the
        classic five-point coefficients (axis 1/h^2, diagonals negligible)."""
        dx = 4.0
        cloud = generate_cartesian_cloud(
            40, 16, dx, dx, {"left": "dirichlet", "right": "dirichlet", "top": "robin", "bottom": "robin"}
        )
        cloud = add_virtual_nodes(cloud, dx)
        r_e = 1.001 * math.sqrt(2.0) * dx
        ops = build_operators(cloud, r_e)
        fdm_axis = 1.0 / dx**2
        for i in map(int, cloud.ids_of_kind(NodeKind.INTERIOR)):
            stencil = ops.stencils[i]
            lap = ops.rows[i][2] + ops.rows[i][3]
            on_axis = np.isclose(stencil.distances, dx)
            assert np.allclose(lap[on_axis], fdm_axis, rtol=1e-3)
            assert np.all(np.abs(lap[~on_axis]) <= 1e-3 * fdm_axis)


class TestRelativeError:
    def test_reference_cases(self):
        u = np.array([1.0, 2.0, 2.0])
        assert relative_error(u, u) == 0.0
        assert relative_error(2 * u, u) == pytest.approx(1.0)

    def test_unit_basis_perturbation(self):
        u_ref = np.array([3.0, 0.0, 4.0])
        u = u_ref.copy()
        u[0] += np.linalg.norm(u_ref)
        assert relative_error(u, u_ref) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.ones(4))
