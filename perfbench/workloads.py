"""The benchmark's workloads and the stepwise path that executes them.

``execute`` makes the same calls, in the same order, as
``pipeline.run_scenario`` (meshless) or ``pipeline.run_fdm_scenario`` (FDM
reference), split into set-up, march and output so each phase can be timed.
``parity_problems`` checks that split against the pipeline functions
themselves, so a later change to the pipeline cannot leave the benchmark
measuring a stale copy of it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gfdmflow.assembly import ImplicitSystem
from gfdmflow.config import ScenarioConfig, load_config
from gfdmflow.fdm import FdmGrid, FdmSystem
from gfdmflow.operators import build_operators
from gfdmflow.physics import SimState
from gfdmflow.pipeline import (
    assign_boundary_specs,
    build_cloud,
    build_model,
    fdm_side_specs,
    run_fdm_scenario,
    run_scenario,
)
from gfdmflow.postproc import interpolate_to_lattice, snapshot_from_state, write_vtk_points
from gfdmflow.solver import direct_solve, simulate
from gfdmflow.study import fdm_state_snapshot

from spans import TracedProblem, Tracer, traced_linear_solver


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    """Shipped configuration, relative to the repository root."""
    t_end: float
    """Simulated span in days; the only output time."""
    parity_t_end: float
    """Span of the short run that is compared against the pipeline."""
    overrides: dict = field(default_factory=dict)
    fdm: dict | None = None
    """``run_fdm_scenario`` keyword arguments; ``None`` for a meshless run."""
    lattice: float | None = None
    """Spacing of the lattice the final snapshot is interpolated onto; the
    snapshot is then also written as VTK."""
    mid_line: float | None = None
    """y of the row checked against the Buckley-Leverett front."""


WORKLOADS = {
    w.name: w
    for w in (
        # Shipped 4 m water flood with a wide (r = 2.001) meshless stencil:
        # the Newton/linear layers dominate, set-up is about 1%.
        Workload(
            "waterflood_4m_r2",
            "configs/waterflood_4m.cfg",
            t_end=500.0,
            parity_t_end=5.0,
            overrides={"radius_multiple": 2.001},
            mid_line=40.0,
        ),
        # Jittered polygon cloud at 2 m: O(n^2) cloud rejection and operator
        # least squares make set-up about half the time; LU fill on the
        # irregular cloud is the rest.
        Workload(
            "polygon_2m",
            "configs/waterflood_polygon.cfg",
            t_end=0.05,
            parity_t_end=0.02,
            overrides={"spacing": 2.0, "radius_absolute": 4.0},
            lattice=1.0,
        ),
        # The convergence study's 0.5 m FDM strip reference: hundreds of
        # small, cheap systems (415 Newton solves over 50 d), so per-call
        # overhead dominates, not fill.
        Workload(
            "strip_ref_fdm",
            "configs/waterflood_4m.cfg",
            t_end=50.0,
            parity_t_end=2.0,
            fdm={"dx": 0.5, "dy": 0.5, "dt_max": 0.25, "strip_ny": 5},
            mid_line=1.0,
        ),
    )
}


def workload_config(wl: Workload, root: Path, t_end: float) -> ScenarioConfig:
    overrides = dict(wl.overrides, t_end=t_end, output_times=(t_end,))
    return load_config(root / wl.config).with_overrides(**overrides)


@dataclass
class Setup:
    config: ScenarioConfig
    mesh: object
    """The node cloud, or the ``FdmGrid`` of an FDM run."""
    ops: object
    """The difference operators; ``None`` for an FDM run."""
    system: object
    tc: object
    x0: np.ndarray


def _no_span(_name):
    return nullcontext()


def set_up(wl: Workload, root: Path, t_end: float, span=_no_span) -> Setup:
    """Configuration file to initial state: everything before the march."""
    ops = None
    with span("config.load"):
        config = workload_config(wl, root, t_end)
    if wl.fdm is None:
        with span("cloud.build"):
            mesh = build_cloud(config)
        with span("operators.build"):
            ops = build_operators(mesh, config.influence_radius())
        n_nodes = len(mesh)
        with span("pipeline.build_model"):
            model = build_model(config, n_nodes)
        with span("pipeline.boundary_specs"):
            specs = assign_boundary_specs(mesh, config)
        with span("assembly.system_build"):
            system = ImplicitSystem(mesh, ops, model, specs)
        tc = config.time_control()
    else:
        f = wl.fdm
        with span("fdm.system_build"):
            nx = int(round(config.width / f["dx"])) + 1
            mesh = FdmGrid(nx=nx, ny=f["strip_ny"], dx=f["dx"], dy=f["dy"])
        n_nodes = mesh.n_nodes
        with span("pipeline.build_model"):
            model = build_model(config, n_nodes)
        tc = config.time_control()
        tc = replace(tc, dt_init=min(tc.dt_init, f["dt_max"]), dt_max=f["dt_max"])
        with span("pipeline.boundary_specs"):
            side_specs = fdm_side_specs(config)
        with span("fdm.system_build"):
            system = FdmSystem(mesh, model, side_specs)
    with span("pipeline.initial_state"):
        x0 = SimState(
            np.full(n_nodes, config.initial_pressure),
            np.full(n_nodes, config.initial_water_saturation),
        ).to_vector()
    return Setup(config, mesh, ops, system, tc, x0)


@dataclass
class Execution:
    setup: Setup
    states: dict
    report: object
    snapshot: object
    lattice: tuple | None
    setup_s: float
    march_s: float
    wall_s: float
    counts: dict


def execute(
    wl: Workload, root: Path, out_dir: Path, tracer: Tracer | None = None, t_end=None
) -> Execution:
    """Run one workload from its configuration file to the written snapshot."""
    span = _no_span if tracer is None else tracer.span
    t_end = wl.t_end if t_end is None else t_end
    t0 = time.perf_counter()
    with span("execution"):
        with span("setup"):
            s = set_up(wl, root, t_end, span)
        t1 = time.perf_counter()

        if tracer is None:
            problem, linear_solver = s.system, direct_solve
        else:
            problem, linear_solver = TracedProblem(s.system, tracer), traced_linear_solver(tracer)
        with span("solver.simulate"):
            raw, report = simulate(problem, s.x0, s.tc, s.config.output_times, linear_solver=linear_solver)
        t2 = time.perf_counter()

        with span("output"):
            with span("postproc.snapshot_write"):
                states = {t: SimState.from_vector(x, t) for t, x in raw.items()}
                final = states[max(states)]
                if wl.fdm is None:
                    snapshot = snapshot_from_state(s.mesh, final)
                else:
                    snapshot = fdm_state_snapshot(s.mesh, final)
                csv_path = out_dir / f"{wl.name}.csv"
                snapshot.write_csv(csv_path)
            lattice = None
            if wl.lattice is not None:
                vtk_path = out_dir / f"{wl.name}.vtk"
                with span("postproc.vtk_write"):
                    write_vtk_points(vtk_path, snapshot.x, snapshot.y, {"p": snapshot.p, "Sw": snapshot.sw})
                with span("postproc.interpolate"):
                    lattice = interpolate_to_lattice(snapshot, s.mesh, wl.lattice)
    t3 = time.perf_counter()

    written = csv_path.stat().st_size + (vtk_path.stat().st_size if wl.lattice is not None else 0)
    meshless = s.ops is not None
    counts = {
        "cloud.nodes": len(s.mesh) if meshless else 0,
        "operators.pairs": sum(len(st) for st in s.ops.stencils.values()) if meshless else 0,
        "postproc.snapshot_bytes": written,
    }
    return Execution(s, states, report, snapshot, lattice, t1 - t0, t2 - t1, t3 - t0, counts)


def parity_problems(wl: Workload, root: Path, out_dir: Path) -> list[str]:
    """Compare a short stepwise run with the pipeline function it splits."""
    mine = execute(wl, root, out_dir, t_end=wl.parity_t_end)
    config, my_states, my_report = mine.setup.config, mine.states, mine.report
    del mine  # hold one run's arrays at a time, as a pipeline run does
    if wl.fdm is None:
        run = run_scenario(config)
        states, report = run.states, run.report
        del run
    else:
        _grid, states, report = run_fdm_scenario(config, **wl.fdm)
    problems = []
    if report.steps != my_report.steps or report.cut_events != my_report.cut_events:
        problems.append("step records differ from the pipeline's")
    if sorted(states) != sorted(my_states):
        problems.append("snapshot times differ from the pipeline's")
    else:
        for t, state in states.items():
            mine_t = my_states[t]
            if not (np.array_equal(state.p, mine_t.p) and np.array_equal(state.sw, mine_t.sw)):
                problems.append(f"state at t={t:g} differs from the pipeline's")
    return [f"parity ({wl.parity_t_end:g} d): {p}" for p in problems]
