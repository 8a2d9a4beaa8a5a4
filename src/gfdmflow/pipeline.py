"""Scenario construction and end-to-end execution from a configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import ImplicitSystem
from .cloud import (
    CORNER_ORDER,
    NodeCloud,
    NodeKind,
    add_virtual_nodes,
    generate_cartesian_cloud,
    generate_irregular_cloud,
    point_segment_distance2,
    read_cloud_csv,
)
from .config import ScenarioConfig, SegmentBC, _boundary_edges
from .errors import SetupError
from .fdm import FdmGrid, run_fdm
from .operators import build_operators
from .physics import ReservoirModel, SimState
from .postproc import FieldSnapshot, snapshot_from_state
from .solver import SolverReport, simulate

__all__ = ["ScenarioRun", "build_cloud", "build_model", "assign_boundary_specs", "run_scenario", "run_fdm_scenario"]


def _node_kind(bc: SegmentBC) -> NodeKind:
    return NodeKind.DIRICHLET if bc.kind == "dirichlet" else NodeKind.ROBIN


def build_cloud(config: ScenarioConfig) -> NodeCloud:
    """Cloud per the configuration, virtual nodes already inserted."""
    if config.cloud_type == "csv":
        cloud = read_cloud_csv(config.cloud_path)
    else:
        edges = _boundary_edges(config)
        kinds = {name: _node_kind(bc) for name, _, _, bc in edges}
        if config.cloud_type == "cartesian":
            cloud = generate_cartesian_cloud(config.width, config.height, config.dx, config.dy, kinds)
        else:
            vertices = [start for _, start, _, _ in edges]
            cloud = generate_irregular_cloud(
                vertices, config.spacing, config.seed, jitter=config.jitter, edge_kinds=list(kinds.values())
            )
    if cloud.n_virtual == 0 and config.virtual_nodes == "auto":
        cloud = add_virtual_nodes(cloud, cloud.h)
    return cloud


def build_model(config: ScenarioConfig, n_nodes: int) -> ReservoirModel:
    return ReservoirModel.uniform(
        n_nodes,
        permeability=config.permeability,
        phi0=config.porosity,
        Cr=config.compressibility,
        p_ref=config.reference_pressure,
        mu_o=config.oil_viscosity,
        mu_w=config.water_viscosity,
        Swc=config.connate_water,
        Sor=config.residual_oil,
    )


def assign_boundary_specs(cloud: NodeCloud, config: ScenarioConfig) -> dict[int, SegmentBC]:
    """Map each Dirichlet and Robin node to the :class:`SegmentBC` of an edge
    it lies on, as :class:`~gfdmflow.assembly.ImplicitSystem` takes it.

    The edge's kind must match the node's own kind, which the generators
    resolved with the Dirichlet-wins rule.  At a corner between two edges of
    that kind, a rectangle's sides go in :data:`~gfdmflow.cloud.CORNER_ORDER`
    (the vertical side wins), as in :class:`~gfdmflow.fdm.FdmSystem`; polygon
    edges go in index order.
    """
    rank = {side: k for k, side in enumerate(CORNER_ORDER)}
    edges = sorted(_boundary_edges(config), key=lambda edge: rank.get(edge[0], 0))
    tol = 1e-6 * cloud.h
    ids = np.flatnonzero((cloud.kinds == NodeKind.DIRICHLET) | (cloud.kinds == NodeKind.ROBIN))
    x, y = cloud.positions[ids, 0], cloud.positions[ids, 1]
    chosen = np.full(len(ids), -1)
    for e, (_, a, b, bc) in enumerate(edges):
        on = (cloud.kinds[ids] == _node_kind(bc)) & (point_segment_distance2(x, y, a, b) <= tol * tol)
        chosen[on & (chosen < 0)] = e
    if np.any(chosen < 0):
        k = int(np.argmax(chosen < 0))
        raise SetupError(f"boundary node {int(ids[k])} at ({x[k]}, {y[k]}) matches no boundary segment")
    bcs = [bc for *_, bc in edges]
    return {int(i): bcs[e] for i, e in zip(ids, chosen)}


@dataclass
class ScenarioRun:
    cloud: NodeCloud
    states: dict[float, SimState]
    report: SolverReport

    def snapshot(self, t: float) -> FieldSnapshot:
        return snapshot_from_state(self.cloud, self.states[t])

    @property
    def final_time(self) -> float:
        return max(self.states)


def run_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Execute the meshless pipeline end to end."""
    cloud = build_cloud(config)
    ops = build_operators(cloud, config.influence_radius())
    model = build_model(config, len(cloud))
    specs = assign_boundary_specs(cloud, config)
    system = ImplicitSystem(cloud, ops, model, specs)
    x0 = SimState(
        np.full(len(cloud), config.initial_pressure),
        np.full(len(cloud), config.initial_water_saturation),
    ).to_vector()
    raw, report = simulate(system, x0, config.time_control(), config.output_times)
    states = {t: SimState.from_vector(x, t) for t, x in raw.items()}
    return ScenarioRun(cloud, states, report)


def fdm_side_specs(config: ScenarioConfig) -> dict[str, SegmentBC]:
    """Each rectangle side's condition, as :class:`~gfdmflow.fdm.FdmSystem` takes it."""
    return {name: bc for name, _, _, bc in _boundary_edges(config)}


def run_fdm_scenario(
    config: ScenarioConfig,
    dx: float | None = None,
    dy: float | None = None,
    dt_max: float | None = None,
    strip_ny: int | None = None,
):
    """Reference FDM run of a rectangle scenario.

    ``strip_ny`` runs the grid on a reduced-height strip (same spacings);
    legitimate for configurations whose solution is independent of y, where
    the full-height and strip solutions coincide row-by-row.
    """
    if config.domain_shape != "rectangle":
        raise SetupError("reference FDM needs a rectangular domain")
    side_specs = fdm_side_specs(config)
    dx = config.dx if dx is None else dx
    dy = config.dy if dy is None else dy
    if abs(config.width / dx - round(config.width / dx)) > 1e-9:
        raise SetupError("FDM spacing must divide the domain width")
    nx = int(round(config.width / dx)) + 1
    ny = int(round(config.height / dy)) + 1 if strip_ny is None else int(strip_ny)
    grid = FdmGrid(nx=nx, ny=ny, dx=dx, dy=dy)
    model = build_model(config, grid.n_nodes)
    tc = config.time_control()
    if dt_max is not None:
        tc = replace(tc, dt_init=min(tc.dt_init, dt_max), dt_max=dt_max)
    states, report = run_fdm(
        model,
        grid,
        side_specs,
        tc,
        p_init=config.initial_pressure,
        sw_init=config.initial_water_saturation,
        output_times=config.output_times,
    )
    return grid, states, report
