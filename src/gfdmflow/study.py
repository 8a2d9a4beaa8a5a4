"""Convergence and comparison drivers shared by the CLI and the test suite."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import GfdmFlowError, SetupError
from .fdm import FdmGrid, relative_error
from .physics import SimState
from .pipeline import run_fdm_scenario, run_scenario
from .postproc import FieldSnapshot

__all__ = ["ReferenceField", "build_reference", "convergence_study", "StudyRow", "StudyResult"]


@dataclass(frozen=True)
class ReferenceField:
    """High-resolution FDM field sampled on lattice coordinates.

    ``y_invariant`` references hold a single x-profile (computed on a
    reduced-height strip of the same spacing) and answer queries by x alone.
    """

    dx: float
    dy: float
    p: np.ndarray
    sw: np.ndarray
    y_invariant: bool

    def sample(self, x, y):
        x = np.asarray(x, dtype=float)
        ix = np.round(x / self.dx).astype(int)
        if np.max(np.abs(x - ix * self.dx)) > 1e-6 * self.dx:
            raise GfdmFlowError("query points are not on the reference lattice")
        if self.y_invariant:
            return self.p[ix], self.sw[ix]
        y = np.asarray(y, dtype=float)
        iy = np.round(y / self.dy).astype(int)
        if np.max(np.abs(y - iy * self.dy)) > 1e-6 * self.dy:
            raise GfdmFlowError("query points are not on the reference lattice")
        return self.p[ix, iy], self.sw[ix, iy]


def build_reference(
    config,
    dx: float = 0.5,
    dt_max: float = 0.25,
    strip_ny: int | None = 5,
) -> ReferenceField:
    """Run the FDM reference for a rectangle scenario.

    With ``strip_ny`` the run uses a reduced-height strip; valid only for
    configurations whose solution is independent of y (closed top/bottom with
    x-only forcing), where the strip profile equals every row of the
    full-height solution.  Pass ``strip_ny=None`` for the full grid.
    """
    grid, states, _report = run_fdm_scenario(config, dx=dx, dy=dx, dt_max=dt_max, strip_ny=strip_ny)
    final = states[max(states)]
    p = final.p.reshape(grid.nx, grid.ny)
    sw = final.sw.reshape(grid.nx, grid.ny)
    if strip_ny is not None:
        mid = grid.ny // 2
        return ReferenceField(grid.dx, grid.dy, p[:, mid].copy(), sw[:, mid].copy(), True)
    return ReferenceField(grid.dx, grid.dy, p, sw, False)


@dataclass(frozen=True)
class StudyRow:
    h: float
    re_p_gfdm: float
    re_sw_gfdm: float
    re_p_fdm: float
    re_sw_fdm: float


@dataclass
class StudyResult:
    rows: list[StudyRow]

    def slopes(self, solver: str, field: str) -> list[float]:
        """Log-log slopes of consecutive row pairs, coarse to fine."""
        hs = np.array([r.h for r in self.rows])
        errs = np.array([getattr(r, f"re_{field}_{solver}") for r in self.rows])
        return [
            float((np.log(errs[k + 1]) - np.log(errs[k])) / (np.log(hs[k + 1]) - np.log(hs[k])))
            for k in range(len(hs) - 1)
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "re_p_gfdm", "re_sw_gfdm", "re_p_fdm", "re_sw_fdm"])
            for r in self.rows:
                writer.writerow([repr(r.h), repr(r.re_p_gfdm), repr(r.re_sw_gfdm), repr(r.re_p_fdm), repr(r.re_sw_fdm)])


def _snapshot_errors(snapshot: FieldSnapshot, reference: ReferenceField):
    p_ref, sw_ref = reference.sample(snapshot.x, snapshot.y)
    return relative_error(snapshot.p, p_ref), relative_error(snapshot.sw, sw_ref)


def fdm_state_snapshot(grid: FdmGrid, state: SimState) -> FieldSnapshot:
    pos = grid.positions()
    return FieldSnapshot(state.t, pos[:, 0], pos[:, 1], state.p, state.sw)


def convergence_study(
    base_config,
    spacings,
    radius_rule: float = 1.5,
    reference: ReferenceField | None = None,
    ref_dx: float = 0.5,
    ref_dt_max: float = 0.25,
    ref_strip_ny: int | None = 5,
    partial_sink=None,
) -> StudyResult:
    """Run both solvers per spacing and compare to the fine FDM reference.

    ``spacings`` must be descending; the influence radius of each meshless
    run is ``radius_rule * h``.  Errors are computed on the member lattice
    points (all of which must lie on the reference lattice).  If a member
    run fails the partial rows are handed to ``partial_sink`` before the
    error propagates.
    """
    spacings = [float(h) for h in spacings]
    if not spacings:
        raise SetupError("empty spacing list")
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise SetupError("spacings must be strictly descending")

    if reference is None:
        reference = build_reference(base_config, dx=ref_dx, dt_max=ref_dt_max, strip_ny=ref_strip_ny)
    rows: list[StudyRow] = []
    try:
        for h in spacings:
            cfg = base_config.with_overrides(
                dx=h, dy=h, radius_multiple=None, radius_absolute=radius_rule * h, output_times=()
            )
            run = run_scenario(cfg)
            snap = run.snapshot(run.final_time)
            re_p_g, re_sw_g = _snapshot_errors(snap, reference)

            grid, states, _ = run_fdm_scenario(cfg)
            fsnap = fdm_state_snapshot(grid, states[max(states)])
            re_p_f, re_sw_f = _snapshot_errors(fsnap, reference)
            rows.append(StudyRow(h, re_p_g, re_sw_g, re_p_f, re_sw_f))
    except Exception:
        if partial_sink is not None and rows:
            partial_sink(StudyResult(rows))
        raise
    return StudyResult(rows)
