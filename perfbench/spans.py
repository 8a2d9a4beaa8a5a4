"""In-memory spans recorded around the benchmark's calls into each module.

A span is a name, a start, an end (``time.perf_counter`` seconds) and the id
of the span that was open when it started.  Spans stay in memory for the run
and are written to a JSON file when the run ends.  ``layer_metrics`` turns
the spans of one workload execution into the per-layer figures.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from gfdmflow.solver import direct_solve

# Spans whose summed seconds give a ``<span>_s`` metric of the same name.
_TIMED_SPANS = (
    "config.load",
    "cloud.build",
    "operators.build",
    "pipeline.build_model",
    "pipeline.boundary_specs",
    "pipeline.initial_state",
    "assembly.system_build",
    "fdm.system_build",
    "assembly.residual",
    "assembly.jacobian",
    "solver.linear_solve",
    "postproc.snapshot_write",
    "postproc.vtk_write",
    "postproc.interpolate",
)


class Tracer:
    """Collects nested spans of one workload execution."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class TracedProblem:
    """Wraps a residual/Jacobian problem object with ``assembly`` spans."""

    def __init__(self, problem, tracer: Tracer):
        self.problem = problem
        self.tracer = tracer

    def residual(self, x, x_old, dt):
        with self.tracer.span("assembly.residual"):
            return self.problem.residual(x, x_old, dt)

    def residual_and_jacobian(self, x, x_old, dt):
        with self.tracer.span("assembly.jacobian") as record:
            residual, jac = self.problem.residual_and_jacobian(x, x_old, dt)
            record["nnz"] = int(jac.nnz)
        return residual, jac


def traced_linear_solver(tracer: Tracer):
    """``solver.direct_solve`` wrapped in a ``solver.linear_solve`` span."""

    def solve(jac, rhs):
        with tracer.span("solver.linear_solve"):
            return direct_solve(jac, rhs)

    return solve


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], report, counts: dict) -> dict[str, float]:
    """Per-layer figures of one execution from its spans and solver report.

    ``counts`` carries the sizes the benchmark read off the built objects
    (``cloud.nodes``, ``operators.pairs``, ``postproc.snapshot_bytes``).
    """
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        seconds[s["name"]] += _duration(s)
        calls[s["name"]] += 1
    out = {f"{name}_s": seconds[name] for name in _TIMED_SPANS}

    simulate = next(s for s in spans if s["name"] == "solver.simulate")
    children = sum(_duration(s) for s in spans if s["parent"] == simulate["id"])
    newton = report.total_newton_iterations
    jac_calls = calls["assembly.jacobian"]
    res_calls = calls["assembly.residual"]
    solves = calls["solver.linear_solve"]
    out.update(
        {
            "assembly.residual_calls": res_calls,
            "assembly.jacobian_calls": jac_calls,
            "assembly.jacobian_ms_per_call": 1e3 * seconds["assembly.jacobian"] / jac_calls,
            "assembly.jacobian_nnz": max(s["nnz"] for s in spans if s["name"] == "assembly.jacobian"),
            "assembly.evals_per_newton": (res_calls + jac_calls) / newton,
            "solver.linear_solves": solves,
            "solver.linear_solve_ms_per_call": 1e3 * seconds["solver.linear_solve"] / solves,
            "solver.newton_iterations": newton,
            "solver.time_steps": report.n_steps,
            "solver.cut_events": report.cut_events,
            "solver.newton_per_step": newton / report.n_steps,
            "solver.control_s": _duration(simulate) - children,
            "traced.wall_s": seconds["execution"],
            "traced.setup_s": seconds["setup"],
            "traced.march_s": seconds["solver.simulate"],
        }
    )
    out.update(counts)
    return out
