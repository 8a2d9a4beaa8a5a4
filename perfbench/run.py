"""gfdmflow benchmark: time to a solution on one water-flood workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload waterflood_4m_r2 --seed 1 --seconds 30 --trace 0

The run first checks that the benchmark's stepwise path still matches the
pipeline (see ``workloads.parity_problems``), then executes the workload
again and again, from configuration file to written snapshot, until the next
execution would end past ``--seconds``; at least one execution always runs.
Each execution is checked (``checks.py``) and counts as failed when it raises
a gfdmflow error or a check fails.

``--trace 0`` reports the medians over executions of ``wall_s`` and
``march_s``, the median ``setup_s`` over those executions' set-ups and the
set-ups run alone in what is left of ``--seconds``, and the process's peak
resident set.  ``--trace 1`` records
spans around the calls into each module, writes them to
``.perfbench/trace-<workload>-seed<seed>.json`` and reports the medians of
the per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Cap BLAS/OpenMP threads at the cores this process may use, before numpy loads.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES

# Set-ups (inside executions or alone) that one run measures at most.
MAX_SETUPS = 20


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seeds the quadratic-exactness check")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "gfdmflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gfdmflow sources under {src}")
    sys.path.insert(0, str(src))
    import gfdmflow

    if Path(gfdmflow.__file__).resolve().parent != src / "gfdmflow":
        sys.exit(f"perfbench: imported gfdmflow from {gfdmflow.__file__}, not from {src}")


def main(argv=None) -> int:
    _import_program()
    import gc
    import resource
    import shutil
    import statistics
    import tempfile
    import time

    import numpy as np

    from checks import check_execution
    from gfdmflow.errors import GfdmFlowError
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, execute, parity_problems, set_up, workload_config

    args = _parse_args(argv)
    wl = WORKLOADS[args.workload]
    # Metric names and units, in the order BENCHMARK.json lists them.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # The quadratic of the operator check is drawn from --seed and the
    # configuration's own cloud seed.
    rng = np.random.default_rng((args.seed, workload_config(wl, ROOT, wl.t_end).seed))
    bench_dir = ROOT / ".perfbench"
    bench_dir.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=bench_dir))
    try:
        problems = parity_problems(wl, ROOT, out_dir)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        correct = not problems

        attempted = failed = 0
        samples: list[dict] = []
        traces: list[list[dict]] = []
        exec_times: list[float] = []
        start = time.perf_counter()
        while True:
            gc.collect()
            attempted += 1
            tracer = Tracer() if args.trace else None
            began = time.perf_counter()
            try:
                ex = execute(wl, ROOT, out_dir, tracer)
                problems = check_execution(wl, ex, rng)
            except GfdmFlowError as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            exec_times.append(time.perf_counter() - began)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"perfbench: execution {attempted}: {problem}", file=sys.stderr)
            elif args.trace:
                samples.append(layer_metrics(tracer.spans, ex.report, ex.counts))
                traces.append(tracer.spans)
            else:
                samples.append({"wall_s": ex.wall_s, "setup_s": ex.setup_s, "march_s": ex.march_s})
            ex = None  # free this execution's arrays before the next one starts
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(exec_times) > args.seconds:
                break
        # Spend what is left of --seconds on more set-ups, so that set-up time
        # is a median of several samples even when one march fills the run.
        setups = [sample["setup_s"] for sample in samples if not args.trace]
        while setups and len(setups) < MAX_SETUPS:
            if time.perf_counter() - start + statistics.median(setups) > args.seconds:
                break
            gc.collect()
            began = time.perf_counter()
            set_up(wl, ROOT, wl.t_end)
            setups.append(time.perf_counter() - began)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if not samples:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        trace_path = bench_dir / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "executions": traces}))
        values = {name: statistics.median(s[name] for s in samples) for name in units}
    else:
        values = {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "setup_s": statistics.median(setups),
            "march_s": statistics.median(s["march_s"] for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"workload {wl.name}: {attempted} executions attempted, {failed} failed, medians over {len(samples)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
