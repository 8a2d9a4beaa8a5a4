"""Record perfbench results: append one entry per checkout to BENCH_<workload>.json.

Usage, from the repository root:

    python3 bench/record.py --checkout ../parent --checkout .

For each workload of ``BENCHMARK.json`` the recorder first times the
machine-speed index, then runs ``perfbench/run.py --trace 0`` of every
checkout ``RUNS`` times, with seeds 1..RUNS and the benchmark's
``run_seconds``.  Runs alternate between the checkouts and the order flips
from round to round (A B, B A, A B, ...), so the checkouts see the same
spells of a machine whose speed drifts.  One ``--trace 1`` run of every
checkout, seed 1, follows.  It then appends, for each checkout, one entry
to ``BENCH_<workload>.json`` in this repository's root.  Entries are only
ever appended.

An entry holds the checkout's commit, whether the files a run reads
(``MEASURED``) differ from it or hold untracked files (``dirty``), the
seeds, every run's metrics, the median and quartiles of each end-to-end
metric over the runs, whether every run was correct, the executions
attempted and failed, the traced run's per-layer medians (``traced``: layer
times such as ``operators.build_s`` and counts such as
``assembly.residual_calls``, so an entry shows where a change's time went),
a machine note and the speed index.  The index is
the median time of 20 ``splu`` calls on the first Jacobian of
``waterflood_4m_r2``, built by this repository's code.  The raw seconds
stay as measured; ``per_index`` divides the time medians by the index, so
entries from fast and slow spells of the machine can be compared.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INDEX_CALLS = 20
RUNS = 10  # the fewest alternating pairs that can show a difference
# what a perfbench run reads; edits elsewhere (docs, BENCH files) leave an entry clean
MEASURED = ("src", "perfbench", "configs", "BENCHMARK.json")


def speed_index() -> float:
    """Median seconds of one ``splu`` of the ``waterflood_4m_r2`` first Jacobian."""
    from scipy.sparse.linalg import splu
    from workloads import WORKLOADS, set_up

    wl = WORKLOADS["waterflood_4m_r2"]
    s = set_up(wl, ROOT, wl.t_end)
    _, jac = s.system.residual_and_jacobian(s.x0, s.x0, s.tc.dt_init)
    splu(jac)  # warm-up
    times = []
    for _ in range(INDEX_CALLS):
        began = time.perf_counter()
        splu(jac)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run: its final JSON line, with the seed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"record: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    return {"seed": seed, **json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def machine_note() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"{cpu}; {len(os.sched_getaffinity(0))} cores; python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def entry(
    checkout: Path, workload: str, runs: list[dict], traced: dict, index: float, note: str, seconds: float
) -> dict:
    names = list(runs[0]["metrics"])
    metrics = {
        name: {"unit": runs[0]["metrics"][name]["unit"], **quartiles([r["metrics"][name]["value"] for r in runs])}
        for name in names
    }
    return {
        "workload": workload,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--", *MEASURED)),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seeds": [r["seed"] for r in runs],
        "seconds": seconds,
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "traced": {name: m["value"] for name, m in traced["metrics"].items()},
        "speed_index_s": index,
        "per_index": {name: m["median"] / index for name, m in metrics.items() if m["unit"] == "s"},
        "machine": note,
        "runs": runs,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", type=Path, help="checkout to measure (repeatable; default: this one)")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    # the speed index runs this repository's code
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    note = machine_note()
    for workload in workloads:
        index = speed_index()
        print(f"{workload}: speed index {index * 1e3:.2f} ms", flush=True)
        runs = {c: [] for c in checkouts}
        for k in range(RUNS):
            for c in checkouts if k % 2 == 0 else checkouts[::-1]:
                run = perfbench(c, workload, k + 1, seconds)
                runs[c].append(run)
                wall = run["metrics"]["wall_s"]["value"]
                print(f"  {c.name} seed {k + 1}: wall_s {wall:.3f} correct {run['correct']}", flush=True)
        traced = {c: perfbench(c, workload, 1, seconds, trace=1) for c in checkouts}
        path = ROOT / f"BENCH_{workload}.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entries += [entry(c, workload, runs[c], traced[c], index, note, seconds) for c in checkouts]
        path.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
