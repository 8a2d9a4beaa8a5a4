"""Compare the marches of checkouts on every perfbench workload.

Usage, from the repository root:

    python3 bench/parity.py --checkout ../parent --checkout .

For each checkout a child process imports that checkout's ``src`` and
``perfbench`` and runs every workload of its ``perfbench/workloads.py``, over
the workload's full span, through ``pipeline.run_scenario`` (meshless) or
``pipeline.run_fdm_scenario`` (FDM reference), twice in a row.  For each
workload the script then prints every checkout's steps, Newton iterations,
cut events and restarts, whether its second march repeats its first, and,
for each later checkout against the first, whether the step records are
equal (bit for bit) and the largest ``|dp|`` and ``|dSw|`` of the final
states.  It writes nothing in the checkouts.

It exits with status 0 when every checkout's second march of every workload
is bit-identical to its first, so that a march does not depend on what ran
before it in the process, and every later checkout holds every workload
with step records, cut and restart counts and final states bit-identical to
the first checkout's; with status 1 otherwise.  It is the "held against the
parent" check.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def march(checkout: Path, out: Path) -> None:
    """Run every workload of ``checkout`` through its pipeline twice and save
    the step records, counts and final state of each march in ``out``, the
    second under ``<workload>/again``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from gfdmflow.pipeline import run_fdm_scenario, run_scenario
    from workloads import WORKLOADS, workload_config

    saved = {}
    for name, wl in WORKLOADS.items():
        config = workload_config(wl, checkout, wl.t_end)
        for key in (name, f"{name}/again"):
            if wl.fdm is None:
                run = run_scenario(config)
                states, report = run.states, run.report
            else:
                _grid, states, report = run_fdm_scenario(config, **wl.fdm)
            final = states[max(states)]
            saved[f"{key}/steps"] = np.array([(s.t, s.dt, s.newton_iters, s.residual_norm) for s in report.steps])
            saved[f"{key}/counts"] = np.array([report.cut_events, report.restarts])
            saved[f"{key}/p"], saved[f"{key}/sw"] = final.p, final.sw
    np.savez(out, **saved)


def same_march(mine: dict, key: str, ref: dict, ref_key: str) -> bool:
    """Whether two saved marches have bit-identical step records, counts
    and final states."""
    parts = ("steps", "counts", "p", "sw")
    return all(np.array_equal(mine[f"{key}/{part}"], ref[f"{ref_key}/{part}"]) for part in parts)


def compare_steps(mine: np.ndarray, ref: np.ndarray) -> str:
    """Step records (t, dt, Newton iterations, residual norm) against the reference's."""
    if np.array_equal(mine, ref):
        return "step records equal"
    if mine.shape != ref.shape or not np.array_equal(mine[:, :3], ref[:, :3]):
        return "step records differ"
    rel = np.max(np.abs(mine[:, 3] - ref[:, 3]) / np.maximum(ref[:, 3], np.finfo(float).tiny))
    return f"steps equal but for residual norms (max relative difference {rel:.2g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", type=Path, required=True,
                        help="checkout to run (repeatable; the first is the reference)")
    parser.add_argument("--march", type=Path, help=argparse.SUPPRESS)  # child process: write this file
    args = parser.parse_args(argv)
    if args.march is not None:
        march(args.checkout[0].resolve(), args.march)
        return 0

    checkouts = [c.resolve() for c in args.checkout]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, c in enumerate(checkouts):
            out = Path(tmp) / f"{k}.npz"
            cmd = [sys.executable, __file__, "--checkout", str(c), "--march", str(out)]
            proc = subprocess.run(cmd, cwd=c, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"parity: the march in {c} failed:\n{proc.stderr[-2000:]}")
            with np.load(out) as data:
                results[c] = dict(data)

    first = checkouts[0]
    held = True
    for name in sorted({key.split("/")[0] for key in results[first]}):
        print(name)
        ref = results[first]
        for c in checkouts:
            mine = results[c]
            if f"{name}/steps" not in mine:
                print(f"  {c.name}: no such workload")
                held = False
                continue
            steps, (cuts, restarts) = mine[f"{name}/steps"], mine[f"{name}/counts"]
            line = f"  {c.name}: {len(steps)} steps, {int(steps[:, 2].sum())} Newton, {cuts} cuts, {restarts} restarts"
            again = same_march(mine, name, mine, f"{name}/again")
            line += "; second march equal" if again else "; second march differs"
            held &= again
            if c != first:
                line += f"; {compare_steps(steps, ref[f'{name}/steps'])}"
                dp = np.max(np.abs(mine[f"{name}/p"] - ref[f"{name}/p"]))
                dsw = np.max(np.abs(mine[f"{name}/sw"] - ref[f"{name}/sw"]))
                line += f", max |dp| {dp:.3g}, max |dSw| {dsw:.3g}"
                held &= same_march(mine, name, ref, name)
            print(line)
    print("held: every march matches" if held else "not held: some march differs")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
