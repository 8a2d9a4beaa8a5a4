"""Command-line interface.

Subcommands: ``run``, ``convergence``, ``diagnose``, ``compare``.  Exit
codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.
The environment variable ``GFDMFLOW_OUTDIR`` overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .cloud import NodeKind
from .config import load_config
from .errors import ConfigError, GfdmFlowError, SetupError
from .fdm import relative_error
from .operators import build_operators, stencil_quality, write_operator_csv
from .pipeline import build_cloud, run_fdm_scenario, run_scenario
from .postproc import FieldSnapshot, extract_profile, front_positions, write_vtk_points
from .study import convergence_study, fdm_state_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _out_dir(config) -> Path:
    """The output directory; created by the first write, so a run that fails
    at set-up leaves nothing behind."""
    override = os.environ.get("GFDMFLOW_OUTDIR")
    return Path(override) if override else Path(config.output_dir)


def _load(path: str):
    try:
        return load_config(path)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc


def _cmd_run(args) -> int:
    config = _load(args.config)
    out = _out_dir(config)
    if args.solver == "gfdm":
        run = run_scenario(config)
        snapshots = {t: run.snapshot(t) for t in run.states}
        report = run.report
    else:
        grid, states, report = run_fdm_scenario(config)
        snapshots = {t: fdm_state_snapshot(grid, s) for t, s in states.items()}
    out.mkdir(parents=True, exist_ok=True)
    for t, snap in sorted(snapshots.items()):
        stem = f"{config.prefix}_{args.solver}_t{t:g}"
        snap.write_csv(out / f"{stem}.csv")
        if config.vtk:
            write_vtk_points(out / f"{stem}.vtk", snap.x, snap.y, {"p": snap.p, "Sw": snap.sw})
    report.write_csv(out / f"{config.prefix}_{args.solver}_report.csv")
    print(
        f"completed: {report.n_steps} steps, {report.total_newton_iterations} Newton iterations, "
        f"{report.cut_events} cut events, {report.restarts} restarts, {len(snapshots)} snapshots -> {out}"
    )
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _load(args.config)
    out = _out_dir(config)
    table_path = out / f"{config.prefix}_convergence.csv"

    def sink(partial):
        out.mkdir(parents=True, exist_ok=True)
        partial.write_csv(table_path)
        print(f"partial results saved to {table_path}", file=sys.stderr)

    result = convergence_study(
        config,
        args.spacings,
        radius_rule=args.radius_rule,
        ref_dx=args.ref_dx,
        ref_dt_max=args.ref_dt_max,
        ref_strip_ny=None if args.ref_full else args.ref_strip,
        partial_sink=sink,
    )
    out.mkdir(parents=True, exist_ok=True)
    result.write_csv(table_path)
    print("h, RE_p(gfdm), RE_Sw(gfdm), RE_p(fdm), RE_Sw(fdm)")
    for row in result.rows:
        print(f"{row.h:g}, {row.re_p_gfdm:.4e}, {row.re_sw_gfdm:.4e}, {row.re_p_fdm:.4e}, {row.re_sw_fdm:.4e}")
    for solver in ("gfdm", "fdm"):
        for fieldname in ("p", "sw"):
            slopes = result.slopes(solver, fieldname)
            print(f"slopes {solver}/{fieldname}: " + ", ".join(f"{s:.3f}" for s in slopes))
    return EXIT_OK


def _select_nodes(cloud, selector: str) -> np.ndarray:
    non_virtual = np.flatnonzero(cloud.kinds != NodeKind.VIRTUAL)
    if selector == "all":
        return non_virtual
    if selector.startswith("kind="):
        want = selector.split("=", 1)[1].strip().lower()
        if want not in ("interior", "dirichlet", "robin"):
            raise SetupError(f"unknown kind selector {want!r}")
        return cloud.ids_of_kind(NodeKind[want.upper()])
    try:
        ids = np.array([int(v) for v in selector.replace(",", " ").split()], dtype=np.int64)
    except ValueError as exc:
        raise SetupError(f"node selector {selector!r} is not 'all', 'kind=<kind>' or a list of ids") from exc
    if len(ids) == 0 or np.any(ids < 0) or np.any(ids >= len(cloud)):
        raise SetupError(f"node selector {selector!r} matches nothing")
    return ids


def _cmd_diagnose(args) -> int:
    config = _load(args.config)
    out = _out_dir(config)
    cloud = build_cloud(config)
    ops = build_operators(cloud, config.influence_radius(), degenerate=args.degenerate)
    nodes = _select_nodes(cloud, args.nodes)
    nodes = np.array([n for n in nodes if int(n) in ops], dtype=np.int64)
    if len(nodes) == 0:
        raise SetupError(f"selector {args.nodes!r} matches no node with operators")
    path = out / f"{config.prefix}_diagnose.csv"
    out.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node", "x", "y", "n_neighbors", "centroid_offset",
             "imb_e1", "imb_e2", "imb_e3", "imb_e4", "imb_e5", "rcond"]
        )
        for n in nodes:
            q = stencil_quality(ops, int(n))
            x, y = cloud.positions[n]
            writer.writerow(
                [int(n), repr(float(x)), repr(float(y)), q.n_neighbors, repr(q.centroid_offset)]
                + [repr(v) for v in q.imbalance]
                + [repr(q.rcond)]
            )
    if args.dump_operators:
        write_operator_csv(ops, out / f"{config.prefix}_operators.csv")
    print(f"wrote {len(nodes)} stencil-quality rows -> {path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    snap_a = FieldSnapshot.read_csv(args.snapshot_a)
    snap_b = FieldSnapshot.read_csv(args.snapshot_b)
    order_a = np.lexsort((snap_a.y, snap_a.x))
    order_b = np.lexsort((snap_b.y, snap_b.x))
    if len(order_a) != len(order_b):
        raise SetupError("snapshots hold different node counts")
    xa, ya = snap_a.x[order_a], snap_a.y[order_a]
    xb, yb = snap_b.x[order_b], snap_b.y[order_b]
    if np.max(np.abs(xa - xb)) > 1e-9 or np.max(np.abs(ya - yb)) > 1e-9:
        raise SetupError("snapshots are not on matching node coordinates")
    for name, a, b in (("p", snap_a.p, snap_b.p), ("Sw", snap_a.sw, snap_b.sw)):
        try:
            rel = relative_error(a[order_a], b[order_b])
        except ValueError as exc:
            raise SetupError(f"RE_{name}: {exc} ({name} of {args.snapshot_b})") from exc
        print(f"RE_{name} = {rel:.6e}")
    if args.profile_y is not None:
        xp_a, _, sw_a = extract_profile(snap_a, args.profile_y, args.tol)
        xp_b, _, sw_b = extract_profile(snap_b, args.profile_y, args.tol)
        front_a = front_positions(xp_a, sw_a)[0]
        front_b = front_positions(xp_b, sw_b)[0]
        print(f"front(Sw=0.5) A = {front_a:.4f}, B = {front_b:.4f}, |diff| = {abs(front_a - front_b):.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfdmflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write snapshots")
    p_run.add_argument("config")
    p_run.add_argument("--solver", choices=("gfdm", "fdm"), default="gfdm")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="spacing sweep against a fine FDM reference")
    p_conv.add_argument("config")
    p_conv.add_argument("--spacings", nargs="+", type=float, required=True)
    p_conv.add_argument("--radius-rule", type=float, default=1.5)
    p_conv.add_argument("--ref-dx", type=float, default=0.5)
    p_conv.add_argument("--ref-dt-max", type=float, default=0.25)
    p_conv.add_argument("--ref-strip", type=int, default=5)
    p_conv.add_argument("--ref-full", action="store_true", help="full-height reference grid")
    p_conv.set_defaults(func=_cmd_convergence)

    p_diag = sub.add_parser("diagnose", help="stencil-quality report")
    p_diag.add_argument("config")
    p_diag.add_argument("--nodes", default="all", help="'all', 'kind=robin', or id list")
    p_diag.add_argument("--degenerate", choices=("raise", "inverse"), default="raise")
    p_diag.add_argument(
        "--dump-operators", action="store_true", help="also write per-neighbor coefficient rows"
    )
    p_diag.set_defaults(func=_cmd_diagnose)

    p_cmp = sub.add_parser("compare", help="field differences between two snapshots")
    p_cmp.add_argument("snapshot_a")
    p_cmp.add_argument("snapshot_b")
    p_cmp.add_argument("--profile-y", type=float, default=None)
    p_cmp.add_argument("--tol", type=float, default=1e-6)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GfdmFlowError as exc:
        print(f"solver-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
