"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the expensive scenario runs are shared through module-scoped
fixtures.  Total runtime is a few minutes on a workstation.
"""

from pathlib import Path

import numpy as np
import pytest

import golden
from conftest import build_layout_cloud, full_waterflood_config, interior_cloud
from oracle import oracle_point_in_polygon, oracle_residual

import gfdmflow as gf
from gfdmflow import NodeKind, SimState
from gfdmflow.operators import build_node_rows
from gfdmflow.postproc import front_positions, front_width
from gfdmflow.study import build_reference, convergence_study, fdm_state_snapshot

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RADII = (1.001, 2.001, 3.001)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} {label}: {status}{tail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def radius_runs():
    cfg = full_waterflood_config(output_times=(250.0, 500.0))
    return {
        mult: gf.run_scenario(cfg.with_overrides(radius_multiple=mult)) for mult in RADII
    }


@pytest.fixture(scope="module")
def fdm_4m():
    cfg = full_waterflood_config(output_times=(500.0,))
    grid, states, report = gf.run_fdm_scenario(cfg)
    return grid, states, report


@pytest.fixture(scope="module")
def reference_05m():
    # strip-equivalent reference at 0.5 m spacing (the benchmark solution is
    # independent of y; strip and full-height runs coincide row-by-row, which
    # test_strip_reference_equivalence checks at a coarser spacing)
    return build_reference(full_waterflood_config(), dx=0.5, dt_max=0.25, strip_ny=5)


@pytest.fixture(scope="module")
def study_result(reference_05m):
    cfg = full_waterflood_config(output_times=())
    return convergence_study(cfg, [8.0, 4.0, 2.0], radius_rule=1.5, reference=reference_05m)


@pytest.fixture(scope="module")
def polygon_run():
    cfg = gf.load_config(CONFIGS / "waterflood_polygon.cfg")
    return gf.run_scenario(cfg), cfg


def _mid_profile(run, t=500.0):
    snap = run.snapshot(t)
    return gf.extract_profile(snap, 40.0, tol=1e-6)


class TestCriterion1GoldenCoefficients:
    def test_well_posed_layouts(self):
        problems = []
        for table, rows, only_near, r_e in (
            (golden.RADIUS_15_WITH_VIRTUAL, 1, True, 1.5),
            (golden.RADIUS_25_MIRRORED, 2, False, 2.5),
            (golden.RADIUS_25_SINGLE_ROW, 1, False, 2.5),
            (golden.RADIUS_25_NO_VIRTUALS, 0, False, 2.5),
        ):
            cloud, ids = build_layout_cloud(virtual_rows=rows, only_near=only_near)
            stencil, coeff = build_node_rows(cloud, ids["3"], r_e)
            label_of = {v: k for k, v in ids.items()}
            got = {label_of[int(j)]: coeff[1, k] for k, j in enumerate(stencil.neighbors)}
            problems += golden.check_table(got, table)
        _report(
            1,
            "golden stencil coefficients (well-posed layouts)",
            not problems,
            "; ".join(problems) or "4 tables reproduced",
        )

    def test_rank_deficient_layout(self):
        cloud, ids = build_layout_cloud(virtual_rows=0, only_near=True)
        _, coeff = build_node_rows(cloud, ids["3"], 1.5, degenerate="inverse")
        stencil, _ = build_node_rows(cloud, ids["3"], 1.5, degenerate="inverse")
        label_of = {v: k for k, v in ids.items()}
        got = {label_of[int(j)]: coeff[1, k] for k, j in enumerate(stencil.neighbors)}
        problems = golden.check_table(got, golden.RADIUS_15_NO_VIRTUAL_STABLE)
        _report(
            1,
            "golden stencil coefficients (rank-deficient layout, stable entries)",
            not problems,
            "; ".join(problems) or "dominant and mirrored-pair entries reproduced",
        )

    def test_rank_deficient_layout_nullspace_pair(self):
        """The remaining tabulated pair of the rank-deficient layout.

        The local least-squares matrix of this layout is exactly singular
        (the function y + y^2 vanishes on both node rows), so these two
        coefficients are determined only by solver roundoff; the tabulated
        values could not be reproduced by any evaluation order tried.  The
        assertion is kept faithful to the stated tolerance and is expected
        to fail; see the decisions ledger for the full analysis.
        """
        cloud, ids = build_layout_cloud(virtual_rows=0, only_near=True)
        stencil, coeff = build_node_rows(cloud, ids["3"], 1.5, degenerate="inverse")
        label_of = {v: k for k, v in ids.items()}
        got = {label_of[int(j)]: coeff[1, k] for k, j in enumerate(stencil.neighbors)}
        problems = golden.check_table(got, golden.RADIUS_15_NO_VIRTUAL_NULLSPACE)
        _report(
            1,
            "golden stencil coefficients (rank-deficient layout, null-space pair)",
            not problems,
            "; ".join(problems) or "reproduced",
        )


def test_criterion_2_symmetry_imbalance():
    fixtures = {
        "mirrored": CONFIGS / "fixtures" / "layout_mirrored_virtual_rows.csv",
        "single_row": CONFIGS / "fixtures" / "layout_single_virtual_row.csv",
        "no_virtuals": CONFIGS / "fixtures" / "layout_no_virtuals.csv",
    }
    problems = []
    for name, path in fixtures.items():
        cloud = gf.read_cloud_csv(path)
        center = int(
            np.flatnonzero(
                (cloud.positions == [0.0, 0.0]).all(axis=1) & (cloud.kinds == NodeKind.ROBIN)
            )[0]
        )
        got = gf.stencil_quality(gf.build_operators(cloud, 2.5), center).imbalance[1]
        want = golden.IMBALANCE[name]
        if want == 0.0:
            ok = abs(got) < 1e-12
        else:
            ok = abs(got - want) / abs(want) < 0.05  # two significant figures
        if not ok:
            problems.append(f"{name}: got {got:.4e}, want {want:.4e}")
    _report(2, "symmetry-imbalance values", not problems, "; ".join(problems) or "0 / 5.29e-5 / -1.25e-2")


@pytest.mark.slow
def test_criterion_3_fdm_degeneracy(radius_runs, fdm_4m):
    run = radius_runs[1.001]
    snap = run.snapshot(500.0)
    grid, states, _ = fdm_4m
    fsnap = fdm_state_snapshot(grid, states[500.0])
    oa = np.lexsort((snap.y, snap.x))
    ob = np.lexsort((fsnap.y, fsnap.x))
    assert np.allclose(snap.x[oa], fsnap.x[ob]) and np.allclose(snap.y[oa], fsnap.y[ob])
    re_p = gf.relative_error(snap.p[oa], fsnap.p[ob])
    re_sw = gf.relative_error(snap.sw[oa], fsnap.sw[ob])
    ok = re_p <= 1e-3 and re_sw <= 1e-2
    _report(3, "tightest-radius degeneracy to the reference FDM", ok, f"RE_p={re_p:.2e}, RE_Sw={re_sw:.2e}")


@pytest.mark.slow
def test_criterion_4_radius_dissipation(radius_runs):
    widths = []
    for mult in RADII:
        x, _, sw = _mid_profile(radius_runs[mult])
        widths.append(front_width(x, sw, 0.7, 0.3))
    ok = widths[0] <= widths[1] + 1e-9 and widths[1] <= widths[2] + 1e-9
    _report(
        4,
        "front width nondecreasing with radius",
        ok,
        "widths " + " <= ".join(f"{w:.2f}" for w in widths),
    )


@pytest.mark.slow
def test_criterion_5_elliptic_insensitivity(radius_runs, reference_05m):
    re_p, re_sw = {}, {}
    for mult in RADII:
        snap = radius_runs[mult].snapshot(500.0)
        p_ref, sw_ref = reference_05m.sample(snap.x, snap.y)
        re_p[mult] = gf.relative_error(snap.p, p_ref)
        re_sw[mult] = gf.relative_error(snap.sw, sw_ref)
    p_growth = max(re_p[m] / re_p[RADII[0]] for m in RADII)
    sw_growth = max(re_sw[m] / re_sw[RADII[0]] for m in RADII)
    ok = p_growth < 3.0 and sw_growth > p_growth
    _report(
        5,
        "pressure error radius-insensitive, saturation error grows more",
        ok,
        f"pressure growth x{p_growth:.3f} (< 3), saturation growth x{sw_growth:.3f}",
    )


@pytest.mark.slow
def test_criterion_6_newton_count_invariance(radius_runs):
    counts = [radius_runs[m].report.total_newton_iterations for m in RADII]
    spread = max(counts) / min(counts) - 1.0
    ok = spread <= 0.02
    _report(6, "Newton-count invariance across radii", ok, f"counts {counts}, spread {spread:.2%}")


@pytest.mark.slow
def test_criterion_7_convergence_trend(study_result):
    problems = []
    for solver in ("gfdm", "fdm"):
        for fieldname in ("p", "sw"):
            errs = [getattr(r, f"re_{fieldname}_{solver}") for r in study_result.rows]
            if not all(a > b for a, b in zip(errs, errs[1:])):
                problems.append(f"{solver}/{fieldname} not monotone: {errs}")
    for fieldname in ("p", "sw"):
        slope_g = study_result.slopes("gfdm", fieldname)[-1]
        slope_f = study_result.slopes("fdm", fieldname)[-1]
        if not slope_g <= slope_f + 0.1:
            problems.append(f"{fieldname}: gfdm slope {slope_g:.3f} > fdm {slope_f:.3f} + 0.1")
    detail = "; ".join(problems) or (
        "monotone; finest slopes gfdm/fdm sw "
        f"{study_result.slopes('gfdm', 'sw')[-1]:.3f}/{study_result.slopes('fdm', 'sw')[-1]:.3f}"
    )
    _report(7, "convergence trend over h = 8, 4, 2", not problems, detail)


@pytest.mark.slow
class TestCriterion8PropertySuites:
    def test_properties(self, radius_runs):
        problems = []

        # quadratic exactness on randomized stencils
        rng = np.random.default_rng(77)

        checked = 0
        for _ in range(200):
            offsets = rng.uniform(-1, 1, size=(10, 2))
            offsets = offsets[np.hypot(offsets[:, 0], offsets[:, 1]) > 0.2]
            if len(offsets) < 6:
                continue
            cloud = interior_cloud(offsets, h=0.5)
            try:
                _, rows = build_node_rows(cloud, 0, 1.6)
            except gf.DegenerateStencilError:
                continue
            c = rng.uniform(-2, 2, size=6)
            x, y = offsets[:, 0], offsets[:, 1]
            diffs = c[1] * x + c[2] * y + c[3] * x**2 + c[4] * y**2 + c[5] * x * y
            got = rows @ diffs
            want = np.array([c[1], c[2], 2 * c[3], 2 * c[4], c[5]])
            if np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) > 1e-8:
                problems.append("quadratic exactness violated")
                break
            checked += 1
        if checked < 100:
            problems.append("too few well-posed random stencils")

        # forward-mode Jacobian against central differences
        from test_assembly import waterflood_setup, uniform_state
        from gfdmflow import ImplicitSystem

        cloud, ops, model, specs = waterflood_setup(width=16.0, height=8.0)
        system = ImplicitSystem(cloud, ops, model, specs)
        x = SimState(
            rng.uniform(10, 15, len(cloud)), rng.uniform(0.25, 0.75, len(cloud))
        ).to_vector()
        x_old = uniform_state(cloud).to_vector()
        _, jac = system.residual_and_jacobian(x, x_old, 0.5)
        dense = jac.toarray()
        fd = np.zeros_like(dense)
        for k in range(len(x)):
            eps = 1e-6 * max(1.0, abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += eps
            xm[k] -= eps
            fd[:, k] = (system.residual(xp, x_old, 0.5) - system.residual(xm, x_old, 0.5)) / (2 * eps)
        if np.max(np.abs(dense - fd) / np.maximum(np.abs(fd), 1e-4)) > 1e-5:
            problems.append("AD Jacobian deviates from finite differences")

        # independent dense oracle on a <= 30-node system
        state_new = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        state_old = SimState(rng.uniform(10, 15, len(cloud)), rng.uniform(0.2, 0.8, len(cloud)))
        got = gf.ImplicitSystem(cloud, ops, model, specs).residual(
            state_new.to_vector(), state_old.to_vector(), 0.7
        )
        want = oracle_residual(cloud, ops, model, specs, state_new, state_old, 0.7)
        if np.max(np.abs(got - want)) > 1e-12:
            problems.append("residual deviates from brute-force oracle")

        # oil + water row sum cancels the saturation accumulation
        residual = got
        from gfdmflow.physics import UNIT_ALPHA, kro, krw, pair_transmissibility_parts, upwind_nodes

        for i in map(int, cloud.ids_of_kind(NodeKind.INTERIOR)):
            stencil = ops.stencils[i]
            lap = ops.rows[i][2] + ops.rows[i][3]
            nbr = stencil.neighbors
            k_h, mu_o, mu_w = pair_transmissibility_parts(np.full(len(nbr), i), nbr, model)
            sw_up = state_new.sw[upwind_nodes(state_new.p[nbr] - state_new.p[i], np.full(len(nbr), i), nbr)]
            lam_o, lam_w = kro(sw_up, model) / mu_o, krw(sw_up, model) / mu_w
            total = float(
                np.sum(UNIT_ALPHA * k_h * (lam_o + lam_w) * lap * (state_new.p[nbr] - state_new.p[i]))
            )
            if abs(residual[2 * i] + residual[2 * i + 1] - total) > 1e-12:
                problems.append("phase-sum identity violated")
                break

        # pressure extremum principle and saturation bounds on the benchmark
        for mult in RADII:
            run = radius_runs[mult]
            real = run.cloud.kinds != NodeKind.VIRTUAL
            for t in (250.0, 500.0):
                state = run.states[t]
                if not (
                    np.all(state.p[real] >= 10.0 - 1e-2) and np.all(state.p[real] <= 15.0 + 1e-2)
                ):
                    problems.append(f"pressure bounds violated at radius {mult}, t={t}")
                if not (
                    np.all(state.sw[real] >= 0.2 - 1e-3) and np.all(state.sw[real] <= 0.8 + 1e-3)
                ):
                    problems.append(f"saturation bounds violated at radius {mult}, t={t}")

        # bit-identical reruns
        cfg = full_waterflood_config(t_end=20.0, output_times=(20.0,))
        run_a = gf.run_scenario(cfg)
        run_b = gf.run_scenario(cfg)
        if run_a.report.steps != run_b.report.steps:
            problems.append("solver reports differ between identical runs")
        if not np.array_equal(run_a.states[20.0].sw, run_b.states[20.0].sw):
            problems.append("states differ between identical runs")

        _report(8, "property suites", not problems, "; ".join(problems) or "all properties hold")


@pytest.mark.slow
def test_criterion_9_irregular_domain(polygon_run):
    run, cfg = polygon_run
    problems = []
    snap = run.snapshot(250.0)
    X, Y, P, SW = gf.interpolate_to_lattice(snap, run.cloud.domain, 1.0)

    inside = np.array(
        [
            oracle_point_in_polygon(cfg.vertices, xi, yi)
            for xi, yi in zip(X.ravel(), Y.ravel())
        ]
    ).reshape(X.shape)
    if not (np.all(np.isnan(P[~inside])) and not np.any(np.isnan(P[inside]))):
        problems.append("missing markers do not match the polygon exterior")

    row = int(np.argmin(np.abs(Y[:, 0] - 40.0)))
    ok_cols = ~np.isnan(SW[row])
    front_poly = front_positions(X[row][ok_cols], SW[row][ok_cols], (0.5,))[0]

    rect = full_waterflood_config(t_end=250.0, output_times=(250.0,))
    grid, states, _ = gf.run_fdm_scenario(rect)
    fsnap = fdm_state_snapshot(grid, states[250.0])
    xs, _, sws = gf.extract_profile(fsnap, 40.0)
    front_rect = front_positions(xs, sws, (0.5,))[0]

    diff = abs(front_poly - front_rect)
    if diff > 2 * cfg.spacing:
        problems.append(f"front positions {front_poly:.1f} vs {front_rect:.1f} differ by {diff:.1f} m")
    _report(
        9,
        "irregular-domain run",
        not problems,
        "; ".join(problems)
        or f"NaN mask exact; fronts {front_poly:.1f} / {front_rect:.1f} m ({diff:.1f} m apart)",
    )


def test_strip_reference_equivalence():
    """Support check for the strip-shaped reference: at a coarse spacing the
    reduced-height and full-height runs coincide to roundoff."""
    cfg = full_waterflood_config(t_end=40.0, output_times=(40.0,))
    g_full, s_full, _ = gf.run_fdm_scenario(cfg, dx=2.0, dy=2.0)
    g_strip, s_strip, _ = gf.run_fdm_scenario(cfg, dx=2.0, dy=2.0, strip_ny=5)
    mid_full = s_full[40.0].sw.reshape(g_full.nx, g_full.ny)[:, g_full.ny // 2]
    mid_strip = s_strip[40.0].sw.reshape(g_strip.nx, g_strip.ny)[:, g_strip.ny // 2]
    assert np.max(np.abs(mid_full - mid_strip)) < 1e-12


def test_full_height_reference_matches_strip():
    """The full-height reference answers every lattice point of the 4 m
    cloud with the strip reference's profile, and refuses off-lattice x and y."""
    cfg = full_waterflood_config(t_end=40.0, output_times=(40.0,))
    full = build_reference(cfg, dx=2.0, dt_max=2.0, strip_ny=None)
    strip = build_reference(cfg, dx=2.0, dt_max=2.0, strip_ny=5)
    assert not full.y_invariant and strip.y_invariant
    x, y = (a.ravel() for a in np.meshgrid(np.arange(0.0, 201.0, 4.0), np.arange(0.0, 81.0, 4.0)))
    for got, want in zip(full.sample(x, y), strip.sample(x, y)):
        assert np.max(np.abs(got - want)) < 1e-12
    for x_off, y_off in ((1.0, 4.0), (4.0, 1.0)):
        with pytest.raises(gf.GfdmFlowError, match="not on the reference lattice"):
            full.sample([0.0, x_off], [0.0, y_off])


@pytest.mark.slow
def test_large_step_flood_needs_no_cut_or_restart():
    """Stress run: the shipped 4 m flood at r = 2.001 with steps up to 20 d.
    Each step's Newton iteration starts from the extrapolation of the last
    two states, which must neither fail nor force a smaller step here."""
    cfg = gf.load_config(CONFIGS / "waterflood_4m.cfg").with_overrides(
        radius_multiple=2.001, dt_max=20.0, t_end=200.0, output_times=(200.0,)
    )
    report = gf.run_scenario(cfg).report
    assert (report.cut_events, report.restarts) == (0, 0)
    assert max(s.dt for s in report.steps) == cfg.dt_max
    assert all(s.residual_norm <= cfg.newton_tol for s in report.steps)
    assert sum(s.dt for s in report.steps) == pytest.approx(200.0)
