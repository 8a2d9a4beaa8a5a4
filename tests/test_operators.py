from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdmflow import (
    DegenerateStencilError,
    NodeKind,
    StencilUnderdeterminedError,
    build_operators,
    generate_cartesian_cloud,
    generate_irregular_cloud,
    load_config,
    stencil_quality,
    weight,
)
from gfdmflow.operators import (
    RCOND_DEGENERATE,
    _build_table,
    _neighbor_table,
    _taylor_matrix,
    build_node_rows,
    write_operator_csv,
)
from gfdmflow.pipeline import build_cloud

import golden
from conftest import assert_imbalance, build_layout_cloud, interior_cloud, make_cloud

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SIDES = {"left": "dirichlet", "right": "dirichlet", "top": "robin", "bottom": "robin"}
D_SIDES = {side: "dirichlet" for side in SIDES}


class TestWeight:
    def test_reference_values(self):
        assert weight(0.0, 2.0) == pytest.approx(1.0)
        assert weight(2.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert weight(1.0, 2.0) == pytest.approx(0.3125)

    def test_zero_beyond_cutoff(self):
        r = np.linspace(0.0, 5.0, 101)
        w = weight(r, 2.0)
        assert np.all(w[r > 2.0] == 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_smooth_at_cutoff(self):
        # analytic derivative vanishes at r = r_e
        eps = 1e-7
        slope = (weight(2.0, 2.0) - weight(2.0 - eps, 2.0)) / eps
        assert abs(slope) < 1e-6


def _derivatives(ops, u, node):
    """All five derivatives of the nodal field ``u`` at ``node``."""
    return ops.rows[node] @ (u[ops.stencils[node].neighbors] - u[node])


def _e2_by_label(cloud, ids, center_label, r_e, degenerate="raise"):
    stencil, rows = build_node_rows(cloud, ids[center_label], r_e, degenerate)
    label_of = {v: k for k, v in ids.items()}
    return {label_of[int(j)]: rows[1, k] for k, j in enumerate(stencil.neighbors)}, stencil, rows


class TestGoldenCoefficients:
    """Regression values for the documented boundary-layout studies.

    The boundary node sits on a unit lattice row with the interior below.
    Values are asserted at 1e-4 relative plus half a unit of the table's
    last printed digit (the tables carry 4-5 significant figures, so their
    own rounding must be part of the tolerance), with a 1e-6 absolute floor
    for the near-zero entries.
    """

    def check(self, got, expected):
        problems = golden.check_table(got, expected)
        assert not problems, problems

    def test_radius_15_with_virtual(self):
        cloud, ids = build_layout_cloud(virtual_rows=1, only_near=True)
        got, _, _ = _e2_by_label(cloud, ids, "3", 1.5)
        self.check(got, golden.RADIUS_15_WITH_VIRTUAL)

    def test_radius_25_mirrored_virtual_rows(self):
        cloud, ids = build_layout_cloud(virtual_rows=2)
        got, _, _ = _e2_by_label(cloud, ids, "3", 2.5)
        self.check(got, golden.RADIUS_25_MIRRORED)

    def test_radius_25_single_virtual_row(self):
        cloud, ids = build_layout_cloud(virtual_rows=1)
        got, _, _ = _e2_by_label(cloud, ids, "3", 2.5)
        self.check(got, golden.RADIUS_25_SINGLE_ROW)

    def test_radius_25_no_virtuals(self):
        cloud, ids = build_layout_cloud(virtual_rows=0)
        got, _, _ = _e2_by_label(cloud, ids, "3", 2.5)
        self.check(got, golden.RADIUS_25_NO_VIRTUALS)

    def test_radius_15_no_virtual_is_rank_deficient(self):
        # two lattice rows cannot separate uy from uyy (y + y^2 vanishes on
        # both rows); the strict path must refuse, while the diagnostic
        # inverse reproduces the well-defined entries of the reference
        # analysis (the on-row pair lives in the numerical null space)
        cloud, ids = build_layout_cloud(virtual_rows=0, only_near=True)
        with pytest.raises(DegenerateStencilError):
            build_node_rows(cloud, ids["3"], 1.5)
        got, _, _ = _e2_by_label(cloud, ids, "3", 1.5, degenerate="inverse")
        assert not golden.check_table(got, golden.RADIUS_15_NO_VIRTUAL_STABLE)
        assert abs(got["2"]) < 1e-4 and abs(got["4"]) < 1e-4


class TestBuildOperators:
    def test_quadratic_exactness_randomized(self):
        rng = np.random.default_rng(123)
        failures = 0
        for _ in range(1000):
            n = rng.integers(6, 14)
            offsets = rng.uniform(-1.0, 1.0, size=(n, 2))
            offsets = offsets[np.hypot(offsets[:, 0], offsets[:, 1]) > 0.15]
            if len(offsets) < 6:
                continue
            cloud = interior_cloud(offsets, h=0.5)
            try:
                _, rows = build_node_rows(cloud, 0, 1.6)
            except DegenerateStencilError:
                continue
            c = rng.uniform(-2, 2, size=6)
            x, y = offsets[:, 0], offsets[:, 1]
            u_diff = c[1] * x + c[2] * y + c[3] * x**2 + c[4] * y**2 + c[5] * x * y
            got = rows @ u_diff
            want = np.array([c[1], c[2], 2 * c[3], 2 * c[4], c[5]])
            scale = np.maximum(np.abs(want), 1.0)
            if np.max(np.abs(got - want) / scale) > 1e-8:
                failures += 1
        assert failures == 0

    def test_constant_field_zero(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, D_SIDES)
        ops = build_operators(cloud, 1.5)
        mid = int(np.flatnonzero((cloud.positions == [4.0, 4.0]).all(axis=1))[0])
        assert np.array_equal(_derivatives(ops, np.ones(len(cloud)), mid), np.zeros(5))

    def test_linear_and_bilinear_fields(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, D_SIDES)
        ops = build_operators(cloud, 1.5)
        mid = int(np.flatnonzero((cloud.positions == [4.0, 4.0]).all(axis=1))[0])
        x, y = cloud.positions[:, 0], cloud.positions[:, 1]
        ux, uy, uxx, uyy, uxy = _derivatives(ops, x, mid)
        assert ux == pytest.approx(1.0, abs=1e-8)
        for v in (uy, uxx, uyy, uxy):
            assert v == pytest.approx(0.0, abs=1e-8)
        ux, uy, uxx, uyy, uxy = _derivatives(ops, x * y, mid)
        assert uxy == pytest.approx(1.0, abs=1e-8)
        assert uxx == pytest.approx(0.0, abs=1e-8)
        assert uyy == pytest.approx(0.0, abs=1e-8)

    def test_covers_interior_and_robin_only(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, SIDES)
        from gfdmflow import add_virtual_nodes

        cloudv = add_virtual_nodes(cloud, 1.0)
        ops = build_operators(cloudv, 1.5)
        for i in range(len(cloudv)):
            expected = cloudv.kinds[i] in (NodeKind.INTERIOR, NodeKind.ROBIN)
            assert (int(i) in ops) == expected

    def test_collinear_neighbors_degenerate(self):
        cloud = make_cloud([(0.3 * k, 0.0) for k in range(7)], [NodeKind.INTERIOR] * 7, h=0.3)
        with pytest.raises(DegenerateStencilError, match="node 0"):
            build_node_rows(cloud, 0, 2.5)

    @pytest.mark.parametrize(
        "parts, error",
        [
            (("line",), DegenerateStencilError),
            (("pair",), StencilUnderdeterminedError),
            (("pair", "line"), StencilUnderdeterminedError),
            (("line", "pair"), DegenerateStencilError),
        ],
        ids=["degenerate", "underdetermined", "underdetermined-first", "degenerate-first"],
    )
    def test_batched_build_names_lowest_offending_node(self, parts, error):
        # a well-posed 5x5 unit lattice (nodes 0-24), then far-off parts in
        # order: seven collinear nodes (degenerate) or two nodes
        # (underdetermined); node 25 starts the first part
        far = {
            "line": [(20.0 + 0.3 * k, 0.0) for k in range(7)],
            "pair": [(0.0, 20.0), (0.5, 20.0)],
        }
        positions = [(float(x), float(y)) for x in range(5) for y in range(5)]
        for part in parts:
            positions += far[part]
        cloud = make_cloud(positions, [NodeKind.INTERIOR] * len(positions), h=1.0)
        with pytest.raises(error, match="at node 25:"):
            build_operators(cloud, 2.5)

    def test_mirror_antisymmetry(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, D_SIDES)
        ops = build_operators(cloud, 2.001)
        mid = int(np.flatnonzero((cloud.positions == [4.0, 4.0]).all(axis=1))[0])
        st = ops.stencils[mid]
        rows = ops.rows[mid]
        index_of = {tuple(np.round(o, 9)): k for k, o in enumerate(st.offsets)}
        for k, (ox, oy) in enumerate(st.offsets):
            m = index_of[tuple(np.round((-ox, oy), 9))]
            assert rows[0, k] == pytest.approx(-rows[0, m], abs=1e-10)
            assert rows[2, k] == pytest.approx(rows[2, m], abs=1e-10)
            assert rows[3, k] == pytest.approx(rows[3, m], abs=1e-10)
            m = index_of[tuple(np.round((ox, -oy), 9))]
            assert rows[1, k] == pytest.approx(-rows[1, m], abs=1e-10)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        offsets = rng.uniform(-1, 1, size=(10, 2))
        offsets = offsets[np.hypot(offsets[:, 0], offsets[:, 1]) > 0.2]

        def rows_for(scale):
            cloud = interior_cloud(offsets * scale, h=0.5 * scale)
            _, rows = build_node_rows(cloud, 0, 1.5 * scale)
            return rows

        base = rows_for(1.0)
        scaled = rows_for(7.0)
        assert np.allclose(scaled[0], base[0] / 7.0, rtol=1e-10, atol=1e-12)
        assert np.allclose(scaled[1], base[1] / 7.0, rtol=1e-10, atol=1e-12)
        assert np.allclose(scaled[2:], base[2:] / 49.0, rtol=1e-10, atol=1e-12)


class TestStencilQuality:
    def test_mirrored_rows_balance(self, layout_mirrored_virtual_rows):
        cloud, ids = layout_mirrored_virtual_rows
        q = stencil_quality(build_operators(cloud, 2.5), ids["3"])
        assert_imbalance(q.imbalance[1], 0.0)
        assert q.n_neighbors == 20

    def test_single_virtual_row_imbalance(self, layout_single_virtual_row):
        cloud, ids = layout_single_virtual_row
        q = stencil_quality(build_operators(cloud, 2.5), ids["3"])
        assert_imbalance(q.imbalance[1], 5.29e-5)

    def test_no_virtuals_imbalance(self, layout_no_virtuals):
        cloud, ids = layout_no_virtuals
        q = stencil_quality(build_operators(cloud, 2.5), ids["3"])
        assert_imbalance(q.imbalance[1], -1.25e-2)

    def test_interior_centroid_zero(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, D_SIDES)
        ops = build_operators(cloud, 1.5)
        mid = int(np.flatnonzero((cloud.positions == [4.0, 4.0]).all(axis=1))[0])
        q = stencil_quality(ops, mid)
        assert q.centroid_offset == pytest.approx(0.0, abs=1e-14)


def test_operator_csv_dump(tmp_path):
    cloud = generate_cartesian_cloud(4, 4, 1, 1, D_SIDES)
    ops = build_operators(cloud, 1.5)
    path = tmp_path / "ops.csv"
    write_operator_csv(ops, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,neighbor,e1,e2,e3,e4,e5"
    total = sum(len(ops.stencils[i]) for i in ops.rows)
    assert len(lines) == 1 + total


def test_table_matches_brute_force_oracle():
    """Neighbors and rows of the shipped polygon cloud (jittered, virtual
    nodes, mixed stencil sizes) against a node-by-node scan and
    least-squares solve."""
    from oracle import oracle_operator_rows

    config = load_config(CONFIGS / "waterflood_polygon.cfg")
    cloud = build_cloud(config)
    r_e = config.influence_radius()
    ops = build_operators(cloud, r_e)
    assert cloud.n_virtual > 0 and len(set(np.diff(ops.indptr))) > 5
    for i in ops.nodes:
        neighbors, rows = oracle_operator_rows(cloud.positions, i, r_e)
        assert np.array_equal(ops.stencils[i].neighbors, neighbors)
        scale = np.abs(rows).max(axis=1, keepdims=True)
        assert np.all(np.abs(ops.rows[i] - rows) <= 1e-10 * scale)


def _ball_point_table(cloud, centers, r_e):
    """``(indptr, neighbors)`` of ``centers`` from one ``query_ball_point``
    list per center: every node within ``r_e`` but the center, id-ordered."""
    hits = cloud._tree.query_ball_point(cloud.positions[centers], r_e, return_sorted=True)
    rows = [[j for j in hit if j != c] for c, hit in zip(centers.tolist(), hits)]
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    return indptr, np.array([j for row in rows for j in row], dtype=np.int64)


def _assert_same_table(got, want):
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# the shipped configurations, and the benchmark's polygon at 2 m with the
# lattice radius 4.0 = 2h and its 4 m flood at radius multiple 2.001
SHIPPED = [(name, {}) for name in ("waterflood_4m.cfg", "waterflood_polygon.cfg", "diagnose_layouts.cfg")] + [
    ("waterflood_polygon.cfg", {"spacing": 2.0, "radius_absolute": 4.0}),
    ("waterflood_4m.cfg", {"radius_multiple": 2.001}),
]


class TestNeighborTable:
    """The table's pair search against one ball query per center."""

    @pytest.mark.parametrize("name, overrides", SHIPPED)
    def test_shipped_configs(self, name, overrides):
        config = load_config(CONFIGS / name).with_overrides(**overrides)
        cloud, r_e = build_cloud(config), config.influence_radius()
        ops = build_operators(cloud, r_e)
        _assert_same_table((ops.indptr, ops.neighbors), _ball_point_table(cloud, ops.nodes, r_e))

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([8.0, 12.0, 20.0]),
        spacing=st.sampled_from([1.0, 2.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        jitter=st.sampled_from([0.0, 0.1, 0.3]),
        multiple=st.sampled_from([1.0, 1.5, 2.0, 2.001, 5**0.5, 3.0]),
        every=st.sampled_from([1, 2, 7]),
    )
    def test_irregular_clouds(self, width, spacing, seed, jitter, multiple, every):
        # multiples 1, 2 and sqrt(5) are lattice distances of the unjittered cloud
        poly = ((0.0, 0.0), (width, 0.0), (width, 8.0), (0.0, 8.0))
        cloud = generate_irregular_cloud(poly, spacing, seed, jitter=jitter)
        centers, r_e = np.arange(0, len(cloud), every), multiple * spacing
        _assert_same_table(_neighbor_table(cloud, centers, r_e), _ball_point_table(cloud, centers, r_e))


def _svd_rcond(offsets, r_e):
    """rcond of one stencil's equilibrated normal matrix from its singular values."""
    L = _taylor_matrix(offsets / r_e)
    w2 = weight(np.hypot(offsets[:, 0], offsets[:, 1]), r_e) ** 2
    A = L.T @ (L * w2[:, None])
    d = np.diag(A)
    if not np.all(d > 0):
        return 0.0
    s = 1.0 / np.sqrt(d)
    sv = np.linalg.svd(A * np.outer(s, s), compute_uv=False)
    return sv[-1] / sv[0]


def _tilted_cloud(eps):
    """A center at the origin with neighbors on the rows dy = 0 and dy = -1,
    where dy + dy^2 vanishes, so uy and uyy cannot be told apart; the
    neighbor at (1, -1) is lifted by ``eps``, which gives rcond ~ 1.1 eps^2
    at r_e = 2.5."""
    offsets = np.array([(-2, 0), (-1, 0), (1, 0), (2, 0), (-1, -1), (0, -1), (1, -1), (-2, -1), (2, -1)], float)
    offsets[6, 1] += eps
    return interior_cloud(offsets, h=1.0), offsets


class TestRcond:
    """The build's verdicts and the table's rcond, read off the eigenvalues
    of the symmetric equilibrated normal matrix, against its singular
    values."""

    @pytest.mark.parametrize("name, overrides", [case for case in SHIPPED if case[0] != "diagnose_layouts.cfg"])
    def test_shipped_builds_need_no_eigenvalues(self, name, overrides, monkeypatch):
        # every stencil of the shipped clouds clears the certified bound, and
        # rcond is computed on first read
        config = load_config(CONFIGS / name).with_overrides(**overrides)
        cloud = build_cloud(config)

        def refuse(a):
            raise AssertionError("eigvalsh called by the build")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        ops = build_operators(cloud, config.influence_radius())
        monkeypatch.undo()
        offsets = np.split(ops.offsets, ops.indptr[1:-1])
        want = np.array([_svd_rcond(off, ops.radius) for off in offsets])
        assert np.all(np.abs(ops.rcond - want) <= 1e-12 * want)

    def test_near_threshold_verdicts(self, monkeypatch):
        # rcond 1.1e-14 ... 1.1e-8: both sides of RCOND_DEGENERATE and of the
        # certified bound's margin, which clears 3.5e-9 here but not 1.1e-9
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        screened = {True: [], False: []}
        for eps in np.logspace(-6, -3, 13):
            cloud, offsets = _tilted_cloud(eps)
            want = _svd_rcond(offsets, 2.5)
            # eigenvalue and singular-value rcond agree to ~eps / rcond, so
            # no point may sit within round-off of the threshold
            assert abs(np.log10(want / RCOND_DEGENERATE)) > 0.02
            calls.clear()
            if want < RCOND_DEGENERATE:
                with pytest.raises(DegenerateStencilError, match="at node 0: rcond="):
                    _build_table(cloud, np.array([0]), 2.5, "raise")
            else:
                _build_table(cloud, np.array([0]), 2.5, "raise")
            screened[want >= RCOND_DEGENERATE].append(not calls)
        assert len(screened[False]) == 4 and not any(screened[False])
        assert any(screened[True]) and not all(screened[True])

    def test_error_prints_table_rcond(self):
        cloud, _ = _tilted_cloud(3e-6)
        with pytest.raises(DegenerateStencilError) as info:
            build_node_rows(cloud, 0, 2.5)
        stencil, _ = build_node_rows(cloud, 0, 2.5, degenerate="inverse")
        assert 0 < stencil.rcond < RCOND_DEGENERATE
        assert f"rcond={stencil.rcond:.2e} " in str(info.value)

    @pytest.mark.parametrize("r_e", [1.5, 1.6, 2.0, 2.5, 3.0])
    def test_layout_verdicts(self, r_e):
        cloud = build_cloud(load_config(CONFIGS / "diagnose_layouts.cfg"))
        indptr, neighbors = _neighbor_table(cloud, np.arange(len(cloud)), r_e)
        for node in range(len(cloud)):
            offsets = cloud.positions[neighbors[indptr[node] : indptr[node + 1]]] - cloud.positions[node]
            if len(offsets) < 5:
                continue
            want = _svd_rcond(offsets, r_e)
            if want < RCOND_DEGENERATE:
                with pytest.raises(DegenerateStencilError, match=f"at node {node}: rcond="):
                    build_node_rows(cloud, node, r_e)
            else:
                stencil, _ = build_node_rows(cloud, node, r_e)
                assert abs(stencil.rcond - want) <= 1e-12 * want

    def test_polygon_table(self):
        config = load_config(CONFIGS / "waterflood_polygon.cfg")
        ops = build_operators(build_cloud(config), config.influence_radius())
        offsets = np.split(ops.offsets, ops.indptr[1:-1])
        want = np.array([_svd_rcond(off, ops.radius) for off in offsets])
        assert np.all(np.abs(ops.rcond - want) <= 1e-12 * want)
