import math
from pathlib import Path

import numpy as np
import pytest

from gfdmflow import (
    CloudError,
    NodeKind,
    StencilUnderdeterminedError,
    add_virtual_nodes,
    generate_cartesian_cloud,
    generate_irregular_cloud,
    load_config,
    read_cloud_csv,
    write_cloud_csv,
)
from gfdmflow.cloud import Polygon
from gfdmflow.operators import build_node_rows

from conftest import assert_same_cloud, build_layout_cloud, make_cloud
from oracle import oracle_irregular_cloud

WATERFLOOD_SIDES = {"left": "dirichlet", "right": "dirichlet", "top": "robin", "bottom": "robin"}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_POLYGON = load_config(CONFIGS / "waterflood_polygon.cfg").vertices
CONCAVE_NOTCH = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 2.0), (0.0, 10.0))
TILTED_QUAD = ((0.0, 0.0), (20.0, 3.0), (24.0, 13.0), (2.0, 9.0))


class TestCartesianGeneration:
    def test_waterflood_lattice_counts(self):
        cloud = generate_cartesian_cloud(200, 80, 4, 4, WATERFLOOD_SIDES)
        assert len(cloud) == 51 * 21 == 1071
        # two vertical Dirichlet sides, corners included by priority
        assert len(cloud.ids_of_kind(NodeKind.DIRICHLET)) == 2 * 21
        assert len(cloud.ids_of_kind(NodeKind.ROBIN)) == 2 * (51 - 2)
        assert len(cloud.ids_of_kind(NodeKind.INTERIOR)) == 1071 - 42 - 98

    def test_smallest_all_dirichlet_lattice(self):
        cloud = generate_cartesian_cloud(1, 1, 1, 1, {s: "dirichlet" for s in WATERFLOOD_SIDES})
        assert len(cloud) == 4
        assert len(cloud.ids_of_kind(NodeKind.DIRICHLET)) == 4
        assert len(cloud.ids_of_kind(NodeKind.INTERIOR)) == 0

    def test_all_robin_corner_normals(self):
        cloud = generate_cartesian_cloud(2, 1, 1, 1, {s: "robin" for s in WATERFLOOD_SIDES})
        assert len(cloud) == 6
        assert len(cloud.ids_of_kind(NodeKind.ROBIN)) == 6
        inv = 1.0 / math.sqrt(2.0)
        by_pos = {tuple(p): i for i, p in enumerate(map(tuple, cloud.positions))}
        assert np.allclose(cloud.normals[by_pos[(0.0, 0.0)]], (-inv, -inv))
        assert np.allclose(cloud.normals[by_pos[(2.0, 1.0)]], (inv, inv))
        assert np.allclose(cloud.normals[by_pos[(1.0, 0.0)]], (0.0, -1.0))

    def test_corner_priority_dirichlet_wins(self):
        cloud = generate_cartesian_cloud(8, 8, 4, 4, WATERFLOOD_SIDES)
        corner = int(np.flatnonzero((cloud.positions == [0.0, 0.0]).all(axis=1))[0])
        assert cloud.kinds[corner] == NodeKind.DIRICHLET

    def test_rejects_bad_spacing(self):
        with pytest.raises(CloudError):
            generate_cartesian_cloud(10, 10, 0.0, 1, WATERFLOOD_SIDES)
        with pytest.raises(CloudError):
            generate_cartesian_cloud(10, 10, 3, 1, WATERFLOOD_SIDES)


class TestVirtualNodes:
    def test_positions_and_links(self):
        cloud = generate_cartesian_cloud(40, 16, 4, 4, WATERFLOOD_SIDES)
        out = add_virtual_nodes(cloud, 4.0)
        n_robin = len(cloud.ids_of_kind(NodeKind.ROBIN))
        assert len(out) == len(cloud) + n_robin
        assert out.n_virtual == n_robin
        for b in out.ids_of_kind(NodeKind.VIRTUAL):
            host = int(out.hosts[b])
            assert out.kinds[host] == NodeKind.ROBIN
            gap = np.linalg.norm(out.positions[b] - out.positions[host])
            assert abs(gap - 4.0) <= 1e-12
        # exactly one virtual per robin host
        hosts = out.hosts[out.ids_of_kind(NodeKind.VIRTUAL)]
        assert len(np.unique(hosts)) == n_robin

    def test_single_node_placement(self):
        cloud = make_cloud(
            [(10.0, 80.0), (10.0, 76.0)],
            [NodeKind.ROBIN, NodeKind.INTERIOR],
            h=4.0,
            normals=[(0.0, 1.0), (np.nan, np.nan)],
        )
        out = add_virtual_nodes(cloud, 4.0)
        assert np.allclose(out.positions[2], (10.0, 84.0))

    def test_layout_virtual_above_boundary(self):
        cloud, ids = build_layout_cloud(virtual_rows=1)
        v3 = ids["V3"]
        assert np.allclose(cloud.positions[v3], (0.0, 1.0))
        assert int(cloud.hosts[v3]) == ids["3"]

    def test_noop_without_robin_nodes(self):
        cloud = generate_cartesian_cloud(4, 4, 4, 4, {s: "dirichlet" for s in WATERFLOOD_SIDES})
        assert add_virtual_nodes(cloud, 1.0) is cloud

    def test_rejects_virtual_inside_domain(self):
        # concave notch: outward offset from the notch tip lands inside
        poly = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 2.0), (0.0, 10.0))
        cloud = generate_irregular_cloud(poly, 1.0, seed=3, jitter=0.0)
        with pytest.raises(CloudError, match="inside the domain"):
            add_virtual_nodes(cloud, 6.0)


class TestIrregularGeneration:
    def test_unit_square_corners_and_distances(self):
        poly = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        cloud = generate_irregular_cloud(poly, 0.5, seed=7)
        pos = cloud.positions
        for corner in poly:
            assert np.min(np.hypot(pos[:, 0] - corner[0], pos[:, 1] - corner[1])) < 1e-12
        d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).transpose(2, 0, 1))
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.25 - 1e-12

    def test_zero_jitter_matches_cartesian(self):
        poly = ((0.0, 0.0), (200.0, 0.0), (200.0, 80.0), (0.0, 80.0))
        irregular = generate_irregular_cloud(
            poly, 4.0, seed=1, jitter=0.0,
            edge_kinds=["robin", "dirichlet", "robin", "dirichlet"],
        )
        cartesian = generate_cartesian_cloud(200, 80, 4, 4, WATERFLOOD_SIDES)
        a = np.array(sorted(map(tuple, np.round(irregular.positions, 9))))
        b = np.array(sorted(map(tuple, np.round(cartesian.positions, 9))))
        assert a.shape == b.shape
        assert np.allclose(a, b)

    def test_deterministic_for_fixed_seed(self):
        poly = ((0.0, 0.0), (20.0, 0.0), (24.0, 10.0), (0.0, 8.0))
        one = generate_irregular_cloud(poly, 1.0, seed=42)
        two = generate_irregular_cloud(poly, 1.0, seed=42)
        assert np.array_equal(one.positions, two.positions)
        assert np.array_equal(one.kinds, two.kinds)

    def test_degenerate_polygon_rejected(self):
        tiny = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        with pytest.raises(CloudError):
            generate_irregular_cloud(tiny, 1.5, seed=0)

    @pytest.mark.parametrize("width, height", [(2.0, 2.0), (200.0, 4.0)], ids=["square", "strip"])
    def test_spacing_equal_to_inscribed_width_accepted(self, width, height):
        rectangle = ((0.0, 0.0), (width, 0.0), (width, height), (0.0, height))
        assert height <= Polygon(rectangle).inscribed_width() <= 1.02 * height
        cloud = generate_irregular_cloud(rectangle, height, seed=0)
        assert np.array_equal(cloud.positions[:4], np.array(rectangle))

    def test_clockwise_polygon_rejected(self):
        cw = ((0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0))
        with pytest.raises(CloudError):
            generate_irregular_cloud(cw, 1.0, seed=0)


class TestIrregularFillOracle:
    """The kd-tree fill accepts exactly the nodes of the sequential scan."""

    @pytest.mark.parametrize("jitter", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("seed", [7, 1, 2])
    @pytest.mark.parametrize("spacing", [4.0, 2.0])
    def test_shipped_polygon(self, spacing, seed, jitter):
        kinds = ["robin", "dirichlet", "robin", "robin", "robin", "dirichlet"]
        args = (SHIPPED_POLYGON, spacing, seed)
        want = oracle_irregular_cloud(*args, jitter=jitter, edge_kinds=kinds)
        assert_same_cloud(generate_irregular_cloud(*args, jitter=jitter, edge_kinds=kinds), want)

    @pytest.mark.parametrize("jitter", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("poly", [CONCAVE_NOTCH, TILTED_QUAD], ids=["concave-notch", "tilted-quad"])
    def test_other_polygons(self, poly, jitter):
        for seed in (3, 11):
            want = oracle_irregular_cloud(poly, 0.5, seed, jitter=jitter)
            assert_same_cloud(generate_irregular_cloud(poly, 0.5, seed, jitter=jitter), want)

    def test_no_candidate_inside(self):
        # the lattice starts one spacing in and stops half a spacing short
        poly = ((0.0, 0.0), (1.4, 0.0), (1.4, 1.4), (0.0, 1.4))
        cloud = generate_irregular_cloud(poly, 1.0, seed=0, jitter=0.5)
        # edges shorter than 1.5 spacings carry their two vertices only
        assert np.array_equal(cloud.positions, np.array(poly))
        assert_same_cloud(cloud, oracle_irregular_cloud(poly, 1.0, seed=0, jitter=0.5))

    def test_one_candidate_inside(self):
        poly = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
        cloud = generate_irregular_cloud(poly, 1.0, seed=0, jitter=0.3)
        assert len(cloud.ids_of_kind(NodeKind.INTERIOR)) == 1
        assert len(cloud) == 9
        assert np.all(np.abs(cloud.positions[-1] - 1.0) <= 0.3)
        assert_same_cloud(cloud, oracle_irregular_cloud(poly, 1.0, seed=0, jitter=0.3))


def stencil_of(cloud, center, r_e, degenerate="raise"):
    """The stencil of one center, from the one-center operator table."""
    return build_node_rows(cloud, center, r_e, degenerate)[0]


class TestStencils:
    def test_unit_lattice_eight_neighbors(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, WATERFLOOD_SIDES)
        center = int(np.flatnonzero((cloud.positions == [4.0, 4.0]).all(axis=1))[0])
        stencil = stencil_of(cloud, center, 1.001 * math.sqrt(2.0))
        assert len(stencil) == 8

    def test_underdetermined_radius(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, WATERFLOOD_SIDES)
        with pytest.raises(StencilUnderdeterminedError):
            stencil_of(cloud, 30, 0.5)

    def test_layout_boundary_neighbor_count(self, layout_no_virtuals):
        cloud, ids = layout_no_virtuals
        stencil = stencil_of(cloud, ids["3"], 2.5)
        labels = {lab for lab, i in ids.items() if i in set(map(int, stencil.neighbors))}
        assert labels == {"1", "2", "4", "5", "6", "7", "8", "9", "10", "12", "13", "14"}
        assert len(stencil) == 12

    def test_nesting_property(self):
        cloud = generate_cartesian_cloud(12, 12, 1, 1, WATERFLOOD_SIDES)
        center = 60
        small = stencil_of(cloud, center, 1.5)
        large = stencil_of(cloud, center, 2.5)
        assert set(map(int, small.neighbors)) <= set(map(int, large.neighbors))

    def test_reflection_symmetric_offsets(self):
        cloud = generate_cartesian_cloud(8, 8, 1, 1, WATERFLOOD_SIDES)
        center = int(np.flatnonzero((cloud.positions == [4.0, 4.0]).all(axis=1))[0])
        stencil = stencil_of(cloud, center, 2.001)
        mirrored = sorted(map(tuple, np.round(stencil.offsets * [-1, 1], 12)))
        original = sorted(map(tuple, np.round(stencil.offsets, 12)))
        assert mirrored == original

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(11)
        poly = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
        cloud = generate_irregular_cloud(poly, 0.7, seed=5, jitter=0.3)
        assert len(cloud) <= 500
        pos = cloud.positions
        for center in rng.integers(0, len(cloud), size=25):
            r_e = float(rng.uniform(1.0, 3.0))
            dist = np.hypot(pos[:, 0] - pos[center, 0], pos[:, 1] - pos[center, 1])
            expected = np.flatnonzero((dist <= r_e) & (np.arange(len(cloud)) != center))
            if len(expected) < 5:
                with pytest.raises(StencilUnderdeterminedError):
                    stencil_of(cloud, int(center), r_e, degenerate="inverse")
            else:
                stencil = stencil_of(cloud, int(center), r_e, degenerate="inverse")
                assert np.array_equal(stencil.neighbors, expected)


class TestCloudInvariants:
    def test_coincident_nodes_rejected(self):
        with pytest.raises(CloudError, match="coincide"):
            make_cloud([(0.0, 0.0), (0.0, 0.0)], [NodeKind.INTERIOR] * 2, h=1.0)

    def test_normal_required_for_robin(self):
        with pytest.raises(CloudError):
            make_cloud([(0.0, 0.0)], [NodeKind.ROBIN], h=1.0)
        with pytest.raises(CloudError):
            make_cloud([(0.0, 0.0)], [NodeKind.ROBIN], h=1.0, normals=[(1.0, 1.0)])

    def test_non_finite_position_rejected(self):
        with pytest.raises(CloudError, match="node 1: position is not finite"):
            make_cloud([(0.0, 0.0), (np.nan, 1.0)], [NodeKind.INTERIOR] * 2, h=1.0)

    def test_one_dimensional_normals_rejected(self):
        with pytest.raises(CloudError, match="shape"):
            make_cloud([(0.0, 0.0), (0.0, 1.0)], [NodeKind.INTERIOR] * 2, h=1.0, normals=np.full(2, np.nan))

    def test_host_references_robin(self):
        with pytest.raises(CloudError, match="robin"):
            make_cloud([(0.0, 0.0), (0.0, 1.0)], [NodeKind.INTERIOR, NodeKind.VIRTUAL], h=1.0, hosts=[-1, 0])

    def test_virtual_positions_outside(self):
        cloud = generate_cartesian_cloud(40, 16, 4, 4, WATERFLOOD_SIDES)
        out = add_virtual_nodes(cloud, 4.0)
        v = out.ids_of_kind(NodeKind.VIRTUAL)
        inside = out.domain.contains(out.positions[v, 0], out.positions[v, 1])
        assert not np.any(inside)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, layout_single_virtual_row):
        cloud, _ids = layout_single_virtual_row
        path = tmp_path / "cloud.csv"
        write_cloud_csv(cloud, path)
        back = read_cloud_csv(path, h=cloud.h)
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.kinds, cloud.kinds)
        assert np.array_equal(back.hosts, cloud.hosts)
        robin = cloud.ids_of_kind(NodeKind.ROBIN)
        assert np.allclose(back.normals[robin], cloud.normals[robin])

    def test_write_read_write_bytes(self, tmp_path):
        cartesian = generate_cartesian_cloud(16, 8, 4, 4, {s: "robin" for s in WATERFLOOD_SIDES})
        cloud = add_virtual_nodes(cartesian, 4.0)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_cloud_csv(cloud, first)
        write_cloud_csv(read_cloud_csv(first, h=cloud.h), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(CloudError, match="header"):
            read_cloud_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,0.0,0.0,blob,,,\n", "line 2"),
            ("0,0.0,0.0,interior,,,\n1,1.0\n", "line 3"),
            ("0,0.0,zero,interior,,,\n", "line 2"),
            ("0,0.0,0.0,interior,,,\n1,1.0,0.0,interior,,,x\n", "line 3"),
            ("", "no nodes"),
            ("0,0.0,0.0,interior,,,\n", "two non-virtual nodes"),
            ("0,0.0,0.0,interior,,,\n1,1.0,0.0,interior,,,\n2,0.0,1.0,virtual,,,99\n", "host"),
            ("0,0.0,0.0,interior,0.0,1.0,\n1,1.0,0.0,interior,,,\n", "line 2"),
            ("0,0.0,0.0,interior,,,\n1,1.0,0.0,interior,nan,nan,\n", "line 3"),
            ("0,0.0,0.0,interior,,,\n1,1.0,0.0,interior,,,-1\n", "line 3"),
            ("0,0.0,0.0,robin,0.0,1.0,\n1,1.0,0.0,interior,,,\n2,0.0,1.0,virtual,,,\n", "line 4"),
            ("0,0.0,0.0,interior,,,\n2,1.0,0.0,interior,,,\n", "line 3"),
            ("0,0.0,0.0,interior,,,\n1,1.0,0.0,robin,,,\n", "line 3"),
            ("0,0.0,0.0,interior,,,\n1,inf,0.0,interior,,,\n", "line 3"),
        ],
        ids=[
            "unknown-kind", "short-row", "non-numeric", "non-integer-host", "header-only", "one-node",
            "host-out-of-range", "normal-on-interior", "nan-normal-on-interior", "host-on-interior",
            "virtual-without-host", "ids-out-of-order", "robin-without-normal", "non-finite-position",
        ],
    )
    def test_malformed_rows_raise_cloud_error(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("id,x,y,kind,n_x,n_y,host\n" + body)
        with pytest.raises(CloudError, match=message):
            read_cloud_csv(path)

    def test_unreadable_csv_raises_cloud_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,x,y,kind,n_x,n_y,host\n0,0.0,0.0,interi\xffor,,,\n")
        with pytest.raises(CloudError, match="cannot read"):
            read_cloud_csv(path)
        # a bare carriage return inside a row
        path.write_text("id,x,y,kind,n_x,n_y,host\n0,0.0,0.0,interior,\r,,\n", newline="")
        with pytest.raises(CloudError, match="cannot read"):
            read_cloud_csv(path)

    def test_inferred_spacing(self, tmp_path):
        cloud = generate_cartesian_cloud(8, 8, 2, 2, WATERFLOOD_SIDES)
        path = tmp_path / "cloud.csv"
        write_cloud_csv(cloud, path)
        back = read_cloud_csv(path)
        assert back.h == pytest.approx(2.0)


def test_polygon_contains_matches_winding_oracle():
    from oracle import oracle_point_in_polygon

    poly_pts = ((0.0, 0.0), (10.0, 0.0), (10.0, 6.0), (5.0, 3.0), (0.0, 6.0))
    poly = Polygon(poly_pts)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1, 11, 300)
    ys = rng.uniform(-1, 7, 300)
    got = poly.contains(xs, ys)
    want = np.array([oracle_point_in_polygon(poly_pts, x, y) for x, y in zip(xs, ys)])
    assert np.array_equal(got, want)
