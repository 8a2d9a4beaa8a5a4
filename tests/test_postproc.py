import csv

import numpy as np
import pytest

from gfdmflow import (
    GfdmFlowError,
    extract_profile,
    front_positions,
    front_width,
    interpolate_to_lattice,
)
from gfdmflow.cloud import Polygon
from gfdmflow.postproc import FieldSnapshot, write_vtk_points

from oracle import oracle_point_in_polygon


def lattice_snapshot(nx=51, ny=21, spacing=4.0, p_fn=None, sw_fn=None):
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    x, y = X.ravel(), Y.ravel()
    p = p_fn(x, y) if p_fn else np.full_like(x, 12.0)
    sw = sw_fn(x, y) if sw_fn else np.full_like(x, 0.5)
    return FieldSnapshot(500.0, x, y, p, sw)


class TestExtractProfile:
    def test_full_lattice_row(self):
        snap = lattice_snapshot()
        x, p, sw = extract_profile(snap, 40.0, tol=1e-6)
        assert len(x) == 51
        assert np.all(np.diff(x) > 0)

    def test_empty_selection(self):
        snap = lattice_snapshot()
        with pytest.raises(GfdmFlowError, match="no nodes"):
            extract_profile(snap, 41.0, tol=1e-6)

    def test_loose_tolerance_scattered(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 200, 400)
        y = rng.uniform(0, 80, 400)
        snap = FieldSnapshot(1.0, x, y, np.zeros(400), np.zeros(400))
        xs, _, _ = extract_profile(snap, 40.0, tol=2.0)
        assert len(xs) > 0
        assert np.all(np.diff(xs) >= 0)


class TestLatticeInterpolation:
    def test_exact_hit_returns_nodal_value(self):
        snap = lattice_snapshot(p_fn=lambda x, y: x + 2 * y)
        domain = Polygon(((0.0, 0.0), (200.0, 0.0), (200.0, 80.0), (0.0, 80.0)))
        X, Y, P, SW = interpolate_to_lattice(snap, domain, 4.0)
        assert np.allclose(P, X + 2 * Y)

    def test_constant_field_inside_nan_outside(self):
        poly_pts = ((0.0, 0.0), (20.0, 0.0), (20.0, 10.0), (10.0, 5.0), (0.0, 10.0))
        rng = np.random.default_rng(0)
        n = 500
        x = rng.uniform(0, 20, n)
        y = rng.uniform(0, 10, n)
        keep = np.array([oracle_point_in_polygon(poly_pts, xi, yi) for xi, yi in zip(x, y)])
        snap = FieldSnapshot(1.0, x[keep], y[keep], np.full(keep.sum(), 7.5), np.full(keep.sum(), 0.3))
        domain = Polygon(poly_pts)
        X, Y, P, SW = interpolate_to_lattice(snap, domain, 1.0)
        inside = np.array(
            [oracle_point_in_polygon(poly_pts, xi, yi) for xi, yi in zip(X.ravel(), Y.ravel())]
        ).reshape(X.shape)
        assert np.all(np.isnan(P[~inside]))
        assert np.allclose(P[inside], 7.5)
        assert np.allclose(SW[inside], 0.3)

    def test_linear_field_exact_on_node_lattice(self):
        # lattice points coincide with nodes: the exact-hit shortcut makes
        # linear reproduction exact
        snap = lattice_snapshot(p_fn=lambda x, y: 5.0 + 0.1 * x)
        domain = Polygon(((0.0, 0.0), (200.0, 0.0), (200.0, 80.0), (0.0, 80.0)))
        X, _, P, _ = interpolate_to_lattice(snap, domain, 4.0)
        want = 5.0 + 0.1 * X
        assert np.nanmax(np.abs(P - want) / np.abs(want)) < 1e-6

    def test_linear_field_scattered_first_order(self):
        # off-node, inverse-distance weighting reproduces constants exactly
        # but linear fields only to first order in the node spacing
        from gfdmflow import generate_irregular_cloud

        poly = ((0.0, 0.0), (200.0, 0.0), (200.0, 80.0), (0.0, 80.0))
        cloud = generate_irregular_cloud(poly, 4.0, seed=7, jitter=0.3)
        x, y = cloud.positions[:, 0], cloud.positions[:, 1]
        snap = FieldSnapshot(1.0, x, y, 10.0 + 0.025 * x, np.full_like(x, 0.5))
        X, _, P, _ = interpolate_to_lattice(snap, Polygon(poly), 1.0)
        want = 10.0 + 0.025 * X
        assert np.nanmax(np.abs(P - want) / np.abs(want)) < 1e-2

    def test_query_threads_leave_lattice_bits(self, monkeypatch):
        from gfdmflow import generate_irregular_cloud, postproc

        poly = ((0.0, 0.0), (200.0, 0.0), (200.0, 80.0), (0.0, 80.0))
        cloud = generate_irregular_cloud(poly, 4.0, seed=7, jitter=0.3)
        x, y = cloud.positions[:, 0], cloud.positions[:, 1]
        snap = FieldSnapshot(1.0, x, y, 10.0 + np.sin(0.1 * x) * y, 0.2 + 0.003 * x)
        threaded = interpolate_to_lattice(snap, Polygon(poly), 1.0)
        monkeypatch.setattr(postproc, "QUERY_WORKERS", 1)
        single = interpolate_to_lattice(snap, Polygon(poly), 1.0)
        for got, want in zip(threaded, single):
            assert got.tobytes() == want.tobytes()


class TestFrontMetrics:
    def test_sharp_front(self):
        x = np.linspace(0, 100, 201)
        sw = np.where(x < 50, 0.8, 0.2)
        (pos,) = front_positions(x, sw, (0.5,))
        assert pos == pytest.approx(50.0, abs=0.5)

    def test_linear_ramp_width(self):
        x = np.linspace(0, 100, 401)
        sw = np.clip(0.8 - 0.01 * x, 0.2, 0.8)
        width = front_width(x, sw, 0.7, 0.3)
        assert width == pytest.approx(40.0, abs=0.5)

    def test_missing_level(self):
        x = np.linspace(0, 10, 11)
        sw = np.full_like(x, 0.4)
        with pytest.raises(GfdmFlowError):
            front_positions(x, sw, (0.7,))


class TestSnapshotCsv:
    def test_round_trip(self, tmp_path):
        snap = lattice_snapshot(nx=5, ny=3)
        path = tmp_path / "snap.csv"
        snap.write_csv(path)
        back = FieldSnapshot.read_csv(path)
        assert back.time == snap.time
        assert np.array_equal(back.x, snap.x)
        assert np.array_equal(back.p, snap.p)

    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((4, 50)) * 10.0 ** rng.integers(-300, 300, (4, 50))
        values[:, :3] = [-0.0, 1e22, 5e-324]
        snap = FieldSnapshot(0.05, *values)
        path = tmp_path / "snap.csv"
        snap.write_csv(path)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "x", "y", "p", "Sw"])
            for k in range(values.shape[1]):
                writer.writerow([repr(float(snap.time))] + [repr(float(v)) for v in values[:, k]])
        assert path.read_bytes() == want.read_bytes()

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(GfdmFlowError):
            FieldSnapshot.read_csv(path)


    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "no data rows"),
            ("1.0,0.0,0.0,12.0,0.5\n1.0,4.0,0.0,p,0.5\n", "line 3"),
            ("1.0,0.0,0.0\n", "line 2"),
            ("1.0,0.0,0.0,12.0,0.5,9\n", "line 2"),
        ],
        ids=["header-only", "non-numeric", "short-row", "long-row"],
    )
    def test_malformed_rows_raise_documented_error(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y,p,Sw\n" + body)
        with pytest.raises(GfdmFlowError, match=message):
            FieldSnapshot.read_csv(path)


def test_vtk_point_writer(tmp_path):
    snap = lattice_snapshot(nx=3, ny=2)
    path = tmp_path / "out.vtk"
    write_vtk_points(path, snap.x, snap.y, {"p": snap.p, "Sw": snap.sw})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "POINTS 6 double" in text
    assert "SCALARS p double 1" in text
    assert "SCALARS Sw double 1" in text
