"""Shared fixtures: benchmark stencil layouts and small scenario configs."""

import numpy as np
import pytest

from gfdmflow import ScenarioConfig, SegmentBC, physics
from gfdmflow.cloud import NodeCloud, NodeKind

UP = (0.0, 1.0)

# Boundary-stencil study layouts: a unit-spacing boundary row at y = 0 with
# interior rows below and optional virtual rows above.  Node labels follow
# the layout sketches used in the golden coefficient tables.
_BASE_ROWS = [
    ("1", -2.0, 0.0), ("2", -1.0, 0.0), ("3", 0.0, 0.0), ("4", 1.0, 0.0), ("5", 2.0, 0.0),
    ("6", -2.0, -1.0), ("7", -1.0, -1.0), ("8", 0.0, -1.0), ("9", 1.0, -1.0), ("10", 2.0, -1.0),
    ("11", -2.0, -2.0), ("12", -1.0, -2.0), ("13", 0.0, -2.0), ("14", 1.0, -2.0), ("15", 2.0, -2.0),
]
_VIRTUAL_ROW_1 = [
    ("V1", -2.0, 1.0, "1"), ("V2", -1.0, 1.0, "2"), ("V3", 0.0, 1.0, "3"),
    ("V4", 1.0, 1.0, "4"), ("V5", 2.0, 1.0, "5"),
]
_VIRTUAL_ROW_2 = [("V6", -1.0, 2.0, "2"), ("V7", 0.0, 2.0, "3"), ("V8", 1.0, 2.0, "4")]


def make_cloud(positions, kinds, h, normals=None, hosts=None):
    """A :class:`NodeCloud` from its arrays; ``normals`` default to NaN rows
    and ``hosts`` to -1, as for nodes that carry neither."""
    n = len(positions)
    normals = np.full((n, 2), np.nan) if normals is None else normals
    hosts = np.full(n, -1) if hosts is None else hosts
    return NodeCloud(np.asarray(positions, dtype=float), kinds, normals, hosts, h)


def assert_same_cloud(got, want):
    """The two clouds hold byte-equal node arrays (NaN normals included)."""
    for name in ("positions", "kinds", "normals", "hosts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def interior_cloud(offsets, h):
    """A cloud of interior nodes: node 0 at the origin, node ``k + 1`` at
    ``offsets[k]``."""
    positions = np.vstack([[0.0, 0.0], offsets])
    return make_cloud(positions, np.full(len(positions), NodeKind.INTERIOR), h)


def build_layout_cloud(virtual_rows: int = 0, only_near: bool = False):
    """Layout cloud and a label->id map.

    ``virtual_rows`` adds the mirrored virtual rows above the boundary
    (0, 1, or 2).  ``only_near`` keeps just the 3x2 neighborhood used by the
    radius-1.5 layouts plus the single virtual above the center.
    """
    entries = []
    if only_near:
        keep = {"2", "3", "4", "7", "8", "9"}
        for lab, x, y in _BASE_ROWS:
            if lab in keep:
                entries.append((lab, x, y, NodeKind.ROBIN if y == 0.0 else NodeKind.INTERIOR, None))
        if virtual_rows:
            entries.append(("V3", 0.0, 1.0, NodeKind.VIRTUAL, "3"))
    else:
        for lab, x, y in _BASE_ROWS:
            kind = NodeKind.ROBIN if y == 0.0 else NodeKind.INTERIOR
            entries.append((lab, x, y, kind, None))
        if virtual_rows >= 1:
            for lab, x, y, host in _VIRTUAL_ROW_1:
                entries.append((lab, x, y, NodeKind.VIRTUAL, host))
        if virtual_rows >= 2:
            for lab, x, y, host in _VIRTUAL_ROW_2:
                entries.append((lab, x, y, NodeKind.VIRTUAL, host))

    labels, xs, ys, kinds, hosts = zip(*entries)
    ids = {lab: k for k, lab in enumerate(labels)}
    normals = [UP if kind == NodeKind.ROBIN else (np.nan, np.nan) for kind in kinds]
    hosts = [ids[host] if host else -1 for host in hosts]
    return make_cloud(np.column_stack([xs, ys]), kinds, 1.0, normals, hosts), ids


@pytest.fixture
def layout_no_virtuals():
    return build_layout_cloud(virtual_rows=0)


@pytest.fixture
def layout_single_virtual_row():
    return build_layout_cloud(virtual_rows=1)


@pytest.fixture
def layout_mirrored_virtual_rows():
    return build_layout_cloud(virtual_rows=2)


def waterflood_config(**overrides) -> ScenarioConfig:
    """Small water-flood rectangle; override freely per test."""
    base = dict(
        width=40.0,
        height=16.0,
        dx=4.0,
        dy=4.0,
        radius_multiple=1.001,
        boundaries={
            "left": SegmentBC.dirichlet(15.0, 0.8),
            "right": SegmentBC.dirichlet(10.0, 0.2),
            "top": SegmentBC.noflow(),
            "bottom": SegmentBC.noflow(),
        },
        t_end=20.0,
        output_times=(20.0,),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def full_waterflood_config(**overrides) -> ScenarioConfig:
    """The 200 m x 80 m water-flood benchmark at 4 m spacing."""
    base = dict(
        width=200.0,
        height=80.0,
        dx=4.0,
        dy=4.0,
        radius_multiple=1.001,
        boundaries={
            "left": SegmentBC.dirichlet(15.0, 0.8),
            "right": SegmentBC.dirichlet(10.0, 0.2),
            "top": SegmentBC.noflow(),
            "bottom": SegmentBC.noflow(),
        },
        t_end=500.0,
        output_times=(500.0,),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture
def small_config():
    return waterflood_config()


@pytest.fixture
def freeze_saturation(monkeypatch):
    """Call with a saturation to evaluate both relative permeabilities there
    for the rest of the test, whatever saturation they are given (in the
    shape they are given it); the flow system then becomes linear."""
    normalized = physics._normalized_sw

    def freeze(sw):
        monkeypatch.setattr(physics, "_normalized_sw", lambda _sw, model: 0.0 * _sw + normalized(sw, model))

    return freeze


def assert_imbalance(value, expected, sigfigs=2):
    """Two-significant-figure agreement on a possibly tiny signed value."""
    if expected == 0.0:
        assert abs(value) < 1e-12
    else:
        rel = abs(value - expected) / abs(expected)
        assert rel < 10 ** (1 - sigfigs) * 0.5 + 0.05, (value, expected)
