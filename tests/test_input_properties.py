"""Property tests over the three input parsers: scenario configs, cloud CSVs
and snapshot CSVs.  Whatever the text, only the documented error types may
escape, and a valid configuration survives ``serialize -> parse``.  The
irregular cloud of any small rectangle, spacing, seed and jitter is the one
the sequential min-distance scan builds."""

import re
import string
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfdmflow import (
    CloudError,
    ConfigError,
    GfdmFlowError,
    SegmentBC,
    generate_irregular_cloud,
    load_config,
    parse_config,
    read_cloud_csv,
    serialize_config,
)
from gfdmflow.config import validate_config
from gfdmflow.postproc import FieldSnapshot

from conftest import assert_same_cloud
from oracle import oracle_irregular_cloud

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("waterflood_4m.cfg", "waterflood_polygon.cfg", "diagnose_layouts.cfg")
SHIPPED_TEXTS = [(CONFIGS / name).read_text() for name in SHIPPED]
SHIPPED_CONFIGS = [load_config(CONFIGS / name) for name in SHIPPED]

KEYS = sorted({m for text in SHIPPED_TEXTS for m in re.findall(r"^(\w+) =", text, re.M)})
SECTIONS = sorted({m for text in SHIPPED_TEXTS for m in re.findall(r"^\[(.+)\]", text, re.M)})
TOKENS = [
    "nan", "inf", "-inf", "-3", "0", "1", "0.5", "1e308", "-1e308", "1e-320", "", "x",
    "1 2", "1 2 3", "0 0; 1 0; 1 1", "true", "robin", "noflow", "dirichlet", "polygon", "csv",
]
VALUES = st.one_of(
    st.sampled_from(TOKENS), st.text(max_size=12), st.floats().map(repr), st.integers().map(str)
)
LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS + ["dt_maxx", "stray"]), VALUES),
    st.builds("[{}]".format, st.sampled_from(SECTIONS + ["tiem", "boundary.edge9", "DEFAULT"])),
    st.text(max_size=20),
)


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three lines changed, inserted or deleted."""
    lines = draw(st.sampled_from(SHIPPED_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("value", "insert", "delete")))
        if edit == "value" and " = " in lines[i]:
            lines[i] = lines[i].split(" = ")[0] + " = " + draw(VALUES)
        elif edit == "delete":
            del lines[i]
        else:
            lines.insert(i, draw(LINES))
    return "\n".join(lines) + "\n"


def _parse_or_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(mutated_configs(), st.text(max_size=200)))
def test_config_parser_raises_only_config_error(text):
    _parse_or_config_error(text)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(VALUES)
def test_any_value_in_any_shipped_key_raises_only_config_error(value):
    for text in SHIPPED_TEXTS:
        for line in re.findall(r"^\w+ = .*$", text, re.M):
            _parse_or_config_error(text.replace(line, line.split(" = ")[0] + " = " + value, 1))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(alphabet=string.ascii_letters + string.digits + "_-./", max_size=12)
TRIPLES = st.tuples(FINITE, FINITE, FINITE)
SEGMENTS = st.one_of(
    st.just(SegmentBC.noflow()),
    st.builds(SegmentBC.dirichlet, FINITE, FINITE),
    st.builds(lambda p, sw: SegmentBC("robin", p_robin=p, sw_robin=sw), TRIPLES, TRIPLES),
)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def valid_configs(draw):
    """A shipped config with every field its validity leaves free redrawn."""
    base = draw(st.sampled_from(SHIPPED_CONFIGS))
    absolute = draw(st.none() | POSITIVE)
    dt_max = draw(POSITIVE)
    overrides = dict(
        spacing=draw(POSITIVE) if base.cloud_type != "cartesian" else draw(FINITE),
        seed=draw(st.integers(0, 2**64)),
        jitter=draw(st.floats(0.0, 0.5)),
        radius_absolute=absolute,
        radius_multiple=None if absolute is not None else draw(st.floats(1.0, 10.0, exclude_min=True)),
        permeability=draw(POSITIVE),
        porosity=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        compressibility=draw(FINITE),
        reference_pressure=draw(FINITE),
        oil_viscosity=draw(POSITIVE),
        water_viscosity=draw(POSITIVE),
        connate_water=draw(st.floats(0.0, 0.45)),
        residual_oil=draw(st.floats(0.0, 0.45)),
        initial_pressure=draw(FINITE),
        initial_water_saturation=draw(FINITE),
        boundaries={name: draw(SEGMENTS) for name in base.boundaries},
        dt_max=dt_max,
        dt_init=dt_max * draw(st.floats(1e-6, 1.0)),
        t_end=draw(st.floats(0.0, 1e6)),
        newton_tol=draw(POSITIVE),
        max_newton=draw(st.integers(1, 100)),
        dt_grow=draw(st.floats(1.0, 10.0, exclude_min=True)),
        dt_cut=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        output_times=tuple(draw(st.lists(FINITE, max_size=4))),
        output_dir=draw(NAMES),
        prefix=draw(NAMES),
        vtk=draw(st.booleans()),
    )
    config = base.with_overrides(**overrides)
    assume(not validate_config(config))
    return config


@settings(derandomize=True, max_examples=60, deadline=None)
@given(valid_configs())
def test_config_round_trip(config):
    text = serialize_config(config)
    again = parse_config(text)
    assert again == config
    assert serialize_config(again) == text


CELLS = st.one_of(
    st.sampled_from(
        ["", "0", "1", "2", "-1", "0.5", "0.6", "0.8", "nan", "inf", "1e308", "x",
         "interior", "dirichlet", "robin", "virtual", "ROBIN"]
    ),
    st.text(max_size=5),
)


def _csv(header, rows):
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


# rows shaped like nodes reach the cloud's own checks (ids, normals, hosts)
NODE_ROWS = st.builds(
    lambda i, x, y, kind, normal, host: [str(i), x, y, kind, *normal, host],
    st.integers(0, 3),
    st.sampled_from(["0", "1", "0.5", "nan", "inf"]),
    st.sampled_from(["0", "1", "-1", "1e-300"]),
    st.sampled_from(["interior", "dirichlet", "robin", "virtual"]),
    st.sampled_from([("", ""), ("0", "1"), ("0.6", "0.8"), ("2", "0"), ("nan", "nan")]),
    st.sampled_from(["", "0", "1", "3", "99", "-1"]),
)


@pytest.fixture(scope="module")
def cloud_csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("clouds") / "cloud.csv"


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.lists(NODE_ROWS | st.lists(CELLS, min_size=6, max_size=8), max_size=6))
def test_cloud_csv_raises_only_cloud_error(cloud_csv_path, rows):
    # newline="" writes a bare \r in a cell as it is
    cloud_csv_path.write_text(_csv("id,x,y,kind,n_x,n_y,host", rows), newline="")
    try:
        read_cloud_csv(cloud_csv_path)
    except CloudError:
        pass


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshots") / "snap.csv"


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.lists(CELLS, min_size=3, max_size=6), max_size=5))
def test_snapshot_csv_raises_only_documented_error(snapshot_path, rows):
    snapshot_path.write_text(_csv("time,x,y,p,Sw", rows))
    try:
        FieldSnapshot.read_csv(snapshot_path)
    except GfdmFlowError:
        pass


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.floats(2.0, 12.0),
    st.floats(2.0, 12.0),
    st.floats(0.4, 1.5),
    st.integers(0, 2**32),
    st.floats(0.0, 0.5),
)
def test_irregular_cloud_matches_sequential_scan(width, height, spacing, seed, jitter):
    rectangle = ((0.0, 0.0), (width, 0.0), (width, height), (0.0, height))
    want = oracle_irregular_cloud(rectangle, spacing, seed, jitter=jitter)
    assert_same_cloud(generate_irregular_cloud(rectangle, spacing, seed, jitter=jitter), want)
