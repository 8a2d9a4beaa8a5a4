import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gfdmflow
from gfdmflow import ConfigError, SegmentBC, SetupError, load_config, parse_config, serialize_config
from gfdmflow.cli import main
from gfdmflow.postproc import FieldSnapshot
from gfdmflow.study import convergence_study

from conftest import waterflood_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_CFG = """
[domain]
shape = rectangle
width = 40.0
height = 16.0

[cloud]
type = cartesian
dx = 4.0
dy = 4.0

[radius]
multiple = 1.001

[boundary.left]
kind = dirichlet
pressure = 15.0
water_saturation = 0.8

[boundary.right]
kind = dirichlet
pressure = 10.0
water_saturation = 0.2

[boundary.top]
kind = noflow

[boundary.bottom]
kind = noflow

[time]
dt_init = 0.01
dt_max = 2.0
t_end = 5.0

[output]
times = 5.0
directory = {outdir}
prefix = tiny
"""


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(SMALL_CFG.format(outdir=tmp_path / "out"))
    return path


SMALL = SMALL_CFG.format(outdir="out")
POLYGON = (CONFIGS / "waterflood_polygon.cfg").read_text()

# One malformed input per problem message: (id, base text, first occurrence
# replaced, replacement, the ConfigError problems it yields).
MALFORMED = [
    ("unparseable", SMALL, "[domain]\n", "",
     ["unparseable config: File contains no section headers.\n"
      "file: '<string>', line: 2\n'shape = rectangle\\n'"]),
    ("not-a-number", SMALL, "width = 40.0", "width = wide", ["[domain] width: not a number ('wide')"]),
    ("shape", SMALL, "shape = rectangle", "shape = circle",
     ["[domain] shape: must be rectangle or polygon, got 'circle'"]),
    ("vertices-short-chunk", POLYGON, "vertices = 0 0; 200 0;", "vertices = 0 0; 200;",
     ["[domain] vertices: expected 'x y; x y; ...', bad chunk 200"]),
    ("vertices-non-numeric", POLYGON, "vertices = 0 0; 200 0;", "vertices = 0 0; 200 x;",
     ["[domain] vertices: expected 'x y; x y; ...', bad chunk could not convert string to float: 'x'"]),
    ("cloud-type", SMALL, "type = cartesian", "type = hex",
     ["[cloud] type: must be cartesian, irregular or csv, got 'hex'"]),
    ("seed-not-integer", POLYGON, "seed = 7", "seed = 7.5", ["[cloud] seed: not an integer"]),
    ("virtual-nodes", SMALL, "[cloud]\n", "[cloud]\nvirtual_nodes = some\n",
     ["[cloud] virtual_nodes: must be auto or none, got 'some'"]),
    ("max-newton-not-integer", SMALL, "t_end = 5.0", "t_end = 5.0\nmax_newton = many",
     ["[time] max_newton: not an integer"]),
    ("radius-both", SMALL, "multiple = 1.001", "multiple = 1.001\nabsolute = 8.0",
     ["[radius] give either multiple or absolute, not both"]),
    ("dirichlet-non-numeric", SMALL, "pressure = 15.0", "pressure = high",
     ["[boundary.left] dirichlet needs numeric pressure and water_saturation"]),
    ("dirichlet-missing-value", SMALL, "pressure = 15.0\nwater_saturation = 0.8\n", "pressure = 15.0\n",
     ["[boundary.left] dirichlet needs numeric pressure and water_saturation"]),
    ("robin-short-triple", SMALL, "kind = noflow",
     "kind = robin\npressure = 0 1 0\nwater_saturation = 0 1",
     ["[boundary.top] robin needs 'a b g' triples for pressure and water_saturation"]),
    ("robin-missing-value", SMALL, "kind = noflow", "kind = robin\npressure = 0 1 0",
     ["[boundary.top] robin needs 'a b g' triples for pressure and water_saturation"]),
    ("boundary-kind", SMALL, "kind = noflow", "kind = wall",
     ["[boundary.top] kind: must be dirichlet, noflow or robin, got 'wall'"]),
    ("output-times", SMALL, "times = 5.0", "times = 5.0 later", ["[output] times: expected numbers"]),
    ("output-vtk", SMALL, "prefix = tiny", "prefix = tiny\nvtk = maybe",
     ["[output] vtk: expected true/false"]),
    ("rectangle-extents", SMALL, "width = 40.0", "width = -40.0",
     ["[domain] rectangle extents must be positive"]),
    ("polygon-vertices", POLYGON, "vertices = 0 0; 200 0; 200 80; 120 72; 60 88; 0 80",
     "vertices = 0 0; 200 0",
     [
         "[domain] polygon needs at least three vertices",
         "[boundary.edge2] references edge 2 of a 2-edge polygon",
         "[boundary.edge3] references edge 3 of a 2-edge polygon",
         "[boundary.edge4] references edge 4 of a 2-edge polygon",
         "[boundary.edge5] references edge 5 of a 2-edge polygon",
     ]),
    ("spacings-positive", SMALL, "dx = 4.0", "dx = 0.0", ["[cloud] spacings must be positive"]),
    ("extent-multiple", SMALL, "dx = 4.0", "dx = 3.0", ["[cloud] dx: extent 40.0 is not a multiple of 3.0"]),
    ("cartesian-polygon", POLYGON, "type = irregular", "type = cartesian",
     ["[cloud] cartesian clouds require a rectangle domain"]),
    ("spacing-positive", POLYGON, "spacing = 4.0", "spacing = 0.0", ["[cloud] spacing must be positive"]),
    ("jitter-range", POLYGON, "jitter = 0.3", "jitter = 0.7", ["[cloud] jitter must lie in [0, 0.5]"]),
    ("csv-path", SMALL, "type = cartesian", "type = csv", ["[cloud] csv clouds need a path"]),
    ("radius-multiple", SMALL, "multiple = 1.001", "multiple = 0.9",
     ["[radius] multiple 0.9 <= 1: stencil underdetermined risk "
      "(axis neighbors may fall outside the influence domain)"]),
    ("radius-absolute", POLYGON, "absolute = 8.0", "absolute = -1.0",
     ["[radius] absolute radius must be positive"]),
    ("saturations-nonnegative", POLYGON, "connate_water = 0.2", "connate_water = -0.1",
     ["[fluids] saturations must be nonnegative"]),
    ("saturation-budget", POLYGON, "residual_oil = 0.2", "residual_oil = 0.9",
     ["[fluids] connate_water + residual_oil must be below 1 (got 0.2 + 0.9)"]),
    ("viscosities", POLYGON, "oil_viscosity = 10.0", "oil_viscosity = 0.0",
     ["[fluids] viscosities must be positive"]),
    ("permeability", POLYGON, "permeability = 100.0", "permeability = 0.0",
     ["[rock] permeability must be positive"]),
    ("porosity", POLYGON, "porosity = 0.3", "porosity = 1.0", ["[rock] porosity must lie in (0, 1)"]),
    ("missing-side", SMALL, "[boundary.top]\nkind = noflow\n", "",
     ["[boundary.top] missing (rectangle sides must all be specified)"]),
    ("edge-name", POLYGON, "[boundary.edge0]", "[boundary.bottom]",
     ["[boundary.bottom] polygon boundaries must be named edgeK"]),
    ("edge-number", POLYGON, "[boundary.edge0]", "[boundary.edgeX]",
     ["[boundary.edgeX] polygon boundaries must be named edgeK"]),
    ("edge-range", POLYGON, "[boundary.edge0]", "[boundary.edge9]",
     ["[boundary.edge9] references edge 9 of a 6-edge polygon"]),
    ("dt-order", SMALL, "dt_init = 0.01", "dt_init = 3.0", ["[time] need 0 < dt_init <= dt_max"]),
    ("t-end", SMALL, "t_end = 5.0", "t_end = -5.0", ["[time] t_end must be nonnegative"]),
    ("newton-tol", POLYGON, "newton_tol = 1e-6", "newton_tol = 0.0", ["[time] newton_tol must be positive"]),
    ("dt-grow-cut", POLYGON, "dt_grow = 1.5", "dt_grow = 1.0", ["[time] need dt_grow > 1 > dt_cut > 0"]),
]


class TestConfigParsing:
    def test_round_trip_identity(self, tiny_config_path):
        cfg = load_config(tiny_config_path)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        # serialization is itself stable
        assert serialize_config(again) == serialize_config(cfg)

    def test_round_trip_polygon(self):
        cfg = load_config(CONFIGS / "waterflood_polygon.cfg")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_all_problems_reported_at_once(self, tmp_path):
        bad = SMALL_CFG.format(outdir=tmp_path) + "\n[fluids]\nconnate_water = 0.6\nresidual_oil = 0.5\n"
        bad = bad.replace("multiple = 1.001", "multiple = 0.9")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        text = "\n".join(err.value.problems)
        assert "connate_water + residual_oil" in text
        assert "stencil underdetermined risk" in text
        assert len(err.value.problems) >= 2

    def test_saturation_budget_error(self, tmp_path):
        bad = SMALL_CFG.format(outdir=tmp_path) + "\n[fluids]\nconnate_water = 0.7\nresidual_oil = 0.4\n"
        with pytest.raises(ConfigError, match="below 1"):
            parse_config(bad)

    def test_radius_multiple_below_one(self, tmp_path):
        bad = SMALL_CFG.format(outdir=tmp_path).replace("multiple = 1.001", "multiple = 0.9")
        with pytest.raises(ConfigError, match="underdetermined risk"):
            parse_config(bad)

    def test_missing_side_reported(self, tmp_path):
        bad = SMALL_CFG.format(outdir=tmp_path).replace("[boundary.top]\nkind = noflow\n", "")
        with pytest.raises(ConfigError, match=r"boundary.top"):
            parse_config(bad)

    def test_unknown_polygon_edge_reported(self):
        text = (CONFIGS / "waterflood_polygon.cfg").read_text()
        bad = text + "\n[boundary.edge9]\nkind = noflow\n"
        with pytest.raises(ConfigError, match="edge 9"):
            parse_config(bad)


    @pytest.mark.parametrize(
        "base, old, new, problems", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_problem_messages(self, base, old, new, problems):
        assert old in base
        with pytest.raises(ConfigError) as err:
            parse_config(base.replace(old, new, 1))
        assert err.value.problems == problems

    @pytest.mark.parametrize(
        "base, old, new, problem",
        [
            (SMALL, "t_end = 5.0", "t_end = 5.0\ndt_maxx = 0.5", "[time] dt_maxx: unknown key"),
            (SMALL, "[time]", "[tiem]", "[tiem] unknown section"),
            (SMALL, "kind = noflow", "kind = noflow\npressure = 1.0\nstray = 1", "[boundary.top] stray: unknown key"),
        ],
        ids=["misspelt-key", "misspelt-section", "stray-boundary-key"],
    )
    def test_unknown_names_rejected(self, base, old, new, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(base.replace(old, new, 1))
        assert err.value.problems == [problem]

    def test_round_trip_keeps_keys_of_other_cloud_types(self):
        cfg = load_config(CONFIGS / "waterflood_4m.cfg").with_overrides(spacing=2.5, seed=11, jitter=0.1)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"dt_init": 3.0}, "need 0 < dt_init <= dt_max"),
            ({"t_end": -5.0}, "t_end must be nonnegative"),
            ({"newton_tol": 0.0}, "newton_tol must be positive"),
            ({"max_newton": 0}, "max_newton must be at least 1"),
            ({"dt_cut": 1.0}, "need dt_grow > 1 > dt_cut > 0"),
        ],
        ids=["dt-order", "t-end", "newton-tol", "max-newton", "dt-grow-cut"],
    )
    def test_time_rule_messages_agree(self, override, message):
        # the config reports each broken rule with the text TimeControl raises
        cfg = parse_config(SMALL).with_overrides(**override)
        with pytest.raises(ConfigError) as err:
            parse_config(serialize_config(cfg))
        assert err.value.problems == [f"[time] {message}"]
        with pytest.raises(ValueError) as err:
            cfg.time_control()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "noflow"},
            {"kind": "dirichlet", "p_value": 15.0},
            {"kind": "robin", "p_robin": (0.0, 1.0, 0.0)},
            {"kind": "dirichlet", "p_value": 15.0, "sw_value": 0.8, "sw_robin": (0.0, 1.0, 0.0)},
        ],
        ids=["unknown-kind", "dirichlet-without-sw", "robin-one-triple", "dirichlet-with-triple"],
    )
    def test_malformed_segment_bc_rejected(self, kwargs):
        with pytest.raises(ValueError, match="dirichlet holds p_value and sw_value only"):
            SegmentBC(**kwargs)

    def test_shipped_configs_parse(self):
        for name in ("waterflood_4m.cfg", "waterflood_polygon.cfg", "diagnose_layouts.cfg"):
            cfg = load_config(CONFIGS / name)
            assert parse_config(serialize_config(cfg)) == cfg


class TestRunCommand:
    def test_run_writes_snapshots_and_report(self, tiny_config_path, tmp_path, capsys):
        rc = main(["run", str(tiny_config_path)])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "tiny_gfdm_t0.csv").exists()
        assert (out / "tiny_gfdm_t5.csv").exists()
        assert (out / "tiny_gfdm_report.csv").exists()
        snap = FieldSnapshot.read_csv(out / "tiny_gfdm_t5.csv")
        # one row per non-virtual node on the 11x5 lattice
        assert len(snap.x) == 11 * 5

    @pytest.mark.parametrize("solver", ["gfdm", "fdm"])
    def test_run_summary_line(self, tiny_config_path, tmp_path, capsys, solver):
        assert main(["run", str(tiny_config_path), "--solver", solver]) == 0
        out = tmp_path / "out"
        line = capsys.readouterr().out.strip().splitlines()[-1]
        match = re.fullmatch(
            r"completed: (\d+) steps, (\d+) Newton iterations, (\d+) cut events, (\d+) restarts, "
            r"(\d+) snapshots -> (.+)",
            line,
        )
        assert match, line
        steps, newton, cuts, restarts, snapshots = map(int, match.groups()[:5])
        with open(out / f"tiny_{solver}_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert steps == len(rows) > 0
        assert newton == sum(int(row["newton_iters"]) for row in rows)
        assert (cuts, restarts) == (0, 0)
        assert snapshots == len(list(out.glob(f"tiny_{solver}_t*.csv")))
        assert match[6] == str(out)

    def test_run_fdm_solver(self, tiny_config_path, tmp_path):
        rc = main(["run", str(tiny_config_path), "--solver", "fdm"])
        assert rc == 0
        assert (tmp_path / "out" / "tiny_fdm_t5.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SMALL_CFG.format(outdir=tmp_path).replace("1.001", "0.9"))
        assert main(["run", str(bad)]) == 2
        assert "underdetermined" in capsys.readouterr().err

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("solver", ["gfdm", "fdm"])
    def test_csv_rectangle_without_sides_is_config_error(self, tmp_path, monkeypatch, capsys, solver):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        assert main(["run", str(CONFIGS / "diagnose_layouts.cfg"), "--solver", solver]) == 2
        err = capsys.readouterr().err
        for side in ("left", "right", "top", "bottom"):
            assert f"[boundary.{side}] missing" in err

    def test_undecodable_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[domain]\nshape = rect\xffangle\n")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["run", "diagnose", "compare"])
    def test_unwritable_output_is_io_error(self, tmp_path, monkeypatch, capsys, command):
        # run and diagnose meet a file where their output directory should
        # be; compare is given a snapshot path that does not exist
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(blocker))
        cfg = tmp_path / "t.cfg"
        cfg.write_text(SMALL_CFG.format(outdir=tmp_path / "out"))
        missing = str(tmp_path / "missing.csv")
        args = {"run": [str(cfg)], "diagnose": [str(cfg)], "compare": [missing, missing]}[command]
        assert main([command, *args]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("io-error: ")

    def test_outdir_env_override(self, tiny_config_path, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(override))
        assert main(["run", str(tiny_config_path)]) == 0
        assert (override / "tiny_gfdm_t5.csv").exists()

    def test_vtk_output(self, tmp_path):
        path = tmp_path / "v.cfg"
        path.write_text(
            SMALL_CFG.format(outdir=tmp_path / "out").replace("prefix = tiny", "prefix = tiny\nvtk = true")
        )
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "tiny_gfdm_t5.vtk").exists()


@pytest.mark.parametrize(
    "base, old, new, problem",
    [
        (SMALL, "width = 40.0", "width = nan", "[domain] width: not a finite number ('nan')"),
        (SMALL, "width = 40.0", "width = inf", "[domain] width: not a finite number ('inf')"),
        (POLYGON, "seed = 7", "seed = -3", "[cloud] seed must be nonnegative"),
        (SMALL, "t_end = 5.0", "t_end = 5.0\nmax_newton = 0", "[time] max_newton must be at least 1"),
        *(
            (SMALL.replace("type = cartesian", f"type = {cloud_type}"), "[boundary.top]",
             "[boundary.middle]\nkind = noflow\n\n[boundary.top]",
             "[boundary.middle] rectangle boundaries must be named left, right, top or bottom")
            for cloud_type in ("cartesian", "irregular", "csv\npath = cloud.csv")
        ),
        (SMALL, "kind = noflow", "kind = robin\npressure = 0 0 1\nwater_saturation = 0 1 0",
         "[boundary.top] pressure: robin a = b = 0 constrains nothing"),
    ],
    ids=["nan", "inf", "negative-seed", "no-newton-iterations",
         "rectangle-middle-cartesian", "rectangle-middle-irregular", "rectangle-middle-csv", "robin-vacuous"],
)
def test_bad_values_end_in_config_error(tmp_path, monkeypatch, base, old, new, problem):
    text = base.replace(old, new, 1)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [problem]
    monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path / "out"))
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "{layouts}"], 2),
        (["run", "{layouts}", "--solver", "fdm"], 2),
        (["convergence", "{layouts}", "--spacings", "4"], 2),
        (["diagnose", "{tiny}", "--nodes", "abc"], 3),
    ],
    ids=["run-gfdm", "run-fdm", "convergence", "diagnose"],
)
def test_failed_setup_leaves_no_output_directory(tiny_config_path, tmp_path, monkeypatch, argv, code):
    out = tmp_path / "fresh"
    monkeypatch.setenv("GFDMFLOW_OUTDIR", str(out))
    paths = {"layouts": CONFIGS / "diagnose_layouts.cfg", "tiny": tiny_config_path}
    assert main([arg.format(**paths) for arg in argv]) == code
    assert not out.exists()


class TestDiagnoseCommand:
    def test_layout_fixture_imbalance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        rc = main(["diagnose", str(CONFIGS / "diagnose_layouts.cfg"), "--nodes", "2"])
        assert rc == 0
        lines = (tmp_path / "layout_diagnose.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert int(row["node"]) == 2
        assert float(row["imb_e2"]) == pytest.approx(5.29e-5, rel=0.05)

    def test_all_nodes_row_count(self, tiny_config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        rc = main(["diagnose", str(tiny_config_path), "--nodes", "all"])
        assert rc == 0
        lines = (tmp_path / "tiny_diagnose.csv").read_text().strip().splitlines()
        # interior + robin nodes carry operators on the 11x5 lattice
        assert len(lines) - 1 == 3 * 9 + 2 * 9

    def test_empty_selector_fails(self, tiny_config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        assert main(["diagnose", str(tiny_config_path), "--nodes", "kind=dirichlet"]) == 3
        for selector in ("abc", "1,x"):
            assert main(["diagnose", str(tiny_config_path), "--nodes", selector]) == 3
            assert repr(selector) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "selector, message",
        [
            ("kind=virtual", "unknown kind selector"),
            ("kind=blob", "unknown kind selector"),
            ("999", "matches nothing"),
        ],
        ids=["virtual", "unknown-kind", "id-beyond-cloud"],
    )
    def test_bad_selector_fails(self, tiny_config_path, tmp_path, monkeypatch, capsys, selector, message):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        assert main(["diagnose", str(tiny_config_path), "--nodes", selector]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, node", [([], 4), (["--degenerate", "inverse"], 108)], ids=["raise", "inverse"]
    )
    def test_singular_stencil_exit_code(self, tmp_path, monkeypatch, capsys, flags, node):
        # at r = 1.001 this jittered cloud flags node 4 first; the diagnostic
        # inverse continues past it up to node 108, whose raw system is
        # exactly singular
        text = (CONFIGS / "waterflood_4m.cfg").read_text()
        text = text.replace("type = cartesian", "type = irregular\nseed = 3\njitter = 0.3")
        cfg = tmp_path / "jittered.cfg"
        cfg.write_text(text)
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path / "out"))
        assert main(["diagnose", str(cfg), *flags]) == 3
        assert f"degenerate stencil at node {node}:" in capsys.readouterr().err

    def test_operator_dump_flag(self, tiny_config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        rc = main(["diagnose", str(tiny_config_path), "--nodes", "all", "--dump-operators"])
        assert rc == 0
        lines = (tmp_path / "tiny_operators.csv").read_text().strip().splitlines()
        assert lines[0] == "node,neighbor,e1,e2,e3,e4,e5"
        assert len(lines) > 1


class TestCompareCommand:
    def test_compare_identical_snapshots(self, tiny_config_path, tmp_path, capsys):
        main(["run", str(tiny_config_path)])
        snap = str(tmp_path / "out" / "tiny_gfdm_t5.csv")
        rc = main(["compare", snap, snap, "--profile-y", "8.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RE_p = 0.0" in out
        assert "|diff| = 0.0" in out

    def test_compare_gfdm_vs_fdm(self, tiny_config_path, tmp_path, capsys):
        main(["run", str(tiny_config_path)])
        main(["run", str(tiny_config_path), "--solver", "fdm"])
        capsys.readouterr()
        rc = main(
            [
                "compare",
                str(tmp_path / "out" / "tiny_gfdm_t5.csv"),
                str(tmp_path / "out" / "tiny_fdm_t5.csv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        re_p = float(out.splitlines()[0].split("=")[1])
        assert re_p < 1e-3


    def test_compare_zero_reference_field(self, tmp_path, capsys):
        # water saturation 0 everywhere, as at t = 0 with no connate water
        snap = tmp_path / "t0.csv"
        snap.write_text("time,x,y,p,Sw\n0.0,0.0,0.0,10.0,0.0\n0.0,4.0,0.0,10.0,0.0\n")
        assert main(["compare", str(snap), str(snap)]) == 3
        err = capsys.readouterr().err
        assert "RE_Sw" in err and "zero norm" in err

    @pytest.mark.parametrize(
        "body",
        [b"", b"0.0,1.0,2.0,x,0.5\n", b"0.0,1.0,2.0\n", b"0.0,1.0,2.0,3.0,\xff\n",
         b"0.0,1.0,2.0,nan,0.5\n", b"0.0,inf,2.0,3.0,0.5\n"],
        ids=["header-only", "non-numeric", "short-row", "undecodable", "nan-p", "infinite-x"],
    )
    def test_compare_malformed_snapshot_exit_code(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"time,x,y,p,Sw\n" + body)
        assert main(["compare", str(bad), str(bad)]) == 3
        assert "snapshot CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows_b, problem",
        [
            ("0.0,0.0,0.0,10.0,0.5\n", "different node counts"),
            ("0.0,0.0,0.0,10.0,0.5\n0.0,4.5,0.0,10.0,0.5\n", "not on matching node coordinates"),
        ],
        ids=["node-count", "coordinates"],
    )
    def test_compare_mismatched_snapshots_exit_code(self, tmp_path, capsys, rows_b, problem):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("time,x,y,p,Sw\n0.0,0.0,0.0,10.0,0.5\n0.0,4.0,0.0,10.0,0.5\n")
        b.write_text("time,x,y,p,Sw\n" + rows_b)
        assert main(["compare", str(a), str(b)]) == 3
        assert problem in capsys.readouterr().err


class TestConvergenceDriver:
    def test_empty_spacings_rejected(self):
        with pytest.raises(SetupError, match="empty"):
            convergence_study(waterflood_config(), [])

    def test_non_descending_rejected(self):
        with pytest.raises(SetupError, match="descending"):
            convergence_study(waterflood_config(), [4.0, 8.0])

    def test_small_sweep_decreases_error(self):
        cfg = waterflood_config(t_end=10.0, output_times=())
        result = convergence_study(cfg, [8.0, 4.0], radius_rule=1.5, ref_dx=1.0, ref_dt_max=0.25)
        assert result.rows[0].re_sw_gfdm > result.rows[1].re_sw_gfdm
        assert result.rows[0].re_sw_fdm > result.rows[1].re_sw_fdm
        slopes = result.slopes("gfdm", "sw")
        assert len(slopes) == 1

    def test_cli_convergence_writes_table(self, tiny_config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(tmp_path))
        rc = main(
            [
                "convergence",
                str(tiny_config_path),
                "--spacings", "8", "4",
                "--ref-dx", "1.0",
                "--ref-dt-max", "0.5",
            ]
        )
        assert rc == 0
        table = (tmp_path / "tiny_convergence.csv").read_text().strip().splitlines()
        assert table[0] == "h,re_p_gfdm,re_sw_gfdm,re_p_fdm,re_sw_fdm"
        assert len(table) == 3
        assert "slopes gfdm/sw" in capsys.readouterr().out

    def test_cli_convergence_partial_results_create_directory(self, tiny_config_path, tmp_path, monkeypatch):
        out = tmp_path / "fresh"
        monkeypatch.setenv("GFDMFLOW_OUTDIR", str(out))
        # 3 m does not divide the 40 m width: the second member run fails
        argv = ["convergence", str(tiny_config_path), "--spacings", "8", "3", "--ref-dx", "1.0", "--ref-dt-max", "0.5"]
        assert main(argv) == 3
        table = (out / "tiny_convergence.csv").read_text().strip().splitlines()
        assert len(table) == 2


def test_console_entry_point():
    # the child does not inherit pytest's sys.path: point it at the package
    # this test imported
    src = str(Path(gfdmflow.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "gfdmflow.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "convergence" in proc.stdout
