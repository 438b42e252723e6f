import itertools
import json
import math
import pathlib
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (FROZEN, INVERSE_190_FAB, INVERSE_190_SPEC, REPO,
                      rel_err, run_cli)
from crosssec import analysis, cli
from crosssec.geometry import DesignSpec, inverse_design
from test_properties import TOL


class TestInverse:
    def test_flags(self):
        out = run_cli("inverse", "--hc", 101.6, "--hs", 50.8, "--w", 190)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert rel_err(doc["fab"]["S_c_mm"], INVERSE_190_FAB[0]) < 1e-8
        assert rel_err(doc["fab"]["S_s_mm"], INVERSE_190_FAB[1]) < 1e-8
        assert rel_err(doc["fab"]["L_mm"], INVERSE_190_FAB[2]) < 1e-8
        assert doc["feasibility"] == {"feasible": True, "violations": []}
        assert doc["derived"]["theta_c_rad"] > 0

    def test_tangent_circle_values(self):
        out = run_cli("inverse", "--hc", 1, "--hs", 1, "--w", 3)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["fab"]["S_c_mm"] == pytest.approx(1.5707963, abs=1e-6)
        assert doc["fab"]["L_mm"] == 0.0
        assert doc["fab"]["S_s_mm"] == pytest.approx(3.1415927, abs=1e-6)

    @pytest.mark.parametrize("scale", [1e-90, 1e76, 1e160])
    def test_far_scales(self, capsys, scale):
        # the design direction runs on a power-of-two frame: no overflow,
        # underflow or lost feasibility far beyond µm to km
        spec = [f"{x:g}e{round(math.log10(scale))}" for x in INVERSE_190_SPEC]
        assert cli.main(["inverse", "--hc", spec[0], "--hs", spec[1],
                         "--w", spec[2]]) == 0
        fab = json.loads(capsys.readouterr().out)["fab"]
        printed = (fab["S_c_mm"], fab["S_s_mm"], fab["L_mm"])
        got = inverse_design(DesignSpec(*map(float, spec)))
        exact = (got.center_arc_length, got.side_arc_length, got.strip_width)
        for p, e, want in zip(printed, exact, INVERSE_190_FAB):
            assert rel_err(p, want * scale) < 1e-8
            assert rel_err(e, want * scale) < TOL

    def test_far_tangent_spec(self, capsys):
        assert cli.main(["inverse", "--hc", "1e-200", "--hs", "1e-200",
                         "--w", "3e-200"]) == 0
        fab = json.loads(capsys.readouterr().out)["fab"]
        assert fab["L_mm"] == 0.0
        assert rel_err(fab["S_c_mm"], 0.5 * math.pi * 1e-200) < 1e-8
        assert rel_err(fab["S_s_mm"], math.pi * 1e-200) < 1e-8

    def test_fab_beyond_the_float_range_exit_1(self, capsys):
        assert cli.main(["inverse", "--hc", "1.7e308", "--hs", "8.5e307",
                         "--w", "1.79e308"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "beyond the float range" in err

    def test_infeasible_narrow(self):
        out = run_cli("inverse", "--hc", 101.6, "--hs", 50.8, "--w", 50.8)
        assert out.returncode == 2
        doc = json.loads(out.stdout)
        assert doc["feasibility"]["feasible"] is False
        assert "w > H_s" in doc["feasibility"]["violations"]

    def test_infeasible_wide(self):
        out = run_cli("inverse", "--hc", 101.6, "--hs", 50.8, "--w", 304.8)
        assert out.returncode == 2
        doc = json.loads(out.stdout)
        assert "gamma >= 0" in doc["feasibility"]["violations"]
        assert out.stderr.strip()

    def test_config_file(self):
        out = run_cli("inverse", "--config", "docs/examples/job_inverse.json")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert rel_err(doc["fab"]["S_c_mm"], INVERSE_190_FAB[0]) < 1e-8

    def test_flag_overrides_config(self):
        out = run_cli("inverse", "--config", "docs/examples/job_inverse.json",
                      "--w", 180)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert rel_err(doc["fab"]["S_c_mm"], INVERSE_190_FAB[0]) > 1e-3


class TestForwardShape:
    def test_structure1_perimeter(self):
        out = run_cli("forward", "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["perimeter_mm"] == 558.0
        assert rel_err(doc["spec"]["H_c_mm"], FROZEN["S1"]["H_c"]) < 1e-8
        assert rel_err(doc["area_total_mm2"], FROZEN["S1"]["total"]) < 1e-4

    def test_tangent_circles_spec(self):
        out = run_cli("forward", "--sc", repr(0.5 * math.pi),
                      "--ss", repr(math.pi), "--l", 0)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["spec"] == {"H_c_mm": 1.0, "H_s_mm": 1.0, "w_mm": 3.0}

    def test_missing_param(self):
        out = run_cli("forward", "--sc", 152, "--l", 76.2)
        assert out.returncode == 1
        assert len(out.stderr.strip().splitlines()) == 1
        assert "S_s_mm" in out.stderr

    def test_no_solution_exit_2(self):
        out = run_cli("forward", "--sc", 152, "--ss", 127, "--l", 130)
        assert out.returncode == 2
        assert "side channel" in out.stderr

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = run_cli("forward", "--config", bad)
        assert out.returncode == 1
        assert len(out.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("name, data, flag, reason", [
        ("outline.csv", b"\xff\xfe0,0\n1,0\n0,1\n", "--outline",
         "'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        ("job.json", b'{"mode": "\xff"}', "--config",
         "'utf-8' codec can't decode byte 0xff in position 10: "
         "invalid start byte"),
        ("job.json", b'{\n  "mode": "compare"', "--config",
         "Expecting ',' delimiter: line 2 column 20 (char 21)"),
    ])
    def test_unreadable_file_is_named(self, tmp_path, name, data, flag,
                                      reason):
        path = tmp_path / name
        path.write_bytes(data)
        out = run_cli("compare", flag, path,
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            f"crosssec: error: {path}: {reason}"]

    def test_config_mode_mismatch(self):
        out = run_cli("forward", "--config", "docs/examples/job_inverse.json")
        assert out.returncode == 1
        assert "mode" in out.stderr

    def test_shape_writes_svg_and_json(self, tmp_path):
        svg = tmp_path / "s.svg"
        js = tmp_path / "s.json"
        out = run_cli("shape", "--hc", 101.6, "--hs", 50.8, "--w", 190,
                      "--svg", svg, "--json", js)
        assert out.returncode == 0, out.stderr
        assert js.read_text(encoding="utf-8") == out.stdout
        svg_text = svg.read_text(encoding="utf-8")
        assert svg_text.startswith("<?xml")
        assert 'viewBox="-95 -50.8 190 101.6"' in svg_text

    def test_sub_mm_shape_with_shallow_side_arc(self, capsys):
        # the side arc's sagitta is under the 1e-4 mm arc resolution
        assert cli.main(["shape", "--hc", "0.3772306570647563",
                         "--hs", "0.0190982771556225",
                         "--w", "0.377321354666405"]) == 0
        assert json.loads(capsys.readouterr().out)["side"]["area_mm2"] > 0

    def test_round_trip_golden_docs_example(self):
        # inverse on the docs spec, forward on its fab output: the spec
        # block must reproduce the docs spec byte for byte
        config = json.loads(
            (REPO / "docs/examples/job_inverse.json").read_text())
        inv = run_cli("inverse", "--config", "docs/examples/job_inverse.json")
        assert inv.returncode == 0, inv.stderr
        fab = json.loads(inv.stdout)["fab"]
        fwd = run_cli("forward", "--sc", repr(fab["S_c_mm"]),
                      "--ss", repr(fab["S_s_mm"]), "--l", repr(fab["L_mm"]))
        assert fwd.returncode == 0, fwd.stderr
        got_spec = json.loads(fwd.stdout)["spec"]
        assert json.dumps(got_spec, sort_keys=True) == json.dumps(
            {k: float(v) for k, v in config["spec"].items()}, sort_keys=True)


class TestArcResolution:
    @pytest.mark.parametrize("value, message", [
        ("nan", "--arc-resolution must be positive and finite, got nan"),
        ("inf", "--arc-resolution must be positive and finite, got inf"),
        ("1e-300", "segments at max_sagitta 1e-300"),
    ])
    def test_unusable_flag_exit_1(self, value, message):
        out = run_cli("forward", "--sc", 152, "--ss", 127, "--l", 76.2,
                      "--arc-resolution", value)
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.strip().splitlines()) == 1
        assert message in out.stderr

    @pytest.mark.parametrize("value", [None, "nan", [1e-4]])
    def test_unusable_config_value_exit_1(self, tmp_path, value):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"mode": "shape", "arc_resolution_mm": value,
                                   "spec": {"H_c_mm": 101.6, "H_s_mm": 50.8,
                                            "w_mm": 190}}), encoding="utf-8")
        out = run_cli("shape", "--config", job)
        assert out.returncode == 1
        assert len(out.stderr.strip().splitlines()) == 1
        assert "arc_resolution_mm must be" in out.stderr

    @pytest.mark.parametrize("value, message", [
        (None, "grid_points must be a number"),
        (True, "grid_points must be a number"),
        (1500.7, "grid_points must be an integer"),
        ("1000", "grid_points must be a number"),
        (1e300, "grid_points <= 100000000 required"),
        (1_000_000_000, "grid_points <= 100000000 required"),
    ])
    def test_unusable_grid_value_exit_1(self, tmp_path, value, message):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "mode": "oracle", "fab": {"S_c_mm": 152.0, "L_mm": 76.2},
            "oracle": {"grid_points": value}}), encoding="utf-8")
        out = run_cli("oracle", "--config", job)
        assert out.returncode == 1
        assert out.stdout == ""
        assert len(out.stderr.strip().splitlines()) == 1
        assert message in out.stderr

    @pytest.mark.parametrize("oracle, flags, grid_points", [
        ({"grid_points": 1e4}, [], 10000),
        # a flag takes what its config field takes
        ({}, ["--grid-points", "1e6"], 1_000_000),
    ])
    def test_integral_float_values_accepted(self, tmp_path, oracle, flags,
                                            grid_points):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "fab": {"S_c_mm": 152.0, "L_mm": 76.2}, "oracle": oracle}),
            encoding="utf-8")
        out = run_cli("oracle", "--config", job, *flags)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["grid_points"] == grid_points


class TestTypedJobNumbers:
    # numbers that used to reach a bare float() and end in a TypeError
    @pytest.mark.parametrize("mode, config, message", [
        ("oracle", {"fab": {"S_c_mm": [152], "L_mm": 76.2}},
         "S_c_mm must be a number"),
        ("oracle", {"fab": {"S_c_mm": 152, "L_mm": "76.2"}},
         "L_mm must be a number"),
        ("oracle", {"fab": {"S_c_mm": 152, "L_mm": -1.0}},
         "L_mm must be non-negative and finite"),
        ("oracle", {"fab": {"S_c_mm": math.inf, "L_mm": 76.2}},
         "S_c_mm must be positive and finite"),
        ("oracle", {"fab": {"S_c_mm": 152, "L_mm": 76.2},
                    "oracle": {"grid_points": 10**400}},
         "grid_points is out of range"),
        ("force", {"force": {"pressure_kpa": [34], "area_mm2": 100}},
         "pressure_kpa must be a number"),
        ("force", {"force": {"pressure_kpa": "34", "area_mm2": 100}},
         "pressure_kpa must be a number"),
        ("force", {"force": {"pressure_kpa": math.nan, "area_mm2": 100}},
         "pressure_kpa must be non-negative and finite"),
        ("force", {"force": {"pressure_kpa": 34, "area_mm2": True}},
         "area_mm2 must be a number"),
        ("force", {"force": {"pressure_kpa": 34, "area_mm2": -5}},
         "area_mm2 must be non-negative and finite"),
        ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [127, None],
                             "L_mm": [50.8]}}, "S_c_mm must be a number"),
        ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [127],
                             "L_mm": [False]}}, "L_mm must be a number"),
        ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": 127,
                             "L_mm": [50.8]}}, "expected a list of numbers"),
        ("sweep", {"sweep": {"perimeter_mm": [558], "S_c_mm": [127],
                             "L_mm": [50.8]}}, "perimeter_mm must be a number"),
        ("sweep", {"sweep": {"perimeter_mm": -558, "S_c_mm": [127],
                             "L_mm": [50.8]}},
         "perimeter_mm must be positive and finite"),
        # a section force reads is checked also where the run takes its
        # area from elsewhere
        ("force", {"force": {"pressure_kpa": 34, "area_mm2": 100},
                   "fab": {"S_c_mm": None}}, "fab.S_c_mm must be a number"),
        ("force", {"force": {"pressure_kpa": 34, "area_mm2": 100},
                   "spec": {"w_mm": "x"}}, "spec.w_mm must be a number"),
        ("force", {"force": {"pressure_kpa": 34},
                   "fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                   "spec": {"H_s_mm": "x"}}, "spec.H_s_mm must be a number"),
        ("force", {"force": {"pressure_kpa": 34},
                   "fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                   "spec": {"H_c_mm": -1}},
         "spec.H_c_mm must be positive and finite"),
    ])
    def test_bad_number_exit_1(self, tmp_path, capsys, mode, config, message):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([mode, "--config", str(job)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize("mode, config", [
        ("oracle", {"fab": {"S_c_mm": 1, "L_mm": 0},
                    "oracle": {"grid_points": 1000}}),
        ("force", {"force": {"pressure_kpa": 0, "area_mm2": 0}}),
        ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [152, 0],
                             "L_mm": [0, 76.2]}}),
    ])
    def test_zero_where_allowed_exit_0(self, tmp_path, capsys, mode, config):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([mode, "--config", str(job)]) == 0
        assert capsys.readouterr().err == ""


class TestOutputPaths:
    # every output path is read and checked before anything is written
    @pytest.mark.parametrize("mode, fields", [
        ("forward", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2}}),
        ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [152],
                             "L_mm": [76.2]}}),
    ])
    @pytest.mark.parametrize("output", [
        {"json": 5}, {"json": [1]}, {"svg": 5}, {"svg": [1]}, {"csv": 5},
        {"csv": [1]}, None, [1], 5,
    ])
    def test_bad_path_exit_1_before_output(self, tmp_path, capsys, mode,
                                           fields, output):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({**fields, "output": output}),
                       encoding="utf-8")
        assert cli.main([mode, "--config", str(job)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "output" in err
        assert list(tmp_path.iterdir()) == [job]

    def test_null_path_writes_no_file(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(
            {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
             "output": {"json": None, "svg": None}}), encoding="utf-8")
        assert cli.main(["forward", "--config", str(job)]) == 0
        assert json.loads(capsys.readouterr().out)["perimeter_mm"] == 558.0
        assert list(tmp_path.iterdir()) == [job]


def _field(valid):
    # a small valid number, or a value a numeric field must refuse or
    # report on: null, bools, strings, lists, negative, zero, non-finite,
    # an integer beyond the float range
    bad = st.one_of(
        st.none(), st.booleans(), st.text(max_size=6),
        st.lists(st.floats(0.0, 10.0), max_size=2),
        st.floats(-1e3, -1e-3),
        st.sampled_from([0, 0.0, -0.0, math.nan, math.inf, -math.inf,
                         10**400]))
    return st.one_of(valid, bad)


def _fab(keys=("S_c_mm", "S_s_mm", "L_mm")):
    ranges = {"S_c_mm": st.floats(50.0, 300.0),
              "S_s_mm": st.floats(50.0, 300.0),
              "L_mm": st.floats(0.0, 150.0)}
    return st.fixed_dictionaries({k: _field(ranges[k]) for k in keys})


_SPEC = st.fixed_dictionaries({"H_c_mm": _field(st.floats(50.0, 150.0)),
                               "H_s_mm": _field(st.floats(20.0, 100.0)),
                               "w_mm": _field(st.floats(50.0, 300.0))})
_RESOLUTION = _field(st.floats(1e-3, 1.0))
_GRID = st.one_of(st.lists(_field(st.floats(0.0, 400.0)), min_size=1,
                           max_size=3), _field(st.floats(0.0, 400.0)))

_JOBS = {
    "inverse": st.fixed_dictionaries(
        {"spec": _SPEC}, optional={"arc_resolution_mm": _RESOLUTION}),
    "shape": st.fixed_dictionaries(
        {"spec": _SPEC}, optional={"arc_resolution_mm": _RESOLUTION}),
    "forward": st.fixed_dictionaries(
        {"fab": _fab()}, optional={"arc_resolution_mm": _RESOLUTION}),
    "sweep": st.fixed_dictionaries(
        {"sweep": st.fixed_dictionaries(
            {"perimeter_mm": _field(st.floats(100.0, 1000.0)),
             "S_c_mm": _GRID, "L_mm": _GRID})}),
    "oracle": st.fixed_dictionaries(
        {"fab": _fab(("S_c_mm", "L_mm")),
         "oracle": st.fixed_dictionaries(
             {"grid_points": _field(st.integers(1000, 5000))})}),
    "compare": st.fixed_dictionaries(
        {"fab": _fab(),
         "compare": st.just(
             {"outline_csv": str(REPO / "docs/examples/outline.csv")})},
        optional={"arc_resolution_mm": _RESOLUTION}),
    "force": st.fixed_dictionaries(
        {"force": st.fixed_dictionaries(
            {"pressure_kpa": _field(st.floats(0.0, 100.0))},
            optional={"area_mm2": _field(st.floats(0.0, 1e5))}),
         "fab": _fab()},
        optional={"arc_resolution_mm": _RESOLUTION}),
}

# an output section: paths are placeholders that the test maps under a
# fresh temporary directory, never the working directory
_PATH = st.one_of(st.sampled_from(["<file>", "<missing>", "<dir>"]),
                  st.one_of(st.none(), st.integers(),
                            st.lists(st.integers(), max_size=1)))
_OUTPUT = st.one_of(st.dictionaries(st.sampled_from(["json", "svg", "csv"]),
                                    _PATH, max_size=3),
                    st.one_of(st.none(), st.integers(),
                              st.lists(_PATH, max_size=2)))
#: the output kinds each mode writes
_WRITES = {"forward": {"json", "svg"}, "shape": {"json", "svg"},
           "sweep": {"csv"}}


def _place(path, key, tmp):
    return {"<file>": str(tmp / f"out.{key}"),
            "<missing>": str(tmp / "missing" / f"out.{key}"),
            "<dir>": str(tmp)}.get(path, path) if isinstance(path, str) else path


def _docs_job(mode):
    # the docs example job, its outline path absolute, its oracle grid small
    config = json.loads((REPO / f"docs/examples/job_{mode}.json").read_text(
        encoding="utf-8"))
    config.pop("output", None)
    if mode == "compare":
        config["compare"]["outline_csv"] = str(
            REPO / config["compare"]["outline_csv"])
    if mode == "oracle":
        config["oracle"]["grid_points"] = 1000
    return config


class TestFuzzedJobConfigs:
    # capsys is drained at the start of every example, so sharing the
    # function-scoped fixture across examples is safe
    @pytest.mark.parametrize("mode", sorted(_JOBS))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_config_ends_in_an_exit_code(self, tmp_path_factory,
                                               capsys, mode, data):
        config = data.draw(_JOBS[mode], label="config")
        output = data.draw(st.one_of(st.just({}), _OUTPUT), label="output")
        self.check(tmp_path_factory, capsys, mode, config, output)

    @pytest.mark.parametrize("mode", sorted(_JOBS))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(output=_OUTPUT)
    def test_valid_job_with_any_output(self, tmp_path_factory, capsys, mode,
                                       output):
        self.check(tmp_path_factory, capsys, mode, _docs_job(mode), output)

    @staticmethod
    def check(tmp_path_factory, capsys, mode, config, output):
        with tempfile.TemporaryDirectory(
                dir=tmp_path_factory.getbasetemp()) as tmp:
            tmp = pathlib.Path(tmp)
            if output != {}:
                config["output"] = {k: _place(v, k, tmp) for k, v in
                                    output.items()} \
                    if isinstance(output, dict) else output
            job = tmp / "job.json"
            job.write_text(json.dumps(config), encoding="utf-8")
            capsys.readouterr()
            # a warning would print more lines to stderr, so it fails here
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([mode, "--config", str(job)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2)
            assert len(err.splitlines()) <= 1
            assert "Traceback" not in out + err
            if code == 1 or (code == 2 and mode != "inverse"):
                assert out == ""
            elif code == 2:
                # infeasible inverse prints only its feasibility report
                assert out == "" or list(json.loads(out)) == ["feasibility"]
            else:
                # the mode writes each file it has a kind for, and no other
                written = {key for key, path in output.items()
                           if path == "<file>"
                           and key in _WRITES.get(mode, {"json"})}
                assert sorted(p.name for p in tmp.iterdir()) == sorted(
                    ["job.json", *(f"out.{key}" for key in written)])
                for key in written:
                    text = (tmp / f"out.{key}").read_text(encoding="utf-8")
                    if key == "svg":
                        assert text.startswith("<?xml")
                    else:
                        assert text == out


class TestSweep:
    def test_grid_csv(self):
        out = run_cli("sweep", "--perimeter", 558,
                      "--sc", "127,152", "--l", "50.8,76.2")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("S_c_mm,L_mm,S_s_mm")
        s1_row = lines[4].split(",")
        assert s1_row[:3] == ["152", "76.2", "127"]
        assert s1_row[7] == "true"

    def test_all_infeasible_still_exit_0(self):
        out = run_cli("sweep", "--perimeter", 200, "--sc", "100,150",
                      "--l", "10")
        assert out.returncode == 0, out.stderr
        rows = out.stdout.splitlines()[1:]
        assert all(row.split(",")[7] == "false" for row in rows)

    def test_empty_ranges_exit_1(self):
        out = run_cli("sweep", "--perimeter", 558, "--sc", "", "--l", "50.8")
        assert out.returncode == 1
        assert out.stderr.strip()

    @pytest.mark.parametrize("arcs, code", [("127,152", 0),
                                            ("127,152,160", 1)])
    def test_cell_cap(self, monkeypatch, capsys, arcs, code):
        # at the cap, and one row of cells past it
        monkeypatch.setattr(analysis, "MAX_SWEEP_CELLS", 4)
        assert cli.main(["sweep", "--perimeter", "558", "--sc", arcs,
                         "--l", "50.8,76.2"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err == ("crosssec: error: sweep of 3 x 2 cells exceeds "
                           "MAX_SWEEP_CELLS = 4\n")
        else:
            assert err == ""
            assert len(out.splitlines()) == 5

    def test_csv_file_matches_stdout(self, tmp_path):
        path = tmp_path / "sweep.csv"
        out = run_cli("sweep", "--perimeter", 558, "--sc", "152",
                      "--l", "76.2", "--csv", path)
        assert out.returncode == 0, out.stderr
        assert path.read_text(encoding="utf-8") == out.stdout

    def test_nan_entries_sort_last_in_any_order(self, capsys):
        outputs = set()
        for grid in itertools.permutations(["127", "nan", "100"]):
            assert cli.main(["sweep", "--perimeter", "558",
                             "--sc", ",".join(grid), "--l", "50"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
        rows = outputs.pop().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["100", "127", "nan"]
        assert rows[2].split(",")[7] == "false"

    def test_infinite_index_serialized(self):
        # equal channel heights: H_c == H_s == 1 at the tangent spec;
        # realize it as a sweep cell via its fabrication parameters
        perimeter = 2.0 * (0.5 * math.pi + math.pi)
        out = run_cli("sweep", "--perimeter", repr(perimeter),
                      "--sc", repr(0.5 * math.pi), "--l", 0)
        assert out.returncode == 0, out.stderr
        row = out.stdout.splitlines()[1].split(",")
        assert row[6] == "inf"
        assert row[7] == "true"


class TestOracle:
    def test_structure1(self):
        out = run_cli("oracle", "--sc", 152, "--l", 76.2,
                      "--grid-points", 100000)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["agreement"] is True
        assert doc["grid_points"] == 100000
        assert abs(doc["theta_argmax_rad"] - doc["theta_root_rad"]) \
            <= doc["grid_step_rad"] * (1 + 1e-9)

    def test_unit_arc_zero_strip(self):
        out = run_cli("oracle", "--sc", 1, "--l", 0, "--grid-points", 100000)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["agreement"] is True
        assert doc["theta_argmax_rad"] == pytest.approx(math.pi, abs=1e-4)

    def test_small_grid_exit_1(self):
        out = run_cli("oracle", "--sc", 152, "--l", 76.2, "--grid-points", 10)
        assert out.returncode == 1
        assert "grid_points >= 1000 required" in out.stderr

    def test_grid_above_cap_exit_1(self):
        out = run_cli("oracle", "--sc", 152, "--l", 76.2,
                      "--grid-points", 1_000_000_000)
        assert out.returncode == 1
        assert len(out.stderr.strip().splitlines()) == 1
        assert "grid_points <= 100000000 required" in out.stderr

    def test_huge_arc_area_overflow_exit_1(self):
        # the scan compares areas scaled by a power of two, so it finds the
        # maximum, but the area there, about S_c^2, is beyond the float range
        out = run_cli("oracle", "--sc", "1e160", "--l", 1,
                      "--grid-points", 1000)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            "crosssec: error: center area at the grid argmax overflows the "
            "float range"]

    def test_tiny_arc_finds_the_root(self):
        # S_c^2 underflows to 0, but the scan compares areas scaled by a
        # power of two, which do not all tie at 0
        out = run_cli("oracle", "--sc", "1e-170", "--l", 0,
                      "--grid-points", 1000)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["agreement"] is True
        assert doc["theta_root_rad"] == pytest.approx(math.pi, rel=1e-8)
        assert abs(doc["theta_argmax_rad"] - math.pi) \
            <= doc["grid_step_rad"] * (1 + 1e-9)

    def test_root_below_first_grid_angle(self):
        # the root 2e-8 lies below the grid's first angle 1e-6 by more
        # than a step; the argmax is that first angle
        out = run_cli("oracle", "--sc", 1, "--l", "1e8",
                      "--grid-points", 10_000_000)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["agreement"] is True
        assert doc["theta_argmax_rad"] == 1e-6
        assert doc["theta_root_rad"] == pytest.approx(2e-8, rel=1e-6)

    def test_docs_job_stdout_frozen(self):
        # stdout of the whole-grid NumPy scan that the chunked kernel
        # replaced, captured byte for byte
        out = run_cli("oracle", "--config", "docs/examples/job_oracle.json")
        assert out.returncode == 0, out.stderr
        frozen = (REPO / "tests/data/job_oracle.stdout.json").read_text(
            encoding="utf-8")
        assert out.stdout == frozen


class TestCompare:
    def test_docs_outline_ratio(self):
        out = run_cli("compare", "--config", "docs/examples/job_compare.json")
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert abs(doc["area_ratio"] - 0.990) < 1e-3
        assert doc["measured_area_mm2"] < doc["model_area_mm2"]

    def test_identity_outline(self, tmp_path):
        shape = run_cli("shape", "--hc", 101.6, "--hs", 50.8, "--w", 190)
        assert shape.returncode == 0
        # export the model outline through the library, then compare
        import numpy as np
        from crosssec.geometry import DesignSpec, build_cross_section, \
            cross_section_outline
        outline = cross_section_outline(
            build_cross_section(DesignSpec(101.6, 50.8, 190.0)), 1e-4)
        path = tmp_path / "outline.csv"
        rows = [f"{float(x)!r},{float(y)!r}" for x, y in outline.points]
        path.write_text("x_mm,y_mm\n" + "\n".join(rows) + "\n")
        fab = json.loads(run_cli(
            "inverse", "--hc", 101.6, "--hs", 50.8, "--w", 190).stdout)["fab"]
        out = run_cli("compare", "--outline", path,
                      "--sc", repr(fab["S_c_mm"]), "--ss", repr(fab["S_s_mm"]),
                      "--l", repr(fab["L_mm"]))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["area_ratio"] == pytest.approx(
            1.0, abs=1e-4)

    def test_degenerate_outline_exit_1(self, tmp_path):
        path = tmp_path / "eight.csv"
        path.write_text("0,0\n6,0\n0,3\n3,3\n", encoding="utf-8")
        out = run_cli("compare", "--outline", path,
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 1
        assert "crosses itself" in out.stderr

    def test_overflowing_outline_area_exit_1(self, tmp_path):
        # finite coordinates whose shoelace products overflow
        path = tmp_path / "huge.csv"
        path.write_text("x_mm,y_mm\n1e308,1e308\n-1e308,1e308\n"
                        "-1e308,-1e308\n1e308,-1e308\n", encoding="utf-8")
        out = run_cli("compare", "--outline", path,
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.splitlines() == [
            "crosssec: error: polygon area overflows the float range"]

    def test_missing_outline_file_exit_1(self):
        out = run_cli("compare", "--outline", "no_such_file.csv",
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 1

    @pytest.mark.parametrize("offset, leg, area", [
        (1e9, 1.0, 0.5), (1e12, 1.0, 0.5), (1e160, 1e151, 5e301)])
    def test_small_outline_far_from_origin(self, tmp_path, offset, leg, area):
        # a right triangle whose shoelace products on the raw coordinates
        # cancel to nothing, or overflow
        path = tmp_path / "far.csv"
        path.write_text(f"{offset!r},{offset!r}\n{offset + leg!r},{offset!r}\n"
                        f"{offset!r},{offset + leg!r}\n", encoding="utf-8")
        out = run_cli("compare", "--outline", path,
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["measured_area_mm2"] == pytest.approx(
            area, rel=1e-6)


# Outline files for the compare fuzz: star-shaped polygons, scaled and
# shifted, with repeated and swapped vertices, short files, and text that
# is not an outline at all.
_SIZES = st.sampled_from([1.0, 1.0, 1.0, 1e-150, 1e-300, 5e-324, 1e150,
                          1e300])
_OFFSETS = st.sampled_from([0.0, 0.0, 0.0, 1e9, -1e12, 1e300])


@st.composite
def _outline_files(draw):
    n = draw(st.integers(0, 10))
    angles = sorted(draw(st.lists(st.floats(0.0, 6.28), min_size=n,
                                  max_size=n)))
    radii = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    points = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
    for _ in range(draw(st.integers(0, 2)) if points else 0):
        i, j = (draw(st.integers(0, len(points) - 1)) for _ in range(2))
        if draw(st.booleans()):
            points.insert(i, points[j])
        else:
            points[i], points[j] = points[j], points[i]
    size, offset = draw(_SIZES), draw(_OFFSETS)
    rows = [f"{offset + size * x!r},{offset + size * y!r}" for x, y in points]
    header = ["x_mm,y_mm"] if draw(st.booleans()) else []
    return "\n".join(header + rows) + "\n"


class TestFuzzedOutlines:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(_outline_files(), _outline_files(),
                          st.text(max_size=40)))
    def test_every_outline_ends_in_an_exit_code(self, tmp_path_factory,
                                                capsys, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed_outline.csv"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["compare", "--outline", str(path), "--sc", "152",
                             "--ss", "127", "--l", "76.2"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        if code:
            assert len(err.splitlines()) == 1
        if code == 1:
            assert out == ""
        if code == 0:
            assert math.isfinite(json.loads(out)["area_ratio"])


class TestForce:
    def test_direct_area(self):
        out = run_cli("force", "--pressure-kpa", 34, "--area-mm2", 36700)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["force_n"] == pytest.approx(1247.8, rel=1e-9)

    def test_area_from_fab(self):
        out = run_cli("force", "--pressure-kpa", 2.07,
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert rel_err(doc["area_mm2"], FROZEN["S1"]["total"]) < 1e-4
        assert doc["force_n"] == pytest.approx(
            2.07e-3 * FROZEN["S1"]["total"], rel=1e-4)

    def test_area_from_spec(self):
        out = run_cli("force", "--pressure-kpa", 2.07,
                      "--hc", repr(FROZEN["S1"]["H_c"]),
                      "--hs", repr(FROZEN["S1"]["H_s"]),
                      "--w", repr(FROZEN["S1"]["w"]))
        assert out.returncode == 0, out.stderr
        assert rel_err(json.loads(out.stdout)["area_mm2"],
                       FROZEN["S1"]["total"]) < 1e-4

    def test_missing_pressure_exit_1(self):
        out = run_cli("force", "--area-mm2", 100)
        assert out.returncode == 1

    def test_missing_area_source_exit_1(self):
        out = run_cli("force", "--pressure-kpa", 10)
        assert out.returncode == 1
        assert "area" in out.stderr


class TestUsage:
    def test_no_arguments(self):
        out = run_cli()
        assert out.returncode == 1
        assert out.stderr.strip()

    def test_unknown_mode(self):
        out = run_cli("resonate")
        assert out.returncode == 1

    def test_unknown_flag(self):
        out = run_cli("inverse", "--frequency", 3)
        assert out.returncode == 1
