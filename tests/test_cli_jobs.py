"""The CLI's job paths: frozen output of every docs example job, the
flags and config keys each mode takes, and files written before stdout."""

import json
import math
import re

import pytest

from conftest import REPO
from crosssec import cli, solver

DATA = REPO / "tests/data"
EXAMPLES = REPO / "docs/examples"
DOCS_MODES = ("compare", "force", "forward", "inverse", "oracle", "shape",
              "sweep")


def test_every_mode_has_a_docs_job():
    assert sorted(p.stem[len("job_"):] for p in EXAMPLES.glob("job_*.json")) \
        == list(DOCS_MODES)


@pytest.mark.parametrize("mode", DOCS_MODES)
def test_docs_job_output_frozen(tmp_path, monkeypatch, capsys, mode):
    # run from an empty working directory, with the job's relative paths
    # made absolute, so that nothing lands in the repository
    config = json.loads((EXAMPLES / f"job_{mode}.json").read_text(
        encoding="utf-8"))
    if "compare" in config:
        config["compare"]["outline_csv"] = str(
            REPO / config["compare"]["outline_csv"])
    names = config.get("output", {})
    config["output"] = {key: str(tmp_path / name)
                        for key, name in names.items()}
    job = tmp_path / "job.json"
    job.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main([mode, "--config", str(job)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    suffix = "csv" if mode == "sweep" else "json"
    assert out == (DATA / f"job_{mode}.stdout.{suffix}").read_text(
        encoding="utf-8")
    # a JSON or CSV file repeats stdout; an SVG is frozen beside it
    for key, name in names.items():
        frozen = (DATA / f"job_{mode}.{name}").read_text(encoding="utf-8") \
            if key == "svg" else out
        assert (tmp_path / name).read_text(encoding="utf-8") == frozen
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["job.json", *names.values()])


@pytest.mark.parametrize("mode", DOCS_MODES)
def test_config_byte_order_mark_skipped(tmp_path, capsys, mode):
    # a UTF-8 byte-order mark before the JSON changes nothing, as in an
    # outline file
    config = json.loads((EXAMPLES / f"job_{mode}.json").read_text(
        encoding="utf-8"))
    config.pop("output", None)
    if "compare" in config:
        config["compare"]["outline_csv"] = str(
            REPO / config["compare"]["outline_csv"])
    text = json.dumps(config).encode("utf-8")
    runs = []
    for name, data in (("plain.json", text), ("bom.json", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).write_bytes(data)
        assert cli.main([mode, "--config", str(tmp_path / name)]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].err == runs[1].err == ""
    assert runs[1].out == runs[0].out != ""


#: Every option each mode takes: a flag the mode does not read must not
#: come back unnoticed.
MODE_FLAGS = {
    "inverse": {"--config", "--json", "--hc", "--hs", "--w"},
    "forward": {"--config", "--json", "--svg", "--arc-resolution", "--sc",
                "--ss", "--l"},
    "shape": {"--config", "--json", "--svg", "--arc-resolution", "--hc",
              "--hs", "--w"},
    "sweep": {"--config", "--csv", "--perimeter", "--sc", "--l"},
    "oracle": {"--config", "--json", "--sc", "--l", "--grid-points"},
    "compare": {"--config", "--json", "--arc-resolution", "--outline", "--sc",
                "--ss", "--l"},
    "force": {"--config", "--json", "--arc-resolution", "--pressure-kpa",
              "--area-mm2", "--sc", "--ss", "--l", "--hc", "--hs", "--w"},
}

S1_FAB = ("--sc", "152", "--ss", "127", "--l", "76.2")
SPEC_190 = ("--hc", "101.6", "--hs", "50.8", "--w", "190")
S1_SWEEP = ("--perimeter", "558", "--sc", "152", "--l", "76.2")
S1_ORACLE = ("--sc", "152", "--l", "76.2", "--grid-points", "1000")
S1_COMPARE = ("--outline", str(EXAMPLES / "outline.csv"), *S1_FAB)
S1_FORCE = ("--pressure-kpa", "2", *S1_FAB)


def _help_flags(capsys, mode):
    # every option ``crosssec <mode> --help`` lists, but --help
    with pytest.raises(SystemExit) as info:
        cli.main([mode, "--help"])
    assert info.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                          capsys.readouterr().out)) - {"--help"}


class TestModeFlags:
    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_each_mode_takes_only_the_flags_it_reads(self, capsys, mode):
        assert _help_flags(capsys, mode) == MODE_FLAGS[mode]

    def test_docs_mode_table_matches_the_parser(self, capsys):
        # the per-mode table in docs/formats.md; --config is in every mode
        text = (REPO / "docs/formats.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", text, re.MULTILINE)
        assert sorted(mode for mode, _ in rows) == list(DOCS_MODES)
        for mode, flags in rows:
            assert set(re.findall(r"--[a-z][a-z0-9-]*", flags)) | {
                "--config"} == _help_flags(capsys, mode), mode

    @pytest.mark.parametrize("argv", [
        ["inverse", *SPEC_190, "--abs-tol", "1e-9"],
        ["inverse", *SPEC_190, "--max-iter", "0"],
        ["inverse", *SPEC_190, "--arc-resolution", "nan"],
        ["shape", *SPEC_190, "--abs-tol", "-1"],
        ["shape", *SPEC_190, "--max-iter", "50"],
        ["sweep", "--perimeter", "558", "--sc", "152", "--l", "76.2",
         "--arc-resolution", "1e-3"],
        ["sweep", "--perimeter", "558", "--sc", "152", "--l", "76.2",
         "--json", "out.json"],
        ["oracle", "--sc", "152", "--l", "76.2", "--arc-resolution", "nan"],
        ["forward", *S1_FAB, "--abs-tol", "1e-9"],
        ["forward", *S1_FAB, "--max-iter", "200"],
        ["sweep", *S1_SWEEP, "--abs-tol", "1e-9"],
        ["sweep", *S1_SWEEP, "--max-iter", "200"],
        ["oracle", *S1_ORACLE, "--abs-tol", "1e-9"],
        ["oracle", *S1_ORACLE, "--max-iter", "200"],
        ["compare", *S1_COMPARE, "--abs-tol", "1e-9"],
        ["compare", *S1_COMPARE, "--max-iter", "200"],
        ["force", *S1_FORCE, "--abs-tol", "1e-9"],
        ["force", *S1_FORCE, "--max-iter", "200"],
    ])
    def test_removed_flag_is_a_usage_error(self, tmp_path, monkeypatch,
                                           capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: crosssec ")
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
        assert list(tmp_path.iterdir()) == []


class TestWriteOrder:
    # files are written before stdout, so a failed write leaves it empty
    @pytest.mark.parametrize("argv, target", [
        (["forward", *S1_FAB, "--json"], "missing/x.json"),
        (["shape", *SPEC_190, "--svg"], "."),
        (["sweep", "--perimeter", "558", "--sc", "152", "--l", "76.2",
          "--csv"], "missing/s.csv"),
    ])
    def test_unwritable_path_exit_1_with_empty_stdout(self, tmp_path, capsys,
                                                      argv, target):
        assert cli.main([*argv, str(tmp_path / target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("crosssec: error: ")
        assert list(tmp_path.iterdir()) == []

    def test_file_written_before_the_failure_stays(self, tmp_path, capsys):
        assert cli.main(["forward", *S1_FAB, "--json", str(tmp_path / "x.json"),
                         "--svg", str(tmp_path / "missing/x.svg")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads((tmp_path / "x.json").read_text(
            encoding="utf-8"))["perimeter_mm"] == 558.0


class TestForceRecord:
    def test_any_fab_flag_picks_fab(self, capsys):
        # a partial fab names its missing field; it is not mistaken for
        # no geometry at all
        assert cli.main(["force", "--pressure-kpa", "2", "--ss", "127",
                         "--l", "76.2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "S_c_mm" in err

    def test_spec_from_config_when_no_fab(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"force": {"pressure_kpa": 2.07},
                                   "spec": {"H_c_mm": 101.6, "H_s_mm": 50.8,
                                            "w_mm": 190}}), encoding="utf-8")
        assert cli.main(["force", "--config", str(job)]) == 0
        area = json.loads(capsys.readouterr().out)["area_mm2"]
        assert cli.main(["shape", *SPEC_190]) == 0
        assert area == json.loads(capsys.readouterr().out)["area_total_mm2"]

    @pytest.mark.parametrize("flags, message", [
        (["--arc-resolution", "nan"], "--arc-resolution must be positive"),
        # the fab and spec the run does not use
        (["--sc", "-1"], "--sc must be positive and finite, got -1.0"),
        (["--hc", "inf"], "--hc must be positive and finite, got inf"),
    ])
    def test_settings_checked_with_a_given_area(self, capsys, flags, message):
        assert cli.main(["force", "--pressure-kpa", "2", "--area-mm2", "100",
                         *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert message in err


def test_compare_outline_path_must_be_a_string(tmp_path, capsys):
    # an int would open that file descriptor: 0 reads stdin
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"fab": {"S_c_mm": 152, "S_s_mm": 127,
                                       "L_mm": 76.2},
                               "compare": {"outline_csv": 0}}),
                   encoding="utf-8")
    assert cli.main(["compare", "--config", str(job)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "compare.outline_csv must be a path string, got 0" in err


#: A job config key of each mode, valid where another mode reads it.
_UNREAD = [
    ("forward", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                 "solver": {}}, "solver"),
    ("shape", {"spec": {"H_c_mm": 101.6, "H_s_mm": 50.8, "w_mm": 190},
               "solver": {"max_iter": 200}}, "solver"),
    ("inverse", {"spec": {"H_c_mm": 101.6, "H_s_mm": 50.8, "w_mm": 190},
                 "arc_resolution_mm": 1e-3}, "arc_resolution_mm"),
    ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [152],
                         "L_mm": [76.2]},
               "output": {"json": "out.json"}}, "output.json"),
    ("oracle", {"fab": {"S_c_mm": 152, "L_mm": 76.2},
                "arc_resolution_mm": 1e-3}, "arc_resolution_mm"),
    ("force", {"force": {"pressure_kpa": 2, "area_mm2": 100},
               "output": {"svg": "out.svg"}}, "output.svg"),
    ("compare", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                 "compare": {"outline_csv": str(EXAMPLES / "outline.csv")},
                 "spec": {}}, "spec"),
    # the solver section that every mode but shape and inverse once read
    ("inverse", {"spec": {"H_c_mm": 101.6, "H_s_mm": 50.8, "w_mm": 190},
                 "solver": {}}, "solver"),
    ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [152],
                         "L_mm": [76.2]},
               "solver": {"abs_tol": 1e-9}}, "solver"),
    ("oracle", {"fab": {"S_c_mm": 152, "L_mm": 76.2},
                "solver": {"max_iter": 200}}, "solver"),
    ("compare", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                 "compare": {"outline_csv": str(EXAMPLES / "outline.csv")},
                 "solver": {"abs_tol": 1e-9, "max_iter": 200}}, "solver"),
    ("force", {"force": {"pressure_kpa": 2},
               "fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
               "solver": {}}, "solver"),
    # a field a read section does not have: a misspelt one, or one the
    # mode does not take
    ("oracle", {"fab": {"S_c_mm": 152, "L_mm": 76.2},
                "oracle": {"grid_points": 1000, "gridpoints": 5}},
     "oracle.gridpoints"),
    ("oracle", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                "oracle": {"grid_points": 1000}}, "fab.S_s_mm"),
    ("forward", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2,
                         "L": 3}}, "fab.L"),
    ("force", {"force": {"pressure_kpa": 2, "area_mm2": 100, "area": 5}},
     "force.area"),
    ("force", {"force": {"pressure_kpa": 2},
               "spec": {"H_c_mm": 101.6, "H_s_mm": 50.8, "w_mm": 190,
                        "S_c_mm": 152}}, "spec.S_c_mm"),
    ("inverse", {"spec": {"H_c_mm": 101.6, "H_s_mm": 50.8, "w": 190}},
     "spec.w"),
    ("sweep", {"sweep": {"perimeter": 558, "S_c_mm": [152],
                         "L_mm": [76.2]}}, "sweep.perimeter"),
    ("compare", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                 "compare": {"outline_csv": str(EXAMPLES / "outline.csv"),
                             "outline": "x.csv"}}, "compare.outline"),
    ("shape", {"spec": {"H_c_mm": 101.6, "H_s_mm": 50.8, "w_mm": 190},
               "output": {"svg": None, "SVG": "out.svg"}}, "output.SVG"),
    # a dotted top-level key is no section's field
    ("forward", {"fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
                 "fab.L_mm": 3}, "fab.L_mm"),
]


@pytest.mark.parametrize("mode, config, key", _UNREAD)
def test_unread_config_key_exit_1(tmp_path, monkeypatch, capsys, mode,
                                  config, key):
    # a key the mode does not read would change nothing; it is refused
    # before anything runs, as its flag form is
    job = tmp_path / "job.json"
    job.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main([mode, "--config", str(job)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"crosssec: error: {mode} does not read config key {key!r}\n"
    assert list(tmp_path.iterdir()) == [job]


@pytest.mark.parametrize("mode, config, section", [
    ("forward", {"fab": [152, 127, 76.2]}, "fab"),
    # sections the run would not use
    ("force", {"force": {"pressure_kpa": 2, "area_mm2": 100}, "fab": 5},
     "fab"),
    ("force", {"force": {"pressure_kpa": 2},
               "fab": {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2},
               "spec": None}, "spec"),
])
def test_non_object_section_exit_1(tmp_path, capsys, mode, config, section):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([mode, "--config", str(job)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"crosssec: error: job config field {section!r} must be "
                   "an object\n")


_FAB = {"S_c_mm": 152, "S_s_mm": 127, "L_mm": 76.2}
_SPEC = {"H_c_mm": 101.6, "H_s_mm": 50.8, "w_mm": 190}
#: Valid jobs whose every numeric and path field the run reads.
_READ_JOBS = [
    ("inverse", {"spec": _SPEC}),
    ("forward", {"fab": _FAB, "arc_resolution_mm": 1e-3}),
    ("shape", {"spec": _SPEC, "arc_resolution_mm": 1e-3}),
    ("sweep", {"sweep": {"perimeter_mm": 558, "S_c_mm": [152],
                         "L_mm": [76.2]}}),
    ("oracle", {"fab": {"S_c_mm": 152, "L_mm": 76.2},
                "oracle": {"grid_points": 1000}}),
    ("compare", {"fab": _FAB, "arc_resolution_mm": 1e-3,
                 "compare": {"outline_csv": str(EXAMPLES / "outline.csv")}}),
    ("force", {"force": {"pressure_kpa": 2, "area_mm2": 100},
               "arc_resolution_mm": 1e-3}),
    ("force", {"force": {"pressure_kpa": 2}, "fab": _FAB}),
    ("force", {"force": {"pressure_kpa": 2}, "spec": _SPEC}),
]
#: What a null field's message says, where it is not ``<key> must be a
#: number``.
_NULL_MESSAGES = {
    "sweep.S_c_mm": "sweep.S_c_mm: expected a list of numbers",
    "sweep.L_mm": "sweep.L_mm: expected a list of numbers",
    "compare.outline_csv": "compare.outline_csv must be a path string",
}


def _nulled(config, key):
    section, _, field = key.rpartition(".")
    config = json.loads(json.dumps(config))
    (config[section] if section else config)[field] = None
    return config


_NULL_CASES = [
    (mode, _nulled(config, key), key)
    for mode, config in _READ_JOBS
    for key in (f"{name}.{field}" if isinstance(value, dict) else name
                for name, value in config.items()
                for field in (value if isinstance(value, dict) else [None]))
] + [
    # a null area does not fall back to the geometry beside it
    ("force", {"force": {"pressure_kpa": 2, "area_mm2": None}, "fab": _FAB},
     "force.area_mm2"),
]


@pytest.mark.parametrize("mode, config", _READ_JOBS)
def test_read_jobs_are_valid(tmp_path, capsys, mode, config):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([mode, "--config", str(job)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode, config, key", _NULL_CASES)
def test_null_field_exit_1(tmp_path, capsys, mode, config, key):
    # null is no number and no path, wherever the run reads it
    job = tmp_path / "job.json"
    job.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([mode, "--config", str(job)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    message = _NULL_MESSAGES.get(key, f"{key} must be a number")
    assert err == f"crosssec: error: {message}, got None\n"


#: Mode -> the flags it is given besides a record, and the record's
#: flags; force takes either record where it is given no area.
_RECORD_RUNS = [
    ("inverse", (), SPEC_190),
    ("forward", (), S1_FAB),
    ("shape", (), SPEC_190),
    ("compare", S1_COMPARE[:2], S1_FAB),
    ("force", S1_FORCE[:2], S1_FAB),
    ("force", S1_FORCE[:2], SPEC_190),
]


def _missing_cases():
    for mode, given, record in _RECORD_RUNS:
        pairs = list(zip(record[::2], record[1::2]))
        for dropped in pairs:
            kept = [part for pair in pairs if pair != dropped for part in pair]
            yield pytest.param([mode, *given, *kept], [dropped[0]],
                               id=f"{mode}-without-{dropped[0]}")
        named = [flag for flag, _ in pairs]
        if mode == "force":
            # no record at all: the area or either record
            named = ["--area-mm2", *S1_FAB[::2], *SPEC_190[::2]]
        yield pytest.param([mode, *given], named,
                           id=f"{mode}-without-{'-'.join(record[::2])}")


class TestMissingInputs:
    @pytest.mark.parametrize("argv, named", _missing_cases())
    def test_one_line_names_the_missing_flags(self, capsys, argv, named):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"crosssec: error: {argv[0]} needs ")
        assert re.findall(r"--[a-z][a-z0-9-]*", err) == named


#: Values no config record field may take (null: test_null_field_exit_1).
_NOT_FIELDS = [True, "1", [1.0], 10**400, math.nan, math.inf, -1]


class TestConfigRecords:
    # a config section is read into its record field by field, each value
    # checked as its flag's
    @pytest.mark.parametrize("mode, section, record", [
        ("shape", "spec", _SPEC), ("forward", "fab", _FAB)])
    def test_written_record_read_back(self, tmp_path, capsys, mode, section,
                                      record):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({section: record}), encoding="utf-8")
        assert cli.main([mode, "--config", str(job)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)[section] == record
        assert cli.main([mode, *(SPEC_190 if section == "spec"
                                 else S1_FAB)]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("mode, key, value", [
        pytest.param(mode, f"{section}.{field}", value,
                     id=f"{section}.{field}-{value!r:.12}")
        for mode, section, record in (("shape", "spec", _SPEC),
                                      ("forward", "fab", _FAB))
        for field in record for value in _NOT_FIELDS])
    def test_bad_field_exit_1(self, tmp_path, capsys, mode, key, value):
        section, _, field = key.partition(".")
        config = {section: dict(_SPEC if section == "spec" else _FAB)}
        config[section][field] = value
        job = tmp_path / "job.json"
        job.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([mode, "--config", str(job)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"crosssec: error: {key} ")


class TestCappedSolve:
    # S1 takes 5 center and 4 side steps, so a cap of 2 stops its solves
    @pytest.mark.parametrize("argv, outputs", [
        (["forward", *S1_FAB], ("--json", "--svg")),
        (["oracle", *S1_ORACLE], ("--json",)),
        (["compare", *S1_COMPARE], ("--json",)),
        (["force", *S1_FORCE], ("--json",)),
    ])
    def test_exit_2_with_empty_stdout_and_no_file(self, tmp_path, monkeypatch,
                                                  capsys, argv, outputs):
        monkeypatch.setattr(solver, "_MAX_STEPS", 2)
        paths = [arg for flag in outputs
                 for arg in (flag, str(tmp_path / f"x.{flag[2:]}"))]
        assert cli.main([*argv, *paths]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("crosssec: center channel: Newton solve still moving "
                       "after 2 steps\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_cell_infeasible_with_the_reason(self, monkeypatch, capsys):
        # a sweep reports each failed cell in its row and goes on
        monkeypatch.setattr(solver, "_MAX_STEPS", 2)
        assert cli.main(["sweep", *S1_SWEEP]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1] == (
            "152,76.2,127,,,,,false,"
            "center channel: Newton solve still moving after 2 steps")
