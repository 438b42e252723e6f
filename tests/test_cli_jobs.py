"""The CLI's job paths: frozen output of every docs example job, the
flags each mode takes, and files written before stdout."""

import json
import re

import pytest

from conftest import REPO
from crosssec import cli

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


#: Every option each mode takes: a flag the mode does not read must not
#: come back unnoticed.
MODE_FLAGS = {
    "inverse": {"--config", "--json", "--hc", "--hs", "--w"},
    "forward": {"--config", "--json", "--svg", "--abs-tol", "--max-iter",
                "--arc-resolution", "--sc", "--ss", "--l"},
    "shape": {"--config", "--json", "--svg", "--arc-resolution", "--hc",
              "--hs", "--w"},
    "sweep": {"--config", "--csv", "--abs-tol", "--max-iter", "--perimeter",
              "--sc", "--l"},
    "oracle": {"--config", "--json", "--abs-tol", "--max-iter", "--sc", "--l",
               "--grid-points"},
    "compare": {"--config", "--json", "--abs-tol", "--max-iter",
                "--arc-resolution", "--outline", "--sc", "--ss", "--l"},
    "force": {"--config", "--json", "--abs-tol", "--max-iter",
              "--arc-resolution", "--pressure-kpa", "--area-mm2", "--sc",
              "--ss", "--l", "--hc", "--hs", "--w"},
}

S1_FAB = ("--sc", "152", "--ss", "127", "--l", "76.2")
SPEC_190 = ("--hc", "101.6", "--hs", "50.8", "--w", "190")


class TestModeFlags:
    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_each_mode_takes_only_the_flags_it_reads(self, capsys, mode):
        with pytest.raises(SystemExit) as info:
            cli.main([mode, "--help"])
        assert info.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                               capsys.readouterr().out))
        assert flags - {"--help"} == MODE_FLAGS[mode]

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
        (["--arc-resolution", "nan"], "arc resolution must be positive"),
        (["--max-iter", "0"], "max_iter must be >= 1"),
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
    assert "compare outline must be a path string, got 0" in err
