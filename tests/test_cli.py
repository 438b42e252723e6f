import json
import math

import pytest

from conftest import (FROZEN, INVERSE_190_FAB, INVERSE_190_SPEC, REPO,
                      rel_err, run_cli)


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
        ("nan", "arc resolution must be positive and finite"),
        ("inf", "arc resolution must be positive and finite"),
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
        assert "arc resolution must be" in out.stderr


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

    def test_csv_file_matches_stdout(self, tmp_path):
        path = tmp_path / "sweep.csv"
        out = run_cli("sweep", "--perimeter", 558, "--sc", "152",
                      "--l", "76.2", "--csv", path)
        assert out.returncode == 0, out.stderr
        assert path.read_text(encoding="utf-8") == out.stdout

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

    def test_missing_outline_file_exit_1(self):
        out = run_cli("compare", "--outline", "no_such_file.csv",
                      "--sc", 152, "--ss", 127, "--l", 76.2)
        assert out.returncode == 1


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
