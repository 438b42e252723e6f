"""Tests of the benchmark itself: smoke sizes of every workload, the
correctness gates, the tracer's hooks and the result format.  None of them
gates on a timing.

Run from the repository root:  python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import crosssec  # noqa: E402
from perfbench import harness, reference, tracer, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]

#: Per-layer metrics each workload must report as non-zero.
EXERCISED = {
    "design_loop": ["solver.forward_us", "solver.center_solve_us",
                    "solver.center_residual_evals", "solver.side_solve_us",
                    "geometry.inverse_us", "geometry.assemble_us",
                    "geometry.side_polygon_us", "polygon.arc_points_calls",
                    "polygon.arc_vertices", "analysis.ergonomic_us",
                    "serialize.to_json_us", "render.svg_us", "cli.interpreter_ms",
                    "cli.numpy_import_ms", "cli.import_ms"],
    "oracle_scan": ["kernels.scan_ms", "kernels.ns_per_point", "kernels.grid_points",
                    "kernels.bytes_per_point", "solver.oracle_self_ms"],
    "outline_compare": ["polygon.is_simple_ms", "polygon.is_simple_vertices",
                        "analysis.area_ratio_ms", "analysis.total_area_us",
                        "serialize.read_outline_csv_ms", "geometry.side_polygon_us"],
}


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and name.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert m["name"] not in seen
        seen.add(m["name"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCH["end_to_end"])} in BENCH["end_to_end"]
    assert set(NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = harness.run(ROOT, name, seed=3, seconds=0.5, trace=False, smoke=True)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v[1] for k, v in result.metrics.items()} == want
    assert all(v[0] > 0 for v in result.metrics.values())
    assert result.environment["seed"] == 3


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_reports_every_layer(name):
    result = harness.run(ROOT, name, seed=4, seconds=0.5, trace=True, smoke=True)
    assert result.correct, result.problems
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v[1] for k, v in result.metrics.items()} == want
    for metric in EXERCISED[name]:
        assert result.metrics[metric][0] > 0, metric
    assert result.metrics["trace.absent_hooks"][0] == 0


def test_command_prints_result_json_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_scan", "--seed", "1",
         "--seconds", "0.3", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert "failed_ratio" in proc.stdout
    assert "environment:" in proc.stdout


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("cls", [workloads.DesignLoop, workloads.OracleScan,
                                 workloads.OutlineCompare])
def test_same_seed_gives_same_inputs(cls, tmp_path):
    def ops(seed, sub):
        (tmp_path / sub).mkdir()
        w = cls(seed, True, ROOT, tmp_path / sub)
        w.setup()
        return [(op.kind, op.args[1:] if cls is workloads.OutlineCompare else op.args,
                 op.expect) for op in w.ops]

    assert ops(7, "a") == ops(7, "b")
    assert ops(7, "c") != ops(8, "d")
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in written:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _first(w, kind, expect=()):
    return next(op for op in w.ops if op.kind == kind and op.expect == expect)


def test_design_loop_counts_tampered_results_as_failed(tmp_path):
    w = workloads.DesignLoop(5, True, ROOT, tmp_path)
    w.setup()
    fwd = _first(w, "forward")
    result, error = w.call(fwd)
    assert w.check(fwd, result, error)
    section, index, text = result
    s_c, s_s, strip = fwd.args
    moved = crosssec.forward_geometry(crosssec.FabricationParams(s_c * (1 + 1e-6), s_s, strip))
    assert not w.check(fwd, (moved, index, text), None)
    assert not w.check(fwd, (section, index * (1 + 1e-6), text), None)
    assert not w.check(fwd, None, ValueError("unexpected"))

    inv = _first(w, "inverse")
    result, error = w.call(inv)
    assert w.check(inv, result, error)
    section, text, svg = result
    h_c, h_s, width = inv.args
    other = crosssec.build_cross_section(crosssec.DesignSpec(h_c, h_s, width * (1 + 1e-6)))
    assert not w.check(inv, (other, text, svg), None)

    reject = next(op for op in w.ops if op.expect == ("reject",))
    assert w.check(reject, *w.call(reject))
    assert not w.check(reject, object(), None)
    assert not w.check(reject, None, ValueError("wrong rejection"))


def test_oracle_scan_counts_tampered_results_as_failed(tmp_path):
    w = workloads.OracleScan(5, True, ROOT, tmp_path)
    w.setup()
    op = w.ops[0]
    result, error = w.call(op)
    assert w.check(op, result, error)
    shifted = dataclasses.replace(result, grid_argmax=result.grid_argmax + 2 * result.grid_step)
    assert not w.check(op, shifted, None)
    coarse = dataclasses.replace(result, grid_step=10 * result.grid_step)
    assert not w.check(op, coarse, None)


def test_outline_compare_counts_tampered_results_as_failed(tmp_path):
    w = workloads.OutlineCompare(5, True, ROOT, tmp_path)
    w.setup()
    valid = next(op for op in w.ops if op.expect != ("reject",))
    ratio, text = w.call(valid)[0]
    assert w.check(valid, (ratio, text), None)
    assert not w.check(valid, (ratio * (1 + 2e-6), text), None)
    bowtie = _first(w, "compare", ("reject",))
    assert w.check(bowtie, *w.call(bowtie))
    assert not w.check(bowtie, (1.0, "{}"), None)


def test_cold_cli_counts_tampered_output_as_failed(tmp_path):
    w = workloads.ColdCli(5, True, ROOT, tmp_path)
    w.setup()
    assert not w.problems
    op = w.ops[0]
    proc = w.run(op)
    assert w.check(op, proc, None)
    proc.stdout += b" "
    assert not w.check(op, proc, None)
    proc.stdout, proc.returncode = w.reference[op.kind], 1
    assert not w.check(op, proc, None)


def test_a_wrong_program_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(crosssec, "area_ratio", lambda measured, section, *a, **k: 1.5)
    result = harness.run(ROOT, "outline_compare", seed=3, seconds=0.3, trace=False,
                         smoke=True)
    assert not result.correct
    assert result.failed == result.attempted >= 1


def test_absent_hook_targets_are_reported_and_skipped():
    t = tracer.Tracer(layers=(tracer.Layer("x.gone_us", "us",
                                           ("crosssec.no_such_module:f",
                                            "crosssec.solver:no_such_function")),),
                      counters=())
    t.install()
    t.uninstall()
    assert t.absent == ["crosssec.no_such_module:f", "crosssec.solver:no_such_function"]
    assert t.metrics(ops=1)["x.gone_us"] == (0.0, "us")


def test_hooks_time_self_and_are_removed():
    original = crosssec.solver._assemble
    t = tracer.Tracer()
    t.install()
    try:
        assert crosssec.solver._assemble is not original
        t.enabled = True
        crosssec.forward_geometry(crosssec.FabricationParams(*reference.FROZEN["S1"]["fab"]))
        t.enabled = False
    finally:
        t.uninstall()
    assert crosssec.solver._assemble is original
    assert not t.absent
    forward = t.samples["solver.forward_us"][0]
    parts = sum(t.samples[m][0] for m in ("solver.center_solve_us", "solver.side_solve_us",
                                          "geometry.assemble_us",
                                          "geometry.side_polygon_us"))
    assert parts < forward
    assert t.samples["solver.center_residual_evals"][0] == t.counts["residual"] > 1
    assert t.counts["arc_points"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    value, pct, beyond = harness.tail([float(x) for x in range(1, 2001)])
    assert (value, pct, beyond) == (1980.0, 99.0, 20)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_references_agree_with_the_frozen_values():
    for f in reference.FROZEN.values():
        s_c, s_s, strip = f["fab"]
        assert reference.rel_err(reference.strip_fit_root(s_c, strip), f["theta_c"]) < 1e-12
        assert reference.fab_spec_mismatch(f["fab"], (f["H_c"], f["H_s"], f["w"])) < 1e-12
        assert reference.rel_err(reference.ergonomic_index(f["H_c"], f["H_s"], f["w"]),
                                 f["ergo"]) < 1e-12


def _shoelace(points) -> float:
    n = len(points)
    return 0.5 * math.fsum(points[i][0] * points[(i + 1) % n][1]
                           - points[(i + 1) % n][0] * points[i][1]
                           for i in range(n))


def test_outline_generator_keeps_the_exact_area():
    section = crosssec.forward_geometry(crosssec.FabricationParams(*reference.FROZEN["S1"]["fab"]))
    side = section.sides[1]
    points, _ = reference.section_outline(section.center.radius, section.center.arc_angle,
                                          side.radius, side.arc_angle, side.center_x, 900)
    assert 890 <= len(points) <= 910
    r, theta = side.radius, side.arc_angle
    exact = section.center.area + r * r * (theta - math.sin(theta))
    assert reference.rel_err(_shoelace(points), exact) < 1e-12
