"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test prints exactly one line of the form

    ACCEPTANCE <n> PASS|FAIL - <what was checked>: <measured values>

before asserting, so the whole scorecard is visible in one pytest run
(``-s`` is in addopts) even when something fails.  Tolerances are pinned
here and nowhere else; loosening one is an interface change.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import FROZEN, rel_err, run_cli

from crosssec._arcmath import center_area, center_area_derivative
from crosssec.analysis import (area_ratio, eversion_force,
                               sweep_constant_perimeter, total_area)
from crosssec.geometry import (DesignSpec, FabricationParams,
                               build_cross_section, cross_section_outline,
                               inverse_design, validate_spec)
from crosssec.polygon import Polygon
from crosssec.solver import (area_max_oracle, forward_geometry,
                             solve_center_arc_angle)


def _report(number: int, ok: bool, label: str, measured: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} - {label}: {measured}")
    assert ok, f"criterion {number}: {label}: {measured}"


def test_criterion_01_grid_argmax_matches_analytic_root():
    # 50 seeded (S_c, L) pairs plus the two pinned cases; the brute-force
    # 10^6-point grid argmax of the center-area function must sit within
    # one grid step (~6.3e-6 rad) of the strip-fit root, in under 10 s.
    rng = np.random.default_rng(20260814)
    pairs = [(1.0, 0.0), (152.0, 76.2)]
    while len(pairs) < 52:
        s_c = float(rng.uniform(1.0, 300.0))
        pairs.append((s_c, float(rng.uniform(0.0, 2.0)) * s_c))
    start = time.perf_counter()
    worst = 0.0
    for s_c, l in pairs:
        result = area_max_oracle(s_c, l, grid_points=1_000_000)
        worst = max(worst, abs(result.grid_argmax - result.analytic_root)
                    / result.grid_step)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-9 and elapsed < 10.0
    _report(1, ok, "grid argmax vs analytic root, 52 cases at 10^6 points",
            f"max offset {worst:.3f} grid steps (<= 1), {elapsed:.2f} s (< 10 s)")


def test_criterion_02_derivative_vs_central_difference():
    # Closed-form area derivative against a central difference at 24
    # seeded triples.  Triples where the derivative nearly vanishes are
    # redrawn: relative error is meaningless at a zero crossing, and the
    # difference quotient's cancellation noise (~1e-11 of the area scale)
    # would swamp it there.
    rng = np.random.default_rng(7)
    triples = []
    while len(triples) < 24:
        s_c = float(rng.uniform(1.0, 300.0))
        l = float(rng.uniform(0.0, 1.0)) * s_c
        theta = float(rng.uniform(0.3, 6.0))
        if abs(center_area_derivative(s_c, l, theta)) >= 1e-4 * s_c * s_c:
            triples.append((s_c, l, theta))
    worst = 0.0
    for s_c, l, theta in triples:
        h = 1e-6 * theta
        numeric = (center_area(s_c, l, theta + h)
                   - center_area(s_c, l, theta - h)) / (2.0 * h)
        analytic = center_area_derivative(s_c, l, theta)
        worst = max(worst, abs(analytic - numeric) / abs(numeric))
    ok = worst < 1e-6
    _report(2, ok, "area derivative vs central difference at 24 triples",
            f"max relative error {worst:.2e} (< 1e-6)")


def test_criterion_03_round_trips():
    # spec -> fab -> spec and fab -> spec -> fab, 200 seeded cases each,
    # every component recovered to 1e-7 relative.
    rng = np.random.default_rng(42)
    worst_spec = 0.0
    for _ in range(200):
        h_c = float(rng.uniform(20.0, 200.0))
        h_s = h_c * float(rng.uniform(0.15, 0.9))
        w = h_c + 2.0 * h_s * float(rng.uniform(0.05, 0.95))
        spec = DesignSpec(h_c, h_s, w)
        assert validate_spec(spec).feasible
        got = forward_geometry(inverse_design(spec)).spec
        worst_spec = max(worst_spec,
                         rel_err(got.center_height, h_c),
                         rel_err(got.side_height, h_s),
                         rel_err(got.width, w))
    worst_fab = 0.0
    accepted = 0
    while accepted < 200:
        s_c = float(rng.uniform(5.0, 300.0))
        s_s = float(rng.uniform(5.0, 300.0))
        fab = FabricationParams(s_c, s_s, s_s * float(rng.uniform(0.02, 0.94)))
        section = forward_geometry(fab)
        if not validate_spec(section.spec).feasible:
            # a long, nearly straight side arc can inflate to a channel
            # taller than the whole section is wide; such a fab has no
            # feasible spec to round-trip through
            continue
        accepted += 1
        got = inverse_design(section.spec)
        worst_fab = max(worst_fab,
                        rel_err(got.center_arc_length, fab.center_arc_length),
                        rel_err(got.side_arc_length, fab.side_arc_length),
                        rel_err(got.strip_width, fab.strip_width))
    ok = worst_spec < 1e-7 and worst_fab < 1e-7
    _report(3, ok, "200 + 200 seeded round trips between spec and fab",
            f"max rel err {worst_spec:.2e} (spec), {worst_fab:.2e} (fab); tol 1e-7")


def test_criterion_04_eversion_force():
    force = eversion_force(34.0, 3.67e4)
    delta = rel_err(force, 1249.0)
    ok = abs(force - 1247.8) < 1e-9 and delta < 0.002
    _report(4, ok, "eversion force at 34 kPa x 36700 mm^2",
            f"{force:.1f} N, within {100.0 * delta:.3f}% of the 1249 N "
            "reference (< 0.2%)")


def test_criterion_05_shared_membrane_perimeter():
    perimeters = [
        forward_geometry(FabricationParams(*FROZEN[key]["fab"])).perimeter
        for key in ("S1", "S2", "S3")
    ]
    worst = max(rel_err(p, 559.0) for p in perimeters)
    ok = all(p == 558.0 for p in perimeters) and worst < 0.002
    _report(5, ok, "reference structures 1-3 share one membrane perimeter",
            f"all {perimeters[0]:g} mm, within {100.0 * worst:.3f}% of the "
            "559 mm protocol constant (< 0.2%)")


def test_criterion_06_ergonomic_trends():
    # In a constant-perimeter sweep containing the three reference builds,
    # the flatness index must rise strictly as the strip narrows at fixed
    # S_c and as the center arc shortens at fixed L, within every maximal
    # feasible run of each grid line.
    s_c_grid = (101.6, 127.0, 152.0, 177.8)
    l_grid = (25.4, 50.8, 76.2, 101.6)
    rows = sweep_constant_perimeter(558.0, s_c_grid, l_grid)
    cells = {(r.center_arc_length, r.strip_width): r for r in rows}
    for key in ("S1", "S2", "S3"):
        s_c, _, l = FROZEN[key]["fab"]
        assert cells[(s_c, l)].feasible
    comparisons = violations = 0

    def check(smaller, bigger):
        nonlocal comparisons, violations
        if smaller.feasible and bigger.feasible:
            comparisons += 1
            if not smaller.ergonomic_index > bigger.ergonomic_index:
                violations += 1

    for s_c in s_c_grid:
        for l_small, l_big in zip(l_grid, l_grid[1:]):
            check(cells[(s_c, l_small)], cells[(s_c, l_big)])
    for l in l_grid:
        for sc_small, sc_big in zip(s_c_grid, s_c_grid[1:]):
            check(cells[(sc_small, l)], cells[(sc_big, l)])
    feasible = sum(r.feasible for r in rows)
    ok = violations == 0 and comparisons >= 12
    _report(6, ok, "flatness index trends in the 558 mm perimeter sweep",
            f"{feasible}/{len(rows)} cells feasible, {comparisons} adjacent "
            f"pairs compared, {violations} monotonicity violations")


def test_criterion_07_area_ratio_self_test():
    # Synthetic oracles for the measured-vs-model area tool: the model's
    # own outline scaled by 0.995 per axis must report the quadratic area
    # ratio 0.995^2 to 1e-6, and the unscaled outline 1.0 to the same
    # discretization tolerance (section and outline both polygonized at
    # max sagitta 1e-5 mm).
    section = build_cross_section(DesignSpec(101.6, 50.8, 190.0), 1e-5)
    points = np.asarray(cross_section_outline(section, 1e-5).points)
    identity = area_ratio(Polygon(points), section)
    scaled = area_ratio(Polygon(points * 0.995), section)
    expected = 0.995 ** 2
    ok = abs(scaled - expected) <= 1e-6 and abs(identity - 1.0) <= 1e-6
    _report(7, ok, "area-ratio self-test, 0.995-per-axis scale and identity",
            f"scaled {scaled:.9f} vs {expected:.9f}, identity {identity:.9f} "
            "(tol 1e-6 each)")


def test_criterion_08_tangent_circle_degenerate():
    spec = DesignSpec(1.0, 1.0, 3.0)
    fab = inverse_design(spec)
    fab_err = max(abs(fab.center_arc_length - 0.5 * math.pi),
                  abs(fab.strip_width),
                  abs(fab.side_arc_length - math.pi))
    area_err = rel_err(total_area(build_cross_section(spec)), 0.75 * math.pi)
    root_err = abs(solve_center_arc_angle(0.5 * math.pi, 0.0) - math.pi)
    ok = fab_err < 1e-12 and area_err < 5e-4 and root_err < 1e-10
    _report(8, ok, "tangent-circle spec (1, 1, 3)",
            f"fab offset from (pi/2, pi, 0) {fab_err:.1e}, total area within "
            f"{100.0 * area_err:.4f}% of 3*pi/4 (< 0.05%), zero-strip root "
            f"|theta - pi| = {root_err:.1e} (< 1e-10)")


def test_criterion_09_growth_rate_out_of_scope():
    # Growth-rate comparisons are hardware experiments (pressure supply,
    # friction, real membranes); they are deliberately not modeled, and
    # nothing above depends on one.
    import crosssec
    leaked = [name for name in dir(crosssec) if "growth" in name.lower()]
    ok = not leaked
    _report(9, ok, "growth-rate trials need hardware and are not modeled",
            f"{len(leaked)} growth-rate exports shipped; no criterion "
            "depends on one")


def test_criterion_10_cli_determinism(tmp_path):
    # Every CLI mode, run twice with identical inputs, must produce
    # byte-identical stdout and byte-identical output files.
    svg = (tmp_path / "a.svg", tmp_path / "b.svg")
    csv = (tmp_path / "a.csv", tmp_path / "b.csv")
    modes = [
        ("inverse", ["inverse", "--hc", 101.6, "--hs", 50.8, "--w", 190], None),
        ("forward", ["forward", "--sc", 152, "--ss", 127, "--l", 76.2], None),
        ("shape", ["shape", "--hc", 101.6, "--hs", 50.8, "--w", 190,
                   "--svg"], svg),
        ("sweep", ["sweep", "--perimeter", 558, "--sc", "127,152",
                   "--l", "50.8,76.2", "--csv"], csv),
        ("oracle", ["oracle", "--sc", 152, "--l", 76.2,
                    "--grid-points", 100000], None),
        ("compare", ["compare", "--config", "docs/examples/job_compare.json"],
         None),
        ("force", ["force", "--pressure-kpa", 34, "--area-mm2", 36700], None),
    ]
    stable = 0
    for name, args, files in modes:
        runs = []
        for i in range(2):
            res = run_cli(*args, *([files[i]] if files else []))
            assert res.returncode == 0, (name, res.stderr)
            payload = res.stdout
            if files:
                payload += files[i].read_text(encoding="utf-8")
            runs.append(payload)
        stable += runs[0] == runs[1]
    ok = stable == len(modes)
    _report(10, ok, "every CLI mode run twice with identical inputs",
            f"{stable}/{len(modes)} modes byte-identical")
