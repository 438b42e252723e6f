import math

import numpy as np
import pytest

from crosssec import cli, solver
from crosssec.errors import InfeasibleSpec, NoBracket, NonConvergence
from crosssec.geometry import FabricationParams
from crosssec.solver import (OracleResult, area_max_oracle, forward_geometry,
                             solve_center_arc_angle, solve_side_height)
from conftest import FROZEN, rel_err


class TestSolveCenterArcAngle:
    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_frozen_roots(self, key):
        f = FROZEN[key]
        theta = solve_center_arc_angle(f["fab"][0], f["fab"][2])
        assert rel_err(theta, f["theta_c"]) < 1e-11

    def test_zero_strip_is_exactly_pi(self):
        assert solve_center_arc_angle(1.0, 0.0) == math.pi
        assert solve_center_arc_angle(0.5 * math.pi, 0.0) == math.pi

    def test_large_strip_small_angle(self):
        # theta ~ 2 S_c / L when the strip dwarfs the arcs
        theta = solve_center_arc_angle(10.0, 1000.0)
        assert theta == pytest.approx(2.0 * 10.0 / 1000.0, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_center_arc_angle(0.0, 1.0)
        with pytest.raises(ValueError):
            solve_center_arc_angle(1.0, -1.0)
        with pytest.raises(ValueError):
            solve_center_arc_angle(math.inf, 1.0)

    def test_underflowing_angle_has_no_solution(self):
        # L / S_c overflows, so the arc angle 2 S_c / L underflows to zero
        with pytest.raises(NoBracket, match="^center channel:"):
            solve_center_arc_angle(1e-300, 1e10)

    def test_tight_budget_raises_tagged(self, monkeypatch, capsys):
        # S1 takes 5 center and 4 side steps, so a cap of 2 stops both
        monkeypatch.setattr(solver, "_MAX_STEPS", 2)
        with pytest.raises(NonConvergence, match="^center channel:"):
            solve_center_arc_angle(152.0, 76.2)
        with pytest.raises(NonConvergence, match="^side channel:"):
            solve_side_height(127.0, 76.2)
        assert cli.main(["forward", "--sc", "152", "--ss", "127",
                         "--l", "76.2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "still moving after 2 steps" in err


class TestSolveSideHeight:
    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_frozen_heights(self, key):
        f = FROZEN[key]
        h = solve_side_height(f["fab"][1], f["fab"][2])
        assert rel_err(h, f["H_s"]) < 1e-11

    def test_zero_strip_full_circle(self):
        assert solve_side_height(math.pi, 0.0) == 1.0
        assert solve_side_height(127.0, 0.0) == 127.0 / math.pi

    def test_minor_branch_case(self):
        # wide strip relative to arc: side arc angle < pi
        h = solve_side_height(127.0, 100.0)
        assert 2.0 * 127.0 / h < math.pi

    def test_strip_at_least_arc_has_no_root(self):
        with pytest.raises(NoBracket):
            solve_side_height(127.0, 127.0)
        with pytest.raises(NoBracket):
            solve_side_height(127.0, 200.0)

    def test_chord_relation_holds(self):
        h = solve_side_height(127.0, 76.2)
        assert h * math.sin(127.0 / h) == pytest.approx(76.2, rel=1e-12)


class TestStepCount:
    """Residual evaluations per Newton solve, one per step, stay far below
    the fixed cap ``_MAX_STEPS`` over 18 decades of scale and ratio."""

    N = 20_000

    @staticmethod
    def _counted(monkeypatch, name):
        calls = []
        residual = getattr(solver, name)

        def counted(*args):
            calls.append(None)
            return residual(*args)
        monkeypatch.setattr(solver, name, counted)
        return calls

    def test_center_solve(self, monkeypatch):
        rng = np.random.default_rng(8)
        calls = self._counted(monkeypatch, "strip_fit_residual")
        most = 0
        for arc, ratio in zip(10.0 ** rng.uniform(-3, 6, self.N),
                              10.0 ** rng.uniform(-12, 12, self.N)):
            calls.clear()
            solve_center_arc_angle(arc, arc * ratio)
            most = max(most, len(calls))
        assert 1 <= most <= 10

    def test_side_solve(self, monkeypatch):
        rng = np.random.default_rng(8)
        calls = self._counted(monkeypatch, "_sine_deficit")
        most = 0
        for arc, slack in zip(10.0 ** rng.uniform(-3, 6, self.N),
                              10.0 ** rng.uniform(-15.5, 0, self.N)):
            calls.clear()
            solve_side_height(arc, arc * (1.0 - slack))
            most = max(most, len(calls))
        assert 1 <= most <= 10

    # the ends of both ranges, which random draws do not reach, and
    # either side of where each solve switches its starting point
    @pytest.mark.parametrize("ratio", [
        1e-12, math.nextafter(2 / math.pi, 0.0),
        math.nextafter(2 / math.pi, 1.0), 1e12])
    def test_center_solve_at_range_edge(self, monkeypatch, ratio):
        calls = self._counted(monkeypatch, "strip_fit_residual")
        solve_center_arc_angle(1.0, ratio)
        assert 1 <= len(calls) <= 10

    @pytest.mark.parametrize("slack", [
        10.0 ** -15.5, math.nextafter(5 / 12, 0.0), 5 / 12, 1.0 - 1e-12])
    def test_side_solve_at_range_edge(self, monkeypatch, slack):
        calls = self._counted(monkeypatch, "_sine_deficit")
        solve_side_height(1.0, 1.0 - slack)
        assert 1 <= len(calls) <= 10


class TestForwardGeometry:
    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_frozen_structures(self, key):
        f = FROZEN[key]
        section = forward_geometry(FabricationParams(*f["fab"]))
        assert rel_err(section.spec.center_height, f["H_c"]) < 1e-11
        assert rel_err(section.spec.side_height, f["H_s"]) < 1e-11
        assert rel_err(section.width, f["w"]) < 1e-11
        assert rel_err(section.center.area, f["A_c"]) < 1e-10
        assert section.perimeter == 2.0 * (f["fab"][0] + f["fab"][1])

    def test_tangent_circles_exact(self):
        section = forward_geometry(
            FabricationParams(0.5 * math.pi, math.pi, 0.0))
        assert section.spec.center_height == pytest.approx(1.0, abs=1e-15)
        assert section.spec.side_height == pytest.approx(1.0, abs=1e-15)
        assert section.spec.width == pytest.approx(3.0, abs=1e-14)
        assert section.center.arc_angle == math.pi
        assert section.sides[1].arc_angle == pytest.approx(
            2.0 * math.pi, rel=1e-15)

    def test_side_failure_tagged(self):
        with pytest.raises(NoBracket, match="^side channel:"):
            forward_geometry(FabricationParams(152.0, 127.0, 130.0))

    def test_round_trip_through_inverse(self, s3_section):
        from crosssec.geometry import inverse_design
        fab = inverse_design(s3_section.spec)
        for got, want in zip(
                (fab.center_arc_length, fab.side_arc_length, fab.strip_width),
                FROZEN["S3"]["fab"]):
            assert rel_err(got, want) < 1e-9

    def test_short_side_arc_spec_outside_the_inverse(self):
        # a side arc shorter than a half circle lies on a circle wider
        # than the section, so the spec it gives has w <= H_s, outside
        # the inverse's domain: the forward answer stands, no round trip
        from crosssec.geometry import inverse_design
        section = forward_geometry(FabricationParams(
            252.0061407120871, 91.35196381680731, 90.96578888370378))
        assert section.spec.width == pytest.approx(207.7, abs=0.05)
        assert section.spec.side_height == pytest.approx(573.2, abs=0.05)
        assert section.sides[1].arc_angle < math.pi
        with pytest.raises(InfeasibleSpec, match="w > H_s") as info:
            inverse_design(section.spec)
        assert info.value.violations == ("w > H_s",)


class TestAreaMaxOracle:
    def test_structure1_agreement(self):
        result = area_max_oracle(152.0, 76.2, grid_points=200_000)
        assert abs(result.grid_argmax - result.analytic_root) <= result.grid_step
        assert rel_err(result.analytic_root, FROZEN["S1"]["theta_c"]) < 1e-11
        assert rel_err(result.area_at_argmax, FROZEN["S1"]["A_c"]) < 1e-7
        assert abs(result.parabolic_argmax
                   - result.analytic_root) < 0.01 * result.grid_step

    def test_zero_strip_argmax_near_pi(self):
        result = area_max_oracle(1.0, 0.0, grid_points=100_000)
        assert result.analytic_root == math.pi
        assert abs(result.grid_argmax - math.pi) <= result.grid_step

    def test_grid_step_definition(self):
        result = area_max_oracle(10.0, 5.0, grid_points=10_000)
        span = (2.0 * math.pi - 1e-6) - 1e-6
        assert result.grid_step == pytest.approx(span / 9999, rel=1e-15)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_points >= 1000"):
            area_max_oracle(152.0, 76.2, grid_points=10)

    def test_root_below_first_grid_angle_agrees(self):
        # the root 2 S_c / L = 2e-8 lies below the first grid angle, more
        # than a step (6.3e-7) away; it is compared clamped to the grid
        result = area_max_oracle(1.0, 1e8, grid_points=10_000_000)
        assert result.analytic_root < 1e-6 - result.grid_step
        assert result.grid_argmax == 1e-6
        assert result.agreement

    def test_agreement_clamps_only_outside_the_grid(self):
        inside = OracleResult(1.0, 1.0 + 2e-3, 1.0, 1e-3, 1.0)
        assert not inside.agreement
        below = OracleResult(1e-6, 0.0, 1.0, 1e-9, 1e-6)
        assert below.agreement
        above = OracleResult(2.0 * math.pi - 1e-6, 7.0, 1.0, 1e-9, 0.0)
        assert above.agreement

    def test_area_overflow_at_argmax_raises_value_error(self):
        with pytest.raises(ValueError, match="overflows the float range"):
            area_max_oracle(1e160, 1.0, grid_points=1000)

    def test_result_is_frozen_record(self):
        result = area_max_oracle(10.0, 5.0, grid_points=1000)
        assert isinstance(result, OracleResult)
        with pytest.raises(AttributeError):
            result.grid_argmax = 0.0
