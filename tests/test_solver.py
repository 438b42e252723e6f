import math

import pytest

from crosssec.errors import NoBracket, NonConvergence
from crosssec.geometry import FabricationParams
from crosssec.solver import (OracleResult, RootFindConfig, area_max_oracle,
                             forward_geometry, solve_center_arc_angle,
                             solve_side_height)
from conftest import FROZEN, rel_err


class TestRootFindConfig:
    def test_defaults(self):
        cfg = RootFindConfig()
        assert cfg.abs_tol is None
        assert cfg.max_iter == 200

    def test_validation(self):
        with pytest.raises(ValueError, match="abs_tol"):
            RootFindConfig(abs_tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            RootFindConfig(max_iter=0)


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

    def test_tight_budget_raises_tagged(self):
        with pytest.raises(NonConvergence, match="^center channel:"):
            solve_center_arc_angle(152.0, 76.2,
                                   RootFindConfig(abs_tol=1e-14, max_iter=4))


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

    def test_result_is_frozen_record(self):
        result = area_max_oracle(10.0, 5.0, grid_points=1000)
        assert isinstance(result, OracleResult)
        with pytest.raises(AttributeError):
            result.grid_argmax = 0.0
