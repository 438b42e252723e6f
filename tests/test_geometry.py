import math
from dataclasses import replace

import numpy as np
import pytest

from crosssec.errors import InfeasibleSpec
from crosssec.geometry import (CenterChannel, DesignSpec, FabricationParams,
                               build_cross_section, cross_section_outline,
                               feasibility_discriminant, inverse_design,
                               membrane_curvature, side_channel_polygon,
                               validate_spec)
from crosssec.solver import forward_geometry
from conftest import FROZEN, INVERSE_190_FAB, INVERSE_190_SPEC, rel_err


class TestRecords:
    def test_spec_positivity(self):
        with pytest.raises(ValueError, match="center_height"):
            DesignSpec(0.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="side_height"):
            DesignSpec(1.0, -1.0, 3.0)
        with pytest.raises(ValueError, match="width"):
            DesignSpec(1.0, 1.0, math.nan)

    def test_fab_strip_width_zero_allowed(self):
        fab = FabricationParams(1.0, 1.0, 0.0)
        assert fab.strip_width == 0.0
        with pytest.raises(ValueError, match="strip_width"):
            FabricationParams(1.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="side_arc_length"):
            FabricationParams(1.0, 0.0, 0.1)

    def test_perimeter(self):
        assert FabricationParams(152.0, 127.0, 76.2).perimeter() == 558.0

    def test_center_channel_angle_domain(self):
        with pytest.raises(ValueError, match="arc_angle"):
            CenterChannel(radius=1.0, arc_angle=2.0 * math.pi, width=1.0,
                          area=1.0)

    def test_records_frozen(self):
        spec = DesignSpec(101.6, 50.8, 190.0)
        with pytest.raises(AttributeError):
            spec.width = 200.0


class TestFeasibility:
    def test_discriminant_known_values(self):
        # exact-rational reference values
        assert feasibility_discriminant(
            DesignSpec(2.0, 1.0, 3.5)) == pytest.approx(14.4375, rel=1e-14)
        assert feasibility_discriminant(
            DesignSpec(101.6, 50.8, 190.0)) == pytest.approx(
                64649819.52, rel=1e-12)
        assert feasibility_discriminant(
            DesignSpec(101.6, 50.8, 304.8)) == pytest.approx(
                -2557325878.8864, rel=1e-12)

    def test_discriminant_scales_quartically(self):
        g1 = feasibility_discriminant(DesignSpec(101.6, 50.8, 190.0))
        g2 = feasibility_discriminant(DesignSpec(203.2, 101.6, 380.0))
        assert g2 == pytest.approx(16.0 * g1, rel=1e-12)

    def test_feasible_spec(self):
        report = validate_spec(DesignSpec(101.6, 50.8, 190.0))
        assert report.feasible
        assert report.violations == ()
        assert report.discriminant > 0
        assert 0 < report.arcsin_argument < 1

    def test_width_not_above_side_height(self):
        report = validate_spec(DesignSpec(101.6, 50.8, 50.8))
        assert not report.feasible
        assert "w > H_s" in report.violations
        assert report.arcsin_argument is None

    def test_too_wide_spec(self):
        report = validate_spec(DesignSpec(101.6, 50.8, 304.8))
        assert not report.feasible
        assert "gamma >= 0" in report.violations
        assert "|arcsin argument| <= 1" in report.violations

    def test_tangent_boundary_feasible(self):
        report = validate_spec(DesignSpec(1.0, 1.0, 3.0))
        assert report.feasible
        assert report.discriminant == 0.0
        assert report.arcsin_argument == 1.0


class TestInverseDesign:
    def test_frozen_inverse(self):
        fab = inverse_design(DesignSpec(*INVERSE_190_SPEC))
        assert fab.center_arc_length == pytest.approx(INVERSE_190_FAB[0], rel=1e-12)
        assert fab.side_arc_length == pytest.approx(INVERSE_190_FAB[1], rel=1e-12)
        assert fab.strip_width == pytest.approx(INVERSE_190_FAB[2], rel=1e-12)

    def test_tangent_circles(self):
        fab = inverse_design(DesignSpec(1.0, 1.0, 3.0))
        assert fab.center_arc_length == pytest.approx(0.5 * math.pi, abs=1e-15)
        assert fab.side_arc_length == pytest.approx(math.pi, abs=1e-15)
        assert fab.strip_width == 0.0

    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_round_trip_from_frozen_spec(self, key):
        f = FROZEN[key]
        fab = inverse_design(DesignSpec(f["H_c"], f["H_s"], f["w"]))
        assert rel_err(fab.center_arc_length, f["fab"][0]) < 1e-12
        assert rel_err(fab.side_arc_length, f["fab"][1]) < 1e-12
        assert abs(fab.strip_width - f["fab"][2]) < 1e-10

    def test_infeasible_raises_with_violations(self):
        with pytest.raises(InfeasibleSpec) as info:
            inverse_design(DesignSpec(101.6, 50.8, 304.8))
        assert "gamma >= 0" in info.value.violations

    def test_vanishing_center_arc(self):
        # the three closed-form conditions hold, but the implied center
        # arc length is negative (w barely above H_s, H_c between): the
        # report names it, and the inverse refuses with the same name
        spec = DesignSpec(2.81, 2.9, 3.0)
        report = validate_spec(spec)
        assert report.violations == ("S_c > 0",)
        assert report.arcsin_argument < 0.0
        with pytest.raises(InfeasibleSpec) as info:
            inverse_design(spec)
        assert info.value.violations == ("S_c > 0",)
        assert str(info.value) == "infeasible spec: S_c > 0"

    def test_vanishing_side_channels(self):
        # w == H_c puts all the width in the center channel
        spec = DesignSpec(100.0, 30.0, 100.0)
        assert validate_spec(spec).violations == ("S_s > 0",)
        with pytest.raises(InfeasibleSpec) as info:
            inverse_design(spec)
        assert info.value.violations == ("S_s > 0",)
        assert str(info.value) == "infeasible spec: S_s > 0"

    def test_report_decides_the_inverse(self):
        # validate_spec is feasible exactly when inverse_design returns,
        # and a refusal names the report's violations, at 2**j times each
        # spec too; tangent specs (h + 2s = w) sit on gamma = 0
        rng = np.random.default_rng(11)
        refused = 0
        for i in range(3000):
            h = 10.0 ** rng.uniform(-3.0, 6.0)
            s = h * rng.uniform(0.05, 3.0)
            w = (h + 2.0 * s) * (1.0 if i % 10 == 0 else rng.uniform(0.5, 1.5))
            for j in (0, -900, 900):
                spec = DesignSpec(*(math.ldexp(x, j) for x in (h, s, w)))
                report = validate_spec(spec)
                try:
                    inverse_design(spec)
                except InfeasibleSpec as exc:
                    refused += 1
                    assert exc.violations == report.violations, spec
                    assert not report.feasible, spec
                else:
                    assert report.feasible, spec
        assert 0 < refused < 9000

    @pytest.mark.parametrize("spec, violations", [
        ((5e-324, 1.0, 3.0), ("|arcsin argument| <= 1", "gamma >= 0")),
        ((1e-320, 1.0, 3.0), ("|arcsin argument| <= 1", "gamma >= 0")),
        ((5e-324, 1e300, 3e300), ("|arcsin argument| <= 1", "gamma >= 0")),
        # w = 2 H_s: the sine's numerator cancels too, and S_c underflows
        ((5e-324, 1.0, 2.0), ("S_c > 0",))])
    def test_center_height_below_the_frame(self, spec, violations):
        # H_c (nearly) rounds to 0 in the power-of-two frame: reported,
        # as at 1e-320, not raised
        assert validate_spec(DesignSpec(*spec)).violations == violations
        with pytest.raises(InfeasibleSpec) as info:
            inverse_design(DesignSpec(*spec))
        assert info.value.violations == violations

    def test_short_side_branch_when_leftover_below_height(self):
        # w - w_c <= H_s selects the minor side arc (angle <= pi)
        spec = DesignSpec(100.0, 60.0, 110.0)
        fab = inverse_design(spec)
        assert fab.side_arc_length < 0.5 * math.pi * spec.side_height
        section = build_cross_section(spec)
        assert section.sides[1].arc_angle < math.pi
        assert rel_err(section.width, spec.width) < 1e-12


class TestBuildCrossSection:
    def test_coradial_strip_fit(self, s1_section):
        c = s1_section.center
        assert 2.0 * c.radius * math.cos(0.5 * c.arc_angle) == pytest.approx(
            s1_section.fab.strip_width, rel=1e-12)

    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_frozen_geometry(self, key):
        f = FROZEN[key]
        section = build_cross_section(DesignSpec(f["H_c"], f["H_s"], f["w"]))
        assert rel_err(section.center.arc_angle, f["theta_c"]) < 1e-12
        assert rel_err(section.sides[1].arc_angle, f["theta_s"]) < 1e-12
        assert rel_err(section.center.width, f["w_c"]) < 1e-12
        assert rel_err(section.center.area, f["A_c"]) < 1e-12
        assert rel_err(section.sides[1].area, f["A_s"]) < 1e-4
        assert rel_err(section.width, f["w"]) < 1e-12

    def test_sides_mirror(self):
        # the two sides differ only in the sign of center_x, and carry the
        # area of the right side's polygon, bit for bit
        rng = np.random.default_rng(31)
        fabs = [FROZEN[key]["fab"] for key in ("S1", "S2", "S3")]
        for _ in range(200):
            s_c = 10.0 ** rng.uniform(-3.0, 6.0)
            s_s = s_c * rng.uniform(0.2, 3.0)
            fabs.append((s_c, s_s, s_s * rng.uniform(0.0, 0.95)))
        for fab in fabs:
            for arc_resolution in (1e-4, 1e-2 * fab[1]):
                left, right = forward_geometry(FabricationParams(*fab),
                                               arc_resolution).sides
                assert left == replace(right, center_x=-right.center_x)
                area = side_channel_polygon(right, arc_resolution).area()
                assert right.area.hex() == area.hex()

    def test_strip_segments(self, s1_section):
        (x0, y0), (x1, y1) = s1_section.strip_segments[1]
        assert x0 == x1 == 0.5 * s1_section.center.width
        assert y1 == -y0 == 0.5 * s1_section.fab.strip_width
        assert s1_section.strip_segments[0][0][0] == -x0

    def test_membrane_joins_are_continuous(self, s1_section):
        # side arc endpoint == strip end == center arc endpoint
        s = s1_section.sides[1]
        half = 0.5 * s.arc_angle
        join_x = s.center_x + s.radius * math.cos(half)
        join_y = s.radius * math.sin(half)
        assert join_x == pytest.approx(0.5 * s1_section.center.width, rel=1e-12)
        assert join_y == pytest.approx(0.5 * s1_section.fab.strip_width, rel=1e-12)
        c = s1_section.center
        end = 0.5 * math.pi - 0.5 * c.arc_angle
        assert c.radius * math.cos(end) == pytest.approx(join_x, rel=1e-12)
        assert c.radius * math.sin(end) == pytest.approx(join_y, rel=1e-12)


class TestZeroStripWidth:
    """L = 0 closes each side arc into a full circle, to roundoff."""

    def test_forward_at_exact_zero_strip(self):
        # the side arc angle S_s / (H_s / 2) used to round to 2 pi + 1 ulp
        # and be rejected for ~6% of random arc lengths
        rng = np.random.default_rng(2024)
        for s_c, s_s in rng.uniform(1e-3, 1e3, size=(2000, 2)):
            section = forward_geometry(FabricationParams(s_c, s_s, 0.0),
                                       arc_resolution=1e-2 * s_s)
            side = section.sides[1]
            assert 0.0 <= 2.0 * math.pi - side.arc_angle <= 4 * math.ulp(2.0 * math.pi)
            assert side.conjugate_angle >= 0.0
            assert rel_err(section.width, section.center.width + 2.0 * side.height) < 1e-12

    def test_tangent_specs(self):
        rng = np.random.default_rng(2025)
        for h in 10.0 ** rng.uniform(-3.0, 6.0, size=2000):
            section = build_cross_section(DesignSpec(h, h, 3.0 * h),
                                          arc_resolution=1e-2 * h)
            angle = section.sides[1].arc_angle
            assert angle <= 2.0 * math.pi
            assert rel_err(angle, 2.0 * math.pi) < 1e-6

    def test_tangent_specs_give_exactly_zero_strip(self):
        # the factored discriminant is exactly 0 here; the expanded
        # polynomial left roundoff whose sqrt came out as a non-zero strip
        # width for about a third of all h
        rng = np.random.default_rng(2026)
        for h in 10.0 ** rng.uniform(-3.0, 6.0, size=20000):
            fab = inverse_design(DesignSpec(h, h, 3.0 * h))
            assert fab.strip_width == 0.0
            assert fab.side_arc_length == math.pi * h
        for h in 10.0 ** rng.uniform(-3.0, 6.0, size=500):
            side = build_cross_section(DesignSpec(h, h, 3.0 * h),
                                       arc_resolution=1e-2 * h).sides[1]
            # a full turn: S_s / (H_s / 2) is a rounded quotient, so the
            # angle may sit one ulp below 2 pi, never further
            assert side.conjugate_arc_length == 0.0
            assert 0.0 <= 2.0 * math.pi - side.arc_angle <= math.ulp(2.0 * math.pi)


class TestPolygonization:
    def test_side_area_matches_closed_form(self, s1_section):
        # circular segment: r^2/2 (theta - sin theta)
        s = s1_section.sides[1]
        exact = 0.5 * s.radius**2 * (s.arc_angle - math.sin(s.arc_angle))
        poly = side_channel_polygon(s, 1e-4)
        assert rel_err(poly.area(), exact) < 1e-4
        finer = side_channel_polygon(s, 1e-6)
        assert rel_err(finer.area(), exact) < 1e-7

    @pytest.mark.parametrize("fab", [
        FROZEN["S1"]["fab"],
        # a short side arc: its circle's center lies left of the axis
        (252.0061407120871, 91.35196381680731, 90.96578888370378)])
    def test_polygon_is_the_outline_right_arc(self, fab):
        # the right-hand channel, on its own side whatever the sign of
        # center_x; the closing vertex is the top arc's first in the outline
        section = forward_geometry(FabricationParams(*fab))
        polygon = side_channel_polygon(section.side, 1e-3)
        assert polygon.signed_area() > 0
        points = polygon.points
        outline = cross_section_outline(section, 1e-3).points
        assert np.array_equal(points[:-1], outline[:len(points) - 1])
        # x runs from the strip to the half-width, within the 1e-3 sagitta
        half_width = 0.5 * section.width
        assert half_width - 1e-3 <= points[:, 0].max() <= half_width
        assert points[:, 0].min() == pytest.approx(
            0.5 * section.center.width, rel=1e-12)

    def test_sub_mm_sections_keep_their_side_area(self):
        # thin sub-mm side channels: arcs whose sagitta is under the
        # default 1e-4 mm resolution, forward and through the inverse
        rng = np.random.default_rng(1)
        for _ in range(500):
            s_c = 10.0 ** rng.uniform(-3.0, 0.0)
            s_s = s_c * 10.0 ** rng.uniform(-3.0, 0.0)
            section = forward_geometry(
                FabricationParams(s_c, s_s, s_s * rng.uniform()))
            assert section.sides[1].area > 0.0
            if validate_spec(section.spec).feasible:
                assert build_cross_section(section.spec).sides[1].area > 0.0

    def test_outline_simple_ccw_and_area(self, s1_section):
        outline = cross_section_outline(s1_section, 1e-4)
        assert outline.signed_area() > 0
        assert outline.is_simple()
        assert rel_err(outline.signed_area(), FROZEN["S1"]["total"]) < 1e-5

    def test_outline_extremes(self, s1_section):
        # sampled extremes undershoot the true apexes by at most one sagitta
        tol = 1e-3
        outline = cross_section_outline(s1_section, tol).points
        half_w = 0.5 * s1_section.width
        half_h = 0.5 * s1_section.spec.center_height
        assert half_w - tol <= np.max(outline[:, 0]) <= half_w + 1e-12
        assert -half_w - 1e-12 <= np.min(outline[:, 0]) <= -half_w + tol
        assert half_h - tol <= np.max(outline[:, 1]) <= half_h + 1e-12
        assert np.max(outline[:, 1]) == pytest.approx(
            -np.min(outline[:, 1]), abs=1e-12)


class TestMembraneCurvature:
    def test_consistent_with_center_radius(self, s1_section):
        # tension that makes the center arcs: T = P * r_c
        r_c = s1_section.center.radius
        tension = 2.07e-3 * r_c
        assert membrane_curvature(2.07, tension) * r_c == pytest.approx(
            1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "tension", [0.0, -0.0, -1.0, math.nan, math.inf, None, True, "1"])
    def test_tension_refused(self, tension):
        with pytest.raises(ValueError, match="tension must be"):
            membrane_curvature(2.07, tension)

    def test_validation(self):
        with pytest.raises(ValueError,
                           match="tension must be positive and finite, got 0.0"):
            membrane_curvature(2.07, 0.0)
        with pytest.raises(ValueError):
            membrane_curvature(-1.0, 1.0)
        with pytest.raises(ValueError):
            membrane_curvature(math.inf, 1.0)
