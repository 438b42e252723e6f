import math
from dataclasses import replace

import numpy as np
import pytest

from crosssec import analysis
from crosssec.analysis import (area_ratio, ergonomic_index, eversion_force,
                               sweep_constant_perimeter, total_area)
from crosssec.errors import DegeneratePolygon
from crosssec.geometry import (DesignSpec, FabricationParams,
                               build_cross_section, cross_section_outline)
from crosssec.polygon import Polygon
from crosssec.solver import forward_geometry
from conftest import FROZEN, rel_err


class TestErgonomicIndex:
    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_frozen_index(self, key):
        f = FROZEN[key]
        section = build_cross_section(DesignSpec(f["H_c"], f["H_s"], f["w"]))
        report = ergonomic_index(section)
        assert rel_err(report.index, f["ergo"]) < 1e-12

    def test_geometry_of_report(self, s1_section):
        report = ergonomic_index(s1_section)
        w, h_c, h_s = (s1_section.width, s1_section.spec.center_height,
                       s1_section.spec.side_height)
        assert report.center_peak == (0.0, 0.5 * h_c)
        assert report.side_peak[0] == pytest.approx(0.5 * (w - h_s), rel=1e-12)
        assert report.index == pytest.approx((w - h_s) / (h_c - h_s), rel=1e-12)
        assert report.slope < 0  # side peak below center peak, left of it

    def test_equal_heights_infinite(self):
        section = build_cross_section(DesignSpec(1.0, 1.0, 3.0))
        report = ergonomic_index(section)
        assert report.slope == 0.0
        assert math.isinf(report.index)

    def test_circular_section_infinite(self):
        # the side circle is centred on the axis, so the run from side
        # peak to center peak is 0; heights one ulp apart must not divide
        section = forward_geometry(FabricationParams(
            181.43819228650707, 190.12759025662473, 170.30714884663942))
        assert section.side.center_x == 0.0
        r_c = section.center.radius
        bumped = replace(section, center=replace(
            section.center, radius=math.nextafter(r_c, math.inf)))
        report = ergonomic_index(bumped)
        assert report.center_peak[1] != report.side_peak[1]
        assert report.slope == 0.0
        assert math.isinf(report.index)


class TestSweep:
    def test_two_by_two_contains_structures(self):
        records = sweep_constant_perimeter(558.0, [152.0, 127.0], [76.2, 50.8])
        assert len(records) == 4
        # S_c-major ascending, L ascending within
        keys = [(r.center_arc_length, r.strip_width) for r in records]
        assert keys == [(127.0, 50.8), (127.0, 76.2),
                        (152.0, 50.8), (152.0, 76.2)]
        assert all(r.feasible for r in records)
        by_key = {k: r for k, r in zip(keys, records)}
        s1 = by_key[(152.0, 76.2)]
        assert s1.side_arc_length == 127.0
        assert rel_err(s1.center_height, FROZEN["S1"]["H_c"]) < 1e-11
        assert rel_err(s1.ergonomic_index, FROZEN["S1"]["ergo"]) < 1e-11
        s3 = by_key[(127.0, 76.2)]
        assert rel_err(s3.width, FROZEN["S3"]["w"]) < 1e-11

    def test_all_infeasible_when_arc_exceeds_half_perimeter(self):
        records = sweep_constant_perimeter(200.0, [100.0, 150.0], [10.0])
        assert all(not r.feasible for r in records)
        assert all(r.center_height is None for r in records)
        assert [r.failure_reason for r in records] == [
            "side_arc_length must be positive and finite, got 0.0",
            "side_arc_length must be positive and finite, got -50.0"]

    def test_negative_strip_width_takes_the_length_check(self):
        (rec,) = sweep_constant_perimeter(558.0, [152.0], [-1.0])
        assert rec.failure_reason == (
            "strip_width must be non-negative and finite, got -1.0")

    def test_solver_failure_recorded_not_raised(self):
        # L exceeds the side arc length: side channel has no solution
        records = sweep_constant_perimeter(558.0, [152.0], [130.0])
        (rec,) = records
        assert not rec.feasible
        assert "side" in rec.failure_reason

    def test_nan_entries_sort_last(self):
        records = sweep_constant_perimeter(
            558.0, [math.nan, 152.0, 127.0], [76.2, math.nan, 50.8])
        keys = [(r.center_arc_length, r.strip_width) for r in records]
        assert [k[0] for k in keys[::3]] == [127.0, 152.0, keys[6][0]]
        assert math.isnan(keys[6][0])
        assert [k[1] for k in keys[:2]] == [50.8, 76.2]
        assert all(math.isnan(k[1]) for k in keys[2::3])
        assert [r.feasible for r in records] == [True, True, False] * 2 + [False] * 3

    def test_validation(self):
        with pytest.raises(ValueError, match="perimeter"):
            sweep_constant_perimeter(0.0, [1.0], [0.5])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_constant_perimeter(100.0, [], [0.5])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_constant_perimeter(100.0, [1.0], [])

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_SWEEP_CELLS", 6)
        at_cap = sweep_constant_perimeter(558.0, [127.0, 152.0],
                                          [0.0, 50.8, 76.2])
        assert len(at_cap) == 6 and all(r.feasible for r in at_cap)
        # one past the cap is refused before any cell is solved
        solved = []
        monkeypatch.setattr(analysis, "_sweep_cell",
                            lambda *cell: solved.append(cell))
        with pytest.raises(ValueError, match=r"^sweep of 7 x 1 cells exceeds "
                           r"MAX_SWEEP_CELLS = 6$"):
            sweep_constant_perimeter(558.0, [100.0 + i for i in range(7)],
                                     [50.8])
        assert solved == []

    @pytest.mark.xfail(strict=True, reason="a sweep cell samples a side "
                       "area it never prints, at a fixed sagitta")
    def test_cell_too_large_to_sample_still_solves(self):
        # the cell at 1e9 times paper scale: its heights solve, but its
        # side arc needs more than 2**22 chords at 1e-4 mm
        (small,) = sweep_constant_perimeter(2e3, [1e2], [1e2])
        (large,) = sweep_constant_perimeter(2e12, [1e11], [1e11])
        assert large.feasible, large.failure_reason
        assert rel_err(large.center_height, 1e9 * small.center_height) < 1e-12
        assert rel_err(large.side_height, 1e9 * small.side_height) < 1e-12


class TestEversionForce:
    def test_reference_value(self):
        assert eversion_force(34.0, 3.67e4) == pytest.approx(1247.8, rel=1e-12)

    def test_linearity(self):
        assert eversion_force(2.0, 500.0) == pytest.approx(
            2.0 * eversion_force(1.0, 500.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            eversion_force(-1.0, 10.0)
        with pytest.raises(ValueError):
            eversion_force(1.0, -10.0)
        with pytest.raises(ValueError):
            eversion_force(math.nan, 10.0)


class TestTotalArea:
    def test_frozen_total(self, s1_section):
        assert rel_err(total_area(s1_section), FROZEN["S1"]["total"]) < 1e-5

    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_reads_the_built_section(self, key):
        # no re-sample: the areas the section holds, bit for bit, at any
        # resolution it was built with
        for resolution in (1e-3, 1e-4, 1e-5):
            s = forward_geometry(FabricationParams(*FROZEN[key]["fab"]),
                                 resolution)
            assert total_area(s).hex() == (s.center.area
                                           + 2.0 * s.side.area).hex()

    def test_one_formula(self):
        # analysis.total_area is the section's own total, and area_ratio
        # divides by it, bit for bit, over seeded paper-scale fabs
        rng = np.random.default_rng(3)
        for _ in range(300):
            s_s = rng.uniform(50.0, 300.0)
            s = forward_geometry(FabricationParams(
                rng.uniform(50.0, 300.0), s_s, s_s * rng.uniform(0.0, 0.95)))
            assert total_area(s).hex() == s.total_area.hex()
            measured = cross_section_outline(s, 1.0)
            assert (measured.signed_area() / s.total_area).hex() == area_ratio(
                measured, s).hex()

    def test_resolution_refinement_converges(self):
        # the side area is sampled once, when the section is built
        fab = FabricationParams(*FROZEN["S1"]["fab"])
        coarse, fine, finest = (total_area(forward_geometry(fab, resolution))
                                for resolution in (1e-3, 1e-4, 1e-5))
        assert abs(fine - coarse) / finest < 1e-4  # 0.01%
        assert abs(finest - fine) / finest < 1e-5
        assert coarse < fine < finest  # inscribed polygons from below


class TestAreaRatio:
    @pytest.fixture(scope="class")
    def fine_s1_section(self):
        # built at the resolution its outline is sampled at
        return forward_geometry(FabricationParams(*FROZEN["S1"]["fab"]), 1e-5)

    def test_identity(self, fine_s1_section):
        outline = cross_section_outline(fine_s1_section, 1e-5)
        ratio = area_ratio(outline, fine_s1_section)
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_scaling(self, fine_s1_section):
        outline = cross_section_outline(fine_s1_section, 1e-5)
        scaled = Polygon(outline.points * 0.995)
        ratio = area_ratio(scaled, fine_s1_section)
        assert ratio == pytest.approx(0.995**2, abs=1e-6)

    def test_clockwise_rejected(self, s1_section):
        outline = cross_section_outline(s1_section, 1e-3)
        backwards = Polygon(outline.points[::-1])
        with pytest.raises(DegeneratePolygon, match="non-positive"):
            area_ratio(backwards, s1_section)

    @pytest.mark.parametrize("fab", [(1e-320, 1e-320, 0.0),
                                     (1e-170, 1e-170, 1e-171)])
    def test_model_area_underflow_rejected(self, fab):
        # the section builds, but its total area underflows to 0
        section = forward_geometry(FabricationParams(*fab))
        assert total_area(section) == 0.0
        outline = Polygon([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError, match="not positive and finite"):
            area_ratio(outline, section)

    def test_self_intersecting_rejected(self, s1_section):
        # lopsided figure-eight: positive net area but a proper crossing
        eight = Polygon([(0, 0), (6, 0), (0, 3), (3, 3)])
        assert eight.signed_area() > 0
        with pytest.raises(DegeneratePolygon, match="crosses itself"):
            area_ratio(eight, s1_section)
