import math
import sys

import numpy as np
import pytest

from crosssec import kernels
from crosssec._arcmath import (SERIES_CUTOFF, center_area,
                               center_area_derivative, series_area,
                               strip_fit_residual)
from conftest import FROZEN


def direct_area(s, l, theta):
    # textbook form, no series protection
    return (s * s / theta - s * s / theta**2 * math.sin(theta)
            + 2.0 * s / theta * math.sin(0.5 * theta) * l)


class TestCenterArea:
    @pytest.mark.parametrize("key", ["S1", "S2", "S3"])
    def test_frozen_values(self, key):
        f = FROZEN[key]
        s_c, _, l = f["fab"]
        got = center_area(s_c, l, f["theta_c"])
        assert got == pytest.approx(f["A_c"], rel=1e-12)

    @pytest.mark.parametrize("theta", [0.01, 0.5, 1.0, 2.0, math.pi, 5.0, 6.2])
    def test_matches_direct_form(self, theta):
        assert center_area(152.0, 76.2, theta) == pytest.approx(
            direct_area(152.0, 76.2, theta), rel=1e-12)

    def test_series_continuous_at_cutoff(self):
        below = SERIES_CUTOFF * (1 - 1e-9)
        above = SERIES_CUTOFF * (1 + 1e-9)
        a_below = center_area(100.0, 50.0, below)
        a_above = center_area(100.0, 50.0, above)
        assert a_below == pytest.approx(a_above, rel=1e-10)

    def test_one_series_for_floats_and_grids(self):
        # the grid kernel takes its cutoff and series from here
        assert kernels.SERIES_CUTOFF is SERIES_CUTOFF
        thetas = [1e-12, 1e-6, 0.5 * SERIES_CUTOFF, SERIES_CUTOFF * (1 - 1e-9)]
        grid = series_area(152.0, 76.2, np.array(thetas))
        assert grid.tolist() == [center_area(152.0, 76.2, t) for t in thetas]

    def test_small_angle_limit_is_chord_area(self):
        # as the arcs flatten, the channel tends to the S_c x L rectangle
        # plus a S_c^2 * theta / 6 arc bulge
        s, l, theta = 152.0, 76.2, 1e-6
        expected = s * l * (1.0 + s * theta / (6.0 * l))
        assert center_area(s, l, theta) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("area,theta", [(center_area, 1.0),
                                            (series_area, 1e-5)])
    def test_largest_strip_keeps_a_finite_area(self, area, theta):
        # 2 s l overflows, but the area (about s l) does not; halving both
        # lengths quarters it exactly
        got = area(0.75, sys.float_info.max, theta)
        assert math.isfinite(got)
        assert got == 4.0 * area(0.375, 0.5 * sys.float_info.max, theta)

    def test_validation(self):
        with pytest.raises(ValueError):
            center_area(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            center_area(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            center_area(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            center_area(1.0, 1.0, 2.0 * math.pi)


class TestDerivative:
    @pytest.mark.parametrize("s,l", [(152.0, 76.2), (127.0, 50.8), (1.0, 0.0),
                                     (300.0, 20.0), (5.0, 4.0)])
    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, 2.9, 4.5])
    def test_matches_central_difference(self, s, l, theta):
        h = 1e-6 * theta
        numeric = (center_area(s, l, theta + h)
                   - center_area(s, l, theta - h)) / (2.0 * h)
        analytic = center_area_derivative(s, l, theta)
        scale = max(abs(numeric), abs(analytic), 1e-9 * s * s)
        assert abs(analytic - numeric) / scale < 1e-6

    def test_zero_at_frozen_root(self):
        f = FROZEN["S1"]
        s_c, _, l = f["fab"]
        d = center_area_derivative(s_c, l, f["theta_c"])
        # normalize by the local derivative scale
        d_away = abs(center_area_derivative(s_c, l, f["theta_c"] + 0.1))
        assert abs(d) < 1e-9 * d_away


class TestStripFitResidual:
    def test_sign_change_over_bracket(self):
        f = FROZEN["S1"]
        s_c, _, l = f["fab"]
        assert strip_fit_residual(s_c, l, 1e-9) > 0
        assert strip_fit_residual(s_c, l, math.pi) < 0
        assert strip_fit_residual(s_c, l, f["theta_c"]) == pytest.approx(
            0.0, abs=1e-9)

    def test_zero_strip_root_at_pi(self):
        # cos(pi/2) rounds to +6.1e-17, so the residual at pi stays >= 0
        assert strip_fit_residual(1.0, 0.0, math.pi) >= 0.0

    def test_shares_sign_with_derivative(self):
        # the residual carries the derivative's sign on (0, 2*pi)
        for theta in (0.5, 1.5, 2.0577, 2.5, 3.1, 4.0, 5.5):
            r = strip_fit_residual(152.0, 76.2, theta)
            d = center_area_derivative(152.0, 76.2, theta)
            assert math.copysign(1, r) == math.copysign(1, d) or abs(d) < 1e-9
