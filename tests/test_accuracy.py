"""Both forward solves against an independent 50-digit bisection.

The reference roots the same dimensionless equations in mpmath at 50
significant digits, from the float inputs as given, so any error left is
the solver's own.  The inputs reach the domain's edges: ``1 - L/S_s``
from 1e-15 to 1e-1, ``L/S_c`` up to 1e10, and scales from 1e-3 to 1e6 mm.
The inverse's side arc is checked the same way near a half circle.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from crosssec.geometry import DesignSpec, inverse_design
from crosssec.solver import solve_center_arc_angle, solve_side_height
from conftest import rel_err, run_cli

mp = pytest.importorskip("mpmath")

#: Largest relative error either solve may have.
BOUND = 1e-14


def _bisect(f, lo, hi):
    # f > 0 on the left of its one root in (lo, hi), < 0 on the right
    with mp.workdps(50):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        while hi - lo > mp.mpf(10) ** -30 * hi:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def reference_center_angle(arc_length: float, strip_width: float) -> float:
    """Root theta = 2 phi of cos(phi) = (L / S_c) phi on (0, pi/2]."""
    with mp.workdps(50):
        rho = mp.mpf(strip_width) / mp.mpf(arc_length)
        phi = _bisect(lambda p: mp.cos(p) - rho * p, 0, mp.pi / 2)
        return float(2 * phi)


def reference_side_height(arc_length: float, strip_width: float) -> float:
    """S_s / u with u the root of sin(u) = (L / S_s) u on (0, pi]."""
    with mp.workdps(50):
        rho = mp.mpf(strip_width) / mp.mpf(arc_length)
        u = _bisect(lambda v: mp.sin(v) / v - rho, 0, mp.pi)
        return float(mp.mpf(arc_length) / u)


def _center_inputs():
    rng = random.Random(20250)
    cases = []
    for _ in range(350):
        arc = 10.0 ** rng.uniform(-3.0, 6.0)
        cases.append((arc, arc * 10.0 ** rng.uniform(-6.0, 10.0)))
    return cases


def _side_inputs():
    rng = random.Random(20251)
    cases = []
    for _ in range(350):
        arc = 10.0 ** rng.uniform(-3.0, 6.0)
        cases.append((arc, arc * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))))
    return cases


def _worst(solve, reference, cases):
    return max((rel_err(solve(*case), reference(*case)), case) for case in cases)


class TestAgainstReference:
    def test_center_angle(self):
        err, case = _worst(solve_center_arc_angle, reference_center_angle,
                           _center_inputs())
        assert err <= BOUND, (err, case)

    def test_side_height(self):
        err, case = _worst(solve_side_height, reference_side_height,
                           _side_inputs())
        assert err <= BOUND, (err, case)

    @pytest.mark.parametrize("arc, strip", [
        (100.0, 99.9999999999999),   # 1 - L/S_s = 1e-15
        (127.0, 126.999999999),      # the forward case below
        (1.0, 1.0 - 2.0 ** -52),     # the last float below S_s
        (1e-3, 0.5e-3), (1e6, 0.0), (1.0, 0.5),
    ])
    def test_side_edge_cases(self, arc, strip):
        assert rel_err(solve_side_height(arc, strip),
                       reference_side_height(arc, strip)) <= BOUND

    @pytest.mark.parametrize("arc, strip", [
        (1.0, 3e9), (1e-3, 1e7), (1.0, 1e10), (152.0, 76.2), (1.0, 1e-300),
    ])
    def test_center_edge_cases(self, arc, strip):
        assert rel_err(solve_center_arc_angle(arc, strip),
                       reference_center_angle(arc, strip)) <= BOUND


def reference_side_arc(center_height, side_height, width):
    """S_s of the spec ``(H_c, H_s, w)``: H_s u, with sin u = L / H_s and u
    past pi/2 when the leftover width w - w_c exceeds H_s."""
    with mp.workdps(50):
        h, s, w = (mp.mpf(x) for x in (center_height, side_height, width))
        sine = (w * w + h * h - 2 * w * s) / (2 * h * (w - s))
        u = mp.asin(h * mp.sqrt(1 - sine * sine) / s)
        if w - h * sine > s:
            u = mp.pi - u
        return float(s * u)


def _near_half_circle_specs():
    # specs whose side half-angle lies 1e-16..1e-1 from pi/2, either way
    rng = random.Random(20252)
    specs = []
    for _ in range(200):
        h_c, a = 10.0 ** rng.uniform(-3.0, 6.0), rng.uniform(0.1, 1.4)
        u = 0.5 * math.pi + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-16, -1)
        h_s = h_c * math.sin(a) / math.sin(u)
        specs.append((h_c, h_s, h_c * math.cos(a) + h_s * (1 - math.cos(u))))
    return specs


class TestInverseSideArc:
    def test_side_arc_near_a_half_circle_keeps_every_digit(self):
        # the spec that forward_geometry makes of FabricationParams(pi/4,
        # 1.1107207345395915, 0.7071067811865475), whose side arc is 1e-8
        # short of a half circle; asin(L / H_s) gave 1.1107207240028794
        spec = (1.0, 0.7071067811865476, 1.414213562373095)
        got = inverse_design(DesignSpec(*spec)).side_arc_length
        assert got == reference_side_arc(*spec) == 1.1107207345395915

    def test_side_arcs_near_a_half_circle(self):
        err, spec = max(
            (rel_err(inverse_design(DesignSpec(*spec)).side_arc_length,
                     reference_side_arc(*spec)), spec)
            for spec in _near_half_circle_specs())
        assert err <= BOUND, (err, spec)


def _printed(value: float) -> float:
    # the CLI prints 9 significant digits
    return float(f"{value:.9g}")


class TestCliEdges:
    def test_oracle_with_strip_dwarfing_the_arcs(self):
        proc = run_cli("oracle", "--sc", "1e-3", "--l", "1e7",
                       "--grid-points", "1000")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["theta_root_rad"] == _printed(reference_center_angle(1e-3, 1e7))

    def test_forward_with_strip_near_the_side_arc(self):
        proc = run_cli("forward", "--sc", "152", "--ss", "127",
                       "--l", "126.999999999")
        assert proc.returncode == 0, proc.stderr
        h_s = json.loads(proc.stdout)["spec"]["H_s_mm"]
        assert h_s == _printed(reference_side_height(127.0, 126.999999999))
