"""Both forward solves against an independent 50-digit bisection.

The reference roots the same dimensionless equations in mpmath at 50
significant digits, from the float inputs as given, so any error left is
the solver's own.  The inputs reach the domain's edges: ``1 - L/S_s``
from 1e-15 to 1e-1, ``L/S_c`` up to 1e10, and scales from 1e-3 to 1e6 mm.
The inverse's side arc is checked the same way near a half circle.

Every other field that ``forward_geometry`` and ``inverse_design`` return
(all but the sampled side area) is held to its own 50-digit value within
``C * EPS * kappa``, kappa the field's condition number.
"""

from __future__ import annotations

import json
import math
import random
import sys

import pytest

from crosssec.errors import InfeasibleSpec
from crosssec.geometry import DesignSpec, FabricationParams, inverse_design
from crosssec.solver import (forward_geometry, solve_center_arc_angle,
                             solve_side_height)
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


#: Unit roundoff, and the multiple of it that each field's error may
#: reach per unit of its condition number: Higham's gamma_n for a chain of
#: n = 64 roundings, far more than any field's path takes (about 20
#: operations and a root solved to roundoff).  Fixed before any field was
#: compared.
EPS = sys.float_info.epsilon / 2
C = 64


def _root(f, slope, lo, hi, x):
    """The one root of ``f`` in ``[lo, hi]``, ``f`` positive left of it and
    negative right of it: Newton from ``x``, bisecting wherever a step
    would leave the bracket, to 55 digits."""
    for _ in range(500):
        fx = f(x)
        if fx == 0:
            return x
        lo, hi = (x, hi) if fx > 0 else (lo, x)
        x_next = x - fx / slope(x)
        if not lo < x_next < hi:
            x_next = (lo + hi) / 2
        if abs(x_next - x) <= mp.mpf(10) ** -55 * abs(x):
            return x_next
        x = x_next
    raise AssertionError("reference root did not converge")


def reference_forward(arc_c, arc_s, strip, guess):
    """Every field of ``forward_geometry`` but the side area, at 60 digits.

    ``guess`` is the float (theta_c, theta_s), where the reference's root
    solves start; their brackets alone decide which root they reach.
    """
    rho_c, rho_s = strip / arc_c, strip / arc_s
    half_c = _root(lambda p: mp.cos(p) - rho_c * p,
                   lambda p: -mp.sin(p) - rho_c,
                   mp.mpf(0), mp.pi / 2, mp.mpf(guess[0]) / 2)
    u = _root(lambda v: mp.sin(v) / v - rho_s,
              lambda v: (v * mp.cos(v) - mp.sin(v)) / (v * v),
              mp.mpf(0), mp.pi, mp.mpf(guess[1]) / 2)
    h_c, h_s = arc_c / half_c, arc_s / u
    theta = 2 * half_c
    w_c, w_s = h_c * mp.sin(half_c), h_s * (1 - mp.cos(u)) / 2
    # the spec's width and the section's, one sum in _assemble
    return {
        "H_c": h_c, "H_s": h_s, "w": w_c + 2 * w_s, "width": w_c + 2 * w_s,
        "w_c": w_c, "w_s": w_s, "theta_c": theta, "theta_s": 2 * u,
        "A_c": (arc_c ** 2 * (theta - mp.sin(theta)) / theta ** 2
                + 2 * arc_c * strip * mp.sin(half_c) / theta),
    }


def reference_inverse(center_height, side_height, width):
    """``S_c``, ``S_s`` and ``L`` of a spec, at 60 digits; a sine past 1
    (a zero-strip spec, nudged) is the boundary's."""
    h, s, w = center_height, side_height, width
    sine = (w * w + h * h - 2 * w * s) / (2 * h * (w - s))
    cosine = mp.sqrt(max(0, 1 - sine * sine))
    strip = h * cosine
    return {"S_c": h * mp.atan2(sine, cosine), "L": strip,
            "S_s": s * mp.atan2(strip, s - (w - h * sine))}


def _misses(reference, inputs, got):
    """The fields of ``got`` that miss ``C * EPS * kappa``, with their
    relative error over that bound.

    ``kappa = 1 + sum_i |x_i df/dx_i| / |f|`` over the inputs ``x_i``: the
    error of a backward-stable ``f``, one rounding of the result aside.
    The derivatives are central differences at a relative step of 1e-20.
    """
    with mp.workdps(60):
        x = [mp.mpf(v) for v in inputs]
        exact = reference(*x)
        scale = {key: abs(value) for key, value in exact.items()}
        step = mp.mpf(10) ** -20
        for i in range(len(x)):
            up, down = (reference(*x[:i], x[i] * (1 + sign * step), *x[i + 1:])
                        for sign in (1, -1))
            for key in scale:
                scale[key] += abs(up[key] - down[key]) / (2 * step)
        return {key: float(abs(got[key] - exact[key]) / (C * EPS * scale[key]))
                for key in exact
                if abs(got[key] - exact[key]) > C * EPS * scale[key]}


def _forward_inputs():
    # scales 1e-3..1e6 mm, L/S_c 1e-6..1e10, 1 - L/S_s 1e-15..1
    rng = random.Random(20253)
    cases = [(152.0, 127.0, 76.2), (0.5 * math.pi, math.pi, 0.0),
             (1.0, 2.0, 0.0), (100.0, 100.0, 99.9999999999999)]
    for _ in range(150):
        arc = 10.0 ** rng.uniform(-3.0, 6.0)
        strip = arc * 10.0 ** rng.uniform(-6.0, 10.0)
        cases.append((arc, strip / (1.0 - 10.0 ** rng.uniform(-15.0, 0.0)),
                      strip))
    return cases


def _near(end, rng):
    # a fraction 1e-8..1 of ``end``, from either end of (0, end)
    offset = end * 10.0 ** rng.uniform(-8.0, 0.0)
    return offset if rng.random() < 0.5 else end - offset


def _specs():
    # scales 1e-3..1e6 mm; center half-angle a in (0, pi/2) and side
    # half-angle u in (0, pi), either near their ends, with a + u > pi/2
    # (that is w > H_s)
    rng = random.Random(20254)
    # w near 2 H_s: with its factors summed from left to right, the
    # discriminant kept about w / H_c = 2.6e6 ulps of roundoff in L, 574
    # times its bound
    specs = [(0.004314789905826104, 5518.1982052396315, 11036.39641051365)]
    while len(specs) < 201:
        h_c, a, u = 10.0 ** rng.uniform(-3.0, 6.0), _near(0.5 * math.pi, rng), \
            _near(math.pi, rng)
        if a + u > 0.5 * math.pi * (1 + 1e-6):
            h_s = h_c * math.cos(a) / math.sin(u)
            specs.append((h_c, h_s, h_c * math.sin(a) + h_s * (1 - math.cos(u))))
    return specs


def _forward_fields(case):
    # a coarse arc resolution: the sampled side area is not compared
    section = forward_geometry(FabricationParams(*case), case[1])
    center, side = section.center, section.sides[1]
    return {
        "H_c": section.spec.center_height, "H_s": section.spec.side_height,
        "w": section.spec.width, "width": section.width,
        "w_c": center.width, "w_s": side.width,
        "theta_c": center.arc_angle, "theta_s": side.arc_angle,
        "A_c": center.area}


class TestEveryField:
    def test_forward_fields(self):
        misses = []
        for case in _forward_inputs():
            got = _forward_fields(case)
            guess = got["theta_c"], got["theta_s"]
            miss = _misses(lambda *x: reference_forward(*x, guess), case, got)
            if miss:
                misses.append((case, miss))
        assert misses == []

    def test_inverse_fields(self):
        specs = _near_half_circle_specs() + _specs()
        misses, solved = [], 0
        for spec in specs:
            try:
                fab = inverse_design(DesignSpec(*spec))
            except InfeasibleSpec:
                continue
            solved += 1
            miss = _misses(reference_inverse, spec, {
                "S_c": fab.center_arc_length, "S_s": fab.side_arc_length,
                "L": fab.strip_width})
            if miss:
                misses.append((spec, miss))
        assert solved >= 0.95 * len(specs)
        assert misses == []


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


def reference_areas(case, section):
    """The side area ``r_s^2 / 2 (theta_s - sin theta_s)`` and the total
    ``A_c + 2 A_s`` of ``case``, at 60 digits."""
    guess = section.center.arc_angle, section.side.arc_angle
    with mp.workdps(60):
        exact = reference_forward(*(mp.mpf(v) for v in case), guess)
        theta_s = exact["theta_s"]
        side = (exact["H_s"] / 2) ** 2 / 2 * (theta_s - mp.sin(theta_s))
        return side, exact["A_c"] + 2 * side


#: The sampled side area's envelope (1e-4 mm sagitta): -10.5 % in the side
#: area and -2.5 % in the total at S1 x 1e-5, -7.9e-4 in the total at
#: S1 x 1e-3, and -25 % in the side area as L -> S_s-, the two-chord floor
#: of ``arc_points``; the absolute side error stays under 0.01 mm^2.  The
#: change that makes the side area closed form (ROADMAP item 3) removes
#: the markers.
SAMPLED_AREA = pytest.mark.xfail(
    strict=True, reason="side area is sampled at a fixed sagitta")


class TestSampledSideArea:
    @SAMPLED_AREA
    def test_micrometre_total(self):
        case = tuple(1e-5 * v for v in (152.0, 127.0, 76.2))
        section = forward_geometry(FabricationParams(*case))
        _, total = reference_areas(case, section)
        assert rel_err(section.total_area, float(total)) < 1e-6

    @SAMPLED_AREA
    def test_side_area_as_strip_nears_side_arc(self):
        case = (152.4, 127.0, 127.0 * (1 - 1e-12))
        section = forward_geometry(FabricationParams(*case))
        side, _ = reference_areas(case, section)
        assert rel_err(section.side.area, float(side)) < 1e-6
