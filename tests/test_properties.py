"""Round-trip properties of the forward solves against the closed-form inverse.

Sections are generated from their exact shape: the center half-arc angle
``phi`` (``a = pi/2 - phi``), the side half-arc angle ``u`` and the
heights.  In that parametrization ``L = H_c cos(phi) = H_s sin(u)``,
``S_c = H_c phi``, ``S_s = H_s u`` and ``w = H_c sin(phi) + H_s (1 - cos u)``,
and the spec is feasible exactly when ``u > a``.  Each family drives one
edge of the feasible domain, from µm to km scale:

* ``w``: ``w -> H_s+`` (``u -> a+``, where ``H_s -> H_c`` too);
* ``gamma``: ``gamma -> 0+`` (``L / H_c -> 0`` with ``L / H_s`` fixed);
* ``L0``: ``L -> 0`` (``L / H_c`` and ``L / H_s`` both vanish);
* ``slack``: ``L -> S_s-`` (``u -> 0``).

Near an edge the round trip loses digits however exactly each step is
done, so the bound is ``TOL * kappa`` with ``kappa`` the sum of the
edges' condition numbers.  TOL is about three times the largest error per
unit of ``kappa`` seen in about 50 000 drawn sections, at these depths and
shallower ones: 1.1e-14, or 48 ulp.
The solves' own accuracy is checked against an independent 50-digit
reference in ``tests/test_accuracy.py``.
"""

from __future__ import annotations

import math
import sys

from hypothesis import example, given, settings, strategies as st

from conftest import INVERSE_190_SPEC
from crosssec.errors import InfeasibleSpec
from crosssec.geometry import DesignSpec, inverse_design, validate_spec
from crosssec.solver import solve_center_arc_angle, solve_side_height

#: Relative error allowed per unit of the condition number kappa.
TOL = 3e-14

#: How far each family goes toward its edge, in decades of its depth
#: parameter: one decade short of the deepest that passed.  A decade or two
#: further the drawn section itself rounds onto its edge: ``H_s`` and ``w``
#: onto ``H_c`` (``w``), a side arc below float resolution (``gamma``), or
#: ``L`` onto ``S_s`` (``slack``).
DEPTH = {"bulk": 0.0, "w": 11.0, "gamma": 13.0, "L0": 14.0, "slack": 6.0}

_HALF_PI = 0.5 * math.pi


@st.composite
def sections(draw):
    """``(edge, H_c, H_s, a, u)`` of an exactly known feasible section."""
    edge = draw(st.sampled_from(sorted(DEPTH)))
    h_c = 10.0 ** draw(st.floats(-3.0, 6.0))
    depth = 10.0 ** -draw(st.floats(0.0, DEPTH[edge]))
    moderate = draw(st.floats(0.05, _HALF_PI - 0.05))
    share = draw(st.floats(0.1, 0.9))
    if edge == "bulk":
        a = moderate
        u = a + share * (math.pi - a)
    elif edge == "w":
        a = moderate
        u = a + depth * share * (_HALF_PI - a)
    elif edge == "gamma":
        a = moderate * depth
        u = _HALF_PI + share * _HALF_PI
    elif edge == "L0":
        a = moderate * depth
        u = math.pi - share * depth
    else:
        u = _HALF_PI * depth
        a = share * u
    h_s = h_c * math.sin(a) / math.sin(u)
    return edge, h_c, h_s, a, u


def _exact(h_c, h_s, a, u):
    # fab and spec of the generated section, each rounded once per field
    phi = _HALF_PI - a
    fab = (h_c * phi, h_s * u, h_c * math.sin(a))
    spec = (h_c, h_s, h_c * math.sin(phi) + h_s * (1.0 - math.cos(u)))
    return fab, spec


def _kappa(fab, spec):
    s_c, s_s, l = fab
    h_c, h_s, w = spec
    return 1.0 + (w / (w - h_s)) ** 2 + h_c / l + s_s / (s_s - l)


def _forward(fab):
    # the spec the two solves realize, assembled as forward_geometry does
    s_c, s_s, l = fab
    h_c = 2.0 * s_c / solve_center_arc_angle(s_c, l)
    h_s = solve_side_height(s_s, l)
    w = h_c * math.sin(s_c / h_c) + h_s * (1.0 + math.cos(math.pi - s_s / h_s))
    return h_c, h_s, w


def _inverse(spec):
    report = validate_spec(DesignSpec(*spec))
    assert report.feasible, report.violations
    fab = inverse_design(DesignSpec(*spec))
    return fab.center_arc_length, fab.side_arc_length, fab.strip_width


def _assert_close(got, want, scales, bound, names):
    for name, g, x, scale in zip(names, got, want, scales):
        assert abs(g - x) <= bound * scale, (name, g, x, bound)


class TestRoundTrips:
    @settings(max_examples=400, deadline=None)
    @given(sections())
    def test_inverse_after_forward_returns_the_fabrication(self, section):
        _, *shape = section
        fab, spec = _exact(*shape)
        # L is measured against the side arc it spans, since L -> 0 is an edge
        _assert_close(_inverse(_forward(fab)), fab, (fab[0], fab[1], fab[1]),
                      TOL * _kappa(fab, spec), ("S_c", "S_s", "L"))

    @settings(max_examples=400, deadline=None)
    @given(sections())
    def test_forward_after_inverse_returns_the_spec(self, section):
        _, *shape = section
        fab, spec = _exact(*shape)
        _assert_close(_forward(_inverse(spec)), spec, spec,
                      TOL * _kappa(fab, spec), ("H_c", "H_s", "w"))


class TestZeroStrip:
    """``L = 0`` exactly: tangent circles, whose spec sits on ``gamma = 0``."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3.0, 6.0), st.floats(0.05, 20.0))
    def test_round_trip(self, scale, ratio):
        s_c = 10.0 ** scale
        fab = (s_c, ratio * s_c, 0.0)
        h_c, h_s, w = _forward(fab)
        assert h_c == 2.0 * s_c / math.pi
        assert h_s == fab[1] / math.pi
        s_c2, s_s2, l2 = _inverse((h_c, h_s, w))
        assert abs(s_c2 - s_c) <= 1e-15 * s_c
        assert abs(s_s2 - fab[1]) <= 1e-15 * fab[1]
        assert l2 <= 1e-15 * w


def _design(spec, j):
    # violations, arcsin argument and fab (or refusal) of 2**j * spec
    spec = DesignSpec(*(math.ldexp(x, j) for x in spec))
    report = validate_spec(spec)
    try:
        fab = inverse_design(spec)
    except InfeasibleSpec as exc:
        return report.violations, report.arcsin_argument, str(exc)
    return report.violations, report.arcsin_argument, (
        fab.center_arc_length, fab.side_arc_length, fab.strip_width)


def _normal_scale(j, spec, design):
    # j clamped to where every nonzero length of 2**j times the spec and
    # its fab is a normal float: the domain of inverse_design's promise
    fab = design[2] if isinstance(design[2], tuple) else ()
    exponents = [math.frexp(x)[1] for x in (*spec, *fab) if x]
    return min(max(j, sys.float_info.min_exp - min(exponents)),
               sys.float_info.max_exp - max(exponents))


def _scaled(design, j):
    # the design of a spec, as it reads at 2**j times that spec
    violations, sine, fab = design
    if isinstance(fab, tuple):
        fab = tuple(math.ldexp(x, j) for x in fab)
    return violations, sine, fab


class TestPowerOfTwoScale:
    """The design direction runs on the lengths scaled by a power of two,
    so ``2**j`` times a spec gives ``2**j`` times its fab, bit for bit,
    and the same violations, far beyond µm to km."""

    @settings(max_examples=400, deadline=None)
    @example(("gamma", 1.0, 1.4142135623730948e-11, 1e-11,
              2.356194490192345), -985)
    @example(("gamma", 1.0, 7.071067811865475e-11, 5e-11,
              2.356194490192345), -987)
    @given(sections(), st.integers(-1000, 1000))
    def test_feasible_sections(self, section, j):
        # j is clamped to where the lengths are normal; below it the
        # examples' lengths turn subnormal, and at j = -986 and -989 their
        # fab is off by an ulp
        _, *shape = section
        spec = _exact(*shape)[1]
        design = _design(spec, 0)
        j = _normal_scale(j, spec, design)
        assert _design(spec, j) == _scaled(design, j)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-3.0, 6.0), min_size=3, max_size=3),
           st.integers(-1000, 1000))
    def test_any_spec(self, exponents, j):
        # mostly infeasible: the same conditions fail at every scale
        spec = [10.0 ** x for x in exponents]
        design = _design(spec, 0)
        j = _normal_scale(j, spec, design)
        assert _design(spec, j) == _scaled(design, j)

    def test_190_spec_at_every_seventh_power(self):
        design = _design(INVERSE_190_SPEC, 0)
        for j in range(-1000, 1001, 7):
            assert _design(INVERSE_190_SPEC, j) == _scaled(design, j), j
