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
edges' condition numbers.  TOL was set on the bracketed secant/bisection
solver these properties were first run against; it bounds every family
there with room to spare.  The solves' own accuracy is checked against an
independent 50-digit reference in ``tests/test_accuracy.py``.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from crosssec.geometry import DesignSpec, inverse_design, validate_spec
from crosssec.solver import solve_center_arc_angle, solve_side_height

#: Relative error allowed per unit of the condition number kappa.
TOL = 1e-8

#: How far each family goes toward its edge, in decades of its depth
#: parameter; past about 1e-8 relative the inverse itself loses the spec
#: (``w - H_s`` and the discriminant are sqrt(eps) conditioned).
DEPTH = {"bulk": 0.0, "w": 4.0, "gamma": 7.0, "L0": 7.0, "slack": 4.0}

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
