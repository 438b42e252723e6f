"""Independent references the benchmark checks crosssec's outputs against.

Nothing here imports crosssec: the formulas are written out from the
geometry (circular arcs joined by straight strips) so that a wrong answer
from the program cannot also be the expected answer.
"""

from __future__ import annotations

import math

#: Frozen reference builds S1-S3, copied from ``tests/conftest.py`` (they
#: come from an independent closed-form prototype).  fab = (S_c, S_s, L).
FROZEN = {
    "S1": dict(
        fab=(152.0, 127.0, 76.2),
        theta_c=2.057737772688636, theta_s=3.3200696265292406,
        H_c=147.73505353055467, H_s=76.50441965746617,
        w=209.88950273836156, w_c=126.56700218333302,
        A_c=16050.06685150713, A_s=2558.899765223114,
        total=21167.866381953358, ergo=1.8725803187228036,
    ),
    "S2": dict(
        fab=(152.0, 127.0, 50.8),
        theta_c=2.338605970671078, theta_s=4.250690382774937,
        H_c=129.99197120529254, H_s=59.75499910068342,
        w=210.87438696640507, w_c=119.65480591199673,
        A_c=12918.621881766952, A_s=2296.8214122590057,
        total=17512.264706284965, ergo=2.1515646722448163,
    ),
    "S3": dict(
        fab=(127.0, 152.0, 76.2),
        theta_c=1.916503796935981, theta_s=3.7848972214397856,
        H_c=132.53300119002301, H_s=80.319221953498,
        w=214.1477795041974, w_c=108.4368775114567,
        A_c=12547.29060875297, A_s=3535.841938980497,
        total=19618.974486713963, ergo=2.5630888916212085,
    ),
}

#: Round-trip tolerance of acceptance criterion 3.
ROUND_TRIP_RTOL = 1e-7


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def frozen_problems(section_of) -> list[str]:
    """Compare ``section_of(fab)`` against S1-S3; returns what disagrees.

    Closed-form quantities must match to 1e-9; the side and total areas
    are sampled polygons in the program, so they get 1e-5.
    """
    problems = []
    for name, f in FROZEN.items():
        section = section_of(f["fab"])
        side = section.sides[1]
        got = {
            "theta_c": (section.center.arc_angle, 1e-9),
            "theta_s": (side.arc_angle, 1e-9),
            "H_c": (section.spec.center_height, 1e-9),
            "H_s": (section.spec.side_height, 1e-9),
            "w": (section.width, 1e-9),
            "w_c": (section.center.width, 1e-9),
            "A_c": (section.center.area, 1e-9),
            "A_s": (side.area, 1e-5),
            "total": (section.total_area, 1e-5),
        }
        for key, (value, tol) in got.items():
            if not rel_err(value, f[key]) <= tol:
                problems.append(f"{name} {key}: {value!r} vs frozen {f[key]!r}")
    return problems


def strip_fit_root(arc_length: float, strip_width: float) -> float:
    """Center arc angle at which the arcs fit the strip, by bisection.

    Roots ``s cos(theta/2) / theta - l/2`` on (1e-9, pi], where it is
    strictly decreasing; a non-negative value at pi puts the root at pi.
    """
    def f(theta):
        return arc_length * math.cos(0.5 * theta) / theta - 0.5 * strip_width

    lo, hi = 1e-9, math.pi
    if f(hi) >= 0.0:
        return hi
    while hi - lo > 4e-16 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fab_spec_mismatch(fab, spec) -> float:
    """Largest violation of the closed-form fab -> spec relations.

    With H_c, H_s, w the duct dimensions and S_c, S_s, L the fabrication
    lengths, the strip is a chord of both arc families and the width sums
    the channel widths:

        L = H_c cos(S_c / H_c) = H_s sin(S_s / H_s)
        w = H_c sin(S_c / H_c) + H_s (1 - cos(S_s / H_s))

    Returned relative to the section's largest dimension.
    """
    s_c, s_s, strip = fab
    h_c, h_s, w = spec
    scale = max(h_c, h_s, w)
    return max(
        abs(h_c * math.cos(s_c / h_c) - strip),
        abs(h_s * math.sin(s_s / h_s) - strip),
        abs(h_c * math.sin(s_c / h_c) + h_s * (1.0 - math.cos(s_s / h_s)) - w),
    ) / scale


def ergonomic_index(center_height: float, side_height: float,
                    width: float) -> float:
    """Inverse slope of the line from a side-channel apex to the center apex."""
    r_c, r_s = 0.5 * center_height, 0.5 * side_height
    slope = (r_c - r_s) / (r_s - 0.5 * width)
    return math.inf if slope == 0.0 else 1.0 / abs(slope)


def _arc_chain(cx, radius, start, span, segments):
    """``segments`` chords along an arc centered on the x axis at ``cx``,
    placed so that the polygon keeps the arc's area.

    The end points lie on the arc; the interior points sit at the radius
    rho that makes the chord fan from the arc center enclose exactly the
    sector area r^2 span / 2.  Returns the start point and the interior
    points (the end point is the next chain's start).
    """
    d = span / segments
    sin_d = math.sin(d)
    m = segments
    # 2 (1/2) r rho sin d + (m - 2) (1/2) rho^2 sin d = (1/2) r^2 m d
    rho = radius * (-sin_d + math.sqrt(sin_d * sin_d + (m - 2) * m * d * sin_d)) \
        / ((m - 2) * sin_d)
    points = [(cx + radius * math.cos(start), radius * math.sin(start))]
    for i in range(1, m):
        a = start + i * d
        points.append((cx + rho * math.cos(a), rho * math.sin(a)))
    return points


def section_outline(center_radius, center_angle, side_radius, side_angle,
                    side_center_x, vertices):
    """Counter-clockwise outline with about ``vertices`` points whose
    shoelace area equals the section's exact area.

    Traverses the right side arc, the top center arc, the left side arc and
    the bottom center arc, spacing vertices evenly by arc length.  Returns
    the points and the index ranges of each arc's interior vertices.
    """
    half_c, half_s = 0.5 * center_angle, 0.5 * side_angle
    arcs = [
        (side_center_x, side_radius, -half_s, side_angle),
        (0.0, center_radius, 0.5 * math.pi - half_c, center_angle),
        (-side_center_x, side_radius, math.pi - half_s, side_angle),
        (0.0, center_radius, 1.5 * math.pi - half_c, center_angle),
    ]
    total = sum(r * span for _, r, _, span in arcs)
    points, interiors = [], []
    for cx, r, start, span in arcs:
        segments = max(4, round(vertices * r * span / total))
        chain = _arc_chain(cx, r, start, span, segments)
        interiors.append(range(len(points) + 2, len(points) + len(chain) - 2))
        points.extend(chain)
    return points, interiors


def segments_cross(p, q, r, s) -> bool:
    """True when segments pq and rs cross at a point interior to both."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    return (orient(p, q, r) * orient(p, q, s) < 0.0
            and orient(r, s, p) * orient(r, s, q) < 0.0)
