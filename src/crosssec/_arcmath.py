"""Scalar closed forms for the center channel, shared by geometry and solver.

All three quantities are functions of the center arc length ``s`` (mm),
the constraining-strip width ``l`` (mm) and the arc angle ``theta`` (rad).
"""

import math

from .errors import check_number

#: Below this angle (rad) the closed form cancels catastrophically and the
#: series expansions of both theta^-2 factors take over.
SERIES_CUTOFF = 1e-4


def check_arc(arc_length, strip_width) -> tuple[float, float]:
    """``(arc_length, strip_width)`` as floats, or ValueError unless the
    arc length is positive and the strip width non-negative, both finite."""
    return (check_number(arc_length, "arc_length", "positive"),
            check_number(strip_width, "strip_width", "non-negative"))


def _check_domain(arc_length, strip_width, arc_angle):
    # the closed forms' domain: check_arc's, and an angle in (0, 2*pi)
    s, l = check_arc(arc_length, strip_width)
    theta = check_number(arc_angle, "arc_angle", "positive")
    if not theta < 2.0 * math.pi:
        raise ValueError(f"arc_angle must lie in (0, 2*pi), got {arc_angle!r}")
    return s, l, theta


def series_area(s, l, theta):
    """``center_area`` by series of both theta^-2 factors, for angles
    below ``SERIES_CUTOFF``; ``theta`` may be a float or a NumPy array."""
    base = theta / 6.0 - theta**3 / 120.0 + theta**5 / 5040.0
    chord = 0.5 - theta * theta / 48.0 + theta**4 / 3840.0
    return s * s * base + s * l * (2.0 * chord)


def center_area(arc_length: float, strip_width: float, arc_angle: float) -> float:
    """Enclosed area of the center channel (mm^2).

    Two mirror arcs of length ``arc_length`` subtending ``arc_angle``,
    joined by two straight segments of length ``strip_width``:

        area = s^2 (theta - sin theta) / theta^2 + 2 s l sin(theta/2) / theta

    Below ``SERIES_CUTOFF`` rad both theta^-2 factors are evaluated by
    series (:func:`series_area`) to dodge catastrophic cancellation in
    ``theta - sin theta``.

    Raises:
        ValueError: outside the domain (s <= 0, l < 0, theta outside
            (0, 2*pi), or a non-finite or non-numeric input).
    """
    s, l, theta = _check_domain(arc_length, strip_width, arc_angle)
    if theta < SERIES_CUTOFF:
        return series_area(s, l, theta)
    base = (theta - math.sin(theta)) / (theta * theta)
    chord = math.sin(0.5 * theta) / theta
    # s l first: 2 s l can overflow where the area does not
    return s * s * base + s * l * (2.0 * chord)


def center_area_derivative(arc_length: float, strip_width: float,
                           arc_angle: float) -> float:
    """d(center_area)/d(arc_angle) at fixed arc length and strip width.

    Factored form, zero exactly where either factor vanishes:

        (2 s / theta^2) * (2 sin(theta/2) - theta cos(theta/2))
                        * (s cos(theta/2) / theta - l / 2)

    The middle factor is positive everywhere on (0, 2*pi), so the sign is
    carried entirely by the last factor; its root is the area maximizer.
    """
    s, l, theta = _check_domain(arc_length, strip_width, arc_angle)
    half = 0.5 * theta
    return (2.0 * s / (theta * theta)
            * (2.0 * math.sin(half) - theta * math.cos(half))
            * (s * math.cos(half) / theta - 0.5 * l))


def strip_fit_residual(arc_length: float, strip_width: float,
                       arc_angle: float) -> float:
    """Residual of the strip-fit condition for the center arcs.

    ``arc_length * cos(theta/2) - strip_width * theta / 2``.  Its root is
    the angle at which the two center arcs sit exactly one strip width
    apart (chord planes ``2 r cos(theta/2)`` apart).  It is theta times the
    last factor of ``center_area_derivative``, so that angle maximizes the
    center area; the factor theta makes it concave as well as decreasing on
    (0, pi], so Newton from the right falls monotonically onto the root.
    """
    return (arc_length * math.cos(0.5 * arc_angle)
            - 0.5 * strip_width * arc_angle)
