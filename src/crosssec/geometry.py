"""Cross-section geometry of a strip-constrained inflated membrane tube.

Two internal strips divide the inflated tube into a center channel and two
mirror-image side channels.  Uniform pressure and uniform membrane tension
make every free patch a circular arc, so the whole section is three arc
families plus the two straight strip segments.  This module holds the
immutable record types and the closed-form relations between the duct
dimensions (center height, side height, overall width; serialized as
``H_c_mm``, ``H_s_mm``, ``w_mm``) and the fabrication parameters (arc
lengths and strip width; serialized as ``S_c_mm``, ``S_s_mm``, ``L_mm``).

Units are mm, mm^2 and radians throughout; kPa and N appear only in
:func:`membrane_curvature` and the analysis layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._arcmath import center_area
from .errors import InfeasibleSpec, check_number
from .polygon import Polygon, arc_points

#: Default polygonization tolerance: max chord-sagitta error in mm.
DEFAULT_ARC_RESOLUTION = 1e-4

#: Relative slack for the feasibility boundary, so specs recovered from a
#: degenerate geometry (zero strip width) survive floating-point roundoff.
_BOUNDARY_RTOL = 1e-12

_FULL_TURN = 2.0 * math.pi


def _check_fields(record, kind, *names):
    # check_number on each field of a frozen record, storing its result
    # only where it differs (an int or NumPy scalar becomes a float)
    for name in names:
        value = getattr(record, name)
        number = check_number(value, name, kind)
        if number is not value:
            object.__setattr__(record, name, number)


def _side_width(radius, arc_angle):
    # w_s of a side arc; SideChannel.width, and _assemble before the
    # channel's center is known
    return radius * (1.0 + math.cos(0.5 * (_FULL_TURN - arc_angle)))


@dataclass(frozen=True)
class DesignSpec:
    """Target duct dimensions of the inflated cross section.

    Attributes:
        center_height: Inflated height of the center channel, mm (``H_c_mm``).
        side_height: Inflated height of each side channel, mm (``H_s_mm``).
        width: Overall width of the section, mm (``w_mm``).

    Positivity is enforced here; feasibility of the combination is a
    separate, decidable property — see :func:`validate_spec`.
    """

    center_height: float
    side_height: float
    width: float

    def __post_init__(self):
        _check_fields(self, "positive", "center_height", "side_height", "width")


@dataclass(frozen=True)
class FabricationParams:
    """Flat-membrane quantities fixed at fabrication time.

    Attributes:
        center_arc_length: Membrane arc length over the center channel, one
            side, mm (``S_c_mm``).
        side_arc_length: Membrane arc length around one side channel, mm
            (``S_s_mm``).
        strip_width: Width of each internal constraining strip, mm
            (``L_mm``); equals the straight-segment length of the inflated
            section.  Zero is the tangent-circle degenerate case.
    """

    center_arc_length: float
    side_arc_length: float
    strip_width: float

    def __post_init__(self):
        _check_fields(self, "positive", "center_arc_length", "side_arc_length")
        _check_fields(self, "non-negative", "strip_width")

    def perimeter(self) -> float:
        """Membrane perimeter of the section: 2 S_c + 2 S_s (mm)."""
        return 2.0 * (self.center_arc_length + self.side_arc_length)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the closed-form feasibility conditions for a spec.

    Feasible exactly when :func:`inverse_design` returns, and a refusal
    names these violations.

    Attributes:
        violations: Names of the violated conditions, drawn from
            ``"w > H_s"``, ``"gamma >= 0"``, ``"|arcsin argument| <= 1"``;
            where those three hold, ``"S_c > 0"`` (implied center sine
            <= 0) or ``"S_s > 0"`` (implied side arc <= 0), the inverse
            branch's domain.
        discriminant: The feasibility discriminant (mm^4).
        arcsin_argument: Sine of the center half-arc angle implied by the
            spec (w_c / H_c); None when undefined (w <= H_s); +-inf, or
            0 where its numerator cancels too, when its denominator
            underflows (H_c below about 2**-1021 of the largest length).
    """

    violations: tuple[str, ...]
    discriminant: float
    arcsin_argument: float | None

    @property
    def feasible(self) -> bool:
        """True iff every condition holds."""
        return not self.violations


@dataclass(frozen=True)
class CenterChannel:
    """The inflated center channel: two mirror arcs plus two strip chords.

    Attributes:
        radius: Arc radius, H_c / 2 (mm).
        arc_angle: Angle subtended by each arc (rad); (0, pi] on the
            design path.
        width: Chord width of the channel, w_c = H_c sin(S_c / H_c) (mm).
        area: Enclosed area between the arcs and the chords (mm^2),
            closed form.
    """

    radius: float
    arc_angle: float
    width: float
    area: float

    def __post_init__(self):
        _check_fields(self, "positive", "radius", "arc_angle", "width")
        if not self.arc_angle < 2.0 * math.pi:
            raise ValueError(f"arc_angle must lie in (0, 2*pi), got {self.arc_angle!r}")

    @property
    def height(self) -> float:
        """Inflated channel height H_c = 2 r (mm)."""
        return 2.0 * self.radius

    @property
    def arc_length(self) -> float:
        """Membrane length of one arc, r * arc_angle (mm)."""
        return self.radius * self.arc_angle

    @property
    def chord_angle(self) -> float:
        """Angle subtending one strip chord, pi - arc_angle (rad)."""
        return math.pi - self.arc_angle


@dataclass(frozen=True)
class SideChannel:
    """One inflated side channel: a single arc closed by the strip chord.

    Attributes:
        radius: Arc radius, H_s / 2 (mm).
        arc_angle: Angle subtended by the membrane arc (rad); (0, 2*pi].
        conjugate_arc_length: Length of the arc's virtual complement on the
            same circle (mm); together with the membrane arc it closes the
            full circle pi * H_s.
        center_x: Signed x of the arc center, +-(w / 2 - r) (mm).
        area: Region between arc and chord (mm^2), from the sampled
            polygon (no closed form is used on this path).
    """

    radius: float
    arc_angle: float
    conjugate_arc_length: float
    center_x: float
    area: float

    def __post_init__(self):
        _check_fields(self, "positive", "radius", "arc_angle")
        if not self.arc_angle <= 2.0 * math.pi:
            raise ValueError(f"arc_angle must lie in (0, 2*pi], got {self.arc_angle!r}")

    @property
    def height(self) -> float:
        """Inflated channel height H_s = 2 r (mm)."""
        return 2.0 * self.radius

    @property
    def arc_length(self) -> float:
        """Membrane length of the arc, r * arc_angle (mm)."""
        return self.radius * self.arc_angle

    @property
    def conjugate_angle(self) -> float:
        """2*pi - arc_angle (rad); subtends the arc's virtual complement."""
        return _FULL_TURN - self.arc_angle

    @property
    def width(self) -> float:
        """Width contribution of the channel,
        w_s = r (1 + cos(conjugate_angle / 2)) (mm)."""
        return _side_width(self.radius, self.arc_angle)


@dataclass(frozen=True)
class CrossSection:
    """Full mirror-symmetric inflated section.

    Attributes:
        spec: Duct dimensions the section realizes.
        fab: Fabrication parameters it was assembled from.
        center: The center channel.
        side: The right-hand side channel (``center_x`` from ``w / 2 -
            r``); the left one is its mirror image.
    """

    spec: DesignSpec
    fab: FabricationParams
    center: CenterChannel
    side: SideChannel

    @property
    def sides(self) -> tuple[SideChannel, SideChannel]:
        """(left, right) side channels, differing only in the sign of
        ``center_x``."""
        return replace(self.side, center_x=-self.side.center_x), self.side

    @property
    def width(self) -> float:
        """Assembled overall width w_c + 2 w_s (mm); matches
        ``spec.width`` to roundoff."""
        return self.center.width + 2.0 * self.side.width

    @property
    def strip_segments(self) -> tuple[tuple[tuple[float, float], tuple[float, float]], ...]:
        """Endpoints of the two straight segments, ((x, -L/2), (x, L/2))."""
        half_w = 0.5 * self.center.width
        half_l = 0.5 * self.fab.strip_width
        return tuple(
            ((x, -half_l), (x, half_l)) for x in (-half_w, half_w)
        )

    @property
    def total_area(self) -> float:
        """Enclosed area of the whole section, A_c + 2 A_s (mm^2): the
        closed-form center area and the side area sampled once, when the
        section was built.  The one total-area formula;
        :func:`crosssec.analysis.total_area` returns it."""
        return self.center.area + 2.0 * self.side.area

    @property
    def perimeter(self) -> float:
        """Membrane perimeter, 2 S_c + 2 S_s (mm)."""
        return self.fab.perimeter()


def feasibility_discriminant(spec: DesignSpec) -> float:
    """Discriminant whose sign decides feasibility of a spec (mm^4).

    With h = center_height, s = side_height, w = width:

        gamma = 4 s (h^2 s - h^2 w - w^2 s + w^3) - (w^2 - h^2)^2
              = (w - h)(h + 2s - w)(w + h)(w + h - 2s)

    Non-negative exactly when the duct dimensions admit a real strip
    width; scales as k^4 under uniform scaling by k.  Algebraically equal
    to ``4 h^2 (w - s)^2 - (w^2 + h^2 - 2 w s)^2``, which ties it to the
    arcsin-argument condition of :func:`validate_spec`.  Evaluated in the
    factored form, as the expanded polynomial leaves roundoff that
    ``sqrt`` magnifies into a strip width.  ``2s - w`` is taken first, as
    it is exact wherever ``w / 4 <= s <= w`` (Sterbenz), so each factor is
    about one rounded sum also where ``w`` is near ``2s`` (a center far
    narrower than the sides); summed from left to right, those kept about
    ``w / h`` ulps of roundoff in the strip width.  A spec whose ``h + 2s``
    rounds to ``w`` is taken as tangent (``h + 2s - w = 0``), so gamma is
    exactly zero for ``(h, h, 3h)`` at any ``h``.
    """
    return _discriminant(spec.center_height, spec.side_height, spec.width)


def _discriminant(h: float, s: float, w: float) -> float:
    excess = 2.0 * s - w
    gap = 0.0 if h + 2.0 * s == w else h + excess
    return (w - h) * gap * (w + h) * (h - excess)


def _design(spec: DesignSpec):
    """The design direction's one decision: ``(report, lengths, e)``.

    ``report`` is :func:`validate_spec`'s; where it is feasible,
    ``lengths`` holds ``(S_c, S_s, L)`` divided by ``2**e``, the frame
    the spec was judged in: ``(h, s, w)`` divided by ``2**e``, just above
    the largest.  In that frame the degree-2 and degree-4 forms neither
    overflow nor underflow whatever the scale, and the division is exact
    (unless a length is under ``2**-1021`` of the largest), so each sine,
    cosine and angle is the one the unscaled lengths give where their
    forms fit.  See :func:`inverse_design` for the branch taken.
    """
    h, s, w = spec.center_height, spec.side_height, spec.width
    e = math.frexp(max(h, s, w))[1]
    h, s, w = math.ldexp(h, -e), math.ldexp(s, -e), math.ldexp(w, -e)
    gamma = _discriminant(h, s, w)
    violations = []
    sine = lengths = None
    if w <= s:
        violations.append("w > H_s")
    else:
        # sin of the center half-arc angle implied by the spec: w_c / H_c
        numerator = w * w + h * h - 2.0 * w * s
        denominator = 2.0 * h * (w - s)
        # the denominator underflows where H_c is under about 2**-1021 of
        # the frame: the quotient's limit then, or 0 where the numerator
        # cancels too (w = 2 H_s), whose center arc underflows as well
        sine = (numerator / denominator if denominator
                else math.copysign(math.inf, numerator) if numerator else 0.0)
        if abs(sine) > 1.0 + _BOUNDARY_RTOL:
            violations.append("|arcsin argument| <= 1")
    gamma_slack = _BOUNDARY_RTOL * (2.0 * h * max(w - s, 0.0)) ** 2
    if gamma < -gamma_slack:
        violations.append("gamma >= 0")
    if not violations:
        clamped = min(1.0, sine)
        if clamped <= 0.0:
            violations.append("S_c > 0")
        else:
            # cos of the center half-arc angle; sqrt of the discriminant
            # folded into its normalized form to keep the degenerate
            # boundary exact.  atan2, not asin: asin(sine) loses half the
            # digits as sine -> 1 (gamma -> 0); the cosine keeps them
            cosine = math.sqrt(max(gamma, 0.0)) / denominator
            strip = h * cosine
            side_arc = s * math.atan2(strip, s - (w - h * clamped))
            if side_arc <= 0.0:
                violations.append("S_s > 0")
            else:
                lengths = (h * math.atan2(clamped, cosine), side_arc, strip)
    return FeasibilityReport(tuple(violations), feasibility_discriminant(spec),
                             sine), lengths, e


def validate_spec(spec: DesignSpec) -> FeasibilityReport:
    """Evaluate the feasibility conditions; reports, never throws.

    Feasible iff width > side_height, the discriminant is non-negative,
    the implied center-arc sine is at most 1 in magnitude, and, where
    those three hold, the spec lies in :func:`inverse_design`'s branch:
    a positive center arc (sine > 0, ``"S_c > 0"``) and a positive side
    arc (``"S_s > 0"``).  So a spec is feasible exactly when
    ``inverse_design`` returns its fabrication parameters (unless they
    pass the float range).  A relative slack of 1e-12 is allowed at the
    boundary so zero-strip-width geometry survives roundoff.  Violated
    conditions are named in the report.  The conditions are evaluated on
    the lengths scaled by a power of two near the largest, so they hold
    or fail alike at every scale; the reported discriminant is
    :func:`feasibility_discriminant` of ``spec`` itself.
    """
    return _design(spec)[0]


def inverse_design(spec: DesignSpec) -> FabricationParams:
    """Closed-form fabrication parameters realizing a feasible spec.

    Solves the design direction without iteration.  The center arc is
    taken on the branch with arc angle in (0, pi] (the arc never wraps
    past a half circle).  Each side arc spans the strip as a chord: its
    half-angle ``u`` has ``sin u = L / H_s`` and ``cos u = 1 - (w - w_c)
    / H_s``, from the leftover width ``w - w_c``, and ``S_s = H_s u``.
    Both come from ``atan2``, which keeps every digit near a half circle
    (``u -> pi/2``), where ``asin`` of the sine alone loses half of them,
    and covers arcs past a half circle without a branch.  All of it runs
    on the lengths scaled by a power of two near the largest, as in
    :func:`validate_spec`, so ``inverse_design`` of ``2**j`` times a spec
    is ``2**j`` times its result, bit for bit, wherever both are normal
    floats.

    Raises:
        InfeasibleSpec: when :func:`validate_spec` reports the spec
            infeasible, with the same violations; a spec outside this
            branch's domain names ``"S_c > 0"`` or ``"S_s > 0"``.
        ValueError: when a fabrication length passes the float range: a
            spec within a few units of the largest float, or an arc length
            that rounds to 0 below the smallest subnormal.
    """
    report, lengths, e = _design(spec)
    if not report.feasible:
        raise InfeasibleSpec(report.violations)
    center_arc, side_arc, strip = lengths
    try:
        return FabricationParams(math.ldexp(center_arc, e),
                                 math.ldexp(side_arc, e), math.ldexp(strip, e))
    except (OverflowError, ValueError):
        # past the largest float, or an arc length that rounds to 0
        raise ValueError(
            "spec implies fabrication lengths beyond the float range") from None


def membrane_curvature(pressure_kpa: float, tension_n_per_mm: float) -> float:
    """Curvature of a free membrane patch under pressure, 1/mm.

    Force balance on a membrane strip with uniform tension gives a
    constant curvature P / T; every free patch of the section is
    therefore a circular arc, which is what the channel types assume.
    With P in kPa (= 1e-3 N/mm^2) and T in N/mm:

        curvature = 1e-3 * P / T

    Raises:
        ValueError: when pressure is negative, tension is not positive,
            or either input is non-finite or not a number.
    """
    pressure_kpa = check_number(pressure_kpa, "pressure", "non-negative")
    tension_n_per_mm = check_number(tension_n_per_mm, "tension", "positive")
    return 1e-3 * pressure_kpa / tension_n_per_mm


def side_channel_polygon(side: SideChannel,
                         max_sagitta: float = DEFAULT_ARC_RESOLUTION) -> Polygon:
    """Polygonized right-hand side-channel region: sampled arc closed by
    the chord.

    The arc runs counter-clockwise from ``-arc_angle / 2`` to
    ``arc_angle / 2`` about ``(center_x, 0)``, through the channel's
    rightmost point; the implicit closing edge is the strip chord.  Its
    points are the right arc of :func:`cross_section_outline`, whatever
    the sign of ``center_x``; the left-hand channel is its mirror in x.
    """
    half = 0.5 * side.arc_angle
    return Polygon(arc_points(side.center_x, 0.0, side.radius, -half, half,
                              max_sagitta))


def cross_section_outline(section: CrossSection,
                          max_sagitta: float = DEFAULT_ARC_RESOLUTION) -> Polygon:
    """Outer membrane outline as one counter-clockwise polygon.

    Traverses right side arc (bottom to top), top center arc, left side
    arc (top to bottom) and bottom center arc.  The straight strip
    segments are interior and not part of the outline; total enclosed
    area equals center + both side areas.
    """
    c = section.center
    s = section.side
    half_s = 0.5 * s.arc_angle
    half_c = 0.5 * c.arc_angle
    right = arc_points(s.center_x, 0.0, s.radius, -half_s, half_s, max_sagitta)
    top = arc_points(0.0, 0.0, c.radius,
                     0.5 * math.pi - half_c, 0.5 * math.pi + half_c, max_sagitta)
    left = right[::-1].copy()
    left[:, 0] *= -1.0
    bottom = top[::-1].copy()
    bottom[:, 1] *= -1.0
    pts = np.vstack((right[:-1], top[:-1], left[:-1], bottom[:-1]))
    return Polygon(pts)


def _channels(fab: FabricationParams, center_height: float, side_height: float,
              spec: DesignSpec | None = None):
    """(spec, center, side): the channels the fabrication lengths inflate
    to at these heights, the right side's area not yet sampled (0.0).

    ``spec`` comes back as given, or when none is given as the
    ``DesignSpec(center_height, side_height, width)`` derived here.
    """
    h, s = center_height, side_height
    r_c = 0.5 * h
    r_s = 0.5 * s
    if not (r_c and r_s):
        # subnormal lengths: a height, or half of it, rounds to 0
        raise ValueError(
            f"a channel radius rounds to 0 at H_c = {h!r} mm, H_s = {s!r} mm")
    theta_c = fab.center_arc_length / r_c
    width_c = h * math.sin(fab.center_arc_length / h)
    # the side solve's half-angle is at most pi, so past 2 pi is roundoff
    # of a full circle (zero strip width): a few ulps, or far more where
    # a subnormal H_s keeps only a few bits
    theta_s = min(fab.side_arc_length / r_s, _FULL_TURN)
    width = width_c + 2.0 * _side_width(r_s, theta_s)
    if spec is None:
        spec = DesignSpec(h, s, width)
    center = CenterChannel(
        radius=r_c,
        arc_angle=theta_c,
        width=width_c,
        area=center_area(fab.center_arc_length, fab.strip_width, theta_c),
    )
    side = SideChannel(radius=r_s, arc_angle=theta_s,
                       conjugate_arc_length=math.pi * s - fab.side_arc_length,
                       center_x=0.5 * width - r_s, area=0.0)
    return spec, center, side


def _assemble(fab: FabricationParams, center_height: float, side_height: float,
              arc_resolution: float, spec: DesignSpec | None = None) -> CrossSection:
    """Build the CrossSection records from the fabrication lengths and
    the channel heights they inflate to (see :func:`_channels`), sampling
    the side area once, at ``arc_resolution``."""
    spec, center, side = _channels(fab, center_height, side_height, spec)
    area = side_channel_polygon(side, arc_resolution).area()
    return CrossSection(spec=spec, fab=fab, center=center,
                        side=replace(side, area=area))


def build_cross_section(spec: DesignSpec,
                        arc_resolution: float = DEFAULT_ARC_RESOLUTION) -> CrossSection:
    """Full geometry for a feasible spec via the closed-form inverse.

    ``arc_resolution`` is the max chord-sagitta error (mm) used when
    polygonizing the side channels for their areas.

    Raises:
        InfeasibleSpec: propagated from :func:`inverse_design`.
    """
    fab = inverse_design(spec)
    return _assemble(fab, spec.center_height, spec.side_height, arc_resolution,
                     spec)
