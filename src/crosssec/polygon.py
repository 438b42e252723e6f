"""Planar polygon and circular-arc sampling primitives.

Coordinates are millimetres in the cross-section plane: x across the
width, y up, origin at the section center.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegeneratePolygon, check_number

#: Most chords one sampled arc may have: 2**22, or 64 MiB of vertices.
#: A full circle at this count has a sagitta of about 3e-13 of its radius,
#: which ``1 - max_sagitta / radius`` resolves only to about 1e-3; finer
#: sampling would not be more accurate, only larger.
MAX_ARC_SEGMENTS = 1 << 22

#: Edge pairs generated and tested at a time by :meth:`Polygon.is_simple`;
#: bounds its working memory to a few MiB.
_PAIR_CHUNK = 1 << 16


def arc_points(cx: float, cy: float, radius: float, start_angle: float,
               end_angle: float, max_sagitta: float) -> np.ndarray:
    """Sample a circular arc as a chain of chords.

    Segment count is chosen so no chord's sagitta exceeds ``max_sagitta``
    (mm), with a floor of one segment per 60 degrees of span so coarse
    tolerances cannot degenerate long arcs, and of two segments so that
    the arc and its closing chord bound a polygon with area (one chord is
    within tolerance on a shallow arc, but closes on itself).  Angles are
    radians; the arc runs from ``start_angle`` to ``end_angle``
    (increasing = CCW).

    Returns:
        ``(n + 1, 2)`` array of points including both endpoints.

    Raises:
        ValueError: on a non-positive or non-finite radius or tolerance,
            a non-finite center or angle, a non-numeric input, or an arc
            that would need more than ``MAX_ARC_SEGMENTS`` segments.
    """
    cx = check_number(cx, "arc center", "finite")
    cy = check_number(cy, "arc center", "finite")
    radius = check_number(radius, "radius", "positive")
    max_sagitta = check_number(max_sagitta, "max_sagitta", "positive")
    start_angle = check_number(start_angle, "arc angles", "finite")
    end_angle = check_number(end_angle, "arc angles", "finite")
    span = abs(end_angle - start_angle)
    if max_sagitta < radius:
        # sagitta of a chord over angle d is r (1 - cos(d/2))
        d_max = 2.0 * math.acos(1.0 - max_sagitta / radius)
    else:
        d_max = math.pi
    step = min(d_max, math.pi / 3.0)
    if step <= 0.0 or span > MAX_ARC_SEGMENTS * step:
        raise ValueError(
            f"arc of radius {radius:.6g} mm over {span:.6g} rad needs more "
            f"than {MAX_ARC_SEGMENTS} segments at max_sagitta {max_sagitta!r} mm")
    n = max(2, math.ceil(span / d_max), math.ceil(span / (math.pi / 3.0)))
    # the steps of np.linspace, so each angle is bit for bit its value;
    # its path for a step that underflows to 0 is not needed, since a span
    # that small gets n = 2, and then only a zero span has a zero step
    t = np.arange(n + 1, dtype=float)
    t *= (end_angle - start_angle) / n
    t += start_angle
    t[-1] = end_angle
    # column-major, so each coordinate is written in place as one
    # contiguous run
    pts = np.empty((n + 1, 2), order="F")
    x = np.cos(t, out=pts[:, 0])
    x *= radius
    x += cx
    y = np.sin(t, out=pts[:, 1])
    y *= radius
    y += cy
    return pts


def _unit_frame(points: np.ndarray, peak: float) -> tuple[np.ndarray, int]:
    """The vertices times 2**-e, which puts them in [-1, 1], and e, from
    ``peak``, their largest absolute coordinate.

    A power of two scales exactly (but for vertices that become
    subnormal, far below the resolution of the largest), so products of
    the scaled vertices keep their signs and digits, and none overflows,
    nor, for a tiny outline, underflows.
    """
    e = math.frexp(peak)[1]
    scaled = np.ldexp(points, -e)
    scaled.flags.writeable = False
    return scaled, e


def _shoelace(scaled: np.ndarray) -> float:
    """Signed area of unit-scaled vertices, shifted so that the first
    lies at the origin; the closing edge's term is then zero."""
    x = scaled[:, 0] - scaled[0, 0]
    y = scaled[:, 1] - scaled[0, 1]
    terms = x[:-1] * y[1:]
    terms -= x[1:] * y[:-1]
    # the pairwise sum that np.sum runs
    return 0.5 * float(np.add.reduce(terms))


class Polygon:
    """Simple closed polygon; the closing edge is implicit.

    A trailing vertex identical to the first is dropped on construction.
    Vertices are a read-only ``(n, 2)`` float array behind the read-only
    ``points`` property.  The unit-scaled frame that the area and the
    crossing test run on, and the shoelace sum, are computed on first use
    and kept, so each is computed at most once per instance.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of x, y")
        # the largest |coordinate|, NaN if any is NaN; 0 if there are none
        peak = float(np.abs(pts).max(initial=0.0))
        if not math.isfinite(peak):
            raise ValueError("polygon vertices must be finite")
        if len(pts) >= 2 and pts[0, 0] == pts[-1, 0] and pts[0, 1] == pts[-1, 1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 distinct vertices")
        pts = np.array(pts)
        pts.flags.writeable = False
        self._points = pts
        self._peak = peak  # a dropped closing vertex repeats the first
        self._frame = None  # (unit-scaled vertices, e), on first use
        self._scaled_area = None  # their shoelace sum, on first use

    @property
    def points(self) -> np.ndarray:
        """The ``(n, 2)`` vertices, read-only."""
        return self._points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def _unit_scaled(self) -> tuple[np.ndarray, int]:
        if self._frame is None:
            self._frame = _unit_frame(self._points, self._peak)
        return self._frame

    def signed_area(self) -> float:
        """Shoelace area (mm^2), positive for counter-clockwise winding;
        DegeneratePolygon when it overflows the float range.

        The shoelace runs on the vertices scaled into [-1, 1] and shifted
        so that the first lies at the origin.  That leaves the area's
        digits as they are, but a small outline far from the origin no
        longer cancels, and only an area beyond the float range overflows.
        The scaled sum is kept; each call only scales it back.
        """
        scaled, e = self._unit_scaled()
        if self._scaled_area is None:
            self._scaled_area = _shoelace(scaled)
        try:
            return math.ldexp(self._scaled_area, 2 * e)
        except OverflowError:
            raise DegeneratePolygon(
                "polygon area overflows the float range") from None

    def area(self) -> float:
        """Absolute enclosed area (mm^2)."""
        return abs(self.signed_area())

    def is_simple(self) -> bool:
        """True when no two edges properly cross.

        Edges that merely touch at a point (shared endpoints, tangent
        pinches) do not count as crossings; the test uses strict
        orientation signs.  Only edge pairs whose bounding boxes overlap
        can cross, so the edges are swept in order of their minimum x
        (Shamos & Hoey, FOCS 1976): each edge is paired with the later
        edges that start inside its x-extent, pairs whose y-extents miss
        are dropped, and the survivors get the orientation test.  Cost
        is O(n log n + k) for k pairs with overlapping bounding boxes,
        which is O(n^2) time for adversarial outlines such as a zig-zag
        whose edges all span the same x-range.

        The pairs are listed by offset: for d = 1, 2, ... each edge that
        overlaps the edge d places on in the sorted order is paired with
        it, ``_PAIR_CHUNK`` pairs at a time, returning at the first piece
        with a crossing, so memory stays O(n) however large k is.  The
        orientation tests run on the kept unit-scaled frame, the vertices
        scaled into [-1, 1], so that no orientation overflows into an
        inf - inf = NaN that would compare as "no crossing", at any
        offset or size.
        """
        pts, _ = self._unit_scaled()
        n = len(pts)
        x = pts[:, 0]
        y = pts[:, 1]
        x_next = np.concatenate((x[1:], x[:1]))
        y_next = np.concatenate((y[1:], y[:1]))
        order = np.argsort(np.minimum(x, x_next), kind="stable")
        ax, ay = x[order], y[order]
        bx, by = x_next[order], y_next[order]
        x_lo = np.minimum(ax, bx)
        x_hi = np.maximum(ax, bx)
        y_lo = np.minimum(ay, by)
        y_hi = np.maximum(ay, by)
        # Sorted edge i overlaps in x exactly the next reach[i] - 1 edges.
        # In order of falling reach, the edges that reach past offset d
        # are a prefix of by_reach, counts[d] long; their y-extents are
        # kept in that order, so that a piece reads them as slices.
        reach = np.searchsorted(x_lo, x_hi, side="right") - np.arange(n)
        by_reach = np.argsort(-reach, kind="stable")
        falling = reach[by_reach]
        counts = np.searchsorted(-falling, -np.arange(falling[0]), side="left")
        lo_i, hi_i = y_lo[by_reach], y_hi[by_reach]
        for d, count in enumerate(counts.tolist()[1:], start=1):
            for start in range(0, count, _PAIR_CHUNK):
                stop = min(start + _PAIR_CHUNK, count)
                i = by_reach[start:stop]
                j = i + d
                # keep the pairs whose y-extents overlap too
                near = y_lo[j] <= hi_i[start:stop]
                near &= lo_i[start:stop] <= y_hi[j]
                i = i[near]
                j = j[near]
                aix, aiy, bix, biy = ax[i], ay[i], bx[i], by[i]
                ajx, ajy, bjx, bjy = ax[j], ay[j], bx[j], by[j]
                # orientations: the z of (p - o) x (q - o), positive when q
                # lies left of the ray o -> p, for edge i as o -> p and
                # q = a_j, b_j, then for edge j and q = a_i, b_i
                ex, ey = bix - aix, biy - aiy
                d1 = ex * (ajy - aiy) - ey * (ajx - aix)
                d2 = ex * (bjy - aiy) - ey * (bjx - aix)
                ex, ey = bjx - ajx, bjy - ajy
                d3 = ex * (aiy - ajy) - ey * (aix - ajx)
                d4 = ex * (biy - ajy) - ey * (bix - ajx)
                if np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)):
                    return False
        return True
