"""Planar polygon and circular-arc sampling primitives.

Coordinates are millimetres in the cross-section plane: x across the
width, y up, origin at the section center.
"""

from __future__ import annotations

import math

import numpy as np

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
    tolerances cannot degenerate long arcs.  Angles are radians; the arc
    runs from ``start_angle`` to ``end_angle`` (increasing = CCW).

    Returns:
        ``(n + 1, 2)`` array of points including both endpoints.

    Raises:
        ValueError: on a non-positive or non-finite radius or tolerance,
            non-finite angles, or an arc that would need more than
            ``MAX_ARC_SEGMENTS`` segments.
    """
    if not math.isfinite(radius) or radius <= 0.0:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if not math.isfinite(max_sagitta) or max_sagitta <= 0.0:
        raise ValueError(
            f"max_sagitta must be positive and finite, got {max_sagitta!r}")
    if not (math.isfinite(start_angle) and math.isfinite(end_angle)):
        raise ValueError("arc angles must be finite")
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
    n = max(1, math.ceil(span / d_max), math.ceil(span / (math.pi / 3.0)))
    t = np.linspace(start_angle, end_angle, n + 1)
    return np.column_stack((cx + radius * np.cos(t), cy + radius * np.sin(t)))


def _cross(o, p, q):
    # z of (p - o) x (q - o): positive when q lies left of the ray o -> p
    return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
            - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))


class Polygon:
    """Simple closed polygon; the closing edge is implicit.

    A trailing vertex identical to the first is dropped on construction.
    Vertices are stored as a read-only ``(n, 2)`` float array.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of x, y")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polygon vertices must be finite")
        if len(pts) >= 2 and pts[0, 0] == pts[-1, 0] and pts[0, 1] == pts[-1, 1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 distinct vertices")
        pts = np.array(pts)
        pts.flags.writeable = False
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def signed_area(self) -> float:
        """Shoelace area (mm^2); positive for counter-clockwise winding."""
        x = self.points[:, 0]
        y = self.points[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

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
        whose edges all span the same x-range.  Pairs are generated and
        tested ``_PAIR_CHUNK`` at a time, returning at the first chunk
        with a crossing, so memory stays O(n) however large k is.
        """
        pts = self.points
        n = len(pts)
        nxt = np.roll(pts, -1, axis=0)
        order = np.argsort(np.minimum(pts[:, 0], nxt[:, 0]), kind="stable")
        a = pts[order]
        b = nxt[order]
        x_lo = np.minimum(a[:, 0], b[:, 0])
        x_hi = np.maximum(a[:, 0], b[:, 0])
        y_lo = np.minimum(a[:, 1], b[:, 1])
        y_hi = np.maximum(a[:, 1], b[:, 1])
        # Sorted edge i overlaps in x exactly the edges i+1 .. stop[i]-1.
        # Number those pairs row by row, row i starting at first[i], so
        # pair k of row i is edge j = i + 1 + k - first[i]; a chunk of
        # pair numbers k0 .. k1-1 then spans rows r0 .. r1-1.
        rows = np.arange(n)
        stop = np.searchsorted(x_lo, x_hi, side="right")
        first = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(stop - rows - 1, out=first[1:])
        skip = rows - first[:-1]
        total = int(first[-1])
        # Per-chunk work arrays are reused: allocated afresh, their pages
        # are faulted in again whenever the allocator has returned them to
        # the OS, which made a 20k-vertex zig-zag 2-3x slower (glibc).
        size = min(total, _PAIR_CHUNK)
        ramp = np.arange(1, size + 1)
        j_buf = np.empty(size, dtype=np.int64)
        lo_buf = np.empty(size)
        hi_buf = np.empty(size)
        near_buf = np.empty(size, dtype=bool)
        keep_buf = np.empty(size, dtype=bool)

        def take(values, index, buf):
            # index is in range by construction; "clip" skips the check
            return np.take(values, index, out=buf[:len(index)], mode="clip")

        for k0 in range(0, total, _PAIR_CHUNK):
            k1 = min(k0 + _PAIR_CHUNK, total)
            r0 = int(np.searchsorted(first, k0, side="right")) - 1
            r1 = int(np.searchsorted(first, k1 - 1, side="right"))
            i = np.repeat(rows[r0:r1], np.diff(np.clip(first[r0:r1 + 1], k0, k1)))
            j = take(skip, i, j_buf)
            j += ramp[:k1 - k0]
            j += k0
            # keep the pairs whose y-extents overlap too
            near = np.less_equal(take(y_lo, j, lo_buf), take(y_hi, i, hi_buf),
                                 out=near_buf[:k1 - k0])
            near &= np.less_equal(take(y_lo, i, lo_buf), take(y_hi, j, hi_buf),
                                  out=keep_buf[:k1 - k0])
            hits = np.flatnonzero(near)
            i = i[hits]
            j = j[hits]
            ai, bi, aj, bj = a[i], b[i], a[j], b[j]
            d1 = _cross(ai, bi, aj)
            d2 = _cross(ai, bi, bj)
            d3 = _cross(aj, bj, ai)
            d4 = _cross(aj, bj, bi)
            if np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0)):
                return False
        return True
