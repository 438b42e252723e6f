"""Deterministic SVG rendering of a cross section.

One SVG user unit is one millimetre.  Geometry is emitted in the math
frame (x right, y up) with y negated at emission, so the section appears
upright while text stays unflipped.  Arcs are genuine path arc commands:
one per center arc and two per side arc (split at the outermost point, so
a full-circle side channel is still representable).  All numbers pass
through one fixed formatter and nothing time- or environment-dependent is
written, so identical sections give identical bytes.
"""

from __future__ import annotations

import math

from .geometry import CrossSection
from .serialize import fmt


def _f(value: float) -> str:
    # snap rounding dust (and -0.0) so coordinates print cleanly
    return f"{0.0 if -1e-9 < value < 1e-9 else value:.9g}"


def _arc_path(cx: float, cy: float, radius: float, angles, css: str) -> str:
    """Path for a CCW arc through ``angles``, one A command per step.

    CCW traversal in the math frame becomes sweep flag 0 after the y
    flip; each step spans at most pi, so the large-arc flag is 0.
    """
    points = [(cx + radius * math.cos(a), cy + radius * math.sin(a))
              for a in angles]
    d = f"M {_f(points[0][0])} {_f(-points[0][1])}"
    for x, y in points[1:]:
        d += f" A {_f(radius)} {_f(radius)} 0 0 0 {_f(x)} {_f(-y)}"
    return f'<path class="{css}" d="{d}"/>'


def _cross(x: float, y: float, size: float) -> str:
    d = (f"M {_f(x - size)} {_f(-y)} L {_f(x + size)} {_f(-y)} "
         f"M {_f(x)} {_f(-(y - size))} L {_f(x)} {_f(-(y + size))}")
    return f'<path class="cross" d="{d}"/>'


def _label(x: float, y: float, text: str, anchor: str = "middle") -> str:
    return (f'<text class="dim" x="{_f(x)}" y="{_f(-y)}" '
            f'text-anchor="{anchor}">{text}</text>')


def render_svg(section: CrossSection) -> str:
    """Render the section; returns the SVG document as a string."""
    center = section.center
    side = section.side
    w = section.width
    r_c, r_s = center.radius, side.radius
    y_max = max(r_c, r_s)
    half_c = 0.5 * center.arc_angle
    up = 0.5 * math.pi
    half_s = 0.5 * side.arc_angle
    cx = side.center_x
    stroke = 0.004 * w
    font = 0.035 * w

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_f(w)}mm" height="{_f(2.0 * y_max)}mm" '
        f'viewBox="{_f(-0.5 * w)} {_f(-y_max)} {_f(w)} {_f(2.0 * y_max)}">',
        f"<style>.membrane{{fill:none;stroke:#1a1a1a;stroke-width:{_f(stroke)}}}"
        f".strip{{stroke:#666666;stroke-width:{_f(stroke)};"
        f"stroke-dasharray:{_f(3.0 * stroke)} {_f(2.0 * stroke)}}}"
        f".cross{{fill:none;stroke:#bb2222;stroke-width:{_f(0.5 * stroke)}}}"
        f".dim{{font-family:sans-serif;font-size:{_f(font)}px;fill:#1a1a1a}}"
        "</style>",
        # membrane: center arcs (one A command each), then side arcs split
        # at their outermost point (two each)
        _arc_path(0.0, 0.0, r_c, (up - half_c, up + half_c),
                  "membrane center-arc"),
        _arc_path(0.0, 0.0, r_c, (-up - half_c, -up + half_c),
                  "membrane center-arc"),
        _arc_path(cx, 0.0, r_s, (-half_s, 0.0, half_s), "membrane side-arc"),
        _arc_path(-cx, 0.0, r_s, (math.pi - half_s, math.pi, math.pi + half_s),
                  "membrane side-arc"),
    ]
    for (x, y0), (_, y1) in section.strip_segments:
        parts.append(f'<line class="strip" x1="{_f(x)}" y1="{_f(-y0)}" '
                     f'x2="{_f(x)}" y2="{_f(-y1)}"/>')
    cross_size = 0.015 * w
    for x in (0.0, cx, -cx):
        parts.append(_cross(x, 0.0, cross_size))
    parts.extend([
        _label(0.03 * w, -0.45 * font, f"H_c = {fmt(2.0 * r_c, 6)}", "start"),
        _label(cx, -1.8 * font, f"H_s = {fmt(2.0 * r_s, 6)}"),
        _label(0.0, -0.92 * y_max, f"w = {fmt(w, 6)}"),
        _label(0.0, 0.55 * r_c, f"w_c = {fmt(center.width, 6)}"),
        "</svg>",
    ])
    return "\n".join(parts) + "\n"
