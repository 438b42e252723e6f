"""Numeric solving: forward model (fabrication -> geometry) and oracles.

The design direction is closed form (:mod:`crosssec.geometry`); this
module recovers geometry from fabrication parameters by scalar root
finding, and provides the brute-force grid oracle that cross-checks the
analytic area maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from ._arcmath import (center_area, center_area_derivative, check_arc,
                       strip_fit_residual)
from .errors import NoBracket, NonConvergence, OracleMismatch, check_number
from .geometry import CrossSection, DesignSpec, FabricationParams, \
    DEFAULT_ARC_RESOLUTION, _assemble

__all__ = [
    "OracleResult", "center_area", "center_area_derivative",
    "solve_center_arc_angle", "solve_side_height", "forward_geometry",
    "area_max_oracle", "MAX_GRID_POINTS",
]

#: End clearance of the oracle grid (rad).
_GRID_EPS = 1e-6

#: Newton steps before NonConvergence, a guard against unbounded time:
#: over scales 1e-3..1e6 mm, L/S_c 1e-12..1e12 and 1 - L/S_s 10^-15.5..1
#: the center solve stops within 6 steps and the side solve within 8
#: (tests/test_solver.py::TestStepCount).
_MAX_STEPS = 200

#: Largest oracle grid.  The scan evaluates about 10**4 of its angles,
#: in 0.25 ms (2-CPU Xeon VM), whatever L / S_c.
MAX_GRID_POINTS = 100_000_000


@dataclass(frozen=True)
class OracleResult:
    """Brute-force area-maximum scan versus the analytic root.

    Attributes:
        grid_argmax: Angle of the raw grid maximum (rad); ties keep the
            smallest angle.
        analytic_root: Root of the strip-fit residual (rad).
        area_at_argmax: Center area at ``grid_argmax`` (mm^2).
        grid_step: Grid spacing (rad).
        parabolic_argmax: One parabolic refinement of the argmax through
            its grid neighbors, for reporting only; the agreement
            guarantee applies to the raw grid value.

    Invariant on construction by :func:`area_max_oracle`:
    ``|grid_argmax - clamp(analytic_root)| <= grid_step``, the root clamped
    to the grid's span ``[1e-6, 2*pi - 1e-6]``; a root inside it is not
    moved.
    """

    grid_argmax: float
    analytic_root: float
    area_at_argmax: float
    grid_step: float
    parabolic_argmax: float

    @property
    def agreement(self) -> bool:
        """Whether the invariant above holds."""
        nearest = min(max(self.analytic_root, _GRID_EPS),
                      2.0 * math.pi - _GRID_EPS)
        return abs(self.grid_argmax - nearest) <= self.grid_step


def _newton(step, x: float, channel: str) -> float:
    """Newton's method, with no bracket, from ``x`` right of the root of f.

    ``step(x)`` is ``f(x) / f'(x)`` for an f concave and decreasing between
    its root and ``x``, so the iterates fall monotonically onto the root.
    Stops at the first step that does not move left: roundoff has reached
    the root.

    Raises:
        NonConvergence: still moving after ``_MAX_STEPS`` steps, tagged
            with ``channel``.
    """
    for _ in range(_MAX_STEPS):
        x_next = x - step(x)
        if not x_next < x:
            return x
        x = x_next
    raise NonConvergence(f"Newton solve still moving after {_MAX_STEPS} "
                         "steps", channel=channel)


def solve_center_arc_angle(arc_length: float, strip_width: float) -> float:
    """Arc angle at which the center arcs fit the strip width (rad).

    Roots ``strip_fit_residual(1.0, rho, theta)``, ``rho = strip_width /
    arc_length``, by Newton from ``min(pi, 2 / rho)``: the root lies left of
    both, as ``cos(theta/2) = rho theta/2 < 1``.  A zero strip width
    returns pi exactly.

    Raises:
        ValueError: arc_length <= 0, strip_width < 0, or a non-finite or
            non-numeric input.
        NoBracket: the strip so dwarfs the arcs that the angle underflows.
        NonConvergence: the solve was still moving after ``_MAX_STEPS``
            steps, which no tested input comes near.
    """
    arc_length, strip_width = check_arc(arc_length, strip_width)
    rho = strip_width / arc_length
    theta = math.pi if rho * math.pi <= 2.0 else 2.0 / rho
    if theta == 0.0:  # 2 / rho underflowed
        raise NoBracket(f"strip width {strip_width:.9g} leaves the center arc "
                        f"{arc_length:.9g} no float angle", channel="center")
    return _newton(  # the residual's slope is -(sin(theta/2) + rho) / 2
        lambda t: -2.0 * strip_fit_residual(1.0, rho, t) / (math.sin(0.5 * t) + rho),
        theta, "center")


def _sine_deficit(u: float) -> float:
    # u - sin(u); below 0.5 by its Taylor series, where the difference cancels
    if u >= 0.5:
        return u - math.sin(u)
    t = u * u
    return u * t * (1 / 6 - t / 120 + t**2 / 5040 - t**3 / 362880
                    + t**4 / 39916800 - t**5 / 6227020800 + t**6 / 1307674368000)


def solve_side_height(arc_length: float, strip_width: float) -> float:
    """Side-channel height whose arc of given length spans the strip chord.

    Solves ``strip_width = H sin(arc_length / H)`` with the side arc angle
    ``2 arc_length / H`` in (0, 2*pi]: in ``u = arc_length / H`` and the
    slack ``eps = 1 - strip_width / arc_length``, the concave
    ``eps u - (u - sin u) = 0`` on (0, pi], with no cancellation as
    ``strip_width -> arc_length``.  Newton starts at pi, or for
    ``eps < 5/12`` at the root of ``u^2/6 - u^4/120 = eps``, right of the
    root as the series alternates.  A zero strip width returns
    ``arc_length / pi`` exactly.

    Raises:
        ValueError: arc_length <= 0, strip_width < 0, or a non-finite or
            non-numeric input.
        NoBracket: strip_width >= arc_length.
        NonConvergence: the solve was still moving after ``_MAX_STEPS``
            steps, which no tested input comes near.
    """
    arc_length, strip_width = check_arc(arc_length, strip_width)
    if strip_width >= arc_length:
        # the chord of an arc is strictly shorter than the arc
        raise NoBracket(f"strip width {strip_width:.9g} leaves no slack in the "
                        f"membrane arc {arc_length:.9g}", channel="side")
    # exact difference once strip_width >= arc_length / 2 (Sterbenz)
    slack = (arc_length - strip_width) / arc_length
    u = math.pi if slack >= 5.0 / 12.0 else math.sqrt(
        120.0 * slack / (10.0 + math.sqrt(100.0 - 120.0 * slack)))
    return arc_length / _newton(
        lambda v: (slack * v - _sine_deficit(v)) / (slack - 2.0 * math.sin(0.5 * v)**2),
        u, "side")


def forward_geometry(fab: FabricationParams,
                     arc_resolution: float = DEFAULT_ARC_RESOLUTION) -> CrossSection:
    """Inflated geometry realized by the given fabrication parameters.

    Solves both channels against the shared strip width, then assembles
    the full section; the recovered spec round-trips through the
    closed-form inverse.  Solver failures carry which channel raised.

    Raises:
        NoBracket / NonConvergence: from either channel's solve, tagged
            with the channel name.
    """
    theta_c = solve_center_arc_angle(fab.center_arc_length, fab.strip_width)
    center_height = 2.0 * fab.center_arc_length / theta_c
    side_height = solve_side_height(fab.side_arc_length, fab.strip_width)
    width_c = center_height * math.sin(fab.center_arc_length / center_height)
    theta_s = 2.0 * fab.side_arc_length / side_height
    width_s = 0.5 * side_height * (1.0 + math.cos(math.pi - 0.5 * theta_s))
    spec = DesignSpec(center_height, side_height, width_c + 2.0 * width_s)
    return _assemble(spec, fab, arc_resolution)


def area_max_oracle(arc_length: float, strip_width: float,
                    grid_points: int = 1_000_000) -> OracleResult:
    """Brute-force check that the strip-fit angle maximizes center area.

    Scans the center-area function on a uniform grid over
    (1e-6, 2*pi - 1e-6) rad and compares the raw grid argmax against the
    analytic root, clamped to that span (a root below 1e-6 rad, from a
    strip far wider than the arc, is compared with the first grid angle).
    The scan (:mod:`crosssec.kernels`) takes the angles below 1e-4 rad
    whole.  Above them it samples the area every ``grid_points**(2/3)``
    or so angles, then every ``grid_points**(1/3)`` or so inside the
    blocks that the area's curvature does not rule out, and scans only
    the few blocks left, scaled so that no area over- or underflows; the
    argmax is bit for bit that of a float64 scan of the whole grid.  Its
    buffers hold about 2 MB at most, and ties keep the smallest angle.

    Raises:
        ValueError: grid_points not an integer from 1000 to
            MAX_GRID_POINTS, bad scalars, or an area at the argmax beyond
            the float range.
        OracleMismatch: argmax farther than one grid step from the
            clamped root; indicates a bug, never a property of valid
            inputs.
    """
    grid_points = check_number(grid_points, "grid_points", "integer")
    if grid_points < 1000:
        raise ValueError(f"grid_points >= 1000 required, got {grid_points!r}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points <= {MAX_GRID_POINTS} required, got {grid_points:.9g}")
    arc_length, strip_width = check_arc(arc_length, strip_width)
    root = solve_center_arc_angle(arc_length, strip_width)
    lo = _GRID_EPS
    hi = 2.0 * math.pi - _GRID_EPS
    idx, theta, _ = kernels.center_area_grid_argmax(
        arc_length, strip_width, grid_points, lo, hi)
    step = (hi - lo) / (grid_points - 1)
    parabolic = theta
    f_0 = center_area(arc_length, strip_width, theta)
    if 0 < idx < grid_points - 1:
        f_m = center_area(arc_length, strip_width, theta - step)
        f_p = center_area(arc_length, strip_width, theta + step)
        denom = f_m - 2.0 * f_0 + f_p
        if denom != 0.0:
            offset = 0.5 * step * (f_m - f_p) / denom
            if abs(offset) <= step:
                parabolic = theta + offset
    result = OracleResult(
        grid_argmax=theta,
        analytic_root=root,
        area_at_argmax=f_0,
        grid_step=step,
        parabolic_argmax=parabolic,
    )
    if not result.agreement:
        nearest = min(max(root, lo), hi)
        raise OracleMismatch(
            f"grid argmax {theta!r} vs analytic root {root!r} differ by "
            f"{abs(theta - nearest):.3g} > grid step {step:.3g}")
    if math.isinf(result.area_at_argmax):
        raise ValueError("center area at the grid argmax overflows the "
                         "float range")
    return result
