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
    DEFAULT_ARC_RESOLUTION, _assemble, _check_fields

__all__ = [
    "RootFindConfig", "OracleResult", "center_area", "center_area_derivative",
    "solve_center_arc_angle", "solve_side_height", "forward_geometry",
    "area_max_oracle", "MAX_GRID_POINTS",
]

#: End clearance of the oracle grid (rad).
_GRID_EPS = 1e-6

#: Largest oracle grid; a scan costs about 35 ns per point on one CPU and
#: about 20 ns on two (2-CPU Xeon VM), so this one takes 2 to 4 s.
MAX_GRID_POINTS = 100_000_000


@dataclass(frozen=True)
class RootFindConfig:
    """Stopping rules for the Newton solves of both channels.

    Attributes:
        abs_tol: Newton-step stop in the root variable's units (rad),
            positive and finite; None (default) iterates until the step
            stops shrinking toward the root, i.e. to roundoff.
        max_iter: Iteration budget before NonConvergence, an integer >= 1;
            each iteration evaluates the residual once.
    """

    abs_tol: float | None = None
    max_iter: int = 200

    def __post_init__(self):
        if self.abs_tol is not None:
            _check_fields(self, "positive", "abs_tol")
        _check_fields(self, "integer", "max_iter")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


DEFAULT_CONFIG = RootFindConfig()


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
    ``|grid_argmax - analytic_root| <= grid_step``.
    """

    grid_argmax: float
    analytic_root: float
    area_at_argmax: float
    grid_step: float
    parabolic_argmax: float


def _newton(step, x: float, cfg: RootFindConfig, channel: str) -> float:
    """Newton's method, with no bracket, from ``x`` right of the root of f.

    ``step(x)`` is ``f(x) / f'(x)`` for an f concave and decreasing between
    its root and ``x``, so the iterates fall monotonically onto the root.
    Stops at the first step that does not move left (roundoff has reached
    the root) or, given ``cfg.abs_tol``, at a step that short.
    """
    for _ in range(cfg.max_iter):
        x_next = x - step(x)
        if not x_next < x:
            return x
        if cfg.abs_tol is not None and x - x_next <= cfg.abs_tol:
            return x_next
        x = x_next
    raise NonConvergence(f"Newton solve still moving after {cfg.max_iter} "
                         "steps", channel=channel)


def solve_center_arc_angle(arc_length: float, strip_width: float,
                           cfg: RootFindConfig = DEFAULT_CONFIG) -> float:
    """Arc angle at which the center arcs fit the strip width (rad).

    Roots ``strip_fit_residual(1.0, rho, theta)``, ``rho = strip_width /
    arc_length``, by Newton from ``min(pi, 2 / rho)``: the root lies left of
    both, as ``cos(theta/2) = rho theta/2 < 1``.  A zero strip width
    returns pi exactly.

    Raises:
        ValueError: arc_length <= 0, strip_width < 0, or a non-finite or
            non-numeric input.
        NoBracket: the strip so dwarfs the arcs that the angle underflows.
        NonConvergence: the iteration budget ran out.
    """
    arc_length, strip_width = check_arc(arc_length, strip_width)
    rho = strip_width / arc_length
    theta = math.pi if rho * math.pi <= 2.0 else 2.0 / rho
    if theta == 0.0:  # 2 / rho underflowed
        raise NoBracket(f"strip width {strip_width:.9g} leaves the center arc "
                        f"{arc_length:.9g} no float angle", channel="center")
    return _newton(  # the residual's slope is -(sin(theta/2) + rho) / 2
        lambda t: -2.0 * strip_fit_residual(1.0, rho, t) / (math.sin(0.5 * t) + rho),
        theta, cfg, "center")


def _sine_deficit(u: float) -> float:
    # u - sin(u); below 0.5 by its Taylor series, where the difference cancels
    if u >= 0.5:
        return u - math.sin(u)
    t = u * u
    return u * t * (1 / 6 - t / 120 + t**2 / 5040 - t**3 / 362880
                    + t**4 / 39916800 - t**5 / 6227020800 + t**6 / 1307674368000)


def solve_side_height(arc_length: float, strip_width: float,
                      cfg: RootFindConfig = DEFAULT_CONFIG) -> float:
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
        NonConvergence: the iteration budget ran out.
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
        u, cfg, "side")


def forward_geometry(fab: FabricationParams,
                     cfg: RootFindConfig = DEFAULT_CONFIG,
                     arc_resolution: float = DEFAULT_ARC_RESOLUTION) -> CrossSection:
    """Inflated geometry realized by the given fabrication parameters.

    Solves both channels against the shared strip width, then assembles
    the full section; the recovered spec round-trips through the
    closed-form inverse.  Solver failures carry which channel raised.

    Raises:
        NoBracket / NonConvergence: from either channel's solve, tagged
            with the channel name.
    """
    theta_c = solve_center_arc_angle(fab.center_arc_length, fab.strip_width, cfg)
    center_height = 2.0 * fab.center_arc_length / theta_c
    side_height = solve_side_height(fab.side_arc_length, fab.strip_width, cfg)
    width_c = center_height * math.sin(fab.center_arc_length / center_height)
    theta_s = 2.0 * fab.side_arc_length / side_height
    width_s = 0.5 * side_height * (1.0 + math.cos(math.pi - 0.5 * theta_s))
    spec = DesignSpec(center_height, side_height, width_c + 2.0 * width_s)
    return _assemble(spec, fab, arc_resolution)


def area_max_oracle(arc_length: float, strip_width: float,
                    grid_points: int = 1_000_000,
                    cfg: RootFindConfig = DEFAULT_CONFIG) -> OracleResult:
    """Brute-force check that the strip-fit angle maximizes center area.

    Scans the center-area function on a uniform grid over
    (1e-6, 2*pi - 1e-6) rad and compares the raw grid argmax against the
    analytic root.  The scan (:mod:`crosssec.kernels`) runs on one thread
    per usable CPU (fewer on small grids), in chunks that share a fixed
    budget of about 2 MB, so its memory grows neither with
    ``grid_points`` nor with the CPU count.  Ties keep the smallest
    angle, and the result is bit for bit the same on any number of CPUs.

    Raises:
        ValueError: grid_points not an integer from 1000 to
            MAX_GRID_POINTS, or bad scalars.
        OracleMismatch: argmax farther than one grid step from the root;
            indicates a bug, never a property of valid inputs.
    """
    grid_points = check_number(grid_points, "grid_points", "integer")
    if grid_points < 1000:
        raise ValueError(f"grid_points >= 1000 required, got {grid_points!r}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points <= {MAX_GRID_POINTS} required, got {grid_points:.9g}")
    arc_length, strip_width = check_arc(arc_length, strip_width)
    root = solve_center_arc_angle(arc_length, strip_width, cfg)
    lo = _GRID_EPS
    hi = 2.0 * math.pi - _GRID_EPS
    idx, theta, _ = kernels.center_area_grid_argmax(
        arc_length, strip_width, grid_points, lo, hi)
    step = (hi - lo) / (grid_points - 1)
    parabolic = theta
    if 0 < idx < grid_points - 1:
        f_m = center_area(arc_length, strip_width, theta - step)
        f_0 = center_area(arc_length, strip_width, theta)
        f_p = center_area(arc_length, strip_width, theta + step)
        denom = f_m - 2.0 * f_0 + f_p
        if denom != 0.0:
            offset = 0.5 * step * (f_m - f_p) / denom
            if abs(offset) <= step:
                parabolic = theta + offset
    if abs(theta - root) > step:
        raise OracleMismatch(
            f"grid argmax {theta!r} vs analytic root {root!r} differ by "
            f"{abs(theta - root):.3g} > grid step {step:.3g}")
    return OracleResult(
        grid_argmax=theta,
        analytic_root=root,
        area_at_argmax=center_area(arc_length, strip_width, theta),
        grid_step=step,
        parabolic_argmax=parabolic,
    )
