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

#: Open lower end of the center-angle bracket (rad).
_ANGLE_EPS = 1e-9

#: End clearance of the oracle grid (rad).
_GRID_EPS = 1e-6

#: Largest oracle grid; a scan costs about 35 ns per point on one CPU and
#: about 20 ns on two (2-CPU Xeon VM), so this one takes 2 to 4 s.
MAX_GRID_POINTS = 100_000_000


@dataclass(frozen=True)
class RootFindConfig:
    """Tolerances for the bracketed scalar solves.

    Attributes:
        abs_tol: Bracket-width stop in the root variable's units, positive
            and finite; None (default) means 1e-12 of the initial bracket
            width.
        max_iter: Iteration budget before NonConvergence, an integer >= 1.
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


def _bracketed_root(f, lo, hi, cfg: RootFindConfig, what: str,
                    channel: str | None = None) -> float:
    """Bisection/secant hybrid on a sign-changing bracket.

    Alternates a safeguarded secant step with a plain bisection step, so
    the bracket provably halves at least every other iteration while the
    secant supplies the fast local convergence.  Derivative-free and
    deterministic.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoBracket(
            f"{what}: no sign change on [{lo:.9g}, {hi:.9g}]", channel=channel)
    tol = cfg.abs_tol if cfg.abs_tol is not None else 1e-12 * (hi - lo)
    for iteration in range(cfg.max_iter):
        if hi - lo <= tol:
            return lo + 0.5 * (hi - lo)
        mid = lo + 0.5 * (hi - lo)
        x = mid
        if iteration % 2 == 0 and f_hi != f_lo:
            secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo < secant < hi:
                x = secant
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    raise NonConvergence(
        f"{what}: bracket width {hi - lo:.3g} still above {tol:.3g} "
        f"after {cfg.max_iter} iterations", channel=channel)


def solve_center_arc_angle(arc_length: float, strip_width: float,
                           cfg: RootFindConfig = DEFAULT_CONFIG) -> float:
    """Arc angle at which the center arcs fit the strip width (rad).

    Roots ``strip_fit_residual`` on the bracket (1e-9, pi], where the
    residual is strictly decreasing and the root unique.  A zero strip
    width puts the root exactly at pi; that endpoint is returned directly
    whenever the residual at pi is already non-negative, which also
    absorbs the floating-point noise of cos(pi/2).

    Raises:
        ValueError: arc_length <= 0, strip_width < 0, or a non-finite or
            non-numeric input.
        NoBracket / NonConvergence: from the root finder.
    """
    arc_length, strip_width = check_arc(arc_length, strip_width)
    if strip_fit_residual(arc_length, strip_width, math.pi) >= 0.0:
        return math.pi
    return _bracketed_root(
        lambda theta: strip_fit_residual(arc_length, strip_width, theta),
        _ANGLE_EPS, math.pi, cfg, "center arc angle", channel="center")


def solve_side_height(arc_length: float, strip_width: float,
                      cfg: RootFindConfig = DEFAULT_CONFIG) -> float:
    """Side-channel height whose arc of given length spans the strip chord.

    Solves ``strip_width = H sin(arc_length / H)`` for H on the physical
    domain where the side arc angle ``2 arc_length / H`` stays within
    (0, 2*pi], by rooting in ``u = arc_length / H`` on (1e-12, pi].  On
    that domain the residual is strictly monotone, so the root is unique.
    A zero strip width returns the full-circle solution
    ``arc_length / pi`` exactly.

    Raises:
        ValueError: arc_length <= 0, strip_width < 0, or a non-finite or
            non-numeric input.
        NoBracket: strip_width >= arc_length.
        NonConvergence: from the root finder.
    """
    arc_length, strip_width = check_arc(arc_length, strip_width)
    if strip_width >= arc_length:
        # the chord of an arc is strictly shorter than the arc, and near
        # equality the residual underflows to an exact endpoint zero
        raise NoBracket(
            f"strip width {strip_width:.9g} leaves no slack in the "
            f"membrane arc {arc_length:.9g}", channel="side")

    def residual(u):
        # u = arc_length / H, half the side arc angle
        return arc_length * math.sin(u) / u - strip_width

    if residual(math.pi) >= 0.0:
        # sin(pi) rounds to +1.2e-16, so a zero strip width leaves no sign
        # change; the root is the full-circle endpoint itself.
        return arc_length / math.pi
    u = _bracketed_root(residual, 1e-12, math.pi, cfg, "side height",
                        channel="side")
    return arc_length / u


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
