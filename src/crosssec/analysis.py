"""Design-space analysis: ergonomics, sweeps, forces, measured-vs-model.

Works on top of the geometry and solver layers; nothing here mutates its
inputs, and sweep output order is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePolygon, SolverError, check_number
from .geometry import CrossSection, FabricationParams
# unused: kept so that perfbench's tracer still resolves this hook name
from .geometry import side_channel_polygon  # noqa: F401
from .polygon import Polygon
from .solver import forward_geometry

#: Largest sweep, in (S_c, L) cells.  A cell of a paper-scale sweep takes
#: about 50 us and 0.5 KB (2-CPU Xeon VM), so a capped sweep ends in about
#: 5 s within 100 MB at that scale only: each cell samples its side arc at
#: a fixed 1e-4 mm sagitta, so its cost grows with its size (one cell at a
#: perimeter of 2e9 mm takes up to about 0.15 s and 160 MB).  A closed-form
#: side area would remove that dependence.
MAX_SWEEP_CELLS = 100_000


@dataclass(frozen=True)
class ErgonomicReport:
    """Flatness measure of the section's upper profile.

    The straighter the line from the side-channel apex to the
    center-channel apex, the gentler the pressure gradient on a payload
    resting across the section; the index is the inverse slope magnitude
    of that line, so flatter is larger.

    Attributes:
        side_peak: Apex of a side channel, (w/2 - H_s/2, H_s/2) (mm).
        center_peak: Apex of the center channel, (0, H_c/2) (mm).
        slope: Signed rise over run from side peak to center peak.
        index: 1 / |slope|; +inf when the heights match exactly
            (serialized as the string "inf").
    """

    side_peak: tuple[float, float]
    center_peak: tuple[float, float]
    slope: float
    index: float


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated (S_c, L) cell of a constant-perimeter sweep.

    Geometry fields are None when the cell is infeasible; the reason
    string then says which relation failed.  CSV serialization mirrors
    the symbol names (``S_c_mm,L_mm,S_s_mm,H_c_mm,H_s_mm,w_mm,...``).
    """

    center_arc_length: float
    strip_width: float
    side_arc_length: float
    center_height: float | None
    side_height: float | None
    width: float | None
    ergonomic_index: float | None
    failure_reason: str | None

    @property
    def feasible(self) -> bool:
        """True iff the cell has geometry (no failure reason)."""
        return self.failure_reason is None


def ergonomic_index(section: CrossSection) -> ErgonomicReport:
    """Upper-profile flatness of a section; larger is flatter."""
    r_c = section.center.radius
    r_s = section.side.radius
    side_peak = (0.5 * section.width - r_s, r_s)
    center_peak = (0.0, r_c)
    slope = (center_peak[1] - side_peak[1]) / (center_peak[0] - side_peak[0])
    index = math.inf if slope == 0.0 else 1.0 / abs(slope)
    return ErgonomicReport(side_peak=side_peak, center_peak=center_peak,
                           slope=slope, index=index)


def _nan_last(value: float) -> tuple[bool, float]:
    return math.isnan(value), value


def sweep_constant_perimeter(perimeter: float,
                             center_arc_lengths,
                             strip_widths) -> tuple[SweepRecord, ...]:
    """Evaluate every (S_c, L) cell at a fixed membrane perimeter.

    The side arc length of each cell is ``perimeter / 2 - S_c``.  Grids
    are sorted ascending, NaN entries last, and iterated S_c-major then L,
    so the row order depends only on the grid values.  Infeasible cells
    are recorded with a reason, never dropped.

    Raises:
        ValueError: non-positive or non-finite perimeter, a grid entry
            that is not a number, empty grids, or more than
            ``MAX_SWEEP_CELLS`` cells.
    """
    perimeter = check_number(perimeter, "perimeter", "positive")
    arcs = sorted((check_number(v, "center arc length", "real")
                   for v in center_arc_lengths), key=_nan_last)
    strips = sorted((check_number(v, "strip width", "real")
                     for v in strip_widths), key=_nan_last)
    if not arcs or not strips:
        raise ValueError("center_arc_lengths and strip_widths must be non-empty")
    if len(arcs) * len(strips) > MAX_SWEEP_CELLS:
        raise ValueError(
            f"sweep of {len(arcs)} x {len(strips)} cells exceeds "
            f"MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}")
    records = []
    for s_c in arcs:
        s_s = 0.5 * perimeter - s_c
        for l in strips:
            records.append(_sweep_cell(s_c, s_s, l))
    return tuple(records)


def _sweep_cell(s_c: float, s_s: float, l: float) -> SweepRecord:
    reason = None
    if s_s <= 0.0:
        reason = f"side arc length {s_s:.9g} <= 0 at this perimeter"
    elif l < 0.0:
        reason = "strip width < 0"
    else:
        try:
            section = forward_geometry(FabricationParams(s_c, s_s, l))
        except (SolverError, ValueError) as exc:
            reason = str(exc)
        else:
            return SweepRecord(
                center_arc_length=s_c, strip_width=l, side_arc_length=s_s,
                center_height=section.spec.center_height,
                side_height=section.spec.side_height,
                width=section.width,
                ergonomic_index=ergonomic_index(section).index,
                failure_reason=None)
    return SweepRecord(
        center_arc_length=s_c, strip_width=l, side_arc_length=s_s,
        center_height=None, side_height=None, width=None,
        ergonomic_index=None, failure_reason=reason)


def eversion_force(pressure_kpa: float, area_mm2: float) -> float:
    """Eversion force of the pressurized section, N.

    F = P * A with P in kPa (1e-3 N/mm^2) and A in mm^2, so
    F = 1e-3 * P * A.

    Raises:
        ValueError: negative, non-finite or non-numeric input.
    """
    return (1e-3 * check_number(pressure_kpa, "pressure", "non-negative")
            * check_number(area_mm2, "area", "non-negative"))


def total_area(section: CrossSection) -> float:
    """Total enclosed area A_c + 2 A_s (mm^2) of the built section.

    Both areas are the ones the section holds: the center area is closed
    form, and the side area was sampled once, at the resolution the
    section was built with.
    """
    return section.center.area + 2.0 * section.side.area


def area_ratio(measured: Polygon, section: CrossSection) -> float:
    """Measured outline area divided by the section's :func:`total_area`.

    ``measured`` must wind counter-clockwise (positive shoelace area) and
    be free of proper self-crossings; scan ingestion normalizes winding
    before this check.

    Raises:
        DegeneratePolygon: non-positive area or self-intersecting outline.
    """
    signed = measured.signed_area()
    if signed <= 0.0:
        raise DegeneratePolygon(
            f"measured outline has non-positive area {signed:.9g}")
    if not measured.is_simple():
        raise DegeneratePolygon("measured outline crosses itself")
    return signed / total_area(section)
