"""Canonical serialization: stable bytes for identical inputs.

JSON and CSV field names mirror the symbol vocabulary with unit suffixes
(``H_c_mm``, ``S_c_mm``, ``theta_c_rad``).  Every JSON float is written
as the ``repr`` of its rounding to 9 significant digits, keys are sorted
and newlines are LF, so serialize -> parse -> serialize is idempotent
and repeated runs are byte-identical.  Infinities (the ergonomic index
when the channel heights match) serialize as the strings ``"inf"`` /
``"-inf"``.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .analysis import SweepRecord, ergonomic_index
from .geometry import (CrossSection, DesignSpec, FabricationParams,
                       FeasibilityReport)
from .polygon import Polygon
from .solver import OracleResult

#: The bytes of a comma and of a line feed.
_COMMA, _LF = b",\n"

SWEEP_CSV_HEADER = ("S_c_mm", "L_mm", "S_s_mm", "H_c_mm", "H_s_mm", "w_mm",
                    "ergonomic_index", "feasible", "reason")


def fmt(value: float, digits: int = 9) -> str:
    """Format a float at ``digits`` significant digits; inf -> "inf"."""
    return f"{value:.{digits}g}"


def to_json(obj) -> str:
    """Canonical JSON text (sorted keys, 2-space indent, trailing LF).

    The text is that of ``json.dumps(..., indent=2, sort_keys=True,
    allow_nan=False)`` for the tree with every float replaced by its
    9-significant-digit rounding and every infinity by ``"inf"`` /
    ``"-inf"``, written in one walk.

    Raises:
        ValueError: a NaN, or an infinite float key.
        TypeError: a value, or a key, that JSON has no form for.
    """
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str], newline: str) -> None:
    """Append the JSON text of ``obj``, nested at indent ``newline``."""
    # no object is an instance of two of these types, bool aside
    if isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + (_encode_str(key) if isinstance(key, str)
                              else _key_text(key)) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    """``float.__repr__`` of ``value`` rounded to 9 significant digits;
    ``"inf"`` / ``"-inf"`` as JSON strings; ValueError for NaN.

    A normal double's ``.9g`` digits are the digits ``repr`` prints (any
    decimal of at most 15 significant digits round-trips), so only the
    layout differs: ``repr`` adds ``.0`` to integral values and prints
    exponents 9 to 15 positionally.
    """
    text = f"{value:.9g}"
    if "e" in text:
        exponent = int(text[text.index("e") + 1:])
        # at the ends of the range repr gets its own digits: subnormals
        # (from exponent -308 down) keep fewer than 9
        if 9 <= exponent <= 15 or not -308 < exponent < 308:
            return float.__repr__(float(text))
        return text
    if "." in text:
        return text
    if value != value:
        raise ValueError(
            f"Out of range float values are not JSON compliant: {value!r}")
    if text[-1] == "f":
        return f'"{text}"'
    return text + ".0"


def _key_text(key) -> str:
    """A non-string dict key as ``json.dumps`` writes it: the unrounded
    JSON text of a float, int, bool or None key, as a string."""
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key, allow_nan=False))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def spec_to_dict(spec: DesignSpec) -> dict:
    return {
        "H_c_mm": spec.center_height,
        "H_s_mm": spec.side_height,
        "w_mm": spec.width,
    }


def fab_to_dict(fab: FabricationParams) -> dict:
    return {
        "S_c_mm": fab.center_arc_length,
        "S_s_mm": fab.side_arc_length,
        "L_mm": fab.strip_width,
    }


def report_to_dict(report: FeasibilityReport) -> dict:
    return {
        "feasible": report.feasible,
        "violations": list(report.violations),
    }


def section_to_dict(section: CrossSection) -> dict:
    center = section.center
    side = section.side
    return {
        "spec": spec_to_dict(section.spec),
        "fab": fab_to_dict(section.fab),
        "center": {
            "radius_mm": center.radius,
            "arc_angle_rad": center.arc_angle,
            "chord_angle_rad": center.chord_angle,
            "width_mm": center.width,
            "area_mm2": center.area,
        },
        "side": {
            "radius_mm": side.radius,
            "arc_angle_rad": side.arc_angle,
            "conjugate_angle_rad": side.conjugate_angle,
            "conjugate_arc_length_mm": side.conjugate_arc_length,
            "width_mm": side.width,
            "center_x_mm": side.center_x,
            "area_mm2": side.area,
        },
        "strip": {
            "width_mm": section.fab.strip_width,
            "x_mm": [seg[0][0] for seg in section.strip_segments],
        },
        "width_mm": section.width,
        "perimeter_mm": section.perimeter,
        "area_total_mm2": section.total_area,
        "ergonomic_index": ergonomic_index(section).index,
    }


def oracle_to_dict(arc_length: float, strip_width: float, grid_points: int,
                   result: OracleResult) -> dict:
    return {
        "S_c_mm": arc_length,
        "L_mm": strip_width,
        "grid_points": grid_points,
        "grid_step_rad": result.grid_step,
        "theta_argmax_rad": result.grid_argmax,
        "theta_root_rad": result.analytic_root,
        "theta_parabolic_rad": result.parabolic_argmax,
        "A_c_at_argmax_mm2": result.area_at_argmax,
        "agreement": result.agreement,
    }


def sweep_to_csv(records) -> str:
    """CSV with the fixed header; floats at 9 significant digits,
    infinite index as "inf", empty geometry cells on infeasible rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for rec in records:
        writer.writerow(_sweep_row(rec))
    return out.getvalue()


def _sweep_row(rec: SweepRecord) -> list[str]:
    def opt(value):
        return "" if value is None else fmt(value)

    return [
        fmt(rec.center_arc_length),
        fmt(rec.strip_width),
        fmt(rec.side_arc_length),
        opt(rec.center_height),
        opt(rec.side_height),
        opt(rec.width),
        opt(rec.ergonomic_index),
        "true" if rec.feasible else "false",
        rec.failure_reason or "",
    ]


def read_outline_csv(path) -> Polygon:
    """Read a measured outline: two columns x_mm, y_mm.

    Tolerates an optional header row, CRLF line endings and blank lines.
    Winding is normalized to counter-clockwise.  Plain files are parsed
    in one vectorized pass; any other text goes through the row reader,
    which accepts the same files and names the row it cannot read.

    Raises:
        ValueError: text that is not UTF-8, unreadable rows or fewer than
            3 vertices; the message names the file.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    points = _parse_plain_outline(text)
    if points is None:
        points = _parse_outline_rows(text, path)
    poly = Polygon(points)
    if poly.signed_area() < 0.0:
        poly = Polygon(poly.points[::-1])
    return poly


def _parse_plain_outline(text: str):
    """The ``(n, 2)`` points of a plain outline, or None for any other text.

    Plain means: LF or CRLF line endings, no quotes, an optional last
    newline, an optional two-cell header row, exactly one comma on every
    other line, at least 3 rows, and cells that ``float()`` reads.  The
    row reader gives every such text the same points, so returning None
    is always safe.

    The rows are checked in one pass over the UTF-8 bytes of the body:
    its commas and LFs, which never occur inside a multi-byte sequence,
    must alternate comma, LF, ..., comma, and number at least 5.
    """
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    text = text.removesuffix("\n")
    if (len(text) > csv.field_size_limit()
            and max(map(len, text.split("\n"))) > csv.field_size_limit()):
        return None  # the row reader's field limit decides these
    first, _, rest = text.partition("\n")
    head = first.split(",")
    if len(head) != 2:
        return None
    body = text
    try:
        float(head[0]), float(head[1])
    except ValueError:
        body = rest  # header row
    code = np.frombuffer(body.encode("utf-8"), np.uint8)
    seps = code[(code == _COMMA) | (code == _LF)]
    if (len(seps) < 5 or len(seps) % 2 == 0
            or not (seps[::2] == _COMMA).all() or not (seps[1::2] == _LF).all()):
        return None
    try:
        return np.array(body.replace("\n", ",").split(","),
                        dtype=float).reshape(-1, 2)
    except ValueError:
        return None


def _parse_outline_rows(text: str, path):
    """The outline's points, read row by row; ValueError names a bad row."""
    points: list[tuple[float, float]] = []
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        for row_num, row in enumerate(rows, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {row_num} has fewer than 2 columns")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if row_num == 1:
                    continue  # header row
                raise ValueError(
                    f"{path}: row {row_num} is not numeric: {row[:2]!r}") from None
            points.append((x, y))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(points) < 3:
        raise ValueError(f"{path}: outline needs at least 3 vertices")
    return np.asarray(points)
