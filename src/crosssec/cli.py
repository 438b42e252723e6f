"""Command-line interface: ``crosssec <mode> [options]``.

Modes: inverse, forward, shape, sweep, oracle, compare, force.  Inputs
come from a JSON job config (--config) and/or shorthand flags; flags
override config fields.  Results print to stdout (canonical JSON, or CSV
for sweeps) and can additionally be written to files.

Exit codes: 0 success; 1 malformed input or usage; 2 infeasible spec,
non-convergent solve or oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import (area_ratio, eversion_force, sweep_constant_perimeter,
                       total_area)
from .errors import (DegeneratePolygon, InfeasibleSpec, OracleMismatch,
                     SolverError)
from .geometry import DEFAULT_ARC_RESOLUTION, build_cross_section, validate_spec
from .render import render_svg
from .serialize import (fab_from_dict, fab_to_dict, oracle_to_dict,
                        read_outline_csv, report_to_dict, section_to_dict,
                        spec_from_dict, spec_to_dict, sweep_to_csv, to_json)
from .solver import RootFindConfig, area_max_oracle, forward_geometry

PROG = "crosssec"


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON job config file")
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       help="also write the JSON result to PATH")
        p.add_argument("--abs-tol", type=float, dest="abs_tol",
                       help="solver bracket tolerance (default 1e-12 of bracket)")
        p.add_argument("--max-iter", type=int, dest="max_iter",
                       help="solver iteration budget (default 200)")
        p.add_argument("--arc-resolution", type=float, dest="arc_resolution",
                       help="polygonization max sagitta error, mm (default 1e-4)")
        return p

    def spec_flags(p):
        p.add_argument("--hc", type=float, help="center channel height H_c, mm")
        p.add_argument("--hs", type=float, help="side channel height H_s, mm")
        p.add_argument("--w", type=float, help="overall width w, mm")

    def fab_flags(p):
        p.add_argument("--sc", type=float, help="center arc length S_c, mm")
        p.add_argument("--ss", type=float, help="side arc length S_s, mm")
        p.add_argument("--l", type=float, help="strip width L, mm")

    p = add("inverse", "closed-form fabrication parameters for a spec")
    spec_flags(p)

    p = add("forward", "solve inflated geometry from fabrication parameters")
    fab_flags(p)
    p.add_argument("--svg", dest="svg_path", metavar="PATH",
                   help="also render the section to PATH")

    p = add("shape", "full inflated geometry for a spec")
    spec_flags(p)
    p.add_argument("--svg", dest="svg_path", metavar="PATH",
                   help="also render the section to PATH")

    p = add("sweep", "constant-perimeter design sweep to CSV")
    p.add_argument("--perimeter", type=float, help="membrane perimeter, mm")
    p.add_argument("--sc", help="comma-separated center arc lengths, mm")
    p.add_argument("--l", help="comma-separated strip widths, mm")
    p.add_argument("--csv", dest="csv_path", metavar="PATH",
                   help="also write the CSV to PATH")

    p = add("oracle", "brute-force area-maximum check for one (S_c, L)")
    p.add_argument("--sc", type=float, help="center arc length S_c, mm")
    p.add_argument("--l", type=float, help="strip width L, mm")
    p.add_argument("--grid-points", type=int, dest="grid_points",
                   help="grid size (>= 1000; default 1000000)")

    p = add("compare", "measured outline area versus the model")
    p.add_argument("--outline", help="CSV of outline points (x_mm,y_mm)")
    fab_flags(p)

    p = add("force", "eversion force from pressure and area")
    p.add_argument("--pressure-kpa", type=float, dest="pressure_kpa",
                   help="inflation pressure, kPa")
    p.add_argument("--area-mm2", type=float, dest="area_mm2",
                   help="cross-section area, mm^2 (alternative to geometry)")
    fab_flags(p)
    spec_flags(p)

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: job config must be a JSON object")
    return config


def _section_dict(config: dict, key: str) -> dict:
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"job config field {key!r} must be an object")
    return dict(section)


def _resolve_spec(args, config):
    fields = _section_dict(config, "spec")
    for flag, key in (("hc", "H_c_mm"), ("hs", "H_s_mm"), ("w", "w_mm")):
        value = getattr(args, flag, None)
        if value is not None:
            fields[key] = value
    if not fields:
        raise ValueError("no spec given: use --hc/--hs/--w or a config 'spec'")
    return spec_from_dict(fields)


def _resolve_fab(args, config):
    fields = _section_dict(config, "fab")
    for flag, key in (("sc", "S_c_mm"), ("ss", "S_s_mm"), ("l", "L_mm")):
        value = getattr(args, flag, None)
        if value is not None:
            fields[key] = value
    if not fields:
        raise ValueError("no fab params given: use --sc/--ss/--l or a config 'fab'")
    return fab_from_dict(fields)


def _resolve_solver(args, config) -> RootFindConfig:
    fields = _section_dict(config, "solver")
    abs_tol = args.abs_tol if args.abs_tol is not None else fields.get("abs_tol")
    max_iter = args.max_iter if args.max_iter is not None else fields.get("max_iter", 200)
    return RootFindConfig(abs_tol=abs_tol, max_iter=int(max_iter))


def _resolve_resolution(args, config) -> float:
    if args.arc_resolution is not None:
        value = args.arc_resolution
    else:
        value = config.get("arc_resolution_mm", DEFAULT_ARC_RESOLUTION)
    try:
        value = float(value)
    except TypeError:
        raise ValueError(f"arc resolution must be a number, got {value!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"arc resolution must be positive and finite, got {value!r}")
    return value


def _output_path(args, config, attr: str, key: str) -> str | None:
    value = getattr(args, attr, None)
    if value is not None:
        return value
    output = _section_dict(config, "output")
    return output.get(key)


def _write(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(doc, args, config) -> None:
    text = to_json(doc)
    sys.stdout.write(text)
    _write(_output_path(args, config, "json_path", "json"), text)


def _parse_grid(value, name: str) -> list[float]:
    if value is None:
        raise ValueError(f"sweep needs {name}")
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{name}: expected numbers, got {value!r}") from None
    return [float(v) for v in value]


def _maybe_render(section, args, config) -> None:
    path = _output_path(args, config, "svg_path", "svg")
    if path is not None:
        _write(path, render_svg(section))


def _cmd_inverse(args, config) -> int:
    spec = _resolve_spec(args, config)
    report = validate_spec(spec)
    if not report.feasible:
        sys.stdout.write(to_json({"feasibility": report_to_dict(report)}))
        raise InfeasibleSpec(report.violations)
    section = build_cross_section(spec, _resolve_resolution(args, config))
    doc = {
        "fab": fab_to_dict(section.fab),
        "derived": {
            "theta_c_rad": section.center.arc_angle,
            "theta_s_rad": section.sides[1].arc_angle,
            "w_c_mm": section.center.width,
            "w_s_mm": section.sides[1].width,
        },
        "feasibility": report_to_dict(report),
    }
    _emit_json(doc, args, config)
    return 0


def _cmd_forward(args, config) -> int:
    fab = _resolve_fab(args, config)
    section = forward_geometry(fab, _resolve_solver(args, config),
                               _resolve_resolution(args, config))
    _emit_json(section_to_dict(section), args, config)
    _maybe_render(section, args, config)
    return 0


def _cmd_shape(args, config) -> int:
    spec = _resolve_spec(args, config)
    section = build_cross_section(spec, _resolve_resolution(args, config))
    _emit_json(section_to_dict(section), args, config)
    _maybe_render(section, args, config)
    return 0


def _cmd_sweep(args, config) -> int:
    sweep_cfg = _section_dict(config, "sweep")
    perimeter = args.perimeter if args.perimeter is not None \
        else sweep_cfg.get("perimeter_mm")
    if perimeter is None:
        raise ValueError("sweep needs --perimeter or config sweep.perimeter_mm")
    arcs = _parse_grid(args.sc if args.sc is not None else sweep_cfg.get("S_c_mm"),
                       "--sc / sweep.S_c_mm")
    strips = _parse_grid(args.l if args.l is not None else sweep_cfg.get("L_mm"),
                         "--l / sweep.L_mm")
    records = sweep_constant_perimeter(float(perimeter), arcs, strips,
                                       _resolve_solver(args, config))
    text = sweep_to_csv(records)
    sys.stdout.write(text)
    _write(_output_path(args, config, "csv_path", "csv"), text)
    return 0


def _cmd_oracle(args, config) -> int:
    oracle_cfg = _section_dict(config, "oracle")
    fab_cfg = _section_dict(config, "fab")
    s_c = args.sc if args.sc is not None else fab_cfg.get("S_c_mm")
    strip = args.l if args.l is not None else fab_cfg.get("L_mm")
    if s_c is None or strip is None:
        raise ValueError("oracle needs --sc and --l (or config fab)")
    grid_points = args.grid_points if args.grid_points is not None \
        else oracle_cfg.get("grid_points", 1_000_000)
    result = area_max_oracle(float(s_c), float(strip), int(grid_points),
                             _resolve_solver(args, config))
    _emit_json(oracle_to_dict(float(s_c), float(strip), int(grid_points), result),
               args, config)
    return 0


def _cmd_compare(args, config) -> int:
    compare_cfg = _section_dict(config, "compare")
    outline_path = args.outline if args.outline is not None \
        else compare_cfg.get("outline_csv")
    if outline_path is None:
        raise ValueError("compare needs --outline or config compare.outline_csv")
    measured = read_outline_csv(outline_path)
    fab = _resolve_fab(args, config)
    resolution = _resolve_resolution(args, config)
    section = forward_geometry(fab, _resolve_solver(args, config), resolution)
    ratio = area_ratio(measured, section, resolution)
    doc = {
        "measured_area_mm2": measured.signed_area(),
        "model_area_mm2": total_area(section, resolution),
        "area_ratio": ratio,
    }
    _emit_json(doc, args, config)
    return 0


def _cmd_force(args, config) -> int:
    force_cfg = _section_dict(config, "force")
    pressure = args.pressure_kpa if args.pressure_kpa is not None \
        else force_cfg.get("pressure_kpa")
    if pressure is None:
        raise ValueError("force needs --pressure-kpa")
    area = args.area_mm2 if args.area_mm2 is not None else force_cfg.get("area_mm2")
    if area is None:
        resolution = _resolve_resolution(args, config)
        has_fab = args.sc is not None or _section_dict(config, "fab")
        has_spec = args.hc is not None or _section_dict(config, "spec")
        if has_fab:
            section = forward_geometry(_resolve_fab(args, config),
                                       _resolve_solver(args, config), resolution)
        elif has_spec:
            section = build_cross_section(_resolve_spec(args, config), resolution)
        else:
            raise ValueError(
                "force needs an area: --area-mm2, fab params or a spec")
        area = total_area(section, resolution)
    doc = {
        "pressure_kpa": float(pressure),
        "area_mm2": float(area),
        "force_n": eversion_force(float(pressure), float(area)),
    }
    _emit_json(doc, args, config)
    return 0


_COMMANDS = {
    "inverse": _cmd_inverse,
    "forward": _cmd_forward,
    "shape": _cmd_shape,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "force": _cmd_force,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if "mode" in config and config["mode"] != args.mode:
            raise ValueError(
                f"config mode {config['mode']!r} does not match subcommand {args.mode!r}")
        return _COMMANDS[args.mode](args, config)
    except (ValueError, OSError, DegeneratePolygon) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleSpec, SolverError, OracleMismatch) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
