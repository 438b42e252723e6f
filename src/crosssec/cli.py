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
import sys
from pathlib import Path

from .analysis import (area_ratio, eversion_force, sweep_constant_perimeter,
                       total_area)
from .errors import (DegeneratePolygon, InfeasibleSpec, OracleMismatch,
                     SolverError, check_number)
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
                       help="solver Newton-step stop, rad (default: to roundoff)")
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


def _pick(args, flag: str, section: dict, key: str, default=None):
    # the flag's value if it was given, else the config field's
    value = getattr(args, flag, None)
    return section.get(key, default) if value is None else value


#: Config section -> what it is, its (flag, field) pairs, its parser.
_RECORDS = {
    "spec": ("spec", (("hc", "H_c_mm"), ("hs", "H_s_mm"), ("w", "w_mm")),
             spec_from_dict),
    "fab": ("fab params", (("sc", "S_c_mm"), ("ss", "S_s_mm"), ("l", "L_mm")),
            fab_from_dict),
}


def _resolve_record(args, config, section: str):
    """The spec or fab params from flags over the config's section."""
    what, flags, from_dict = _RECORDS[section]
    fields = _section_dict(config, section)
    for flag, key in flags:
        if key in fields or getattr(args, flag, None) is not None:
            # named by field here; range and feasibility are the record's
            # and the spec validator's to report
            fields[key] = check_number(_pick(args, flag, fields, key), key)
    if not fields:
        flag_list = "/".join(f"--{flag}" for flag, _ in flags)
        raise ValueError(
            f"no {what} given: use {flag_list} or a config {section!r}")
    return from_dict(fields)


def _resolve_solver(args, config) -> RootFindConfig:
    # RootFindConfig checks both values
    fields = _section_dict(config, "solver")
    return RootFindConfig(abs_tol=_pick(args, "abs_tol", fields, "abs_tol"),
                          max_iter=_pick(args, "max_iter", fields, "max_iter",
                                         200))


def _resolve_resolution(args, config) -> float:
    value = _pick(args, "arc_resolution", config, "arc_resolution_mm",
                  DEFAULT_ARC_RESOLUTION)
    return check_number(value, "arc resolution", "positive")


def _resolve_outputs(args, config) -> None:
    # every output path, flag over config field, checked before any output
    section = _section_dict(config, "output")
    for key in ("json", "svg", "csv"):
        path = _pick(args, f"{key}_path", section, key)
        if path is not None and not isinstance(path, str):
            raise ValueError(f"output {key} must be a path string, got {path!r}")
        setattr(args, f"{key}_path", path)


def _write(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(doc, args) -> None:
    text = to_json(doc)
    sys.stdout.write(text)
    _write(args.json_path, text)


def _parse_grid(value, name: str) -> list[float]:
    if value is None:
        raise ValueError(f"sweep needs {name}")
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{name}: expected numbers, got {value!r}") from None
    if not isinstance(value, list):
        raise ValueError(f"{name}: expected a list of numbers, got {value!r}")
    # sign and finiteness are per-cell feasibility, reported in the CSV
    return [check_number(v, name) for v in value]


def _maybe_render(section, args) -> None:
    if args.svg_path is not None:
        _write(args.svg_path, render_svg(section))


def _cmd_inverse(args, config) -> int:
    spec = _resolve_record(args, config, "spec")
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
    _emit_json(doc, args)
    return 0


def _cmd_forward(args, config) -> int:
    fab = _resolve_record(args, config, "fab")
    section = forward_geometry(fab, _resolve_solver(args, config),
                               _resolve_resolution(args, config))
    _emit_json(section_to_dict(section), args)
    _maybe_render(section, args)
    return 0


def _cmd_shape(args, config) -> int:
    spec = _resolve_record(args, config, "spec")
    section = build_cross_section(spec, _resolve_resolution(args, config))
    _emit_json(section_to_dict(section), args)
    _maybe_render(section, args)
    return 0


def _cmd_sweep(args, config) -> int:
    sweep_cfg = _section_dict(config, "sweep")
    perimeter = _pick(args, "perimeter", sweep_cfg, "perimeter_mm")
    if perimeter is None:
        raise ValueError("sweep needs --perimeter or config sweep.perimeter_mm")
    arcs = _parse_grid(_pick(args, "sc", sweep_cfg, "S_c_mm"),
                       "--sc / sweep.S_c_mm")
    strips = _parse_grid(_pick(args, "l", sweep_cfg, "L_mm"), "--l / sweep.L_mm")
    perimeter = check_number(perimeter, "sweep perimeter_mm", "positive")
    records = sweep_constant_perimeter(perimeter, arcs, strips,
                                       _resolve_solver(args, config))
    text = sweep_to_csv(records)
    sys.stdout.write(text)
    _write(args.csv_path, text)
    return 0


def _cmd_oracle(args, config) -> int:
    oracle_cfg = _section_dict(config, "oracle")
    fab_cfg = _section_dict(config, "fab")
    s_c = _pick(args, "sc", fab_cfg, "S_c_mm")
    strip = _pick(args, "l", fab_cfg, "L_mm")
    if s_c is None or strip is None:
        raise ValueError("oracle needs --sc and --l (or config fab)")
    # checked here too, so that messages name the config fields and the
    # output echoes the values as the library takes them (1e4 as 10000)
    grid_points = check_number(
        _pick(args, "grid_points", oracle_cfg, "grid_points", 1_000_000),
        "oracle grid_points", "integer")
    s_c = check_number(s_c, "S_c_mm", "positive")
    strip = check_number(strip, "L_mm", "non-negative")
    result = area_max_oracle(s_c, strip, grid_points,
                             _resolve_solver(args, config))
    _emit_json(oracle_to_dict(s_c, strip, grid_points, result), args)
    return 0


def _cmd_compare(args, config) -> int:
    compare_cfg = _section_dict(config, "compare")
    outline_path = _pick(args, "outline", compare_cfg, "outline_csv")
    if outline_path is None:
        raise ValueError("compare needs --outline or config compare.outline_csv")
    measured = read_outline_csv(outline_path)
    fab = _resolve_record(args, config, "fab")
    resolution = _resolve_resolution(args, config)
    section = forward_geometry(fab, _resolve_solver(args, config), resolution)
    ratio = area_ratio(measured, section, resolution)
    doc = {
        "measured_area_mm2": measured.signed_area(),
        "model_area_mm2": total_area(section, resolution),
        "area_ratio": ratio,
    }
    _emit_json(doc, args)
    return 0


def _cmd_force(args, config) -> int:
    force_cfg = _section_dict(config, "force")
    pressure = _pick(args, "pressure_kpa", force_cfg, "pressure_kpa")
    if pressure is None:
        raise ValueError("force needs --pressure-kpa")
    pressure = check_number(pressure, "pressure_kpa", "non-negative")
    area = _pick(args, "area_mm2", force_cfg, "area_mm2")
    if area is None:
        resolution = _resolve_resolution(args, config)
        has_fab = args.sc is not None or _section_dict(config, "fab")
        has_spec = args.hc is not None or _section_dict(config, "spec")
        if has_fab:
            section = forward_geometry(_resolve_record(args, config, "fab"),
                                       _resolve_solver(args, config), resolution)
        elif has_spec:
            section = build_cross_section(_resolve_record(args, config, "spec"),
                                          resolution)
        else:
            raise ValueError(
                "force needs an area: --area-mm2, fab params or a spec")
        area = total_area(section, resolution)
    area = check_number(area, "area_mm2", "non-negative")
    doc = {
        "pressure_kpa": pressure,
        "area_mm2": area,
        "force_n": eversion_force(pressure, area),
    }
    _emit_json(doc, args)
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
        _resolve_outputs(args, config)
        return _COMMANDS[args.mode](args, config)
    except (ValueError, OSError, DegeneratePolygon) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleSpec, SolverError, OracleMismatch) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
