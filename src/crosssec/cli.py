"""Command-line interface: ``crosssec <mode> [options]``.

Modes: inverse, forward, shape, sweep, oracle, compare, force.  Inputs
come from a JSON job config (--config) and/or shorthand flags; flags
override config fields, and each mode takes only the flags and config
keys it reads.  A run resolves and checks every input first, then
computes, then writes its output files, and prints its result (canonical
JSON, or CSV for sweeps) last.

Exit codes: 0 success; 1 malformed input, usage or an unwritable output
path; 2 infeasible spec, non-convergent solve or oracle disagreement.
Stdout is empty on exit 1 and 2, except for the feasibility report of an
infeasible ``inverse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import area_ratio, eversion_force, sweep_constant_perimeter
from .errors import (DegeneratePolygon, InfeasibleSpec, OracleMismatch,
                     SolverError, check_number)
from .geometry import DEFAULT_ARC_RESOLUTION, build_cross_section, validate_spec
from .render import render_svg
from .serialize import (fab_from_dict, fab_to_dict, oracle_to_dict,
                        read_outline_csv, report_to_dict, section_to_dict,
                        spec_from_dict, sweep_to_csv, to_json)
from .solver import area_max_oracle, forward_geometry

PROG = "crosssec"


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: Flag group -> its flags as (option, type, help); a flag's value lands
#: in the option's name (``--grid-points`` in ``args.grid_points``).  A
#: group is named after the config key it overrides, or the ``output``
#: kind it writes.
_FLAGS = {
    "spec": (("--hc", float, "center channel height H_c, mm"),
             ("--hs", float, "side channel height H_s, mm"),
             ("--w", float, "overall width w, mm")),
    "fab": (("--sc", float, "center arc length S_c, mm"),
            ("--ss", float, "side arc length S_s, mm"),
            ("--l", float, "strip width L, mm")),
    "sweep": (("--perimeter", float, "membrane perimeter, mm"),
              ("--sc", str, "comma-separated center arc lengths, mm"),
              ("--l", str, "comma-separated strip widths, mm")),
    "oracle": (("--sc", float, "center arc length S_c, mm"),
               ("--l", float, "strip width L, mm"),
               ("--grid-points", int, "grid size (>= 1000; default 1000000)")),
    "compare": (("--outline", str, "CSV of outline points (x_mm,y_mm)"),),
    "force": (("--pressure-kpa", float, "inflation pressure, kPa"),
              ("--area-mm2", float,
               "cross-section area, mm^2 (alternative to geometry)")),
    "arc_resolution_mm": (("--arc-resolution", float,
                           "polygonization max sagitta error, mm "
                           "(default 1e-4)"),),
    "json": (("--json", str, "also write the JSON result to PATH"),),
    "svg": (("--svg", str, "also render the section to PATH"),),
    "csv": (("--csv", str, "also write the CSV to PATH"),),
}
_OUTPUTS = ("json", "svg", "csv")

#: Mode -> its help and the flag groups it reads; a job config may hold
#: only their keys (``output.<kind>`` for the outputs) and ``mode``.
_MODES = {
    "inverse": ("closed-form fabrication parameters for a spec",
                ("spec", "json")),
    "forward": ("solve inflated geometry from fabrication parameters",
                ("fab", "arc_resolution_mm", "json", "svg")),
    "shape": ("full inflated geometry for a spec",
              ("spec", "arc_resolution_mm", "json", "svg")),
    "sweep": ("constant-perimeter design sweep to CSV",
              ("sweep", "csv")),
    "oracle": ("brute-force area-maximum check for one (S_c, L)",
               ("oracle", "json")),
    "compare": ("measured outline area versus the model",
                ("compare", "fab", "arc_resolution_mm", "json")),
    "force": ("eversion force from pressure and area",
              ("force", "fab", "spec", "arc_resolution_mm", "json")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (help_text, groups) in _MODES.items():
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", help="JSON job config file")
        for group in groups:
            for option, kind, help_flag in _FLAGS[group]:
                p.add_argument(option, type=kind, help=help_flag,
                               metavar="PATH" if group in _OUTPUTS else None)
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
    # the flag's value if the mode has the flag and it was given, else the
    # config field's
    value = getattr(args, flag, None)
    return section.get(key, default) if value is None else value


def _check_path(path, name: str):
    # open() would take an int as a file descriptor (0 is stdin)
    if path is not None and not isinstance(path, str):
        raise ValueError(f"{name} must be a path string, got {path!r}")
    return path


#: Config section -> what it is, its (flag, field) pairs, its parser.
_RECORDS = {
    "spec": ("spec", (("hc", "H_c_mm"), ("hs", "H_s_mm"), ("w", "w_mm")),
             spec_from_dict),
    "fab": ("fab params", (("sc", "S_c_mm"), ("ss", "S_s_mm"), ("l", "L_mm")),
            fab_from_dict),
}


def _record_given(args, config, section: str) -> bool:
    _, flags, _ = _RECORDS[section]
    return bool(_section_dict(config, section)) or any(
        getattr(args, flag, None) is not None for flag, _ in flags)


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


def _resolve_resolution(args, config) -> float:
    value = _pick(args, "arc_resolution", config, "arc_resolution_mm",
                  DEFAULT_ARC_RESOLUTION)
    return check_number(value, "arc resolution", "positive")


def _check_keys(mode: str, config: dict):
    # a key the mode does not read would change nothing, so it is refused
    groups = set(_MODES[mode][1])
    kinds = groups & set(_OUTPUTS)
    read = (groups - kinds) | {"mode", "output"}
    if mode == "oracle":
        read.add("fab")  # its --sc and --l override fab's S_c_mm and L_mm
    unread = [key for key in config if key not in read] + [
        f"output.{kind}" for kind in _section_dict(config, "output")
        if kind not in kinds]
    if unread:
        raise ValueError(f"{mode} does not read config key {unread[0]!r}")


def _resolve_outputs(args, config) -> dict:
    # the path of each kind the mode writes, flag over config field,
    # type-checked before any output
    section = _section_dict(config, "output")
    paths = {}
    for key in _OUTPUTS:
        if hasattr(args, key):
            path = _check_path(_pick(args, key, section, key), f"output {key}")
            if path is not None:
                paths[key] = path
    return paths


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


# Each command resolves its inputs, computes, and returns the stdout text
# with the section an SVG output draws (None where the mode has none).

def _cmd_inverse(args, config):
    spec = _resolve_record(args, config, "spec")
    report = validate_spec(spec)
    if not report.feasible:
        # the one failure with stdout: the report says which conditions
        sys.stdout.write(to_json({"feasibility": report_to_dict(report)}))
        raise InfeasibleSpec(report.violations)
    section = build_cross_section(spec)
    return to_json({
        "fab": fab_to_dict(section.fab),
        "derived": {
            "theta_c_rad": section.center.arc_angle,
            "theta_s_rad": section.sides[1].arc_angle,
            "w_c_mm": section.center.width,
            "w_s_mm": section.sides[1].width,
        },
        "feasibility": report_to_dict(report),
    }), None


def _cmd_forward(args, config):
    fab = _resolve_record(args, config, "fab")
    section = forward_geometry(fab, _resolve_resolution(args, config))
    return to_json(section_to_dict(section)), section


def _cmd_shape(args, config):
    spec = _resolve_record(args, config, "spec")
    section = build_cross_section(spec, _resolve_resolution(args, config))
    return to_json(section_to_dict(section)), section


def _cmd_sweep(args, config):
    sweep_cfg = _section_dict(config, "sweep")
    perimeter = _pick(args, "perimeter", sweep_cfg, "perimeter_mm")
    if perimeter is None:
        raise ValueError("sweep needs --perimeter or config sweep.perimeter_mm")
    arcs = _parse_grid(_pick(args, "sc", sweep_cfg, "S_c_mm"),
                       "--sc / sweep.S_c_mm")
    strips = _parse_grid(_pick(args, "l", sweep_cfg, "L_mm"), "--l / sweep.L_mm")
    perimeter = check_number(perimeter, "sweep perimeter_mm", "positive")
    records = sweep_constant_perimeter(perimeter, arcs, strips)
    return sweep_to_csv(records), None


def _cmd_oracle(args, config):
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
    result = area_max_oracle(s_c, strip, grid_points)
    return to_json(oracle_to_dict(s_c, strip, grid_points, result)), None


def _cmd_compare(args, config):
    compare_cfg = _section_dict(config, "compare")
    outline_path = _check_path(
        _pick(args, "outline", compare_cfg, "outline_csv"), "compare outline")
    if outline_path is None:
        raise ValueError("compare needs --outline or config compare.outline_csv")
    fab = _resolve_record(args, config, "fab")
    resolution = _resolve_resolution(args, config)
    measured = read_outline_csv(outline_path)
    section = forward_geometry(fab, resolution)
    return to_json({
        "measured_area_mm2": measured.signed_area(),
        "model_area_mm2": section.total_area,
        "area_ratio": area_ratio(measured, section, resolution),
    }), None


def _cmd_force(args, config):
    force_cfg = _section_dict(config, "force")
    pressure = _pick(args, "pressure_kpa", force_cfg, "pressure_kpa")
    if pressure is None:
        raise ValueError("force needs --pressure-kpa")
    pressure = check_number(pressure, "pressure_kpa", "non-negative")
    area = _pick(args, "area_mm2", force_cfg, "area_mm2")
    if area is not None:
        area = check_number(area, "area_mm2", "non-negative")
    resolution = _resolve_resolution(args, config)
    if area is None:
        # the record any of whose flags or fields were given, fab first
        if _record_given(args, config, "fab"):
            area = forward_geometry(_resolve_record(args, config, "fab"),
                                    resolution).total_area
        elif _record_given(args, config, "spec"):
            area = build_cross_section(_resolve_record(args, config, "spec"),
                                       resolution).total_area
        else:
            raise ValueError(
                "force needs an area: --area-mm2, fab params or a spec")
    return to_json({
        "pressure_kpa": pressure,
        "area_mm2": area,
        "force_n": eversion_force(pressure, area),
    }), None


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
        _check_keys(args.mode, config)
        paths = _resolve_outputs(args, config)
        text, section = _COMMANDS[args.mode](args, config)
        # files first, stdout last: a failed write leaves stdout empty
        for key, path in paths.items():
            Path(path).write_text(render_svg(section) if key == "svg" else text,
                                  encoding="utf-8")
        sys.stdout.write(text)
        return 0
    except (ValueError, OSError, DegeneratePolygon) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleSpec, SolverError, OracleMismatch) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
