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
from .geometry import (DEFAULT_ARC_RESOLUTION, DesignSpec, FabricationParams,
                       _channels, build_cross_section, inverse_design,
                       validate_spec)
from .render import render_svg
from .serialize import (fab_to_dict, oracle_to_dict, read_outline_csv,
                        report_to_dict, section_to_dict, sweep_to_csv, to_json)
from .solver import area_max_oracle, forward_geometry

PROG = "crosssec"


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: Flag group -> its flags as (option, config key, check, help); a flag's
#: value lands in the option's name (``--grid-points`` in
#: ``args.grid_points``) and overrides the config key, a section's field
#: named ``section.field``.  The check is a ``check_number`` kind, a
#: "grid" (a list of numbers, or one comma-separated string) or a "path";
#: a flag only parses its text to a number (a grid or a path stays text),
#: and the check does the rest, so a flag takes what its field takes.  A
#: group is named after the config key it overrides, or the ``output``
#: kind it writes.
_FLAGS = {
    "spec": (("--hc", "spec.H_c_mm", "positive",
              "center channel height H_c, mm"),
             ("--hs", "spec.H_s_mm", "positive",
              "side channel height H_s, mm"),
             ("--w", "spec.w_mm", "positive", "overall width w, mm")),
    "fab": (("--sc", "fab.S_c_mm", "positive", "center arc length S_c, mm"),
            ("--ss", "fab.S_s_mm", "positive", "side arc length S_s, mm"),
            ("--l", "fab.L_mm", "non-negative", "strip width L, mm")),
    "sweep": (("--perimeter", "sweep.perimeter_mm", "positive",
               "membrane perimeter, mm"),
              ("--sc", "sweep.S_c_mm", "grid",
               "comma-separated center arc lengths, mm"),
              ("--l", "sweep.L_mm", "grid",
               "comma-separated strip widths, mm")),
    "oracle": (("--sc", "fab.S_c_mm", "positive",
                "center arc length S_c, mm"),
               ("--l", "fab.L_mm", "non-negative", "strip width L, mm"),
               ("--grid-points", "oracle.grid_points", "integer",
                "grid size (>= 1000; default 1000000)")),
    "compare": (("--outline", "compare.outline_csv", "path",
                 "CSV of outline points (x_mm,y_mm)"),),
    "force": (("--pressure-kpa", "force.pressure_kpa", "non-negative",
               "inflation pressure, kPa"),
              ("--area-mm2", "force.area_mm2", "non-negative",
               "cross-section area, mm^2 (alternative to geometry)")),
    "arc_resolution_mm": (("--arc-resolution", "arc_resolution_mm",
                           "positive", "polygonization max sagitta error, "
                           "mm (default 1e-4)"),),
    "json": (("--json", "output.json", "path",
              "also write the JSON result to PATH"),),
    "svg": (("--svg", "output.svg", "path",
             "also render the section to PATH"),),
    "csv": (("--csv", "output.csv", "path", "also write the CSV to PATH"),),
}
_OUTPUTS = ("json", "svg", "csv")


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (help_text, groups, _) in _MODES.items():
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", help="JSON job config file")
        for group in groups:
            for option, _, check, help_flag in _FLAGS[group]:
                p.add_argument(
                    option, help=help_flag,
                    type=str if check in ("grid", "path") else float,
                    metavar="PATH" if group in _OUTPUTS else None)
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            config = json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: job config must be a JSON object")
    return config


def _check(value, check: str, name: str):
    """``value`` as its flag row's ``check`` takes it, or ValueError that
    names it as ``name``."""
    if check == "path":
        # open() would take an int as a file descriptor (0 is stdin)
        if isinstance(value, str):
            return value
        raise ValueError(f"{name} must be a path string, got {value!r}")
    if check != "grid":
        return check_number(value, name, check)
    if isinstance(value, str):
        try:
            return [float(p) for p in value.replace(",", " ").split()]
        except ValueError:
            raise ValueError(
                f"{name}: expected numbers, got {value!r}") from None
    if not isinstance(value, list):
        raise ValueError(f"{name}: expected a list of numbers, got {value!r}")
    # sign and finiteness are per-cell feasibility, reported in the CSV
    return [check_number(v, name) for v in value]


def _resolve_job(args, config: dict) -> dict:
    """Every config key the mode reads -> its checked value, flag over field.

    A key that neither gives is left out, and so is a null output path (it
    writes no file).  A key or section field the mode does not read (it
    would change nothing), a section it reads that is not an object and a
    value its flag row's check refuses are refused before any command
    runs; the value is named by its flag, or its key (``section.field``)
    if it came from the config.
    """
    rows = {key: (option, check) for group in _MODES[args.mode][1]
            for option, key, check, _ in _FLAGS[group]}
    sections = {key.partition(".")[0] for key in rows if "." in key}
    given = {}  # key -> (value, its flag or key)
    for name, value in config.items():
        if name in sections:
            if not isinstance(value, dict):
                raise ValueError(f"job config field {name!r} must be an object")
            fields = {f"{name}.{field}": v for field, v in value.items()}
        elif name == "mode":
            continue
        else:
            fields = {name: value}
        for key in fields:
            # a dotted top-level name is no section's field
            if key not in rows or "." in name:
                raise ValueError(
                    f"{args.mode} does not read config key {key!r}")
        given.update((key, (v, key)) for key, v in fields.items())
    for key, (option, _) in rows.items():
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None:
            given[key] = value, option
    return {key: _check(value, rows[key][1], name)
            for key, (value, name) in given.items()
            if value is not None or not key.startswith("output.")}


def _needed(job: dict, mode: str, *keys) -> list:
    """The job's values of ``keys``, each of which ``mode`` needs, or
    ValueError naming every one not given."""
    missing = [key for key in keys if job.get(key) is None]
    if missing:
        raise ValueError(f"{mode} needs {_names(mode, missing)}")
    return [job[key] for key in keys]


def _names(mode: str, keys) -> str:
    """``keys`` as ``mode`` takes them: their flags, or their config keys."""
    options = {key: option for group in _MODES[mode][1]
               for option, key, _, _ in _FLAGS[group]}
    return (f"{', '.join(options[key] for key in keys)} "
            f"or config {', '.join(keys)}")


def _keys(group: str) -> list:
    """The config keys of a flag group, in its records' field order."""
    return [key for _, key, _, _ in _FLAGS[group]]


def _section(job: dict, mode: str):
    """The section of the job's fab params, or of its spec where ``mode``
    reads a spec and the job gives no fab key (``force`` reads both)."""
    resolution = job.get("arc_resolution_mm", DEFAULT_ARC_RESOLUTION)
    if ("spec" not in _MODES[mode][1]
            or any(key in job for key in _keys("fab"))):
        fab = FabricationParams(*_needed(job, mode, *_keys("fab")))
        return forward_geometry(fab, resolution)
    spec = DesignSpec(*_needed(job, mode, *_keys("spec")))
    return build_cross_section(spec, resolution)


# Each command takes the resolved job, whose every value is checked, and
# its mode, and computes; it returns the stdout text with the section an
# SVG output draws (None where the mode has none).

def _cmd_inverse(job, mode):
    spec = DesignSpec(*_needed(job, mode, *_keys("spec")))
    report = validate_spec(spec)
    if not report.feasible:
        # the one failure with stdout: the report says which conditions
        sys.stdout.write(to_json({"feasibility": report_to_dict(report)}))
        raise InfeasibleSpec(report.violations)
    fab = inverse_design(spec)
    # the channels alone: the output needs no side area, so nothing is
    # sampled, and a section too large for its area still prints
    _, center, side = _channels(fab, spec.center_height, spec.side_height,
                                spec)
    return to_json({
        "fab": fab_to_dict(fab),
        "derived": {
            "theta_c_rad": center.arc_angle,
            "theta_s_rad": side.arc_angle,
            "w_c_mm": center.width,
            "w_s_mm": side.width,
        },
        "feasibility": report_to_dict(report),
    }), None


def _cmd_section(job, mode):
    section = _section(job, mode)
    return to_json(section_to_dict(section)), section


def _cmd_sweep(job, mode):
    records = sweep_constant_perimeter(*_needed(job, mode, *_keys("sweep")))
    return sweep_to_csv(records), None


def _cmd_oracle(job, mode):
    s_c, strip = _needed(job, mode, "fab.S_c_mm", "fab.L_mm")
    # the output echoes the values as checked (grid_points 1e4 as 10000)
    grid_points = job.get("oracle.grid_points", 1_000_000)
    result = area_max_oracle(s_c, strip, grid_points)
    return to_json(oracle_to_dict(s_c, strip, grid_points, result)), None


def _cmd_compare(job, mode):
    outline_path, *_ = _needed(job, mode, "compare.outline_csv",
                               *_keys("fab"))
    # the outline is read before the solve: a bad outline exits 1 even
    # where the fab params do not solve
    measured = read_outline_csv(outline_path)
    section = _section(job, mode)
    return to_json({
        "measured_area_mm2": measured.signed_area(),
        "model_area_mm2": section.total_area,
        "area_ratio": area_ratio(measured, section),
    }), None


def _cmd_force(job, mode):
    pressure, = _needed(job, mode, "force.pressure_kpa")
    area = job.get("force.area_mm2")
    if area is None:
        if not any(key in job for key in _keys("fab") + _keys("spec")):
            raise ValueError(f"{mode} needs {_names(mode, ['force.area_mm2'])}"
                             f"; or {_names(mode, _keys('fab'))}"
                             f"; or {_names(mode, _keys('spec'))}")
        area = _section(job, mode).total_area
    return to_json({
        "pressure_kpa": pressure,
        "area_mm2": area,
        "force_n": eversion_force(pressure, area),
    }), None


#: Mode -> its help, the flag groups it reads and its command; a job
#: config may hold only their config keys and ``mode``.
_MODES = {
    "inverse": ("closed-form fabrication parameters for a spec",
                ("spec", "json"), _cmd_inverse),
    "forward": ("solve inflated geometry from fabrication parameters",
                ("fab", "arc_resolution_mm", "json", "svg"), _cmd_section),
    "shape": ("full inflated geometry for a spec",
              ("spec", "arc_resolution_mm", "json", "svg"), _cmd_section),
    "sweep": ("constant-perimeter design sweep to CSV",
              ("sweep", "csv"), _cmd_sweep),
    "oracle": ("brute-force area-maximum check for one (S_c, L)",
               ("oracle", "json"), _cmd_oracle),
    "compare": ("measured outline area versus the model",
                ("compare", "fab", "arc_resolution_mm", "json"),
                _cmd_compare),
    "force": ("eversion force from pressure and area",
              ("force", "fab", "spec", "arc_resolution_mm", "json"),
              _cmd_force),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if "mode" in config and config["mode"] != args.mode:
            raise ValueError(
                f"config mode {config['mode']!r} does not match subcommand {args.mode!r}")
        job = _resolve_job(args, config)
        text, section = _MODES[args.mode][2](job, args.mode)
        # files first, stdout last: a failed write leaves stdout empty
        for kind in _OUTPUTS:
            path = job.get(f"output.{kind}")
            if path is not None:
                Path(path).write_text(
                    render_svg(section) if kind == "svg" else text,
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
