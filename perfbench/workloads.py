"""The benchmark workloads, and the cold-CLI invocations its traced run uses.

Each workload makes its inputs from a seed (``random.Random``, so the
inputs do not depend on the NumPy version), times one call per op in
``run`` and checks the answer, untimed, in ``check``.  Ops call crosssec
through module attributes (``crosssec.forward_geometry``,
``crosssec.serialize.to_json``), which is where the tracer's hooks sit.

crosssec is imported in ``setup``, not at module import, so that the
set-up time includes ``import crosssec``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from . import reference

#: Whole-op kinds of the design loop and how many of each in a pool of 40.
#: Forward to inverse is 3:1; a tenth of the ops are edge inputs.
DESIGN_MIX = {
    "forward": 27, "inverse": 9,
    "flat_side": 1, "no_slack": 1, "thin_strip": 1, "narrow": 1,
}
#: Every fifth pool also gets a constant-perimeter sweep whose cells
#: include S_s <= 0 (it replaces one ``thin_strip``).
SWEEP_EVERY = 5


@dataclass(frozen=True)
class Op:
    """One input: ``expect`` is ``("reject",)`` when crosssec must refuse
    it, else the reference value the check needs, if any."""

    kind: str
    args: tuple
    expect: tuple = ()


class Workload:
    """Base: subclasses fill ``ops`` in ``setup`` and define run/check."""

    name = ""

    def __init__(self, seed: int, smoke: bool, root: Path, tmpdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.tmpdir = tmpdir
        self.ops: list[Op] = []
        self.problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result, error: BaseException | None) -> bool:
        raise NotImplementedError

    def warm_up(self, count: int) -> None:
        for op in self.ops[:count]:
            result, error = self.call(op)
            if not self.check(op, result, error):
                self.problems.append(f"warm-up op {op.kind} {op.args} failed")

    def call(self, op: Op):
        try:
            return self.run(op), None
        except Exception as exc:  # judged by check(); no op may escape the loop
            return None, exc


def _import_crosssec():
    cs = importlib.import_module("crosssec")
    for sub in ("analysis", "geometry", "render", "serialize", "solver"):
        importlib.import_module(f"crosssec.{sub}")
    return cs


def _fab_roundtrip_ok(fab, got, strip_atol=0.0) -> bool:
    s_c, s_s, strip = fab
    tol = reference.ROUND_TRIP_RTOL
    return (reference.rel_err(got.center_arc_length, s_c) <= tol
            and reference.rel_err(got.side_arc_length, s_s) <= tol
            and abs(got.strip_width - strip) <= max(tol * strip, strip_atol))


class DesignLoop(Workload):
    """Designer's inner loop: forward and inverse queries plus edge inputs."""

    name = "design_loop"

    def setup(self):
        self.cs = _import_crosssec()
        rng = random.Random(self.seed)
        pools = 3 if self.smoke else 100
        for pool in range(pools):
            # shuffled within each pool, so that every run of 40 ops holds
            # the whole mix and a run's cost hardly depends on the seed
            kinds = [k for k, n in DESIGN_MIX.items() for _ in range(n)]
            if pool % SWEEP_EVERY == 0:
                kinds[kinds.index("thin_strip")] = "sweep"
            rng.shuffle(kinds)
            self.ops.extend(self._make(kind, rng) for kind in kinds)
        self.problems += reference.frozen_problems(
            lambda fab: self.cs.forward_geometry(self.cs.FabricationParams(*fab)))
        self.warm_up(20 if self.smoke else 400)

    @staticmethod
    def _fab(rng):
        s_c = rng.uniform(20.0, 300.0)
        s_s = s_c * rng.uniform(0.5, 1.5)
        return s_c, s_s, s_s * rng.uniform(0.05, 0.85)

    def _make(self, kind, rng) -> Op:
        s_c, s_s, strip = self._fab(rng)
        if kind == "forward":
            return Op(kind, (s_c, s_s, strip))
        if kind == "inverse":
            # the feasible spec domain of acceptance criterion 3
            h_c = rng.uniform(20.0, 200.0)
            h_s = h_c * rng.uniform(0.15, 0.9)
            return Op(kind, (h_c, h_s, h_c + 2.0 * h_s * rng.uniform(0.05, 0.95)))
        if kind == "flat_side":
            # L -> S_s-: the side arc inflates taller than the section is
            # wide, so the round trip back through the inverse is infeasible
            return Op(kind, (s_c, s_s, s_s * (1.0 - 10.0 ** rng.uniform(-9, -4))),
                      ("reject",))
        if kind == "no_slack":
            return Op(kind, (s_c, s_s, s_s * (1.0 + rng.choice((0.0, 0.1, 0.3)))),
                      ("reject",))
        if kind == "thin_strip":
            # L -> 0+ (exact L = 0 is left out; see perfbench/README.md)
            return Op(kind, (s_c, s_s, s_s * 10.0 ** rng.uniform(-15, -6)))
        if kind == "narrow":
            h_c = rng.uniform(20.0, 200.0)
            h_s = h_c * rng.uniform(0.15, 0.9)
            return Op(kind, (h_c, h_s, h_s * (1.0 + 10.0 ** rng.uniform(-9, -3))),
                      ("reject",))
        # constant perimeter: one feasible cell, one with S_s = 0, one S_s < 0
        perimeter = 2.0 * (s_c + s_s)
        arcs = (s_c, 0.5 * perimeter, 0.5 * perimeter + rng.uniform(1.0, 50.0))
        return Op("sweep", (perimeter, arcs, strip))

    def run(self, op):
        cs = self.cs
        kind, args = op.kind, op.args
        if kind in ("forward", "thin_strip"):
            section = cs.forward_geometry(cs.FabricationParams(*args))
            index = cs.ergonomic_index(section).index
            text = cs.serialize.to_json(cs.serialize.section_to_dict(section))
            return section, index, text
        if kind == "inverse":
            section = cs.build_cross_section(cs.DesignSpec(*args))
            text = cs.serialize.to_json(cs.serialize.section_to_dict(section))
            return section, text, cs.render_svg(section)
        if kind in ("flat_side", "no_slack"):
            section = cs.forward_geometry(cs.FabricationParams(*args))
            return cs.inverse_design(section.spec)
        if kind == "narrow":
            return cs.build_cross_section(cs.DesignSpec(*args))
        perimeter, arcs, strip = args
        return cs.sweep_constant_perimeter(perimeter, arcs, [strip])

    def check(self, op, result, error):
        cs = self.cs
        if op.expect == ("reject",):
            return isinstance(error, (cs.InfeasibleSpec, cs.NoBracket))
        if error is not None:
            return False
        if op.kind in ("forward", "thin_strip"):
            section, index, text = result
            spec = section.spec
            want = reference.ergonomic_index(spec.center_height, spec.side_height,
                                             section.width)
            # a strip of 1e-15 S_s has no meaningful relative error
            atol = reference.ROUND_TRIP_RTOL * op.args[1] \
                if op.kind == "thin_strip" else 0.0
            return (_fab_roundtrip_ok(op.args, cs.inverse_design(spec), atol)
                    and reference.rel_err(index, want) <= 1e-9
                    and text.startswith("{"))
        if op.kind == "inverse":
            section, text, svg = result
            fab = section.fab
            mismatch = reference.fab_spec_mismatch(
                (fab.center_arc_length, fab.side_arc_length, fab.strip_width),
                op.args)
            return (mismatch <= reference.ROUND_TRIP_RTOL
                    and reference.rel_err(section.width, op.args[2])
                    <= reference.ROUND_TRIP_RTOL
                    and text.startswith("{") and svg.rstrip().endswith("</svg>"))
        perimeter, arcs, strip = op.args
        if [r.feasible for r in result] != [True, False, False]:
            return False
        cell = result[0]
        got = cs.inverse_design(cs.DesignSpec(cell.center_height, cell.side_height,
                                              cell.width))
        return _fab_roundtrip_ok((arcs[0], 0.5 * perimeter - arcs[0], strip), got)


class OracleScan(Workload):
    """Brute-force grid oracle calls at the CLI's default grid size."""

    name = "oracle_scan"

    def setup(self):
        self.cs = _import_crosssec()
        self.grid_points = 20_000 if self.smoke else 1_000_000
        rng = random.Random(self.seed)
        for _ in range(4 if self.smoke else 64):
            # the (S_c, L) domain of acceptance criterion 1
            s_c = rng.uniform(1.0, 300.0)
            strip = rng.uniform(0.0, 2.0) * s_c
            self.ops.append(Op("oracle", (s_c, strip),
                               (reference.strip_fit_root(s_c, strip),)))
        self.warm_up(1)

    def run(self, op):
        return self.cs.area_max_oracle(*op.args, grid_points=self.grid_points)

    def check(self, op, result, error):
        if error is not None:
            return False
        step = 2.0 * math.pi / (self.grid_points - 1)
        root = op.expect[0]
        return (result.grid_step <= step
                and abs(result.grid_argmax - root) <= result.grid_step * (1 + 1e-9))


def write_outline(path: Path, points, clockwise: bool) -> None:
    rows = reversed(points) if clockwise else points
    path.write_text("x_mm,y_mm\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows),
                    encoding="utf-8")


def make_outline(cs, rng, vertices):
    """A seeded model outline, scaled per axis like a measured one.

    Sections are 400-600 mm so that the model's sampled side area stays
    within 4e-7 of exact at the default resolution, well inside the 1e-6
    ratio check.  Returns (fab, points, scale, arc interiors).
    """
    s_c = rng.uniform(400.0, 600.0)
    s_s = s_c * rng.uniform(0.8, 1.2)
    fab = (s_c, s_s, s_s * rng.uniform(0.35, 0.6))
    section = cs.forward_geometry(cs.FabricationParams(*fab))
    side = section.sides[1]
    points, interiors = reference.section_outline(
        section.center.radius, section.center.arc_angle,
        side.radius, side.arc_angle, side.center_x, vertices)
    sx, sy = rng.uniform(0.99, 1.01), rng.uniform(0.99, 1.01)
    points = [(x * sx, y * sy) for x, y in points]
    return fab, points, sx * sy, interiors


class OutlineCompare(Workload):
    """What ``crosssec compare`` does, in-process, on seeded outlines."""

    name = "outline_compare"
    LOW, HIGH = 856, 1800

    def setup(self):
        self.cs = _import_crosssec()
        rng = random.Random(self.seed)
        valid, bowties = (3, 1) if self.smoke else (18, 2)
        for i in range(valid + bowties):
            # vertex counts and bowtie crossing positions sit at the middle
            # of equal strata, so that the cost of a pass over the outlines
            # does not depend on the seed; the seed moves everything else
            stratum = i if i < valid else i - valid
            strata = valid if i < valid else bowties
            vertices = round(self.LOW + (self.HIGH - self.LOW) * (stratum + 0.5) / strata)
            fab, points, scale, interiors = make_outline(self.cs, rng, vertices)
            path = self.tmpdir / f"outline_{i:02d}.csv"
            if i < valid:
                expect = (scale,)
            else:
                candidates = [k for r in interiors for k in r if k + 1 in r]
                k = candidates[int((stratum + 0.5) / strata * len(candidates))]
                points[k], points[k + 1] = points[k + 1], points[k]
                if not reference.segments_cross(points[k - 1], points[k],
                                                points[k + 1], points[k + 2]):
                    self.problems.append(f"bowtie {i} does not cross itself")
                expect = ("reject",)
            write_outline(path, points, clockwise=rng.random() < 0.5)
            self.ops.append(Op("compare", (str(path), fab), expect))
        rng.shuffle(self.ops)
        self.warm_up(2)

    def run(self, op):
        cs = self.cs
        path, fab = op.args
        measured = cs.serialize.read_outline_csv(path)
        section = cs.forward_geometry(cs.FabricationParams(*fab))
        ratio = cs.area_ratio(measured, section)
        text = cs.serialize.to_json({
            "measured_area_mm2": measured.signed_area(),
            "model_area_mm2": section.total_area,
            "area_ratio": ratio,
        })
        return ratio, text

    def check(self, op, result, error):
        if op.expect == ("reject",):
            return isinstance(error, self.cs.DegeneratePolygon)
        if error is not None:
            return False
        ratio, text = result
        return abs(ratio - op.expect[0]) <= 1e-6 and text.startswith("{")


CLI_MODES = ("inverse", "forward", "shape", "sweep", "oracle", "compare", "force")


def _num(value: float) -> str:
    return repr(float(value))


class ColdCli(Workload):
    """The seven CLI modes, each run as a fresh ``python -m crosssec.cli``
    process with seeded flags.  Not a timed workload (see README.md): the
    traced run of ``design_loop`` uses it to split a cold invocation into
    interpreter start, imports and work."""

    def setup(self):
        rng = random.Random(self.seed)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.env.pop("PYTHONHOME", None)
        tmp = self.tmpdir
        h_c = rng.uniform(60.0, 200.0)
        h_s = h_c * rng.uniform(0.3, 0.7)
        spec = ["--hc", _num(h_c), "--hs", _num(h_s),
                "--w", _num(h_c + 2.0 * h_s * rng.uniform(0.3, 0.9))]
        s_c = rng.uniform(100.0, 200.0)
        s_s = s_c * rng.uniform(0.7, 1.3)
        fab = ["--sc", _num(s_c), "--ss", _num(s_s),
               "--l", _num(s_s * rng.uniform(0.3, 0.7))]
        perimeter = rng.uniform(400.0, 700.0)
        arcs = ",".join(_num(perimeter * f) for f in (0.15, 0.2, 0.25, 0.3))
        strips = ",".join(_num(perimeter * f) for f in (0.03, 0.06, 0.09, 0.12))
        outline_fab, points, _, _ = make_outline(_import_crosssec(), rng,
                                                  OutlineCompare.LOW)
        outline = tmp / "outline.csv"
        write_outline(outline, points, clockwise=False)
        args = {
            "inverse": ["inverse", *spec],
            "forward": ["forward", *fab],
            "shape": ["shape", *spec, "--svg", str(tmp / "shape.svg")],
            "sweep": ["sweep", "--perimeter", _num(perimeter), "--sc", arcs,
                      "--l", strips, "--csv", str(tmp / "sweep.csv")],
            "oracle": ["oracle", "--sc", _num(s_c), "--l",
                       _num(rng.uniform(0.0, 2.0) * s_c), "--grid-points", "100000"],
            "compare": ["compare", "--outline", str(outline),
                        "--sc", _num(outline_fab[0]), "--ss", _num(outline_fab[1]),
                        "--l", _num(outline_fab[2])],
            "force": ["force", "--pressure-kpa", _num(rng.uniform(1.0, 40.0)), *fab],
        }
        self.ops = [Op(mode, tuple(args[mode])) for mode in CLI_MODES]
        # the first, discarded invocation of each mode warms the file cache;
        # its stdout is the reference later invocations must reproduce
        self.reference = {}
        for op in self.ops:
            proc = self.run(op)
            if proc.returncode != 0 or not _parses(op.kind, proc.stdout):
                self.problems.append(
                    f"first {op.kind} invocation: exit {proc.returncode}, "
                    f"stderr {proc.stderr.decode(errors='replace').strip()!r}")
            self.reference[op.kind] = proc.stdout

    def command(self, op):
        return [sys.executable, "-m", "crosssec.cli", *op.args]

    def run(self, op):
        return subprocess.run(self.command(op), env=self.env, cwd=self.tmpdir,
                              capture_output=True, timeout=60, check=False)

    def check(self, op, result, error):
        return (error is None and result.returncode == 0
                and result.stdout == self.reference[op.kind])


def _parses(mode: str, stdout: bytes) -> bool:
    text = stdout.decode("utf-8", errors="replace")
    if mode == "sweep":
        return text.startswith("S_c_mm,") and text.count("\n") == 17
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


WORKLOADS = {w.name: w for w in (DesignLoop, OracleScan, OutlineCompare)}
