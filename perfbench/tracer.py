"""Per-layer tracing by hooks on crosssec's module attributes.

A hook replaces a function where its callers look it up, e.g.
``crosssec.solver._assemble`` (how ``forward_geometry`` reaches it) and
``crosssec.geometry._assemble`` (how ``build_cross_section`` does).  A
span hook times each call; a layer's self time is the call's duration
minus the time of the hooked calls made inside it.  A counter hook only
counts calls and, optionally, a size per call.

A target that no longer exists (a module or function removed by a later
refactor) is recorded as absent and skipped, so the traced run still
reports every layer that is left.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Layer:
    """One per-layer timing: the hooked targets share its samples.

    ``size`` extracts a per-call count from ``(args, result)``; its samples
    are kept under ``size_metric`` and the call's duration per unit of size,
    in ns, under ``per_size_metric``.  ``counter`` names a counter whose
    increments during each call are kept under ``counter_metric``.
    """

    metric: str
    unit: str
    targets: tuple[str, ...]
    inclusive: bool = False
    size: object = None
    size_metric: str = ""
    per_size_metric: str = ""
    counter: str = ""
    counter_metric: str = ""


@dataclass(frozen=True)
class Counter:
    name: str
    targets: tuple[str, ...]
    size: object = None


SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}

LAYERS = (
    Layer("solver.forward_us", "us",
          ("crosssec:forward_geometry", "crosssec.analysis:forward_geometry"),
          inclusive=True),
    Layer("solver.center_solve_us", "us", ("crosssec.solver:solve_center_arc_angle",),
          counter="residual", counter_metric="solver.center_residual_evals"),
    Layer("solver.side_solve_us", "us", ("crosssec.solver:solve_side_height",)),
    Layer("solver.oracle_self_ms", "ms", ("crosssec:area_max_oracle",)),
    Layer("geometry.inverse_us", "us",
          ("crosssec:inverse_design", "crosssec.geometry:inverse_design")),
    Layer("geometry.assemble_us", "us",
          ("crosssec.geometry:_assemble", "crosssec.solver:_assemble")),
    Layer("geometry.side_polygon_us", "us",
          ("crosssec.geometry:side_channel_polygon",
           "crosssec.analysis:side_channel_polygon")),
    Layer("polygon.is_simple_ms", "ms", ("crosssec.polygon:Polygon.is_simple",),
          size=lambda args, result: len(args[0]),
          size_metric="polygon.is_simple_vertices"),
    Layer("kernels.scan_ms", "ms", ("crosssec.kernels:center_area_grid_argmax",),
          size=lambda args, result: args[2], size_metric="kernels.grid_points",
          per_size_metric="kernels.ns_per_point"),
    Layer("analysis.area_ratio_ms", "ms", ("crosssec:area_ratio",)),
    Layer("analysis.total_area_us", "us", ("crosssec.analysis:total_area",)),
    Layer("analysis.ergonomic_us", "us",
          ("crosssec:ergonomic_index", "crosssec.analysis:ergonomic_index",
           "crosssec.serialize:ergonomic_index")),
    Layer("serialize.to_json_us", "us", ("crosssec.serialize:to_json",)),
    Layer("serialize.read_outline_csv_ms", "ms", ("crosssec.serialize:read_outline_csv",)),
    Layer("render.svg_us", "us", ("crosssec:render_svg",)),
)

COUNTERS = (
    Counter("residual", ("crosssec.solver:strip_fit_residual",)),
    Counter("arc_points", ("crosssec.geometry:arc_points", "crosssec.polygon:arc_points"),
            size=lambda args, result: len(result)),
)


def _resolve(target: str):
    """(owner, attribute name, current value) or None when absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


def _size(extract, args, result) -> int:
    """A call's size, or 0 when there is no extractor or the call's shape
    changed so that it no longer applies."""
    if extract is None:
        return 0
    try:
        return int(extract(args, result))
    except (TypeError, ValueError, IndexError):
        return 0


class Tracer:
    """Installs the hooks, collects samples while ``enabled``."""

    def __init__(self, layers=LAYERS, counters=COUNTERS):
        self.layers = layers
        self.counters = counters
        self.enabled = False
        self.samples = defaultdict(list)   # metric -> per-call values
        self.counts = defaultdict(int)     # counter -> calls
        self.sizes = defaultdict(int)      # counter -> summed sizes
        self.absent: list[str] = []
        self._open: list[float] = []       # child time of each open span
        self._undo: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for layer in self.layers:
            for target in layer.targets:
                self._hook(target, lambda fn, layer=layer: self._span(fn, layer))
        for counter in self.counters:
            for target in counter.targets:
                self._hook(target, lambda fn, counter=counter: self._count(fn, counter))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _hook(self, target, make_wrapper) -> None:
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, fn = found
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make_wrapper(fn))

    def _span(self, fn, layer: Layer):
        open_spans, samples, counts = self._open, self.samples, self.counts
        scale = SCALE[layer.unit]

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            counted = counts[layer.counter] if layer.counter else 0
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            busy = elapsed if layer.inclusive else elapsed - children
            samples[layer.metric].append(busy * scale)
            size = _size(layer.size, args, result)
            if size:
                samples[layer.size_metric].append(size)
                if layer.per_size_metric:
                    samples[layer.per_size_metric].append(elapsed * 1e9 / size)
            if layer.counter:
                samples[layer.counter_metric].append(counts[layer.counter] - counted)
            return result

        return wrapper

    def _count(self, fn, counter: Counter):
        counts, sizes = self.counts, self.sizes

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                counts[counter.name] += 1
                sizes[counter.name] += _size(counter.size, args, result)
            return result

        return wrapper

    def p50(self, metric: str) -> float:
        values = self.samples.get(metric)
        return statistics.median(values) if values else 0.0

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer values: p50 per call, counts per op or per call."""
        out = {}
        for layer in self.layers:
            out[layer.metric] = (self.p50(layer.metric), layer.unit)
            if layer.size_metric:
                out[layer.size_metric] = (self.p50(layer.size_metric), "count")
            if layer.per_size_metric:
                out[layer.per_size_metric] = (self.p50(layer.per_size_metric), "ns")
            if layer.counter_metric:
                out[layer.counter_metric] = (self.p50(layer.counter_metric), "count")
        per_op = 1.0 / ops if ops else 0.0
        out["polygon.arc_points_calls"] = (self.counts["arc_points"] * per_op, "count")
        out["polygon.arc_vertices"] = (self.sizes["arc_points"] * per_op, "count")
        return out
