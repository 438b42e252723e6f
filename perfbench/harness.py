"""Run one workload and turn its timings into the benchmark's metrics.

Every workload is a closed loop: one caller in one process issues the next
op when the previous one has returned.  End-to-end metrics come from
untraced runs; a traced run alternates untraced and traced windows and
reports the per-layer numbers together with the throughput it cost.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .tracer import Tracer
from .workloads import WORKLOADS, ColdCli, DesignLoop, OracleScan

#: Set-ups measured per untraced run; their median is ``setup_s``.
SETUP_RUNS = 5

#: The tail percentile never goes above this one (see README.md).
TAIL_CAP = 99.0


@dataclass
class Window:
    latencies: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.latencies) - self.failed


def measure(workload, seconds: float, tracer: Tracer | None = None,
            start_index: int = 0) -> Window:
    """Issue ops back to back for ``seconds``; each op's check is untimed."""
    ops = workload.ops
    window = Window()
    i = start_index
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        op = ops[i % len(ops)]
        i += 1
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        result, error = workload.call(op)
        window.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        if not workload.check(op, result, error):
            window.failed += 1
        if time.perf_counter() >= deadline:
            break
    window.wall = time.perf_counter() - began
    return window


def tail(latencies) -> tuple[float, float, int]:
    """The highest percentile, up to p99, with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below p99 this is the
    eleventh-largest sample; with fewer than eleven samples, the largest.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 1000:
        index = math.ceil(TAIL_CAP / 100.0 * n) - 1
    elif n >= 11:
        index = n - 11
    else:
        index = n - 1
    return xs[index], 100.0 * (index + 1) / n, n - 1 - index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def end_to_end(window: Window, setup_s: float, rss_mb: float) -> dict:
    value, pct, beyond = tail(window.latencies)
    attempted = len(window.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (window.completed / window.wall, "ops/s"),
        "latency_p50_ms": (statistics.median(window.latencies) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms",
                            f"p{pct:.2f}, {attempted} samples, {beyond} beyond"),
        "success_ratio": (window.completed / attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def probe_setup(root: Path, name: str, seed: int, smoke: bool) -> None:
    """Child side of a set-up measurement: import crosssec, build the
    workload's inputs, run its checks and warm-up; print the seconds."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, smoke, root, Path(tmp))
        workload.setup()
        elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "problems": workload.problems}))


def measure_setups(root: Path, name: str, seed: int, smoke: bool,
                   runs: int) -> tuple[list[float], list[str]]:
    code = ("from pathlib import Path; "
            "from perfbench.harness import probe_setup; "
            f"probe_setup(Path({str(root)!r}), {name!r}, {seed!r}, {smoke!r})")
    times, problems = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: "
                            f"{proc.stderr.strip().splitlines()[-1:]}")
            continue
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(doc["setup_s"])
        problems += doc["problems"]
    return times, problems


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
    env.pop("PYTHONHOME", None)
    return env


def cli_layers(workload: DesignLoop, problems: list) -> dict:
    """Split a cold CLI invocation into interpreter start, imports and work.

    After one discarded invocation of each of the seven modes, each round
    times ``python -c pass``, ``import numpy`` and ``import crosssec.cli``
    (the imports timed inside the child) and one invocation of every mode,
    checked against the first.  Child processes run one at a time.
    """
    tmpdir = workload.tmpdir / "cli"
    tmpdir.mkdir()
    cli = ColdCli(workload.seed, workload.smoke, workload.root, tmpdir)
    cli.setup()
    problems += cli.problems

    def child(code):
        proc = subprocess.run([sys.executable, "-c", code], env=cli.env, cwd=tmpdir,
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            problems.append(f"python -c {code!r} exited {proc.returncode}")
        return proc.stdout

    timed_import = ("import time; t = time.perf_counter(); import {}; "
                    "print(time.perf_counter() - t)")
    interpreter, numpy_import, cli_import, invocations = [], [], [], []
    for _ in range(2 if workload.smoke else 5):
        start = time.perf_counter()
        child("pass")
        interpreter.append(time.perf_counter() - start)
        numpy_import.append(float(child(timed_import.format("numpy")) or 0.0))
        cli_import.append(float(child(timed_import.format("crosssec.cli")) or 0.0))
        for op in cli.ops:
            start = time.perf_counter()
            proc = cli.run(op)
            invocations.append(time.perf_counter() - start)
            if not cli.check(op, proc, None):
                problems.append(f"cold {op.kind} invocation differs from its first")
    p50 = statistics.median
    return {
        "cli.interpreter_ms": (p50(interpreter) * 1e3, "ms"),
        "cli.numpy_import_ms": (p50(numpy_import) * 1e3, "ms"),
        "cli.import_ms": (p50(cli_import) * 1e3, "ms"),
        "cli.work_ms": ((p50(invocations) - p50(interpreter) - p50(cli_import)) * 1e3,
                        "ms"),
    }


def oracle_bytes_per_point(workload: OracleScan) -> float:
    """Peak bytes the oracle allocates while scanning, per grid point.

    Computed from the sizes of the arrays the scan allocates (as traced by
    ``tracemalloc``), not from a bandwidth measurement.
    """
    import tracemalloc

    op = workload.ops[0]
    tracemalloc.start()
    try:
        workload.run(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / workload.grid_points


def traced(workload, seconds: float, problems: list) -> tuple[dict, int, int, list]:
    """Alternate untraced and traced windows (U T T U, which cancels a
    linear drift) and report the per-layer numbers."""
    tracer = Tracer()
    untraced, traced_w = [], []
    index = 0
    for kind in "UTTU":
        if kind == "U":
            window = measure(workload, seconds / 4.0, None, index)
            untraced.append(window)
        else:
            tracer.install()
            try:
                window = measure(workload, seconds / 4.0, tracer, index)
            finally:
                tracer.uninstall()
            traced_w.append(window)
        index += len(window.latencies)
    traced_ops = sum(len(w.latencies) for w in traced_w)
    metrics = tracer.metrics(traced_ops)

    def rate(windows):
        return sum(w.completed for w in windows) / sum(w.wall for w in windows)

    t_rate, u_rate = rate(traced_w), rate(untraced)
    windows = untraced + traced_w
    metrics["kernels.bytes_per_point"] = (
        oracle_bytes_per_point(workload) if isinstance(workload, OracleScan) else 0.0,
        "B/point")
    cli = cli_layers(workload, problems) if isinstance(workload, DesignLoop) else {}
    for name in ("cli.interpreter_ms", "cli.numpy_import_ms", "cli.import_ms",
                 "cli.work_ms"):
        metrics[name] = cli.get(name, (0.0, "ms"))
    metrics["trace.untraced_ops_s"] = (u_rate, "ops/s")
    metrics["trace.traced_ops_s"] = (t_rate, "ops/s")
    metrics["trace.overhead_ratio"] = (1.0 - t_rate / u_rate, "1")
    metrics["trace.absent_hooks"] = (float(len(tracer.absent)), "count")
    return (metrics, sum(len(w.latencies) for w in windows),
            sum(w.failed for w in windows), tracer.absent)


def environment(root: Path, seed: int) -> dict:
    """What a result needs beside it to be compared with another."""
    import importlib.util

    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }
    if importlib.util.find_spec("crosssec.kernels") is None:
        env["grid_kernel"] = "crosssec.kernels absent"
    else:
        import crosssec.kernels as kernels

        compiled = getattr(kernels, "COMPILED", None)
        scan = getattr(kernels, "center_area_grid_argmax", None)
        env["grid_kernel"] = {"COMPILED": compiled,
                              "module": getattr(scan, "__module__", None)}
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    problems: list
    environment: dict
    absent: list = field(default_factory=list)

    def record(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": m[0], "unit": m[1]}
                            for name, m in self.metrics.items()}}


def run(root: Path, name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> Result:
    """Set up, measure and check one workload; the caller prints."""
    cls = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        setups, problems = [], []
        if not trace:
            setups, problems = measure_setups(root, name, seed, smoke,
                                              1 if smoke else SETUP_RUNS)
        workload = cls(seed, smoke, root, Path(tmp))
        start = time.perf_counter()
        workload.setup()
        setups = setups or [time.perf_counter() - start]
        problems += workload.problems
        absent = []
        if trace:
            metrics, attempted, failed, absent = traced(workload, seconds, problems)
        else:
            window = measure(workload, seconds)
            attempted, failed = len(window.latencies), window.failed
            metrics = end_to_end(window, statistics.median(setups), peak_rss_mb())
    env = environment(root, seed)
    correct = failed == 0 and not problems and all(
        math.isfinite(m[0]) for m in metrics.values())
    return Result(correct, attempted, failed, metrics, problems, env, absent)
