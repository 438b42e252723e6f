#!/usr/bin/env python3
"""crosssec benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design_loop --seed 1 --seconds 10 --trace 0

Workloads: design_loop, oracle_scan, outline_compare (see
perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  crosssec is
imported from ``src/`` of the same checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402  (imports no crosssec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "crosssec"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no crosssec sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import harness

    result = harness.run(ROOT, args.workload, args.seed, args.seconds,
                         bool(args.trace), smoke=args.smoke)
    import crosssec

    if package not in Path(crosssec.__file__).resolve().parents:
        print(f"perfbench: imported crosssec from {crosssec.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(result.environment, sort_keys=True))
    for problem in result.problems:
        print(f"problem: {problem}")
    for target in result.absent:
        print(f"absent layer hook: {target}")
    ratio = result.failed / result.attempted
    print(f"{'failed_ratio':32s} {ratio:<14.6g} 1  ({result.failed}/{result.attempted})")
    for name, metric in result.metrics.items():
        note = f"  ({metric[2]})" if len(metric) > 2 else ""
        print(f"{name:32s} {metric[0]:<14.6g} {metric[1]}{note}")
    print(json.dumps(result.record()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
