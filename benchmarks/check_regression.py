#!/usr/bin/env python
"""Fail CI when a benchmark run regresses against its committed baseline.

Usage::

    python benchmarks/check_regression.py CURRENT.json BASELINE.json [--max-regression 0.25]

Only machine-independent metrics are compared — cache ``speedup`` ratios,
per-layer ``hit_rate`` fractions and ``*_ref_s`` durations in reference
seconds — never raw wall seconds, which depend on the runner.  Reference
seconds are wall seconds scaled by the machine's speed while they ran
(``perfbench.speed.SpeedMeter``), so they carry over between machines.
Ratios and fractions are better higher, and regress when::

    current < baseline * (1 - max_regression)

reference seconds are better lower, and regress when::

    current > baseline * (1 + max_regression)

Improvements and new benchmarks never fail; a benchmark present in the
baseline but missing from the current run does (it means the suite silently
stopped measuring something).

Exit codes: 0 ok, 1 regression, 2 missing/unreadable baseline (a setup
problem, not a perf problem — commit a baseline rather than loosening the
gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator, Tuple


#: Suffix of the metrics that are durations in reference seconds (lower is better).
REF_SECONDS = "_ref_s"


def comparable_metrics(payload: dict) -> Iterator[Tuple[str, float]]:
    """Yield ("bench.metric", value) for every machine-independent metric."""
    for bench, metrics in sorted(payload.get("results", {}).items()):
        if "speedup" in metrics:
            yield f"{bench}.speedup", float(metrics["speedup"])
        for key, value in sorted(metrics.items()):
            if key.endswith(REF_SECONDS):
                yield f"{bench}.{key}", float(value)
        for layer, row in sorted(metrics.get("hit_rates", {}).items()):
            yield f"{bench}.hit_rate.{layer}", float(row.get("hit_rate", 0.0))


def check(current: dict, baseline: dict, max_regression: float) -> int:
    """Print a comparison table; return the number of failing metrics."""
    current_metrics = dict(comparable_metrics(current))
    failures = 0
    print(f"{'metric':48s} {'baseline':>10s} {'current':>10s}  status")
    for name, base_value in comparable_metrics(baseline):
        value = current_metrics.get(name)
        if value is None:
            print(f"{name:48s} {base_value:10.3f} {'-':>10s}  MISSING")
            failures += 1
            continue
        if name.endswith(REF_SECONDS):
            ceiling = base_value * (1.0 + max_regression)
            regressed = value > ceiling
            status = f"REGRESSED (ceiling {ceiling:.3f})" if regressed else "ok"
        else:
            floor = base_value * (1.0 - max_regression)
            regressed = value < floor
            status = f"REGRESSED (floor {floor:.3f})" if regressed else "ok"
        failures += regressed
        print(f"{name:48s} {base_value:10.3f} {value:10.3f}  {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly generated BENCH_*.json")
    parser.add_argument("baseline", type=Path, help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional drop vs baseline (default 0.25)",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"baseline not found: {args.baseline}")
        print(
            "This benchmark has no committed baseline yet.  Generate one and "
            "commit it:\n"
            f"  PYTHONPATH=src python -m pytest benchmarks/ -q   # writes {args.current.name}\n"
            f"  cp {args.current} {args.baseline}\n"
            "then re-run this check."
        )
        return 2
    if not args.current.exists():
        print(f"current benchmark output not found: {args.current}")
        print("Run the benchmark suite first (PYTHONPATH=src python -m pytest benchmarks/ -q).")
        return 2

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures = check(current, baseline, args.max_regression)
    if failures:
        print(f"\n{failures} metric(s) regressed more than {args.max_regression:.0%}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
