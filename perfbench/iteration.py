"""One benchmark iteration, in a fresh interpreter started by ``run.py``.

Set-up, one timed body, the correctness gate, then one JSON result file.
Usage (``run.py`` passes these)::

    python -m perfbench.iteration --workload study --seed 20250504 \\
        --traced 0 --launched <time.monotonic() at launch> --out <dir>

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process; Linux's monotonic clock is shared between processes, so
``setup_s`` covers interpreter launch, imports and the world build.

Every duration in the result is in reference seconds: the measured duration
times the machine's speed, which a :class:`~perfbench.speed.SpeedMeter`
samples while the set-up or the body runs.  The measured durations and the
speeds go into the result's ``measured`` entry.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench import layers
from perfbench.speed import LocalSpeed, SpeedMeter
from perfbench.trace import Tracer, load_spans
from perfbench.workloads import WORKLOADS


def _percentile(values, q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles`` places it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports KiB


def run(workload_name: str, seed: int, traced: bool, launched: float, out: Path) -> dict:
    with SpeedMeter() as setup_meter:
        import repro
        from repro import perf

        source_root = Path(__file__).resolve().parent.parent / "src"
        if source_root not in Path(repro.__file__).resolve().parents:
            raise RuntimeError(f"imported repro from {repro.__file__}, not from {source_root}")

        workload = WORKLOADS[workload_name]
        state = workload.setup(seed, out)
        setup_s = time.monotonic() - launched

    tracer = Tracer(out)
    layers.install(tracer, layers.BOUNDARIES if traced else (layers.PROBE,))
    perf_before = perf.PERF.snapshot()
    with SpeedMeter(out) as meter:
        started = time.perf_counter()
        output = workload.body(state)
        wall_s = time.perf_counter() - started
    tracer.uninstall()
    perf_delta = perf.diff_snapshots(perf_before, perf.PERF.snapshot())
    peak_rss_mb = _peak_rss_mb()
    speed = meter.speed()
    setup_speed = setup_meter.speed()

    processes = [tracer.spans()] + load_spans(out, exclude_pid=os.getpid())
    report = workload.check(state, output)
    latencies = layers.site_ms(processes, LocalSpeed(meter).around)
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "errors": report.errors,
        "digest": report.digest,
        "traced": traced,
        "metrics": {
            "setup_s": setup_s * setup_speed,
            "wall_s": wall_s * speed,
            "site_ms_p50": _percentile(latencies, 50),
            "site_ms_p99": _percentile(latencies, 99),
            "peak_rss_mb": peak_rss_mb,
        },
        "measured": {
            "setup_s": setup_s,
            "setup_speed": setup_speed,
            "wall_s": wall_s,
            "speed": speed,
        },
    }
    if traced:
        study = output.get("result")
        stages = {}
        if study is not None:
            for timing in study.stage_timings:
                stages[timing.name] = stages.get(timing.name, 0.0) + timing.seconds
        per_layer = layers.summarize(processes, os.getpid(), wall_s, perf_delta, stages)
        for name, unit in layers.PER_LAYER.items():
            if unit == "s":
                per_layer[name] *= speed
        crawl_file = state.get("crawl_file")
        per_layer["crawler.storage.bytes"] = crawl_file.stat().st_size if crawl_file else 0
        per_layer["failed_frac"] = report.plan_differs / report.attempted
        result["per_layer"] = per_layer
        # Workers ship their perf counters home with their records; a worker
        # whose spans did not come home shows here as missing compiles.
        counted = perf_delta.get("js.compile", {}).get("misses", 0)
        if per_layer["js.compile.calls"] != counted:
            result["errors"].append(
                f"trace saw {per_layer['js.compile.calls']} compiles; the program counted {counted}"
            )
            result["correct"] = False
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.traced), args.launched, args.out)
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
