"""Benchmark: the staged pipeline — end-to-end wall time, per-stage
timings, and the warm stage-cache path.

A cold run executes every stage and populates the content-addressed cache;
a warm run over the same world must resolve every stage from cache, perform
zero page loads, and return an identical :class:`StudyResult`.  The gated
number is what only this benchmark measures: the warm path, as the median
of three rounds in reference seconds (``perfbench.speed.SpeedMeter``).  The
cold path is the study that perfbench's workloads measure; the cold/warm
ratio is printed and must stay above 2, but is not gated, because a faster
cold path lowers it.  The per-stage table shows where the cold time goes
(the crawl dominates, by design).
"""

import os
import statistics
import tempfile
import time
from pathlib import Path

from perfbench.speed import SpeedMeter
from repro.config import StudyScale
from repro.webgen import build_world


def _fresh_world():
    fraction = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
    return build_world(StudyScale(fraction=fraction))


def test_bench_pipeline_cold_vs_warm(benchmark, bench_json):
    cache_dir = Path(tempfile.mkdtemp()) / "stage-cache"

    t0 = time.perf_counter()
    cold = _fresh_world().run_full_study(jobs=2, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - t0
    assert all(not t.cached for t in cold.stage_timings)

    warm_rounds = []

    def warm_run():
        with SpeedMeter() as meter:
            started = time.perf_counter()
            result = _fresh_world().run_full_study(jobs=2, cache_dir=cache_dir)
            seconds = time.perf_counter() - started
        warm_rounds.append(seconds * meter.speed())
        return result

    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    assert all(t.cached for t in warm.stage_timings)
    assert warm == cold

    warm_seconds = sum(t.seconds for t in warm.stage_timings)
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    assert speedup > 2, f"warm cache should be much faster (got {speedup:.1f}x)"
    warm_ref_s = statistics.median(warm_rounds)

    bench_json(
        "pipeline",
        "cold_vs_warm",
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        warm_ref_s=warm_ref_s,
        warm_rounds=warm_rounds,
        stages={t.name: t.seconds for t in cold.stage_timings},
        render_cache={
            layer: {k: row.get(k, 0.0) for k in ("hits", "misses", "hit_rate", "saved_seconds")}
            for layer, row in cold.perf_counters.items()
        },
    )

    print()
    print(f"cold end-to-end: {cold_seconds:.2f}s; warm stages: {warm_seconds:.3f}s "
          f"({speedup:.0f}x speedup); warm path {warm_ref_s:.3f} ref s "
          f"(median of {', '.join(f'{r:.3f}' for r in warm_rounds)})")
    print(f"{'stage':18s} {'cold':>9s} {'warm':>9s}")
    warm_by_name = {t.name: t for t in warm.stage_timings}
    for t in cold.stage_timings:
        w = warm_by_name.get(t.name)
        print(f"{t.name:18s} {t.seconds:8.3f}s {w.seconds if w else 0.0:8.3f}s")


def test_bench_pipeline_serial_vs_parallel(benchmark, bench_json):
    """End-to-end study wall time with sharded parallel crawls."""
    result = benchmark.pedantic(
        lambda: _fresh_world().run_full_study(jobs=4), rounds=1, iterations=1
    )
    crawl_seconds = sum(
        t.seconds
        for t in result.stage_timings
        if t.name == "crawl" or t.name.startswith("crawl.")
    )
    total_seconds = sum(t.seconds for t in result.stage_timings)
    bench_json(
        "pipeline",
        "parallel_crawl",
        total_seconds=total_seconds,
        crawl_seconds=crawl_seconds,
        stages={t.name: t.seconds for t in result.stage_timings},
    )
    print()
    print(f"stages total {total_seconds:.2f}s, crawls {crawl_seconds:.2f}s "
          f"({crawl_seconds / max(total_seconds, 1e-9):.0%} of pipeline)")
    for t in result.stage_timings:
        print(f"  {t.name:18s} {t.seconds:8.3f}s")
    assert result.prevalence is not None
