"""Benchmark: the streaming analysis engine vs the batch entry points.

Two headline numbers:

* **streaming_equivalence** — one pass through the CLI's bundle, in
  reference seconds (``perfbench.speed.SpeedMeter``): the median of
  :data:`ROUNDS` rounds, each the mean of :data:`PASSES` passes.  The batch
  path (detect, then the batch analyses of the bundle's members) is timed
  beside it, and the two must return the same results;
* **streaming_memory** — folding a persisted dataset through
  ``iter_observations`` with the CLI's bounded bundle must allocate far
  less than the slurp-then-analyze path (the ratio is the payoff of the
  streaming refactor).

``streaming_ref_s`` feeds the CI regression gate (``check_regression.py``);
raw seconds, the batch/streaming ratio, byte counts and ``memory_ratio``
are informational.  A ratio of two 30-50 ms passes is not gated: one busy
moment on a shared runner moved it by half.
"""

import statistics
import time
import tracemalloc

import pytest

from perfbench.speed import SpeedMeter
from repro.analysis.__main__ import streaming_bundle_spec
from repro.core.clustering import cluster_canvases
from repro.core.detection import FingerprintDetector
from repro.core.evasion import analyze_serving_context, render_twice_fraction
from repro.core.prevalence import compute_prevalence
from repro.crawler.crawl import run_crawl
from repro.crawler.storage import iter_observations, load_dataset, save_dataset


#: Timed rounds of the streaming pass; the gate reads their median.
ROUNDS = 5
#: Passes per round, so that each round lasts long enough for the speed
#: meter to sample it several times.
PASSES = 5


@pytest.fixture(scope="module")
def control(world):
    return run_crawl(world.network, world.all_targets, label="control")


def test_bench_streaming_equals_batch(benchmark, bench_json, control):
    detector = FingerprintDetector()

    def batch():
        outcomes = detector.detect_all(control.successful())
        populations = control.populations()
        return (
            cluster_canvases(outcomes, populations),
            compute_prevalence(control, outcomes),
            render_twice_fraction(outcomes),
            analyze_serving_context(outcomes, populations, dns=None),
        )

    def stream():
        bundle = streaming_bundle_spec().build()
        for observation in control.observations:
            bundle.ingest(observation)
        return tuple(
            bundle.finalize_member(member)
            for member in ("cluster", "prevalence", "render_twice", "serving")
        )

    def best_of(fn, rounds=3):
        seconds = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - t0)
        return min(seconds)

    def streaming_round():
        with SpeedMeter() as meter:
            started = time.perf_counter()
            for _ in range(PASSES):
                stream()
            seconds = (time.perf_counter() - started) / PASSES
        return seconds * meter.speed()

    batch_result = batch()
    streamed = benchmark.pedantic(stream, rounds=3, iterations=1)
    assert streamed == batch_result

    batch_seconds = best_of(batch)
    streaming_seconds = best_of(stream)
    streaming_rounds = [streaming_round() for _ in range(ROUNDS)]
    streaming_ref_s = statistics.median(streaming_rounds)

    bench_json(
        "analysis",
        "streaming_equivalence",
        sites=len(control.observations),
        batch_seconds=batch_seconds,
        streaming_seconds=streaming_seconds,
        batch_over_streaming=batch_seconds / max(streaming_seconds, 1e-9),
        streaming_ref_s=streaming_ref_s,
        streaming_rounds=streaming_rounds,
    )
    print()
    print(
        f"batch {batch_seconds:.3f}s vs streaming {streaming_seconds:.3f}s "
        f"over {len(control.observations)} sites; streaming pass {streaming_ref_s:.4f} ref s "
        f"(median of {', '.join(f'{r:.4f}' for r in streaming_rounds)})"
    )


def test_bench_streaming_memory(bench_json, control, tmp_path):
    path = tmp_path / "crawl.jsonl.gz"
    save_dataset(control, path)
    detector = FingerprintDetector()

    tracemalloc.start()
    dataset = load_dataset(path)
    outcomes = detector.detect_all(dataset.successful())
    slurped = compute_prevalence(dataset, outcomes)
    _, slurp_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del dataset, outcomes

    tracemalloc.start()
    bundle = streaming_bundle_spec().build()
    for observation in iter_observations(path):
        bundle.ingest(observation)
    streamed = bundle.finalize_member("prevalence")
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert streamed == slurped
    memory_ratio = slurp_peak / max(stream_peak, 1)
    bench_json(
        "analysis",
        "streaming_memory",
        slurp_peak_bytes=slurp_peak,
        stream_peak_bytes=stream_peak,
        memory_ratio=memory_ratio,
    )
    print()
    print(
        f"slurp peak {slurp_peak / 1e6:.1f}MB vs streaming peak "
        f"{stream_peak / 1e6:.1f}MB ({memory_ratio:.1f}x)"
    )

