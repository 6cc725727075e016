"""Collector pauses are booked to the ``gc`` perf layer, workers included."""

import gc
import os
import time

from repro import obs
from repro.config import StudyScale
from repro.obs.metrics import layer_rows
from repro.webgen import build_world


def _gc_seconds(snapshot):
    return snapshot.get("gc", {}).get("miss_seconds", 0.0)


def test_forced_collection_is_booked():
    before = _gc_seconds(layer_rows(obs.METRICS.snapshot()))
    cycles = [[] for _ in range(10_000)]
    for item in cycles:
        item.append(item)
    del cycles, item
    gc.collect()
    assert _gc_seconds(layer_rows(obs.METRICS.snapshot())) > before


def test_parallel_study_reports_worker_collections():
    """A jobs=2 study's gc layer holds more than the parent's own pauses.

    Forked workers inherit the test's hook too, and it returns at once
    outside the parent, so ``own`` holds the parent's pauses alone.
    """
    parent, own, started = os.getpid(), [], []

    def parent_pauses(phase, info):
        if os.getpid() != parent:
            return
        if phase == "start":
            started.append(time.perf_counter())
        else:
            own.append(time.perf_counter() - started.pop())

    world = build_world(StudyScale(fraction=0.005, seed=31))
    gc.callbacks.append(parent_pauses)
    try:
        result = world.run_full_study(include_adblock_crawls=False, jobs=2)
    finally:
        gc.callbacks.remove(parent_pauses)
    crawl = next(t for t in result.stage_timings if t.name == "crawl")
    assert _gc_seconds(crawl.details["perf"]) > 0
    assert _gc_seconds(result.perf_counters) > sum(own) + 0.001
    assert result.metrics["gauges"]["process.peak_rss_mb"] > 0
