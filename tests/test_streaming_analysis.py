"""Streaming analysis through the full study pipeline.

Pins the engine's three execution modes against each other:

* **live partials** — no cache: crawl workers fold observations as pages
  land and ship bundle partials home with their records;
* **block-cached fold** — with a stage cache: the reduce stage folds the
  dataset through content-addressed block partials, so appending sites to
  a study re-ingests only the new blocks;
* **batch** — the monolithic entry points, which are thin drivers over the
  same reducers.

All three must produce identical reports; the cached mode must also prove
it only did delta work (``analysis.*`` counters).
"""

import math

import pytest

from repro import obs
from repro.config import StudyScale
from repro.core.pipeline import run_study
from repro.core.stages.study import ReduceStage
from repro.crawler.shards import ExecutionConfig
from repro.crawler.supervisor import SupervisorConfig
from repro.webgen import build_world

SCALE = StudyScale(fraction=0.01, seed=606)


@pytest.fixture(scope="module")
def world():
    return build_world(SCALE)


def counter_delta(before, after):
    b = before["counters"]
    return {
        name: value - b.get(name, 0)
        for name, value in after["counters"].items()
        if value != b.get(name, 0)
    }


def run_with_counters(world, **kwargs):
    before = obs.METRICS.snapshot()
    result = run_study(
        world.network,
        world.all_targets if "targets" not in kwargs else kwargs.pop("targets"),
        world.vendor_knowledge(),
        easylist_text=world.easylist_text,
        easyprivacy_text=world.easyprivacy_text,
        disconnect=world.disconnect,
        ubo_extra_text=world.ubo_extra_text,
        dns=world.network.dns,
        **kwargs,
    )
    return result, counter_delta(before, obs.METRICS.snapshot())


class TestStreamingEqualsBatch:
    def test_live_fold_and_block_fold_agree_and_report_their_mode(self, tmp_path):
        live_world, cached_world = build_world(SCALE), build_world(SCALE)
        live, live_counters = run_with_counters(
            live_world, include_adblock_crawls=False, execution=ExecutionConfig(jobs=2)
        )
        cached, cached_counters = run_with_counters(
            cached_world,
            include_adblock_crawls=False,
            execution=ExecutionConfig(jobs=2),
            cache_dir=tmp_path / "cache",
        )
        assert live == cached
        # No cache -> crawl workers folded partials, reduce popped the live
        # bundle; with a cache -> block-partial fold, no live bundle.
        assert live_counters.get("analysis.fold.live", 0) >= 1
        assert live_counters.get("analysis.merge.partials", 0) >= 1
        assert "analysis.block.misses" not in live_counters
        assert cached_counters.get("analysis.block.misses", 0) >= 1
        assert "analysis.fold.live" not in cached_counters

    def test_supervised_streaming_study_equals_unsupervised(self, world):
        unsupervised = build_world(SCALE).run_full_study(include_adblock_crawls=False)
        before = obs.METRICS.snapshot()
        supervised = build_world(SCALE).run_full_study(
            include_adblock_crawls=False,
            jobs=2,
            supervisor=SupervisorConfig(liveness_deadline_s=30.0),
        )
        counters = counter_delta(before, obs.METRICS.snapshot())
        assert supervised == unsupervised
        # Supervised workers shipped analysis partials with their results.
        assert counters.get("analysis.merge.partials", 0) >= 1
        assert counters.get("analysis.fold.live", 0) >= 1


class TestIncrementalAppend:
    def test_appending_sites_reingests_only_the_new_blocks(
        self, world, tmp_path, monkeypatch
    ):
        block = 8
        monkeypatch.setattr(ReduceStage, "DEFAULT_BLOCK_SIZE", block)
        cache_dir = tmp_path / "cache"
        base, appended = 8 * block, 10 * block
        assert len(world.all_targets) >= appended

        _, cold = run_with_counters(
            world,
            targets=world.all_targets[:base],
            stages=["prevalence"],
            cache_dir=cache_dir,
        )
        assert cold.get("analysis.block.misses", 0) == base // block
        assert cold.get("analysis.block.hits", 0) == 0
        assert cold.get("analysis.ingest.sites", 0) == base

        grown, warm = run_with_counters(
            world,
            targets=world.all_targets[:appended],
            stages=["prevalence"],
            cache_dir=cache_dir,
        )
        # Every pre-existing block is a cache hit; only the appended sites
        # were re-ingested.  This is the streaming engine's delta property.
        assert warm.get("analysis.block.hits", 0) == base // block
        assert warm.get("analysis.block.misses", 0) == math.ceil(
            (appended - base) / block
        )
        assert warm.get("analysis.ingest.sites", 0) == appended - base

        # Delta work, same answer: an uncached run over the same prefix
        # (fresh world, same seed) must produce the identical report.
        fresh_world = build_world(SCALE)
        fresh, _ = run_with_counters(
            fresh_world,
            targets=fresh_world.all_targets[:appended],
            stages=["prevalence"],
        )
        assert grown.prevalence == fresh.prevalence
