"""Streaming analysis through the full study pipeline.

The reduce stage is the study's one fold: it ingests every control
observation exactly once, in the parent, whatever executed the crawl, and
the stage cache is its only cache.  The ``analysis.ingest.sites`` counter
makes that visible.  That serial, parallel and warm runs produce the same
``StudyResult`` is pinned in ``tests/test_pipeline_stages.py``.
"""

import pytest

from repro import obs
from repro.config import StudyScale
from repro.core.pipeline import run_study
from repro.crawler.shards import ExecutionConfig
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


class TestOneFold:
    def test_each_run_folds_every_control_site_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runs = (
            ("serial", {}, 1),
            ("jobs=2", {"execution": ExecutionConfig(jobs=2)}, 1),
            ("cold cache", {"cache_dir": cache_dir}, 1),
            ("warm cache", {"cache_dir": cache_dir}, 0),
        )
        for mode, kwargs, folds in runs:
            world = build_world(SCALE)
            _, counters = run_with_counters(world, include_adblock_crawls=False, **kwargs)
            sites = counters.get("analysis.ingest.sites", 0)
            assert sites == folds * len(world.all_targets), mode


class TestIncrementalAppend:
    def test_appended_cached_study_equals_uncached(self, world, tmp_path):
        cache_dir = tmp_path / "cache"
        base, appended = 64, 80
        assert len(world.all_targets) >= appended

        run_with_counters(
            world,
            targets=world.all_targets[:base],
            stages=["prevalence"],
            cache_dir=cache_dir,
        )
        grown, counters = run_with_counters(
            world,
            targets=world.all_targets[:appended],
            stages=["prevalence"],
            cache_dir=cache_dir,
        )
        # A grown crawl is a new reduce input: it is folded whole, once.
        assert counters.get("analysis.ingest.sites", 0) == appended

        fresh_world = build_world(SCALE)
        fresh, _ = run_with_counters(
            fresh_world,
            targets=fresh_world.all_targets[:appended],
            stages=["prevalence"],
        )
        assert grown.prevalence == fresh.prevalence
