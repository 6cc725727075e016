"""The study's one detection pass, through the full study pipeline.

The ``detect`` stage classifies every successful control page exactly once,
in the parent, whatever executed the crawl, and every later analysis reads
its outcomes; the stage cache is its only cache.  A spy on
:meth:`FingerprintDetector.detect`, keyed by observation identity, makes
that visible.  That serial, parallel and warm runs produce the same
``StudyResult`` is pinned in ``tests/test_invariance_matrix.py``.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.config import StudyScale
from repro.core.detection import FingerprintDetector
from repro.core.pipeline import run_study
from repro.crawler.shards import ExecutionConfig
from repro.webgen import build_world

SCALE = StudyScale(fraction=0.01, seed=606)


@pytest.fixture(scope="module")
def world():
    return build_world(SCALE)


@pytest.fixture
def detected(monkeypatch):
    """id(observation) -> how many times ``FingerprintDetector.detect`` ran on it."""
    counts = Counter()
    # Holds every detected observation, so no id is reused during the test.
    seen = []
    detect = FingerprintDetector.detect

    def spy(self, observation):
        counts[id(observation)] += 1
        seen.append(observation)
        return detect(self, observation)

    monkeypatch.setattr(FingerprintDetector, "detect", spy)
    return counts


def detections(counts, dataset):
    return [counts[id(observation)] for observation in dataset.observations]


def study(world, targets=None, **kwargs):
    config = world.study_config()
    if targets is not None:
        config = replace(config, targets=targets)
    return run_study(config, **kwargs)


class TestOneDetectionPass:
    def test_each_run_detects_every_control_page_once(self, detected, tmp_path):
        cache_dir = tmp_path / "cache"
        for mode, kwargs in (
            ("serial", {}),
            ("jobs=2", {"execution": ExecutionConfig(jobs=2)}),
            ("cold cache", {"cache_dir": cache_dir}),
        ):
            result = study(build_world(SCALE), **kwargs)
            assert result.adblock_rows, mode
            expected = [int(o.success) for o in result.control.observations]
            assert detections(detected, result.control) == expected, mode

        detected.clear()
        warm = study(build_world(SCALE), cache_dir=cache_dir)
        assert all(timing.cached for timing in warm.stage_timings)
        assert not detected


class TestIncrementalAppend:
    def test_appended_cached_study_equals_uncached(self, world, detected, tmp_path):
        cache_dir = tmp_path / "cache"
        base, appended = 64, 80
        assert len(world.all_targets) >= appended

        study(
            world,
            targets=world.all_targets[:base],
            stages=["prevalence"],
            cache_dir=cache_dir,
        )
        detected.clear()
        grown = study(
            world,
            targets=world.all_targets[:appended],
            stages=["prevalence"],
            cache_dir=cache_dir,
        )
        # A grown crawl is a new detect input: each of its pages is
        # detected once, and nothing else is.
        assert len(grown.control.observations) == appended
        expected = [int(o.success) for o in grown.control.observations]
        assert detections(detected, grown.control) == expected
        assert sum(detected.values()) == sum(expected)

        fresh_world = build_world(SCALE)
        fresh = study(
            fresh_world,
            targets=fresh_world.all_targets[:appended],
            stages=["prevalence"],
        )
        assert grown.prevalence == fresh.prevalence
