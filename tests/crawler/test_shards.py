"""Sharded parallel crawls: planning, merging, equivalence, resume."""

import json

import pytest

from repro.config import StudyScale
from repro.crawler.crawl import CrawlDataset, CrawlTarget, run_crawl
from repro.crawler.shards import (
    ExecutionConfig,
    merge_shard_datasets,
    plan_shards,
    run_sharded_crawl,
    shard_checkpoint_path,
)
from repro.net.server import Network
from repro.webgen import build_world

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 220; c.height = 40;
var g = c.getContext('2d');
g.font = '13px Arial';
g.fillText('shard probe text', 3, 20);
window.__fp = c.toDataURL();
"""


def make_network(n=10):
    net = Network()
    for i in range(n):
        server = net.server_for(f"site-{i}.example")
        server.add_resource("/", f"<html><title>{i}</title><script>{FP_SCRIPT}</script></html>")
    return net


def make_targets(n=10):
    return [
        CrawlTarget(f"site-{i}.example", i + 1, "top" if i % 2 == 0 else "tail")
        for i in range(n)
    ]


class TestPlanShards:
    def test_round_robin_is_deterministic(self):
        targets = make_targets(10)
        assert plan_shards(targets, 3) == plan_shards(targets, 3)
        assert plan_shards(targets, 3)[0] == targets[0::3]
        assert plan_shards(targets, 3)[2] == targets[2::3]

    def test_shards_cover_all_targets_exactly_once(self):
        targets = make_targets(11)
        planned = plan_shards(targets, 4)
        flat = [t for shard in planned for t in shard]
        assert sorted(t.domain for t in flat) == sorted(t.domain for t in targets)

    def test_interleaving_balances_populations(self):
        targets = make_targets(12)  # alternating top/tail
        for shard in plan_shards(targets, 3):
            populations = {t.population for t in shard}
            assert populations == {"top", "tail"}

    def test_more_shards_than_targets_drops_empty(self):
        planned = plan_shards(make_targets(3), 8)
        assert len(planned) == 3
        assert all(shard for shard in planned)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            plan_shards(make_targets(3), 0)


class TestMerge:
    def test_merge_restores_target_order(self):
        targets = make_targets(9)
        network = make_network(9)
        shard_datasets = [
            run_crawl(network, shard, label="control")
            for shard in plan_shards(targets, 3)
        ]
        merged = merge_shard_datasets("control", targets, shard_datasets)
        assert [o.domain for o in merged.observations] == [t.domain for t in targets]

    def test_merged_health_equals_serial_health(self):
        targets = make_targets(8)
        serial = run_crawl(make_network(8), targets, label="control")
        shard_datasets = [
            run_crawl(make_network(8), shard, label="control")
            for shard in plan_shards(targets, 3)
        ]
        merged = merge_shard_datasets("control", targets, shard_datasets)
        assert merged.health() == serial.health()


class TestMergeDegenerateShards:
    """Regression: empty / all-failed shards must not corrupt the merge."""

    def _failed(self, target, reason="dns"):
        from repro.core.records import SiteObservation

        return SiteObservation(
            domain=target.domain, rank=target.rank, population=target.population,
            success=False, failure_reason=reason,
        )

    def test_empty_shard_preserves_global_ordering(self):
        targets = make_targets(6)
        network = make_network(6)
        planned = plan_shards(targets, 3)
        shard_datasets = [
            run_crawl(network, shard, label="control") for shard in planned
        ]
        shard_datasets.insert(1, CrawlDataset(label="control"))  # empty shard
        merged = merge_shard_datasets("control", targets, shard_datasets)
        assert [o.domain for o in merged.observations] == [t.domain for t in targets]

    def test_all_failed_shard_keeps_its_failure_rows(self):
        targets = make_targets(6)
        network = make_network(6)
        planned = plan_shards(targets, 3)
        shard_datasets = [run_crawl(network, planned[0], label="control")]
        failed = CrawlDataset(label="control")
        failed.observations.extend(self._failed(t) for t in planned[1])
        shard_datasets.append(failed)
        shard_datasets.append(run_crawl(network, planned[2], label="control"))
        merged = merge_shard_datasets("control", targets, shard_datasets)
        assert [o.domain for o in merged.observations] == [t.domain for t in targets]
        health = merged.health()
        assert health.successes == len(planned[0]) + len(planned[2])
        assert dict(merged.failure_reasons()) == {"dns": len(planned[1])}

    def test_success_beats_failure_across_duplicate_shards(self):
        """A salvaged failure row never shadows a completed re-crawl."""
        targets = make_targets(4)
        network = make_network(4)
        crawled = run_crawl(network, targets, label="control")
        failed = CrawlDataset(label="control")
        failed.observations.extend(self._failed(t, reason="quarantined:exit:137")
                                   for t in targets[:2])
        # Failure rows first or last — the successful observation always wins.
        for shard_order in ([failed, crawled], [crawled, failed]):
            merged = merge_shard_datasets("control", targets, shard_order)
            assert [o.domain for o in merged.observations] == [
                t.domain for t in targets
            ]
            assert all(o.success for o in merged.observations)

    def test_later_failure_replaces_earlier_failure(self):
        targets = make_targets(2)
        first = CrawlDataset(label="control")
        first.observations.append(self._failed(targets[0], reason="dns"))
        second = CrawlDataset(label="control")
        second.observations.append(self._failed(targets[0], reason="timeout"))
        merged = merge_shard_datasets("control", targets, [first, second])
        assert merged.observations[0].failure_reason == "timeout"

    def test_all_shards_empty_yields_empty_dataset(self):
        targets = make_targets(3)
        merged = merge_shard_datasets(
            "control", targets, [CrawlDataset(label="control")] * 3
        )
        assert merged.observations == []
        assert merged.health().total == 0


class TestSerialParallelEquivalence:
    def test_sharded_serial_equals_plain_crawl(self):
        targets = make_targets(10)
        plain = run_crawl(make_network(10), targets, label="control")
        sharded = run_sharded_crawl(make_network(10), targets, label="control", shards=4)
        assert sharded.observations == plain.observations
        assert sharded.label == plain.label


class TestShardedResume:
    def test_resume_after_partial_shards(self, tmp_path):
        """A killed sharded crawl resumes from per-shard partials."""
        targets = make_targets(10)
        checkpoint_dir = tmp_path / "shards"

        # A complete reference run (no checkpoints at all).
        reference = run_sharded_crawl(make_network(10), targets, label="control")

        # Simulate a kill: crawl only two of the four shards, leaving their
        # checkpoints as .partial files (never finalized).
        planned = plan_shards(targets, 4)
        checkpoint_dir.mkdir()
        for index in (0, 2):
            partial = run_crawl(make_network(10), planned[index], label="control")
            path = shard_checkpoint_path(checkpoint_dir, "control", index, len(planned))
            with open(f"{path}.partial", "w", encoding="utf-8") as fh:
                for obs in partial.observations:
                    fh.write(json.dumps(obs.to_json()) + "\n")

        network = make_network(10)
        served_before = network.requests_served
        resumed = run_sharded_crawl(
            network, targets, label="control", shards=4, checkpoint_dir=checkpoint_dir
        )
        # Only the two un-crawled shards (5 of 10 sites) hit the network.
        assert network.requests_served - served_before < 10
        assert resumed.observations == reference.observations

    def test_parallel_resume_after_partial_shards(self, tmp_path):
        """Resume also works when the re-run is parallel."""
        world = build_world(StudyScale(fraction=0.005, seed=23))
        reference = run_sharded_crawl(world.network, world.all_targets)

        world2 = build_world(StudyScale(fraction=0.005, seed=23))
        checkpoint_dir = tmp_path / "shards"
        checkpoint_dir.mkdir()
        planned = plan_shards(world2.all_targets, 4)
        partial = run_crawl(world2.network, planned[1], label="control")
        path = shard_checkpoint_path(checkpoint_dir, "control", 1, len(planned))
        with open(f"{path}.partial", "w", encoding="utf-8") as fh:
            for obs in partial.observations:
                fh.write(json.dumps(obs.to_json()) + "\n")

        world3 = build_world(StudyScale(fraction=0.005, seed=23))
        resumed = run_sharded_crawl(
            world3.network,
            world3.all_targets,
            checkpoint_dir=checkpoint_dir,
            execution=ExecutionConfig(jobs=4),
        )
        assert resumed.observations == reference.observations


class TestFailureRowOrdering:
    def test_failure_rows_break_count_ties_by_reason_name(self):
        """Equal-count failure reasons sort alphabetically: byte-stable summaries."""
        network = Network()  # empty: every fetch fails
        targets = make_targets(6)
        dataset = run_crawl(network, targets, label="control")
        health = dataset.health()
        assert health.successes == 0
        rows = health.failure_rows
        counts = [count for _, count, _ in rows]
        assert counts == sorted(counts, reverse=True)
        for (r1, c1, _), (r2, c2, _) in zip(rows, rows[1:]):
            if c1 == c2:
                assert r1 < r2

    def test_synthetic_tie_ordering(self):
        from repro.core.records import SiteObservation

        dataset = CrawlDataset(label="ties")
        for i, reason in enumerate(["zeta", "alpha", "mid", "alpha", "zeta", "mid"]):
            dataset.observations.append(
                SiteObservation(
                    domain=f"d{i}.example", rank=i, population="top",
                    success=False, failure_reason=reason,
                )
            )
        rows = dataset.health().failure_rows
        assert [r for r, _, _ in rows] == ["alpha", "mid", "zeta"]
