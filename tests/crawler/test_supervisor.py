"""Chaos tests for the shard supervisor (repro.crawler.supervisor).

These tests kill and wedge real worker processes: every ``worker-crash``
poison site takes down its (sacrificial, forked) crawl process with
``os._exit``, and every ``worker-hang`` site stalls one in a real sleep.
The supervisor must complete the crawl anyway — re-dispatching remainders
from the per-shard checkpoints, bisecting repeat offenders down to the
poison site, and accounting for every planned site as crawled, failed, or
quarantined.

``REPRO_SUPERVISED_JOBS`` scales worker parallelism (default 2; CI runs 4).
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.crawler.crawl import QUARANTINE_PREFIX, CrawlTarget, run_crawl
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl
from repro.crawler.storage import save_dataset
from repro.crawler.supervisor import (
    QuarantineLedger,
    QuarantineRecord,
    SupervisorConfig,
    SupervisorError,
    quarantine_ledger_path,
)
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.server import Network

JOBS = int(os.environ.get("REPRO_SUPERVISED_JOBS", "2"))

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 220; c.height = 40;
var g = c.getContext('2d');
g.font = '13px Arial';
g.fillText('supervisor probe', 3, 20);
window.__fp = c.toDataURL();
"""


def make_network(n=8):
    net = Network()
    for i in range(n):
        server = net.server_for(f"site-{i}.example")
        server.add_resource(
            "/", f"<html><title>{i}</title><script>{FP_SCRIPT}</script></html>"
        )
    return net


def make_targets(n=8):
    return [
        CrawlTarget(f"site-{i}.example", i + 1, "top" if i % 2 == 0 else "tail")
        for i in range(n)
    ]


def crashy_network(n, *poison, hang=()):
    """A network where visiting ``poison`` domains kills the crawl process."""
    return FaultyNetwork(
        make_network(n),
        FaultConfig(worker_crash_domains=tuple(poison), worker_hang_domains=tuple(hang)),
    )


def fast_config(**overrides):
    defaults = dict(liveness_deadline_s=30.0, poll_interval_s=0.01)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def supervised(jobs=JOBS, **overrides):
    """Execution under the supervisor with test-sized deadlines."""
    return ExecutionConfig(jobs=jobs, supervisor=fast_config(**overrides))


class TestNoFaultEquivalence:
    """A no-fault supervised run is byte-identical to the in-process path."""

    def test_supervised_equals_unsupervised(self):
        targets = make_targets(10)
        plain = run_sharded_crawl(make_network(10), targets, label="control", shards=4)
        supervised_run = run_sharded_crawl(
            make_network(10), targets, label="control", shards=4,
            execution=supervised(),
        )
        assert supervised_run.observations == plain.observations
        assert supervised_run.health() == plain.health()

    def test_supervised_dataset_bytes_identical(self, tmp_path):
        targets = make_targets(8)
        plain = run_sharded_crawl(make_network(8), targets, label="control", shards=3)
        supervised_run = run_sharded_crawl(
            make_network(8), targets, label="control", shards=3,
            execution=supervised(),
        )
        save_dataset(plain, tmp_path / "plain.jsonl")
        save_dataset(supervised_run, tmp_path / "supervised.jsonl")
        assert (tmp_path / "plain.jsonl").read_bytes() == (
            tmp_path / "supervised.jsonl"
        ).read_bytes()

    def test_no_fault_run_writes_no_quarantine(self, tmp_path):
        targets = make_targets(6)
        dataset = run_sharded_crawl(
            make_network(6), targets, label="control", shards=2,
            checkpoint_dir=tmp_path, execution=supervised(),
        )
        assert dataset.quarantined_sites() == {}
        assert dataset.health().quarantined == 0
        assert not quarantine_ledger_path(tmp_path).exists()

    def test_serial_supervised_equals_serial_plain(self):
        """jobs=1 under supervision still matches the plain serial crawl."""
        targets = make_targets(5)
        plain = run_crawl(make_network(5), targets, label="control")
        supervised_run = run_sharded_crawl(
            make_network(5), targets, label="control", shards=1,
            execution=supervised(jobs=1),
        )
        assert supervised_run.observations == plain.observations

    def test_parallel_crawl_is_always_supervised(self):
        """jobs > 1 with no supervisor config runs the default supervisor."""
        from repro import obs

        before = obs.METRICS.snapshot()
        dataset = run_sharded_crawl(
            make_network(6), make_targets(6), label="control", shards=3,
            execution=ExecutionConfig(jobs=2),
        )
        delta = obs.diff_metric_snapshots(before, obs.METRICS.snapshot())
        assert delta["counters"].get("supervisor.workers_spawned") == 3
        assert len(dataset.observations) == 6


class TestCrashRecovery:
    """worker-crash poison sites: re-dispatch, bisection, quarantine."""

    def test_poison_site_is_isolated_and_study_completes(self, tmp_path):
        targets = make_targets(8)
        poison = targets[3].domain
        dataset = run_sharded_crawl(
            crashy_network(8, poison), targets, label="chaos", shards=2,
            checkpoint_dir=tmp_path, execution=supervised(),
        )
        # Every planned site is accounted for: crawled or quarantined.
        assert [o.domain for o in dataset.observations] == [t.domain for t in targets]
        assert dataset.quarantined_sites() == {poison: "quarantined:exit:137"}
        healthy = [o for o in dataset.observations if o.domain != poison]
        assert all(o.success for o in healthy)
        health = dataset.health()
        assert health.quarantined == 1
        assert health.successes == len(targets) - 1
        assert "quarantined by supervisor" in health.summary()

    def test_quarantine_ledger_contents(self, tmp_path):
        targets = make_targets(6)
        poison = targets[2].domain
        run_sharded_crawl(
            crashy_network(6, poison), targets, label="chaos", shards=2,
            checkpoint_dir=tmp_path, execution=supervised(),
        )
        ledger = QuarantineLedger.load(quarantine_ledger_path(tmp_path))
        assert len(ledger.records) == 1
        record = ledger.records[0]
        assert record.domain == poison
        assert record.reason == "worker-killed"
        assert record.last_signal == "exit:137"
        assert record.attempts >= 2  # at least max_shard_crashes deaths
        assert record.failure_reason == f"{QUARANTINE_PREFIX}exit:137"

    def test_remainder_recrawled_exactly_once(self, tmp_path):
        """Checkpoint-verified: no domain is persisted twice across all
        shard checkpoints, despite respawns and bisections."""
        targets = make_targets(10)
        poison = targets[7].domain
        dataset = run_sharded_crawl(
            crashy_network(10, poison), targets, label="chaos", shards=2,
            checkpoint_dir=tmp_path, execution=supervised(),
        )
        seen = []
        for path in tmp_path.glob("chaos.shard-*"):
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        record = json.loads(line)
                        if "domain" in record:
                            seen.append(record["domain"])
        assert len(seen) == len(set(seen)), f"duplicate checkpoint rows: {seen}"
        # And the merged dataset carries no duplicates either.
        domains = [o.domain for o in dataset.observations]
        assert len(domains) == len(set(domains))

    def test_multiple_poison_sites_all_quarantined(self, tmp_path):
        targets = make_targets(8)
        poison = {targets[1].domain, targets[6].domain}
        dataset = run_sharded_crawl(
            crashy_network(8, *poison), targets, label="chaos", shards=2,
            checkpoint_dir=tmp_path, execution=supervised(),
        )
        assert set(dataset.quarantined_sites()) == poison
        assert dataset.health().successes == len(targets) - len(poison)
        ledger = QuarantineLedger.load(quarantine_ledger_path(tmp_path))
        assert {r.domain for r in ledger.records} == poison

    def test_bisection_metrics_are_recorded(self, tmp_path):
        from repro import obs

        targets = make_targets(8)
        before = obs.METRICS.snapshot()
        run_sharded_crawl(
            crashy_network(8, targets[0].domain), targets, label="chaos",
            shards=2, checkpoint_dir=tmp_path, execution=supervised(),
        )
        delta = obs.diff_metric_snapshots(before, obs.METRICS.snapshot())
        counters = delta.get("counters", {})
        assert counters.get("supervisor.quarantined") == 1
        assert counters.get("supervisor.splits", 0) >= 1
        assert counters.get("supervisor.respawns", 0) >= 2
        assert counters.get("supervisor.deaths[exit:137]", 0) >= 2

    def test_respawn_budget_blowout_raises(self, tmp_path):
        targets = make_targets(4)
        with pytest.raises(SupervisorError):
            run_sharded_crawl(
                crashy_network(4, targets[0].domain), targets, label="chaos",
                shards=2, checkpoint_dir=tmp_path,
                execution=supervised(max_total_respawns=1),
            )


class TestHangRecovery:
    """worker-hang poison sites: liveness-deadline detection."""

    def test_hung_worker_is_killed_and_site_quarantined(self, tmp_path):
        targets = make_targets(4)
        tarpit = targets[1].domain
        dataset = run_sharded_crawl(
            crashy_network(4, hang=(tarpit,)), targets, label="chaos",
            shards=2, checkpoint_dir=tmp_path,
            execution=supervised(liveness_deadline_s=0.5),
        )
        assert dataset.quarantined_sites() == {tarpit: "quarantined:heartbeat-timeout"}
        healthy = [o for o in dataset.observations if o.domain != tarpit]
        assert all(o.success for o in healthy)
        ledger = QuarantineLedger.load(quarantine_ledger_path(tmp_path))
        assert ledger.records[0].last_signal == "heartbeat-timeout"

    def test_slow_pages_under_the_deadline_are_not_killed(self, tmp_path):
        """Liveness is per page, not per shard: every page stalls well under
        the deadline while the shard as a whole outlives it, and the
        checkpoint line each page flushes keeps the worker alive."""
        from repro import obs

        targets = make_targets(6)
        slow = FaultyNetwork(
            make_network(6),
            FaultConfig(
                worker_hang_domains=tuple(t.domain for t in targets),
                worker_hang_seconds=0.2,
            ),
        )
        deadline = 0.8
        before = obs.METRICS.snapshot()
        started = time.monotonic()
        dataset = run_sharded_crawl(
            slow, targets, label="slow", shards=1, checkpoint_dir=tmp_path,
            execution=supervised(jobs=1, liveness_deadline_s=deadline),
        )
        elapsed = time.monotonic() - started
        counters = obs.diff_metric_snapshots(before, obs.METRICS.snapshot())["counters"]
        assert elapsed > deadline  # the shard outlived the deadline...
        assert "supervisor.heartbeat_timeouts" not in counters  # ...unkilled
        assert "supervisor.respawns" not in counters
        assert dataset.quarantined_sites() == {}
        assert all(o.success for o in dataset.observations)
        assert not quarantine_ledger_path(tmp_path).exists()


class TestKeyboardInterruptShutdown:
    """Ctrl-C mid-crawl must put every worker down and keep the partials."""

    def test_interrupt_kills_workers(self, tmp_path, monkeypatch):
        from repro.crawler import supervisor as supervisor_mod
        from repro.crawler.shards import shard_checkpoint_path
        from repro.crawler.storage import checkpoint_path, load_checkpoint

        targets = make_targets(8)
        slow = FaultyNetwork(
            make_network(8),
            FaultConfig(
                worker_hang_domains=tuple(t.domain for t in targets),
                worker_hang_seconds=0.2,
            ),
        )
        checkpoints = [shard_checkpoint_path(tmp_path, "control", i, 2) for i in range(2)]
        interrupted = []
        poll_once = supervisor_mod._Supervisor._poll_once

        def poll_then_interrupt(self):
            poll_once(self)
            persisted = [
                checkpoint_path(path).read_text(encoding="utf-8").count("\n")
                for path in checkpoints
                if checkpoint_path(path).exists()
            ]
            # Interrupt once a page is persisted while workers still run.
            if self.active and any(lines > 1 for lines in persisted):
                interrupted.extend(handle.process for handle in self.active.values())
                raise KeyboardInterrupt

        monkeypatch.setattr(supervisor_mod._Supervisor, "_poll_once", poll_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_sharded_crawl(
                slow, targets, label="control", shards=2, checkpoint_dir=tmp_path,
                execution=supervised(jobs=2),
            )
        monkeypatch.undo()
        assert interrupted, "the interrupt never fired mid-crawl"
        assert not any(process.is_alive() for process in interrupted)
        assert multiprocessing.active_children() == []
        persisted = sum(
            len(load_checkpoint(path).observations)
            for path in checkpoints
            if checkpoint_path(path).exists()
        )
        assert 0 < persisted < len(targets)

        # A re-run over the same checkpoints visits only the remainder.
        reference_network = make_network(8)
        reference = run_crawl(reference_network, targets, label="control")
        network = make_network(8)
        resumed = run_sharded_crawl(
            network, targets, label="control", shards=2, checkpoint_dir=tmp_path
        )
        assert resumed.observations == reference.observations
        assert network.requests_served < reference_network.requests_served


class TestLedger:
    def test_record_roundtrip(self):
        record = QuarantineRecord(
            domain="poison.example", rank=7, population="tail", label="chaos",
            reason="worker-killed", attempts=3, last_signal="exit:137",
            shard="0001.a.b", ts=123.5,
        )
        assert QuarantineRecord.from_json(record.to_json()) == record

    def test_ledger_append_and_load(self, tmp_path):
        path = quarantine_ledger_path(tmp_path)
        ledger = QuarantineLedger(path)
        for i in range(3):
            ledger.append(
                QuarantineRecord(
                    domain=f"p{i}.example", rank=i, population="top", label="x",
                    reason="worker-killed", attempts=2, last_signal="exit:137",
                    shard=f"000{i}",
                )
            )
        loaded = QuarantineLedger.load(path)
        assert loaded.records == ledger.records

    def test_load_missing_ledger_is_empty(self, tmp_path):
        assert QuarantineLedger.load(tmp_path / "nope.jsonl").records == []


class TestConfigValidation:
    def test_invalid_max_shard_crashes(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_shard_crashes=0)

    def test_invalid_liveness_deadline(self):
        with pytest.raises(ValueError):
            SupervisorConfig(liveness_deadline_s=0.0)


def _static_probe_study(out_path):
    from repro.core.pipeline import StudyConfig, run_study

    targets = make_targets(8)
    poison = targets[3].domain
    result = run_study(
        StudyConfig(crashy_network(8, poison), targets, [], include_adblock_crawls=False),
        supervised(),
        stages=["static"],
    )
    with open(out_path, "w") as fh:
        json.dump(
            {
                "quarantined": result.quarantined,
                "recovered": [list(row) for row in result.static_verdicts.static_only],
            },
            fh,
        )


def _harvest_study(out_path, **vendor):
    from repro.core.pipeline import StudyConfig, VendorKnowledge, run_study

    config = StudyConfig(
        crashy_network(8, make_targets(8)[3].domain), make_targets(8),
        [VendorKnowledge(name="V", script_pattern="x", **vendor)],
        include_adblock_crawls=False,
    )
    result = run_study(config, supervised(), stages=["signatures"])
    with open(out_path, "w") as fh:
        json.dump({"quarantined": result.quarantined}, fh)


def _known_customer_study(out_path):
    _harvest_study(out_path, known_customers=(make_targets(8)[3].domain,))


def _demo_study(out_path):
    _harvest_study(out_path, demo_url=f"https://{make_targets(8)[3].domain}/")


def _exit_code_in_child(target, out_path):
    """Run ``target(out_path)`` in a spawned child; a crash kills only it."""
    child = multiprocessing.get_context("spawn").Process(target=target, args=(str(out_path),))
    child.start()
    child.join(120)
    if child.is_alive():
        child.kill()
        child.join()
    return child.exitcode


class TestStudyIntegration:
    """The supervisor threads through the stage graph and StudyResult."""

    def test_supervised_study_surfaces_quarantine(self):
        from repro.analysis.report import quarantine_table
        from repro.core.pipeline import StudyConfig, run_study

        targets = make_targets(8)
        poison = targets[5].domain
        result = run_study(
            StudyConfig(crashy_network(8, poison), targets, [], include_adblock_crawls=False),
            supervised(),
            stages=["crawl.control"],
        )
        assert result.quarantined == {poison: "quarantined:exit:137"}
        assert len(result.control.observations) == len(targets)
        table = quarantine_table(result)
        assert poison in table
        assert "coverage loss: 1/8" in table

    def test_static_probe_of_a_crash_poison_site_finishes(self, tmp_path):
        # The static stage probes the quarantined site's document; the
        # probe runs no JS, so the poison's process fault must not kill the
        # study (it did: exit 137 in the parent).  A child process keeps a
        # regression from taking the test run down with it.
        out = tmp_path / "result.json"
        assert _exit_code_in_child(_static_probe_study, out) == 0
        result = json.loads(out.read_text())
        poison = make_targets(8)[3].domain
        assert result["quarantined"] == {poison: "quarantined:exit:137"}
        assert [row[0] for row in result["recovered"]] == [poison]

    def test_harvest_of_a_crash_poison_customer_finishes(self, tmp_path):
        # The vendor harvest reads a known customer from the control crawl,
        # which quarantined it; loading its page again in the parent killed
        # the study (exit 137).  A child process keeps a regression from
        # taking the test run down with it.
        out = tmp_path / "result.json"
        assert _exit_code_in_child(_known_customer_study, out) == 0
        poison = make_targets(8)[3].domain
        assert json.loads(out.read_text())["quarantined"] == {poison: "quarantined:exit:137"}

    def test_harvest_of_a_crash_poison_demo_finishes(self, tmp_path):
        # The harvest loads demo pages through the study's crawl executor,
        # so a supervised study quarantines a poison demo page; loading it
        # in the parent killed the study (exit 137).
        out = tmp_path / "result.json"
        assert _exit_code_in_child(_demo_study, out) == 0
        poison = make_targets(8)[3].domain
        assert json.loads(out.read_text())["quarantined"] == {poison: "quarantined:exit:137"}

    def test_unsupervised_study_has_empty_quarantine(self):
        from repro.analysis.report import quarantine_table
        from repro.core.pipeline import StudyConfig, run_study

        targets = make_targets(4)
        result = run_study(
            StudyConfig(make_network(4), targets, [], include_adblock_crawls=False),
            stages=["crawl.control"],
        )
        assert result.quarantined == {}
        assert quarantine_table(result) == ""
