"""Tests for the sampling profiler (repro.obs.profiler).

The two properties the ISSUE pins:

* **Exactly transparent** — a supervised ``jobs=4`` fault-injected crawl
  with profiling on produces a byte-identical dataset (and equal health)
  to the same crawl with profiling off.  That a profiled study's result
  equals an unprofiled one is the profiler cell of
  ``tests/test_invariance_matrix.py``.
* **Exactly-once sample shipping** — worker sample tables drain per task
  over the ``worker_payload``/``ingest_worker`` channel, so a process that
  runs the worker body twice never re-ships the first task's samples, and
  fork-inherited parent tables are cleared before a child ever records.

Plus the attribution criterion: in a profiled seeded study ≥90% of samples
carry a context tag, and the by-stage sampled seconds agree (loosely — it
is a sampler) with ``StudyResult.stage_timings``.
"""

import dataclasses
import json
import random
import threading
import time

import pytest

from repro import obs, perf
from repro.config import StudyScale
from repro.core.pipeline import run_study
from repro.crawler.crawl import CrawlTarget
from repro.crawler.resilience import RetryPolicy
from repro.crawler.shards import (
    ExecutionConfig,
    WorkerTask,
    run_sharded_crawl,
    shard_worker,
)
from repro.crawler.storage import save_dataset
from repro.crawler.supervisor import SupervisorConfig
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.server import Network
from repro.obs import profiler
from repro.obs.config import ObsConfig
from repro.obs.export import validate_chrome_trace
from repro.obs.ledger import load_ledger
from repro.webgen import build_world

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 220; c.height = 40;
var g = c.getContext('2d');
g.font = '13px Arial';
g.fillText('profiler probe', 3, 20);
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


def crashy_network(n, *poison):
    return FaultyNetwork(
        make_network(n), FaultConfig(worker_crash_domains=tuple(poison))
    )


def fast_config(**overrides):
    defaults = dict(liveness_deadline_s=30.0, poll_interval_s=0.01)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def make_snapshot(rows, dropped=0):
    """Snapshot from ((ctx, stack, count, seconds), ...) rows."""
    table = profiler.SampleTable()
    for ctx, stack, count, seconds in rows:
        table.entries[(tuple(ctx), tuple(stack))] = [count, seconds]
    table.dropped = dropped
    return table.snapshot()


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.01))


@pytest.fixture
def clean_profiler():
    profiler.reset()
    yield profiler
    profiler.reset()


class TestSampleTable:
    def test_record_aggregates_by_key(self):
        table = profiler.SampleTable()
        key = ((("stage", "detect"),), ("a:f", "b:g"))
        table.record(*key, 0.01)
        table.record(*key, 0.01)
        table.record((), ("a:f",), 0.01)
        assert table.entries[key] == [2, pytest.approx(0.02)]
        assert len(table.entries) == 2

    def test_snapshot_merge_roundtrip(self):
        table = profiler.SampleTable()
        table.record((("site", "a.example"),), ("m:f",), 0.25)
        table.record((), ("m:g",), 0.5)
        other = profiler.SampleTable()
        other.merge(table.snapshot())
        assert other.snapshot() == table.snapshot()

    def test_merge_is_additive(self):
        snap = make_snapshot([((("site", "a"),), ("m:f",), 3, 0.3)])
        table = profiler.SampleTable()
        table.merge(snap)
        table.merge(snap)
        ((key, row),) = table.entries.items()
        assert key == ((("site", "a"),), ("m:f",))
        assert row == [6, pytest.approx(0.6)]

    def test_merge_none_and_empty_are_noops(self):
        table = profiler.SampleTable()
        table.merge(None)
        table.merge({})
        assert table.entries == {} and table.dropped == 0

    def test_key_cap_counts_drops_instead_of_growing(self, monkeypatch):
        monkeypatch.setattr(profiler, "MAX_TABLE_KEYS", 2)
        table = profiler.SampleTable()
        for i in range(5):
            table.record((), (f"m:f{i}",), 0.1)
        assert len(table.entries) == 2
        assert table.dropped == 3
        # The drop count survives snapshot/merge.
        other = profiler.SampleTable()
        other.merge(table.snapshot())
        assert other.dropped == 3


class TestContextTags:
    def test_context_manager_pushes_and_pops(self, clean_profiler):
        ident = threading.get_ident()
        with profiler.context("site", "a.example"):
            with profiler.context("script", "https://v.example/fp.js"):
                assert profiler._CONTEXTS[ident] == [
                    ("site", "a.example"),
                    ("script", "https://v.example/fp.js"),
                ]
            assert profiler._CONTEXTS[ident] == [("site", "a.example")]
        assert profiler._CONTEXTS[ident] == []

    def test_span_context_mapping(self):
        assert profiler.span_context("stage.crawl.control", {}) == (
            "stage", "crawl.control",
        )
        assert profiler.span_context("crawl.page", {"domain": "a.com"}) == (
            "site", "a.com",
        )
        assert profiler.span_context("crawl.shard", {"shard": "shard-3"}) == (
            "shard", "shard-3",
        )
        assert profiler.span_context("study.run", {}) == ("study", "run")
        assert profiler.span_context("crawl.retry", {}) is None
        assert profiler.span_context("analysis.finalize", {"member": "cluster"}) is None

    def test_obs_span_tags_thread_when_profiler_active(self, untraced, monkeypatch):
        monkeypatch.setattr(profiler, "ACTIVE", True)
        ident = threading.get_ident()
        with obs.span("crawl.page", domain="x.example"):
            assert profiler._CONTEXTS[ident][-1] == ("site", "x.example")
        assert not profiler._CONTEXTS[ident]
        # Spans with no cost identity stay untagged.
        with obs.span("crawl.retry", domain="x.example"):
            assert not profiler._CONTEXTS[ident]

    def test_obs_span_is_plain_when_profiler_inactive(self, traced):
        assert profiler.ACTIVE is False
        span = obs.span("crawl.page", domain="x.example")
        assert not isinstance(span, profiler._TaggedSpan)

    def test_tagged_span_still_records_trace(self, traced, monkeypatch):
        monkeypatch.setattr(profiler, "ACTIVE", True)
        with obs.span("crawl.page", domain="x.example") as span:
            span.set_attr("attempts", 2)
        (record,) = obs.TRACE.records()
        assert record["name"] == "crawl.page"
        assert record["attrs"]["domain"] == "x.example"
        assert record["attrs"]["attempts"] == 2


class TestSamplerLifecycle:
    def test_maybe_start_respects_config(self, clean_profiler):
        assert profiler.maybe_start(ObsConfig(profile=False)) is False
        assert profiler.ACTIVE is False
        assert profiler.maybe_start(ObsConfig(profile=True, profile_hz=499.0)) is True
        assert profiler.ACTIVE is True
        first = profiler._SAMPLER
        # Same hz: the live sampler is reused, not churned.
        assert profiler.maybe_start(ObsConfig(profile=True, profile_hz=499.0)) is True
        assert profiler._SAMPLER is first
        # Profile off again: stops.
        assert profiler.maybe_start(ObsConfig(profile=False)) is False
        assert profiler.ACTIVE is False

    def test_sampler_collects_tagged_samples(self, clean_profiler):
        profiler.maybe_start(ObsConfig(profile=True, profile_hz=499.0))
        deadline = time.time() + 5.0
        tag = (("site", "busy.example"),)
        with profiler.context(*tag[0]):
            while (
                # .copy() is atomic under the GIL; plain iteration could race
                # the sampler thread's inserts.
                not any(ctx == tag for ctx, _ in profiler.TABLE.entries.copy())
                and time.time() < deadline
            ):
                sum(i * i for i in range(2000))
        profiler.stop()
        snapshot = profiler.drain()
        assert snapshot, "sampler collected nothing in 5s at 499 Hz"
        rollup = profiler.rollup(snapshot)
        assert rollup["samples"] >= 1
        assert rollup["seconds"] > 0
        sites = {row["name"] for row in rollup["by_site"]}
        assert "busy.example" in sites

    def test_no_sample_lands_after_stop(self, clean_profiler):
        # A sampler halted mid-sample used to record after stop() returned,
        # into the table reset() had just cleared: the next study's profile
        # then carried a stray sample.
        for _ in range(100):
            profiler.maybe_start(ObsConfig(profile=True, profile_hz=2000.0))
            sum(i * i for i in range(5000))
            profiler.reset()
            time.sleep(0.002)
            assert profiler.drain() is None

    def test_sampled_seconds_add_up_to_wall_time(self, clean_profiler):
        # A sort holds the GIL, so the sampler wakes only after it: booking
        # the nominal interval per sample counted each sort as 1/hz.
        values = [random.random() for _ in range(500_000)]
        profiler.maybe_start(ObsConfig(profile=True, profile_hz=97.0))
        time.sleep(0.1)  # past the sampler's start-phase jitter
        with profiler.context("stage", "sort"):
            started = time.perf_counter()
            for _ in range(3):
                sorted(values)
                sum(i * i for i in range(20_000))  # the next sample lands in the tag
            wall = time.perf_counter() - started
        profiler.stop()
        rollup = profiler.rollup(profiler.drain())
        sampled = sum(row["seconds"] for row in rollup["by_stage"] if row["name"] == "sort")
        assert sampled == pytest.approx(wall, rel=0.25)

    def test_drain_takes_and_clears(self, clean_profiler):
        assert profiler.drain() is None
        profiler.TABLE.record((), ("m:f",), 0.1)
        snapshot = profiler.drain()
        assert snapshot["entries"]
        assert profiler.drain() is None

    def test_forked_child_discards_inherited_table(self, clean_profiler, monkeypatch):
        """A forked worker inherits the parent's table; maybe_start must
        clear it so parent samples are never shipped home twice."""
        profiler.TABLE.record((("site", "parent.example"),), ("m:f",), 1.0)
        monkeypatch.setattr(profiler, "_PID", -1)  # simulate post-fork pid change
        # No thread samples: a sample landing before the assertion would
        # make the table non-empty for reasons unrelated to the reset.
        monkeypatch.setattr(profiler._Sampler, "start", lambda self: None)
        assert profiler.maybe_start(ObsConfig(profile=True, profile_hz=499.0)) is True
        assert profiler.TABLE.entries == {}

    def test_forked_child_with_profile_off_also_resets(self, clean_profiler, monkeypatch):
        profiler.TABLE.record((), ("m:f",), 1.0)
        monkeypatch.setattr(profiler, "_PID", -1)
        assert profiler.maybe_start(ObsConfig(profile=False)) is False
        assert profiler.TABLE.entries == {}


class TestExports:
    ROWS = [
        (
            (("stage", "crawl.control"), ("site", "a.example")),
            ("repro.crawler.crawl:visit", "repro.canvas.surface:fill_text"),
            8,
            0.8,
        ),
        (
            (("stage", "crawl.control"), ("site", "a.example"),
             ("script", "https://v.example/fp.js")),
            ("repro.js.interpreter:run",),
            4,
            0.4,
        ),
        ((("stage", "detect"),), ("repro.js.parser:parse",), 2, 0.2),
        ((), ("test_profiler:idle",), 1, 0.1),
        # Compiled-script closures live in the compiler module but execute...
        (
            (("stage", "crawl.control"), ("site", "a.example")),
            ("repro.js.interpreter:run", "repro.js.compiler:run_compiled",
             "repro.js.compiler:st", "repro.js.compiler:get"),
            6,
            0.6,
        ),
        # ...while anything under a compiler entry point compiles.
        (
            (("stage", "crawl.control"), ("site", "a.example")),
            ("repro.js.interpreter:run", "repro.js.compiler:get_or_compile",
             "repro.js.compiler:compile_program", "repro.js.compiler:_stmt"),
            3,
            0.3,
        ),
    ]

    def test_rollup_tables(self):
        rollup = profiler.rollup(make_snapshot(self.ROWS, dropped=3))
        assert rollup["samples"] == 24
        assert rollup["seconds"] == pytest.approx(2.4)
        assert rollup["dropped"] == 3
        assert rollup["unattributed_samples"] == 1
        assert rollup["by_site"] == [
            {"name": "a.example", "samples": 21, "seconds": pytest.approx(2.1)}
        ]
        assert rollup["by_script"] == [
            {"name": "https://v.example/fp.js", "samples": 4, "seconds": pytest.approx(0.4)}
        ]
        stages = {row["name"]: row["samples"] for row in rollup["by_stage"]}
        assert stages == {"crawl.control": 21, "detect": 2}
        subsystems = {row["name"]: row["samples"] for row in rollup["by_subsystem"]}
        # Leaf-ward classification: the crawl frame ending in a canvas
        # helper counts as render time, parsing and compiling as
        # js.compile, compiled closures running a script as js.exec.
        assert subsystems == {"render": 8, "js.exec": 10, "js.compile": 5, "other": 1}

    def test_static_analysis_is_booked_as_js_static(self):
        # Triage asks the static analyzer for a verdict: the analyzer's own
        # frames, and the digest, lexer and parser it calls, are js.static;
        # the same lexer and parser under a compile stay js.compile.
        under_triage = ("repro.browser.browser:_triage", "repro.js.static.verdict:verdict_for_source")
        rows = [
            ((), under_triage, 3, 0.3),
            ((), under_triage + ("repro.js.compiler:_source_digest",), 1, 0.1),
            ((), under_triage + ("repro.js.parser:parse", "repro.js.lexer:tokenize"), 4, 0.4),
            ((), under_triage + ("repro.js.static.analyzer:analyze_program",
                                 "repro.js.static.cfg:build"), 2, 0.2),
            ((), ("repro.js.compiler:get_or_compile", "repro.js.parser:parse",
                  "repro.js.lexer:tokenize"), 5, 0.5),
        ]
        rollup = profiler.rollup(make_snapshot(rows))
        subsystems = {row["name"]: row["samples"] for row in rollup["by_subsystem"]}
        assert subsystems == {"js.static": 10, "js.compile": 5}

    @pytest.mark.parametrize(
        "stack,subsystem",
        [
            (("repro.crawler.crawl:crawl_profiles", "repro.net.faults:fetch"), "net"),
            (("repro.crawler.collector:collect", "repro.browser.bindings:to_data_url",
              "json.encoder:encode"), "browser"),
            (("repro.crawler.shards:shard_worker", "repro.crawler.storage:write",
              "gzip:write"), "crawler"),
            (("repro.crawler.shards:run_sharded_crawl",
              "repro.crawler.supervisor:supervise", "selectors:select"), "supervisor"),
            (("repro.webgen.ecosystem:build_world", "random:random"), "webgen"),
            (("repro.browser.extensions:on_request", "repro.blocklists.matcher:listed",
              "re:match"), "blocklists"),
            # The leaf-most subsystem wins: a canvas helper under the crawler
            # is render time, the interpreter under the browser is js.exec.
            (("repro.crawler.crawl:visit", "repro.canvas.surface:fill_text"), "render"),
            (("repro.browser.browser:load", "repro.js.interpreter:run"), "js.exec"),
            (("threading:run", "time:sleep"), "other"),
        ],
    )
    def test_subsystem_of_a_stack(self, stack, subsystem):
        assert profiler._subsystem(stack) == subsystem

    def test_rollup_of_nothing(self):
        rollup = profiler.rollup(None)
        assert rollup["samples"] == 0
        assert rollup["by_site"] == []

    def test_collapsed_stacks_format(self):
        lines = profiler.collapsed_stacks(make_snapshot(self.ROWS))
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
        by_root = {}
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            by_root.setdefault(frames.split(";")[0], []).append(int(count))
        # Context tags are synthetic root frames; untagged samples root at
        # <unattributed> so the attribution rate is visible in the graph.
        assert set(by_root) == {"stage:crawl.control", "stage:detect", "<unattributed>"}
        assert sum(by_root["stage:crawl.control"]) == 21
        deep = next(line for line in lines if "script:" in line)
        assert "site:a.example;script:" in deep
        assert deep.endswith("repro.js.interpreter:run 4")

    def test_chrome_trace_validates(self):
        payload = profiler.chrome_trace(make_snapshot(self.ROWS))
        assert validate_chrome_trace(payload) == len(payload["traceEvents"])
        leaves = [
            ev for ev in payload["traceEvents"]
            if ev["ph"] == "X" and ev["args"].get("samples")
        ]
        assert sum(ev["args"]["samples"] for ev in leaves) == 24

    def test_empty_exports(self):
        assert profiler.collapsed_stacks(None) == []
        assert validate_chrome_trace(profiler.chrome_trace(None)) == 1  # metadata only


class TestTransparency:
    """Satellite (d): a supervised jobs=4 fault-injected crawl is
    byte-identical with profiling on vs off."""

    JOBS = 4

    def run_chaos(self, tmp_path, name, profile):
        previous = obs.config()
        obs.configure(ObsConfig(profile=profile, profile_hz=97.0))
        obs.reset()
        targets = make_targets(8)
        poison = targets[3].domain
        try:
            if profile:
                obs.profiler.maybe_start(obs.config())
            dataset = run_sharded_crawl(
                crashy_network(8, poison), targets, label="chaos", shards=2,
                checkpoint_dir=tmp_path / f"{name}.shards",
                execution=ExecutionConfig(jobs=self.JOBS, supervisor=fast_config()),
            )
        finally:
            obs.reset()
            obs.configure(previous)
        path = tmp_path / f"{name}.jsonl"
        save_dataset(dataset, path)
        return dataset, path

    def test_profiled_chaos_run_is_byte_identical(self, tmp_path):
        plain, plain_path = self.run_chaos(tmp_path, "off", profile=False)
        profiled, profiled_path = self.run_chaos(tmp_path, "on", profile=True)
        assert profiled_path.read_bytes() == plain_path.read_bytes()
        assert profiled.observations == plain.observations
        assert profiled.health() == plain.health()
        assert profiled.quarantined_sites() == plain.quarantined_sites()
        assert plain.health().quarantined == 1  # the fault actually fired


class TestExactlyOnceShipping:
    """Satellite (d), second half: sample tables drain per task — repeat
    tasks and respawns never double-count (mirrors
    tests/obs/test_cross_process.py's delta semantics)."""

    def worker_task(self, world, profile_hz=499.0):
        return WorkerTask(
            network=world.network,
            targets=tuple(world.all_targets[:4]),
            profiles=(("control", None),),
            retry_policy=RetryPolicy(max_attempts=3),
            page_budget=None,
            inner_paths=(),
            resume=False,
            perf_config=perf.config(),
            obs_config=ObsConfig(trace=True, profile=True, profile_hz=profile_hz),
            lane="shard-0000",
        )

    def has_sentinel(self, snapshot):
        return any(
            stack == ["sentinel:frame"]
            for _, stack, _, _ in (snapshot or {}).get("entries", ())
        )

    def test_worker_ships_profile_delta_per_task(self, world, untraced):
        """A process running two tasks back to back must not re-ship the
        first task's samples: a sentinel sample recorded before task 1
        appears in task 1's payload and never again."""
        task = self.worker_task(world)
        profiler.TABLE.record((("site", "sentinel.example"),), ("sentinel:frame",), 1.0)
        first = shard_worker(task)
        second = shard_worker(task)
        assert self.has_sentinel(first.obs_payload["profile"])
        assert not self.has_sentinel(second.obs_payload["profile"])
        # Nothing is left behind to leak into a third task either.
        assert not self.has_sentinel(profiler.drain())

    def test_worker_payload_carries_none_when_no_samples(self, untraced):
        obs.configure(ObsConfig(trace=True))
        payload = obs.worker_payload(obs.METRICS.snapshot())
        assert payload["profile"] is None

    def test_ingest_worker_merges_exactly_once(self, untraced):
        snap_1 = make_snapshot([((("site", "a"),), ("m:f",), 2, 0.2)])
        snap_2 = make_snapshot([((("site", "a"),), ("m:f",), 3, 0.3)])
        obs.configure(ObsConfig(trace=True))
        base = obs.worker_payload(obs.METRICS.snapshot())
        obs.ingest_worker({**base, "profile": snap_1})
        obs.ingest_worker({**base, "profile": snap_2})
        obs.ingest_worker(None)  # a skipped worker ships nothing
        merged = profiler.drain()
        ((_, stack, count, seconds),) = merged["entries"]
        assert stack == ["m:f"]
        assert count == 5  # 2 + 3: two respawn windows merge additively
        assert seconds == pytest.approx(0.5)


class TestStudyProfile:
    """A profiled seeded study: attribution rate, stage agreement, and the
    on-disk artifacts (collapsed stacks, Chrome trace, ledger rollup)."""

    HZ = 97.0

    def run_seeded_study(self, world, run_dir=None):
        previous = obs.config()
        obs.configure(ObsConfig(trace=True, profile=True, profile_hz=self.HZ))
        obs.reset()
        try:
            result = run_study(
                dataclasses.replace(world.study_config(), include_adblock_crawls=False),
                obs_dir=run_dir,
            )
        finally:
            obs.reset()
            obs.configure(previous)
        return result

    @pytest.fixture(scope="class")
    def profiled(self, world, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("profiled") / "obs"
        result = self.run_seeded_study(world, run_dir=run_dir)
        return result, run_dir

    def test_at_least_90_percent_of_samples_are_attributed(self, profiled):
        result, _ = profiled
        rollup = result.profile
        assert rollup["samples"] > 0, "no samples in a ~2s study at 97 Hz"
        assert rollup["unattributed_samples"] <= 0.1 * rollup["samples"]

    def test_by_stage_agrees_with_stage_timings(self, profiled):
        result, _ = profiled
        timed = {t.name: t.seconds for t in result.stage_timings if not t.cached}
        sampled = {row["name"]: row["seconds"] for row in result.profile["by_stage"]}
        # Every sampled stage is a real stage of this run.
        assert set(sampled) <= set(timed)
        # Totals agree loosely: it is a sampler, but it must not invent or
        # lose wall time wholesale (jobs=1, so stage spans cover the run).
        sampled_total = sum(sampled.values())
        timed_total = sum(timed.values())
        assert sampled_total == pytest.approx(timed_total, rel=0.5, abs=0.5)
        # The top sampled stage is among the genuinely slow stages.
        top_stage = max(sampled, key=sampled.get)
        slowest = sorted(timed, key=timed.get, reverse=True)[:3]
        assert top_stage in slowest

    def test_vendor_scripts_are_attributed(self, profiled):
        result, _ = profiled
        scripts = [row["name"] for row in result.profile["by_script"]]
        assert scripts, "no vendor-script self-time attributed"
        assert all(s.startswith("http") for s in scripts)

    def test_collapsed_stack_artifact(self, profiled):
        result, run_dir = profiled
        lines = (run_dir / "profile.collapsed").read_text().splitlines()
        total = attributed = 0
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            total += int(count)
            if not frames.startswith("<unattributed>"):
                attributed += int(count)
        assert total == result.profile["samples"]
        assert attributed >= 0.9 * total

    def test_chrome_trace_artifact_validates(self, profiled):
        _, run_dir = profiled
        payload = json.loads((run_dir / "profile.trace.json").read_text())
        assert validate_chrome_trace(payload) == len(payload["traceEvents"])

    def test_rollup_lands_in_summary_line_and_ledger(self, profiled):
        result, run_dir = profiled
        from repro.obs.inspect import load_run

        log = load_run(run_dir)
        assert log.summary["profile"]["samples"] == result.profile["samples"]
        (entry,) = load_ledger(run_dir)
        assert entry["profile"]["samples"] == result.profile["samples"]
        assert entry["config_digest"]
        assert [s["name"] for s in entry["stages"]] == [
            t.name for t in result.stage_timings
        ]

    def test_cli_summary_renders_profile_section(self, profiled, capsys):
        from repro.obs.__main__ import main as obs_main

        _, run_dir = profiled
        assert obs_main(["summary", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "self-time by stage" in out
        assert "% attributed" in out
