"""End-to-end tests for run artifacts and their inspection.

The acceptance criterion from the ISSUE: a sharded, fault-injected study
must produce a manifest + JSONL trace whose ``repro.obs summary`` totals
(pages, retries, stage timings, cache hit rates) agree with
``StudyResult`` / ``CrawlDataset.health`` exactly, and whose exported
trace validates against the Chrome ``trace_event`` format.
"""

import json

import pytest

from repro import obs
from repro.config import StudyScale
from repro.core.pipeline import harvest_targets
from repro.crawler.resilience import RetryPolicy
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.obs.__main__ import main as obs_main
from repro.obs.config import ObsConfig
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.inspect import (
    crawl_labels,
    crawl_totals,
    histogram_rows,
    load_run,
    quarantine_rows,
    slow_text,
    summary_text,
)
from repro.obs.manifest import load_manifest
from repro.obs.metrics import layer_rows
from repro.obs.recorder import RunRecorder, resolve_run_dir
from repro.webgen import build_world

SCALE = StudyScale(fraction=0.01)


@pytest.fixture(scope="module")
def world():
    return build_world(SCALE)


def faulty(world, rate=0.15, seed=7):
    return FaultyNetwork(world.network, FaultConfig(fault_rate=rate), seed=seed)


def run_traced_study(world, tmp_path):
    from dataclasses import replace

    from repro.core.pipeline import run_study

    run_dir = tmp_path / "obs"
    config = replace(
        world.study_config(),
        network=faulty(world),
        include_adblock_crawls=False,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    result = run_study(config, obs_dir=run_dir)
    return result, run_dir


class TestStudyArtifacts:
    @pytest.fixture(scope="class")
    def study(self, world, tmp_path_factory):
        previous = obs.config()
        obs.configure(ObsConfig(trace=True))
        obs.reset()
        try:
            result, run_dir = run_traced_study(world, tmp_path_factory.mktemp("study"))
        finally:
            obs.configure(previous)
        return result, run_dir

    def test_manifest_contents(self, study):
        _, run_dir = study
        manifest = load_manifest(run_dir)
        assert manifest["format"] == "repro-obs-manifest-v1"
        assert manifest["label"] == "study"
        assert manifest["config_digest"]
        assert "crawl.control" in manifest["stage_keys"]
        assert manifest["shard_plan"]["jobs"] == 1
        assert manifest["python"]
        # env capture: every REPRO_* knob, nothing else
        assert all(k.startswith("REPRO_") for k in manifest["env"])

    def test_summary_totals_match_health_exactly(self, study):
        result, run_dir = study
        log = load_run(run_dir)
        health = result.control.health()
        totals = crawl_totals(log, "control")
        assert totals["total"] == health.total
        assert totals["successes"] == health.successes
        assert totals["recovered"] == health.recovered
        assert totals["attempts_histogram"] == health.attempts_histogram
        assert totals["failure_rows"] == tuple(health.failure_rows)
        assert totals["inner_page_failures"] == health.inner_page_failures
        assert totals["total_attempts"] == health.total_attempts

    def test_summary_line_metrics_equal_result_metrics(self, study):
        result, run_dir = study
        log = load_run(run_dir)
        assert log.counters == result.metrics.get("counters", {})

    def test_stage_timings_agree(self, study):
        result, run_dir = study
        log = load_run(run_dir)
        gauges = log.gauges
        for timing in result.stage_timings:
            assert gauges[f"stage.seconds[{timing.name}]"] == timing.seconds

    def test_render_cache_metrics_absorbed(self, study):
        result, run_dir = study
        log = load_run(run_dir)
        assert result.perf_counters == layer_rows(log.summary["metrics"])
        for layer, row in result.perf_counters.items():
            if row["hits"]:
                assert log.counters[f"perf.hits[{layer}]"] == row["hits"]

    def test_page_spans_cover_every_site(self, study, world):
        # Every control page, then each page the vendor harvest loads.
        result, run_dir = study
        log = load_run(run_dir)
        domains = [r["attrs"]["domain"] for r in log.spans("crawl.page")]
        harvested = harvest_targets(world.vendor_knowledge(), result.control)
        assert harvested
        assert sorted(domains) == sorted(
            [o.domain for o in result.control.observations]
            + [target.domain for target in harvested]
        )

    def test_summary_text_renders(self, study):
        result, run_dir = study
        text = summary_text(load_run(run_dir))
        health = result.control.health()
        assert f"{health.successes}/{health.total} sites ok" in text
        assert "injected faults:" in text
        assert "stage" in text
        # Every cache layer with lookups has a row, dotted names included.
        looked_up = {
            layer for layer, row in result.perf_counters.items() if row["hits"] + row["misses"]
        }
        assert {"js.cache", "js.static", "js.static.triage", "render_cache"} <= looked_up
        rows = {line.split()[0] for line in text.splitlines() if line.strip()}
        assert looked_up <= rows

    def test_chrome_trace_exports_and_validates(self, study):
        _, run_dir = study
        log = load_run(run_dir)
        payload = to_chrome_trace(log.records)
        count = validate_chrome_trace(payload)
        assert count == len(log.records) + 1  # + thread_name metadata
        phases = {ev["ph"] for ev in payload["traceEvents"]}
        assert phases >= {"X", "M"}

    def test_cli_summary_slow_and_export(self, study, capsys, tmp_path):
        _, run_dir = study
        assert obs_main(["summary", str(run_dir)]) == 0
        assert "sites ok" in capsys.readouterr().out
        assert obs_main(["slow", str(run_dir), "--top", "3"]) == 0
        assert "attempts" in capsys.readouterr().out
        out = tmp_path / "trace.json"
        assert obs_main(["export-trace", str(run_dir), "-o", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) > 0

    def test_cli_missing_run_exits_2(self, tmp_path, capsys):
        assert obs_main(["summary", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summary_histogram_percentiles(self, study):
        """Bucket-derived p50/p95/p99 render for every latency histogram."""
        _, run_dir = study
        log = load_run(run_dir)
        rows = histogram_rows(log)
        assert rows, "traced study produced no latency histograms"
        for _name, count, _mean, p50, p95, p99 in rows:
            assert count > 0
            assert p50 <= p95 <= p99
        text = summary_text(log)
        assert "p50" in text and "p95" in text and "p99" in text


class TestDegradedTraceCli:
    """Satellite: an empty or torn-header trace.jsonl gets an actionable
    message and exit 2 from every CLI verb — never a traceback."""

    def make_run_dir(self, tmp_path, trace_text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "trace.jsonl").write_text(trace_text, encoding="utf-8")
        return run_dir

    def test_empty_trace_file(self, tmp_path, capsys):
        run_dir = self.make_run_dir(tmp_path, "")
        for argv in (
            ["summary", str(run_dir)],
            ["slow", str(run_dir)],
            ["export-trace", str(run_dir)],
        ):
            assert obs_main(argv) == 2
            err = capsys.readouterr().err
            assert "error:" in err
            assert "REPRO_OBS_TRACE=1" in err  # tells the user what to do

    def test_torn_header_only_trace(self, tmp_path, capsys):
        """A run killed mid-header-write leaves one unparseable line; the
        CLI must explain, not render an all-zero summary or crash."""
        run_dir = self.make_run_dir(tmp_path, '{"t": "run", "label": "cra')
        assert obs_main(["summary", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "no usable trace records" in err

    def test_whitespace_only_trace(self, tmp_path, capsys):
        run_dir = self.make_run_dir(tmp_path, "\n\n  \n")
        assert obs_main(["summary", str(run_dir)]) == 2
        assert "no usable trace records" in capsys.readouterr().err

    def test_torn_header_with_surviving_records_still_renders(self, tmp_path, capsys):
        """Only a *fully* unusable log is refused: parseable records after
        a torn header still produce a summary."""
        run_dir = self.make_run_dir(
            tmp_path,
            '{"t": "run", "label": "cra\n'
            '{"t": "span", "name": "crawl.shard", "dur": 0.1, "attrs": {}}\n',
        )
        assert obs_main(["summary", str(run_dir)]) == 0
        assert "trace: 1 record(s)" in capsys.readouterr().out


class TestQuarantineInSummary:
    """Satellite: the supervisor's quarantine ledger surfaces in
    ``obs summary`` and matches ``CrawlDataset.health().quarantined``."""

    FP_PAGE = (
        "<html><script>var c=document.createElement('canvas');"
        "c.getContext('2d').fillText('probe',1,1);window.__fp=c.toDataURL();"
        "</script></html>"
    )

    def run_chaos(self, tmp_path):
        from dataclasses import asdict

        from repro.crawler.crawl import CrawlTarget
        from repro.crawler.shards import ExecutionConfig, run_sharded_crawl
        from repro.crawler.supervisor import SupervisorConfig
        from repro.net.server import Network

        net = Network()
        targets = []
        for i in range(6):
            domain = f"site-{i}.example"
            net.server_for(domain).add_resource("/", self.FP_PAGE)
            targets.append(CrawlTarget(domain, i + 1, "top"))
        poison = targets[2].domain
        network = FaultyNetwork(
            net, FaultConfig(worker_crash_domains=(poison,))
        )
        run_dir = tmp_path / "obs"
        recorder = RunRecorder(run_dir, label="crawl").start()
        dataset = run_sharded_crawl(
            network, targets, label="chaos", shards=2,
            checkpoint_dir=tmp_path / "shards",
            execution=ExecutionConfig(
                jobs=2,
                supervisor=SupervisorConfig(liveness_deadline_s=30.0, poll_interval_s=0.01),
            ),
        )
        recorder.finish(health=asdict(dataset.health()))
        return dataset, load_run(run_dir)

    def test_quarantine_rows_match_health(self, traced, tmp_path):
        dataset, log = self.run_chaos(tmp_path)
        health = dataset.health()
        assert health.quarantined == 1
        count, reasons = quarantine_rows(log)
        assert count == health.quarantined
        assert reasons == [("quarantined:exit:137", 1)]
        # The quarantined site is accounted in the crawl totals too — the
        # parent records counters for sites whose workers died.
        totals = crawl_totals(log, "chaos")
        assert totals["total"] == health.total
        assert totals["failure_rows"] == tuple(health.failure_rows)
        assert totals["attempts_histogram"] == health.attempts_histogram
        text = summary_text(log)
        assert "quarantined sites: 1" in text
        assert "quarantined:exit:137" in text

    def test_unquarantined_run_shows_no_quarantine_section(self, traced, tmp_path):
        recorder = RunRecorder(tmp_path / "run", label="crawl").start()
        obs.inc("crawler.pages[control]", 2)
        obs.inc("crawler.pages_ok[control]", 2)
        recorder.finish()
        assert "quarantined sites" not in summary_text(load_run(tmp_path / "run"))


class TestSampling:
    def test_sampled_run_keeps_summary_exact(self, world, tmp_path):
        previous = obs.config()
        obs.configure(ObsConfig(trace=True, sample=0.25))
        obs.reset()
        try:
            result, run_dir = run_traced_study(world, tmp_path)
        finally:
            obs.configure(previous)
        log = load_run(run_dir)
        health = result.control.health()
        # Far fewer spans than sites survive the sample...
        assert len(log.spans("crawl.page")) < health.total
        # ...but the metrics-backed totals are untouched.
        totals = crawl_totals(log, "control")
        assert totals["total"] == health.total
        assert totals["successes"] == health.successes
        assert totals["attempts_histogram"] == health.attempts_histogram


class TestRecorder:
    def test_resolve_run_dir_precedence(self, traced):
        assert resolve_run_dir("explicit", default="d").name == "explicit"
        obs.configure(ObsConfig(trace=True, run_dir="/tmp/from-env"))
        assert str(resolve_run_dir(None, default="d")) == "/tmp/from-env"
        obs.configure(ObsConfig(trace=True))
        assert resolve_run_dir(None, default="d").name == "d"
        obs.configure(ObsConfig(trace=False))
        assert resolve_run_dir(None, default="d") is None

    def test_recorder_writes_header_records_summary(self, traced, tmp_path):
        recorder = RunRecorder(tmp_path / "run", label="crawl", seed=42).start()
        obs.inc("crawler.pages[x]", 3)
        with obs.span("crawl.shard", shard="shard-0"):
            pass
        recorder.finish(health={"total": 3})
        log = load_run(tmp_path / "run")
        assert log.header["label"] == "crawl"
        assert log.manifest["seed"] == 42
        assert log.counters["crawler.pages[x]"] == 3
        assert log.summary["health"] == {"total": 3}
        assert log.summary["records"] == 1

    def test_torn_trailing_line_is_tolerated(self, traced, tmp_path):
        recorder = RunRecorder(tmp_path / "run", label="crawl").start()
        with obs.span("crawl.shard"):
            pass
        path = recorder.finish()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": "event", "name": "tor')  # killed mid-write
        log = load_run(tmp_path / "run")
        assert len(log.records) == 1

    def test_crawl_labels_listing(self, traced, tmp_path):
        recorder = RunRecorder(tmp_path / "run", label="crawl").start()
        obs.inc("crawler.pages[control]")
        obs.inc("crawler.pages[abp]")
        recorder.finish()
        assert crawl_labels(load_run(tmp_path / "run")) == ["abp", "control"]

    def test_slow_text_without_spans(self, traced, tmp_path):
        recorder = RunRecorder(tmp_path / "run", label="crawl").start()
        recorder.finish()
        assert "tracing enabled" in slow_text(load_run(tmp_path / "run"))


class TestCrawlerCliArtifacts:
    def test_crawler_main_writes_obs_dir(self, traced, tmp_path):
        from repro.crawler.__main__ import main as crawler_main

        out = tmp_path / "crawl.jsonl"
        run_dir = tmp_path / "run.obs"
        rc = crawler_main(
            [
                "--scale", "0.004",
                "--out", str(out),
                "--fault-rate", "0.1",
                "--obs-dir", str(run_dir),
            ]
        )
        assert rc == 0
        assert out.exists()
        log = load_run(run_dir)
        from repro.crawler.storage import load_dataset

        health = load_dataset(out).health()
        totals = crawl_totals(log, health.label)
        assert totals["total"] == health.total
        assert totals["successes"] == health.successes
        assert log.summary["health"]["total"] == health.total
        assert log.manifest["seed"] == 20250504
        # checkpoint instrumentation fired once per observation + finalize
        assert log.counters["crawler.checkpoint_writes"] == health.total
        assert log.counters["crawler.checkpoint_finalized"] == 1
        # The crawl's cache and GC counters reach its run log too.
        layers = layer_rows(log.summary["metrics"])
        assert layers["js.static"]["hits"] + layers["js.static"]["misses"] > 0
        assert layers["gc"]["miss_seconds"] > 0
        lines = summary_text(log).splitlines()
        assert any(line.startswith("js.static ") for line in lines)
        assert any(line.startswith("gc ") and line.endswith("s wall") for line in lines)
