"""Static-triage transparency: skipping inert scripts never changes data.

Triage (``REPRO_JS_STATIC_TRIAGE=1`` / ``--static-triage``) defers scripts
the static analyzer proves canvas-inert and effect-free toward the rest of
the page, and drops the ones nothing ever forces it to flush.  The hard
contract is byte-identity: a crawl with triage on must persist the same
dataset bytes as one with it off — pages with cross-script dataflow, parse
bombs, injected faults, supervised workers, whatever.  These tests hold
that line and pin the flush semantics that make it true.
"""

import os

import pytest

from repro import perf
from repro.browser.browser import Browser
from repro.crawler.crawl import CrawlTarget, run_crawl
from repro.crawler.shards import run_sharded_crawl
from repro.crawler.storage import save_dataset
from repro.crawler.supervisor import run_supervised_crawl
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.server import Network

JOBS = int(os.environ.get("REPRO_SUPERVISED_JOBS", "2"))

INERT_SCRIPT = """
var __pageTotals = 0;
for (var i = 0; i < 40; i++) { __pageTotals += i * 3; }
var __pageLabel = JSON.stringify({total: __pageTotals});
"""

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 220; c.height = 40;
var g = c.getContext('2d');
g.font = '13px Arial';
g.fillText('triage probe', 3, 20);
window.__fp = c.toDataURL();
"""

WRITER_SCRIPT = "window.__sharedConfig = 'enabled';"

READER_SCRIPT = """
var mode = typeof __sharedConfig === 'undefined' ? 'off' : __sharedConfig;
var c = document.createElement('canvas');
c.width = 200; c.height = 40;
var g = c.getContext('2d');
g.fillText('mode:' + mode, 2, 20);
window.__modeCanvas = c.toDataURL();
"""

PARSE_BOMB = "var x = " + "(" * 400 + "1" + ")" * 400 + ";"


def page(*scripts, title="t"):
    tags = "".join(f"<script>{s}</script>" for s in scripts)
    return f"<html><title>{title}</title>{tags}</html>"


def make_network():
    net = Network()
    specs = {
        "inert-only.example": page(INERT_SCRIPT),
        "fp.example": page(INERT_SCRIPT, FP_SCRIPT),
        "dataflow.example": page(WRITER_SCRIPT, READER_SCRIPT),
        "bomb.example": page(PARSE_BOMB, FP_SCRIPT),
        "plain.example": page(),
    }
    for domain, html in specs.items():
        net.server_for(domain).add_resource("/", html)
    return net, list(specs)


def make_targets(domains):
    return [
        CrawlTarget(domain, i + 1, "top" if i % 2 == 0 else "tail")
        for i, domain in enumerate(domains)
    ]


class TestByteIdentity:
    def test_serial_crawl_bytes_identical(self, tmp_path):
        net, domains = make_network()
        targets = make_targets(domains)
        off = run_crawl(net, targets, label="control", static_triage=False)
        net2, _ = make_network()
        on = run_crawl(net2, targets, label="control", static_triage=True)
        save_dataset(off, tmp_path / "off.jsonl")
        save_dataset(on, tmp_path / "on.jsonl")
        assert (tmp_path / "off.jsonl").read_bytes() == (
            tmp_path / "on.jsonl"
        ).read_bytes()

    def test_observations_equal_not_just_bytes(self):
        net, domains = make_network()
        targets = make_targets(domains)
        off = run_crawl(net, targets, label="control", static_triage=False)
        net2, _ = make_network()
        on = run_crawl(net2, targets, label="control", static_triage=True)
        assert on.observations == off.observations

    def test_supervised_fault_injected_bytes_identical(self, tmp_path):
        # The acceptance gate: triage under the supervisor at jobs=N with
        # injected transient faults still persists identical bytes.
        targets = make_targets(sorted(make_network()[1]))

        def crawl(static_triage, checkpoint_dir):
            net, _ = make_network()
            faulty = FaultyNetwork(net, FaultConfig(fault_rate=0.3), seed=99)
            return run_supervised_crawl(
                faulty,
                targets,
                label="chaos",
                jobs=JOBS,
                shards=min(4, JOBS + 1),
                checkpoint_dir=checkpoint_dir,
                static_triage=static_triage,
            )

        off = crawl(False, tmp_path / "off-ckpt")
        on = crawl(True, tmp_path / "on-ckpt")
        save_dataset(off, tmp_path / "off.jsonl")
        save_dataset(on, tmp_path / "on.jsonl")
        assert (tmp_path / "off.jsonl").read_bytes() == (
            tmp_path / "on.jsonl"
        ).read_bytes()

    def test_parallel_sharded_bytes_identical(self, tmp_path):
        net, domains = make_network()
        targets = make_targets(domains)
        off = run_sharded_crawl(
            net, targets, label="control", jobs=JOBS, static_triage=False
        )
        net2, _ = make_network()
        on = run_sharded_crawl(
            net2, targets, label="control", jobs=JOBS, static_triage=True
        )
        save_dataset(off, tmp_path / "off.jsonl")
        save_dataset(on, tmp_path / "on.jsonl")
        assert (tmp_path / "off.jsonl").read_bytes() == (
            tmp_path / "on.jsonl"
        ).read_bytes()


class TestTriageSemantics:
    def test_inert_script_is_skipped(self):
        net = Network()
        net.server_for("a.example").add_resource("/", page(INERT_SCRIPT, FP_SCRIPT))
        loaded = Browser(net, static_triage=True).load("https://a.example/")
        assert loaded.skipped_scripts == ["https://a.example/#inline"]
        # The skipped script still appears in the dataset-visible lists.
        assert "https://a.example/#inline" in loaded.executed_scripts

    def test_triage_counters_move(self):
        net = Network()
        net.server_for("a.example").add_resource("/", page(INERT_SCRIPT, FP_SCRIPT))
        before = perf.PERF.snapshot().get("js.static.triage", {})
        Browser(net, static_triage=True).load("https://a.example/")
        after = perf.PERF.snapshot().get("js.static.triage", {})
        assert after.get("hits", 0) - before.get("hits", 0) == 1  # deferred
        assert after.get("misses", 0) - before.get("misses", 0) == 1  # executed

    def test_dataflow_dependency_forces_flush(self):
        # READER branches on WRITER's global: the writer cannot stay
        # deferred once the reader runs, so the canvases must match the
        # no-triage run exactly.
        net = Network()
        net.server_for("d.example").add_resource("/", page(WRITER_SCRIPT, READER_SCRIPT))
        on = Browser(net, static_triage=True).load("https://d.example/")
        off = Browser(net, static_triage=False).load("https://d.example/")
        assert on.skipped_scripts == []
        assert [repr(e) for e in on.instrument.extractions] == [
            repr(e) for e in off.instrument.extractions
        ]

    def test_triage_off_by_default(self):
        net = Network()
        net.server_for("a.example").add_resource("/", page(INERT_SCRIPT))
        loaded = Browser(net).load("https://a.example/")
        assert loaded.skipped_scripts == []

    def test_env_var_enables_triage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JS_STATIC_TRIAGE", "1")
        net = Network()
        net.server_for("a.example").add_resource("/", page(INERT_SCRIPT))
        loaded = Browser(net).load("https://a.example/")
        assert loaded.skipped_scripts == ["https://a.example/#inline"]


class TestParseErrorContainment:
    def test_parse_bomb_does_not_abort_sibling_scripts(self):
        net = Network()
        net.server_for("b.example").add_resource("/", page(PARSE_BOMB, FP_SCRIPT))
        loaded = Browser(net).load("https://b.example/")
        # The bomb lands as a per-script parse_error row...
        assert [url for url, _kind in loaded.parse_errors] == [
            "https://b.example/#inline"
        ]
        # ...and the page keeps executing: the sibling canvas script ran.
        assert loaded.instrument.extractions

    def test_parse_error_recorded_in_script_errors(self):
        net = Network()
        net.server_for("b.example").add_resource("/", page(PARSE_BOMB))
        loaded = Browser(net).load("https://b.example/")
        assert any("parse error" in err for err in loaded.script_errors)

    def test_inline_scripts_numbered_distinctly(self):
        net = Network()
        net.server_for("c.example").add_resource(
            "/", page(INERT_SCRIPT, WRITER_SCRIPT, FP_SCRIPT)
        )
        loaded = Browser(net).load("https://c.example/")
        assert loaded.executed_scripts == [
            "https://c.example/#inline",
            "https://c.example/#inline-2",
            "https://c.example/#inline-3",
        ]

    @pytest.mark.parametrize("triage", [False, True])
    @pytest.mark.parametrize("bad", ["var a = 0x;", "var a = @;"])
    def test_malformed_script_does_not_crash_the_page(self, bad, triage):
        # A malformed literal used to escape as a bare ValueError and record
        # the whole site as crashed; it must fail only its own script, like
        # any other syntax error.
        net = Network()
        server = net.server_for("bad.example")
        server.add_script("/bad.js", bad)
        server.add_script("/fp.js", FP_SCRIPT)
        server.add_resource(
            "/", '<html><title>t</title><script src="/bad.js"></script><script src="/fp.js"></script></html>'
        )
        dataset = run_crawl(net, [CrawlTarget("bad.example", 1, "top")], static_triage=triage)
        [observation] = dataset.observations
        assert observation.success, observation.failure_reason
        assert len(observation.extractions) == 1
        assert any("bad.js" in err for err in observation.script_errors)

    def test_parse_bomb_with_triage_matches_without(self, tmp_path):
        net, _ = make_network()
        targets = [CrawlTarget("bomb.example", 1, "top")]
        off = run_crawl(net, targets, label="control", static_triage=False)
        net2, _ = make_network()
        on = run_crawl(net2, targets, label="control", static_triage=True)
        assert on.observations == off.observations
