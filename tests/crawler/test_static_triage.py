"""Static-triage transparency: skipping inert scripts never changes data.

Every page load triages its scripts: it defers those the static analyzer
proves canvas-inert, effect-free toward the rest of the page and within
the page's step budget, and drops the ones nothing ever forces it to
flush.  The hard contract is byte-identity with the eager oracle
(``tests/crawler/eager_browser.py``, which runs every script): a crawl must
persist the same dataset bytes as the oracle's — pages with cross-script
dataflow, parse bombs, runaway loops under a step budget, shared random
draws, injected faults, supervised workers, whatever.  These tests hold
that line and pin the flush semantics that make it true; a whole study
under the oracle is the ``eager`` cells of ``tests/test_invariance_matrix.py``.
"""

import dataclasses
import os

import pytest

from repro import obs, perf
from repro.browser.browser import Browser
from repro.crawler.crawl import CrawlTarget, run_crawl
from repro.crawler.resilience import PageBudget
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl
from repro.crawler.storage import save_dataset
from repro.crawler.supervisor import SupervisorConfig
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.server import Network
from repro.obs.metrics import layer_rows
from tests.crawler.eager_browser import EagerBrowser, eager

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

#: Draws from the realm's shared generator: skipping it would shift the
#: next script's draws, and so the canvas that script extracts.
RANDOM_SCRIPT = "var __seedDraw = Math.floor(Math.random() * 1000);"

RANDOM_FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 200; c.height = 40;
var g = c.getContext('2d');
g.fillText('r' + Math.random(), 2, 20);
window.__randomCanvas = c.toDataURL();
"""

#: Loops whose steps exceed the budget pages' ``max_js_steps``: eagerly
#: each times the page out, so triage must not skip them.
NESTED_LOOP = "var n = 0; for (var i = 0; i < 4000; i++) { for (var j = 0; j < 4000; j++) { n++; } }"
LONG_LOOP = "var n = 0; for (var i = 0; i < 100000; i++) { n = n + 1; }"
SMALL_INERT_SCRIPT = "var __small = 6 * 7;"

#: The per-script step budget of the budget pages.
STEP_BUDGET = PageBudget(max_js_steps=500)

#: Parses fine, then recurses deeper than the Python stack allows.
DEEP_RECURSION = (
    "console.log('before');"
    " function f(n) { return n ? f(n - 1) + 1 : 0; } try { f(5000); } catch (e) {}"
)


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
        "random.example": page(RANDOM_SCRIPT, RANDOM_FP_SCRIPT),
    }
    for domain, html in specs.items():
        net.server_for(domain).add_resource("/", html)
    return net, list(specs)


def make_budget_network():
    """Pages crawled under :data:`STEP_BUDGET`."""
    net = Network()
    specs = {
        "nested.example": page(NESTED_LOOP, FP_SCRIPT),
        "long.example": page(LONG_LOOP),
        "fits.example": page(SMALL_INERT_SCRIPT, FP_SCRIPT),
    }
    for domain, html in specs.items():
        net.server_for(domain).add_resource("/", html)
    return net, list(specs)


#: (network builder, page budget) pairs every byte-identity test crawls.
SUITES = ((make_network, None), (make_budget_network, STEP_BUDGET))


def assert_same_bytes(tmp_path, oracle, crawled, name):
    save_dataset(oracle, tmp_path / f"{name}.oracle.jsonl")
    save_dataset(crawled, tmp_path / f"{name}.crawled.jsonl")
    assert (tmp_path / f"{name}.oracle.jsonl").read_bytes() == (
        tmp_path / f"{name}.crawled.jsonl"
    ).read_bytes()


def make_targets(domains):
    return [
        CrawlTarget(domain, i + 1, "top" if i % 2 == 0 else "tail")
        for i, domain in enumerate(domains)
    ]


class TestByteIdentity:
    """The crawl persists exactly what the eager oracle's crawl does."""

    def test_serial_crawl_bytes_identical(self, tmp_path):
        for build, budget in SUITES:
            net, domains = build()
            targets = make_targets(domains)
            with eager():
                oracle = run_crawl(net, targets, label="control", page_budget=budget)
            net2, _ = build()
            crawled = run_crawl(net2, targets, label="control", page_budget=budget)
            assert_same_bytes(tmp_path, oracle, crawled, build.__name__)

    def test_observations_equal_not_just_bytes(self):
        for build, budget in SUITES:
            net, domains = build()
            targets = make_targets(domains)
            with eager():
                oracle = run_crawl(net, targets, label="control", page_budget=budget)
            net2, _ = build()
            crawled = run_crawl(net2, targets, label="control", page_budget=budget)
            assert crawled.observations == oracle.observations

    def test_supervised_fault_injected_bytes_identical(self, tmp_path):
        # The acceptance gate: triage under the supervisor at jobs=N with
        # injected transient faults still persists the oracle's bytes.
        for build, budget in SUITES:
            targets = make_targets(sorted(build()[1]))

            def crawl(checkpoint_dir):
                net, _ = build()
                faulty = FaultyNetwork(net, FaultConfig(fault_rate=0.3), seed=99)
                return run_sharded_crawl(
                    faulty,
                    targets,
                    label="chaos",
                    shards=min(4, JOBS + 1),
                    checkpoint_dir=checkpoint_dir,
                    page_budget=budget,
                    execution=ExecutionConfig(jobs=JOBS, supervisor=SupervisorConfig()),
                )

            with eager():
                oracle = crawl(tmp_path / f"{build.__name__}-oracle-ckpt")
            crawled = crawl(tmp_path / f"{build.__name__}-ckpt")
            assert_same_bytes(tmp_path, oracle, crawled, build.__name__)

    def test_parallel_sharded_bytes_identical(self, tmp_path):
        for build, budget in SUITES:
            net, domains = build()
            targets = make_targets(domains)
            with eager():
                oracle = run_sharded_crawl(
                    net, targets, label="control", page_budget=budget,
                    execution=ExecutionConfig(jobs=JOBS),
                )
            net2, _ = build()
            crawled = run_sharded_crawl(
                net2, targets, label="control", page_budget=budget,
                execution=ExecutionConfig(jobs=JOBS),
            )
            assert_same_bytes(tmp_path, oracle, crawled, build.__name__)

    def test_budget_pages_time_out(self):
        # The runaway loops fail their pages as the eager crawl does, and
        # the inert script that fits the budget is still skipped.
        net, domains = make_budget_network()
        dataset = run_crawl(net, make_targets(domains), page_budget=STEP_BUDGET)
        reasons = {o.domain: o.failure_reason for o in dataset.observations}
        assert reasons == {"nested.example": "timeout", "long.example": "timeout", "fits.example": None}
        loaded = Browser(net, js_step_budget=500).load("https://fits.example/")
        assert loaded.skipped_scripts == ["https://fits.example/#inline"]

    def test_random_draws_match_the_oracle(self):
        net, _ = make_network()
        loaded = Browser(net).load("https://random.example/")
        oracle = EagerBrowser(net).load("https://random.example/")
        assert loaded.skipped_scripts == []
        assert [e.data_url for e in loaded.instrument.extractions] == [
            e.data_url for e in oracle.instrument.extractions
        ]


class TestTriageSemantics:
    def test_inert_script_is_skipped(self):
        net = Network()
        net.server_for("a.example").add_resource("/", page(INERT_SCRIPT, FP_SCRIPT))
        loaded = Browser(net).load("https://a.example/")
        assert loaded.skipped_scripts == ["https://a.example/#inline"]
        # The skipped script still appears in the dataset-visible lists.
        assert "https://a.example/#inline" in loaded.executed_scripts

    def test_triage_counters_move(self):
        net = Network()
        net.server_for("a.example").add_resource("/", page(INERT_SCRIPT, FP_SCRIPT))
        before = layer_rows(obs.METRICS.snapshot()).get("js.static.triage", {})
        Browser(net).load("https://a.example/")
        after = layer_rows(obs.METRICS.snapshot()).get("js.static.triage", {})
        assert after.get("hits", 0) - before.get("hits", 0) == 1  # deferred
        assert after.get("misses", 0) - before.get("misses", 0) == 1  # executed

    def test_dataflow_dependency_forces_flush(self):
        # READER branches on WRITER's global: the writer cannot stay
        # deferred once the reader runs, so the canvases must match the
        # no-triage run exactly.
        net = Network()
        net.server_for("d.example").add_resource("/", page(WRITER_SCRIPT, READER_SCRIPT))
        on = Browser(net).load("https://d.example/")
        off = EagerBrowser(net).load("https://d.example/")
        assert on.skipped_scripts == []
        assert [repr(e) for e in on.instrument.extractions] == [
            repr(e) for e in off.instrument.extractions
        ]

    def test_host_write_flushes_readers_of_that_host(self):
        # The deferred script reads screen.width; the next script changes
        # it, so the deferred one must run first to see the old value.
        net = Network()
        net.server_for("h.example").add_resource("/", page(
            "var __w = screen.width;",
            "screen.width = 7;",
            "var c = document.createElement('canvas'); c.width = 200; c.height = 40;"
            "c.getContext('2d').fillText('w' + __w, 2, 20); window.__wc = c.toDataURL();",
        ))
        loaded = Browser(net).load("https://h.example/")
        oracle = EagerBrowser(net).load("https://h.example/")
        assert [e.data_url for e in loaded.instrument.extractions] == [
            e.data_url for e in oracle.instrument.extractions
        ]

    def test_rebound_host_name_blocks_skipping(self):
        # After an earlier script rebinds Math, Math.floor is script code
        # (here a runaway loop): the later script must run, and fail, as
        # the oracle's does.
        net = Network()
        net.server_for("m.example").add_resource("/", page(
            "Math = {floor: function (x) { while (true) {} }};",
            "var __f = Math.floor(1.5);",
        ))
        loaded = Browser(net, js_step_budget=5_000).load("https://m.example/")
        oracle = EagerBrowser(net, js_step_budget=5_000).load("https://m.example/")
        assert loaded.skipped_scripts == []
        assert loaded.script_errors == oracle.script_errors
        assert any("step budget exceeded" in err for err in loaded.script_errors)

    @pytest.mark.parametrize(
        "script",
        ["var s = (5).toString(0);", "var s = (1.5).toFixed(NaN);", "var s = parseInt('1', 37);"],
    )
    def test_number_builtins_match_the_oracle(self, script):
        # toString and toFixed throw on an argument out of range, so they
        # are throw risks unless it is a literal in range; parseInt returns.
        net = Network()
        net.server_for("n.example").add_resource("/", page(script, FP_SCRIPT))
        loaded = Browser(net).load("https://n.example/")
        oracle = EagerBrowser(net).load("https://n.example/")
        assert (
            loaded.instrument.calls,
            loaded.instrument.extractions,
            loaded.script_errors,
        ) == (oracle.instrument.calls, oracle.instrument.extractions, oracle.script_errors)
        skipped = ["https://n.example/#inline"] if "parseInt" in script else []
        assert loaded.skipped_scripts == skipped

    def test_flushed_script_reads_the_clock_of_its_turn(self):
        net = Network()
        net.server_for("t.example").add_resource("/", page(
            "var __t = performance.now();",
            FP_SCRIPT,
            "var c = document.createElement('canvas'); c.width = 200; c.height = 40;"
            "c.getContext('2d').fillText('t' + __t, 2, 20); window.__tc = c.toDataURL();",
        ))
        loaded = Browser(net).load("https://t.example/")
        oracle = EagerBrowser(net).load("https://t.example/")
        assert loaded.skipped_scripts == []  # flushed by the reader
        assert [e.data_url for e in loaded.instrument.extractions] == [
            e.data_url for e in oracle.instrument.extractions
        ]


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

    @pytest.mark.parametrize("bad", ["var a = 0x;", "var a = @;"])
    def test_malformed_script_does_not_crash_the_page(self, bad):
        # A malformed literal used to escape as a bare ValueError and record
        # the whole site as crashed; it must fail only its own script, like
        # any other syntax error, and as the eager oracle records it.
        net = Network()
        server = net.server_for("bad.example")
        server.add_script("/bad.js", bad)
        server.add_script("/fp.js", FP_SCRIPT)
        server.add_resource(
            "/", '<html><title>t</title><script src="/bad.js"></script><script src="/fp.js"></script></html>'
        )
        targets = [CrawlTarget("bad.example", 1, "top")]
        dataset = run_crawl(net, targets)
        [observation] = dataset.observations
        assert observation.success, observation.failure_reason
        assert len(observation.extractions) == 1
        assert any("bad.js" in err for err in observation.script_errors)
        with eager():
            assert run_crawl(net, targets).observations == dataset.observations

    def test_parse_bomb_with_triage_matches_without(self, tmp_path):
        net, _ = make_network()
        targets = [CrawlTarget("bomb.example", 1, "top")]
        with eager():
            oracle = run_crawl(net, targets, label="control")
        net2, _ = make_network()
        crawled = run_crawl(net2, targets, label="control")
        assert crawled.observations == oracle.observations


class TestStackOverflowContainment:
    """Python's recursion limit is a parse error only while parsing."""

    def test_runtime_overflow_is_a_script_error(self):
        net = Network()
        net.server_for("d.example").add_resource("/", page(DEEP_RECURSION, FP_SCRIPT))
        loaded = Browser(net).load("https://d.example/")
        assert loaded.parse_errors == []
        assert loaded.script_errors == [
            "https://d.example/#inline: maximum call stack size exceeded"
        ]
        # The script ran up to the overflow, and its sibling still ran.
        assert loaded.console == ["before"]
        assert loaded.instrument.extractions

    def test_parse_overflow_stays_a_parse_error(self):
        net = Network()
        net.server_for("b.example").add_resource("/", page(PARSE_BOMB, FP_SCRIPT))
        loaded = Browser(net).load("https://b.example/")
        assert loaded.parse_errors == [("https://b.example/#inline", "RecursionError")]
        assert loaded.script_errors == [
            "https://b.example/#inline: parse error: RecursionError"
        ]
        assert loaded.instrument.extractions


class TestShippedVerdicts:
    """Every distinct script is analysed once per study, in the crawl."""

    def test_parallel_study_static_stage_analyses_nothing(self):
        from repro.core.pipeline import StudyConfig, run_study

        perf.reset_caches()
        net, domains = make_network()
        result = run_study(
            StudyConfig(net, make_targets(domains), [], include_adblock_crawls=False),
            ExecutionConfig(jobs=JOBS),
            stages=["static"],
        )
        [static] = [t for t in result.stage_timings if t.name == "static"]
        counters = static.details["perf"]["js.static"]
        assert counters["misses"] == 0
        assert counters["hits"] > 0
        assert result.static_verdicts.total_scripts > 0

    def test_adoption_records_no_hit_and_no_miss(self):
        from repro.js.static import verdict as static_verdict

        perf.reset_caches()
        mark = static_verdict.verdict_mark()
        computed = static_verdict.verdict_for_source(INERT_SCRIPT)
        shipped = static_verdict.verdicts_since(mark)
        assert list(shipped.values()) == [computed]
        perf.reset_caches()
        before = layer_rows(obs.METRICS.snapshot()).get("js.static", {})
        static_verdict.adopt_verdicts(shipped)
        # A key already held is left as it is.
        static_verdict.adopt_verdicts(
            {key: dataclasses.replace(value, classification="other") for key, value in shipped.items()}
        )
        after = layer_rows(obs.METRICS.snapshot()).get("js.static", {})
        for field in ("hits", "misses"):
            assert after.get(field, 0) == before.get(field, 0)
        assert static_verdict.verdict_for_source(INERT_SCRIPT) is computed
        assert layer_rows(obs.METRICS.snapshot())["js.static"]["hits"] == before.get("hits", 0) + 1
