"""The compiled engine is *exactly* transparent.

Every test here runs the same program twice — through the production
engine (``Interpreter``, executing the closure compiler of
:mod:`repro.js.compiler`) and through the tree-walking oracle of
``reference_interpreter.py`` — and asserts the observable outcomes are
identical: console output, return values, thrown error type / message /
line / column, executed step counts, canvas extractions, script
attribution, and (at the top of the stack) whole crawl datasets byte for
byte.  Page loads and crawls take the oracle by patching
``repro.browser.browser.Interpreter``; forked crawl workers inherit the
patch.

The snippet corpus deliberately aims at the places a compiler diverges
from an interpreter: scope-slot resolution vs dict lookups (hoisting,
shadowing, implicit globals, ``typeof`` of undeclared names), closure
capture (loop variables, ``for``-``of`` per-iteration bindings, arrow
``this``), evaluation-order quirks the interpreter has and the compiler
must reproduce (member compound assignment evaluating its object twice,
value-before-target errors), and the error paths (step budget, uncaught
throws, not-a-function) where line/column attribution is easy to get
wrong.
"""

import contextlib
import hashlib

import pytest

from repro.browser import browser as browser_module
from repro.browser.browser import Browser
from repro.config import StudyScale
from repro.crawler.crawl import CrawlTarget
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl
from repro.crawler.storage import save_dataset
from repro.js import compiler
from repro.js.errors import JSError
from repro.js.interpreter import Interpreter
from repro.js.values import JSObject, ROOT_SHAPE
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.server import Network
from repro.webgen import build_world
from repro.webgen.vendors import VENDOR_SPECS, VENDORS_BY_NAME, prewarm_sources

from tests.js.reference_interpreter import ReferenceInterpreter


@contextlib.contextmanager
def oracle():
    """Load every page inside the block on the tree-walking reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(browser_module, "Interpreter", ReferenceInterpreter)
        yield


# ---------------------------------------------------------------------------
# engine-level equivalence on adversarial snippets
# ---------------------------------------------------------------------------

SNIPPETS = {
    "closure-captures-loop-var": """
        var fns = [];
        for (var i = 0; i < 3; i++) { fns.push(function () { return i; }); }
        console.log(fns[0]() + ',' + fns[1]() + ',' + fns[2]());
    """,
    "for-of-per-iteration-capture": """
        var fns = [];
        for (var x of [10, 20, 30]) { fns.push(function () { return x; }); }
        console.log(fns[0]() + ',' + fns[1]() + ',' + fns[2]());
    """,
    "arrow-this-lexical": """
        var obj = { tag: 'outer', run: function () {
            var arrow = () => this.tag;
            return arrow();
        } };
        console.log(obj.run());
    """,
    "named-fn-expr-self-reference": """
        var f = function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); };
        console.log(f(5));
        console.log(typeof fact);
    """,
    "hoisting-var-and-function": """
        console.log(typeof later, a);
        var a = 1;
        function later() { return 'yes'; }
        console.log(later(), a);
    """,
    "let-shadow-mid-block": """
        var v = 'outer';
        { let v = 'inner'; console.log(v); }
        console.log(v);
    """,
    "implicit-global-from-function": """
        function leak() { leaked = 7; }
        leak();
        console.log(leaked);
    """,
    "shadowed-global-builtin": """
        var Math = { abs: function (x) { return 'shadowed:' + x; } };
        console.log(Math.abs(-3));
    """,
    "sparse-array-holes": """
        var a = [];
        a[5] = 'five';
        console.log(a.length, a[2], a.join('|'));
    """,
    "compound-operators": """
        var n = 7;
        n += 3; n -= 1; n *= 4; n /= 2; n %= 11;
        var b = 12;
        b &= 10; b |= 5; b ^= 3;
        console.log(n, b);
    """,
    "member-compound-evaluates-object-twice": """
        var calls = 0;
        function get() { calls++; return store; }
        var store = { n: 10 };
        get().n += 5;
        console.log(store.n, calls);
    """,
    "member-update-double-eval": """
        var hits = [];
        function pick() { hits.push('x'); return box; }
        var box = { v: 1 };
        pick().v++;
        console.log(box.v, hits.length);
    """,
    "delete-and-typeof-quirks": """
        var o = { k: 1 };
        console.log(delete o.k, delete o.missing, delete notDeclared);
        console.log(typeof neverDeclared, 'k' in o);
    """,
    "switch-fallthrough": """
        function route(x) {
            var path = [];
            switch (x) {
                case 1: path.push('one');
                case 2: path.push('two'); break;
                case 3: path.push('three'); break;
                default: path.push('other');
            }
            return path.join('>');
        }
        console.log(route(1), route(3), route(9));
    """,
    "switch-default-not-last": """
        function route(x) {
            switch (x) {
                default: return 'default';
                case 1: return 'one';
            }
        }
        console.log(route(1), route(2));
    """,
    "try-finally-ordering": """
        var log = [];
        function risky() {
            try { log.push('try'); throw { msg: 'boom' }; }
            catch (e) { log.push('catch:' + e.msg); return 'from-catch'; }
            finally { log.push('finally'); }
        }
        console.log(risky(), log.join(','));
    """,
    "exception-across-frames": """
        function inner() { throw 'deep'; }
        function outer() { inner(); }
        try { outer(); } catch (e) { console.log('caught ' + e); }
    """,
    "catch-param-shadowing": """
        var e = 'outer';
        try { throw 'thrown'; } catch (e) { console.log(e); }
        console.log(e);
    """,
    "string-methods": """
        var s = 'Canvas Fingerprint';
        console.log(s.length, s.toUpperCase(), s.slice(7), s.charCodeAt(0),
                    s.split(' ').length, s.indexOf('Finger'));
    """,
    "sequence-expression": """
        var x = (1, 2, 3);
        var y = 0;
        for (var i = 0, j = 10; i < 3; i++, j--) { y = i + j; }
        console.log(x, y);
    """,
    "bitwise-on-variables": """
        var a = 12, b = 10, n = -12;
        console.log(a & b, a | b, a ^ b, ~a, a << 2, n >> 1, n >>> 28);
    """,
    "do-while": """
        var n = 0;
        do { n++; } while (n < 4);
        console.log(n);
    """,
    "in-operator": """
        var o = { a: 1 };
        console.log('a' in o, 'b' in o, 0 in [9, 8]);
    """,
    "nested-blocks-and-scopes": """
        var trace = [];
        function f() {
            var x = 'fn';
            { let x = 'block1'; { let x = 'block2'; trace.push(x); } trace.push(x); }
            trace.push(x);
        }
        f();
        console.log(trace.join(','));
    """,
    "ternary-and-logical-short-circuit": """
        var calls = [];
        function t(v) { calls.push(v); return v; }
        var r = t(0) || t('') || t('win') || t('never');
        var s = t(1) && t(2) && 0 && t('skipped');
        console.log(r, s, calls.join(','));
    """,
    "template-literals": """
        var who = 'fingerprinter';
        console.log(`hello ${who}, ${1 + 2} times`);
    """,
    "object-shape-transitions": """
        var points = [];
        for (var i = 0; i < 4; i++) {
            var p = {};
            p.x = i; p.y = i * 2;
            points.push(p.x + p.y);
        }
        console.log(points.join(','));
    """,
}

#: Snippets that must *fail* identically: same error message, line, column.
FAILING_SNIPPETS = {
    "uncaught-throw": "var a = 1;\nthrow 'kaboom';\n",
    "read-of-undeclared": "var ok = 1;\nconsole.log(missingName);\n",
    "not-a-function": "var n = 42;\nn();\n",
    "member-of-undefined": "var u;\nu.prop;\n",
    "invalid-assignment-target": "var x = 1;\n5 = x;\n",
    "invalid-compound-target": "var x = 1;\n5 += x;\n",
    "uncaught-from-callee": "function boom() {\n  throw 'inner';\n}\nboom();\n",
}


def run_both(source, step_budget=Interpreter.DEFAULT_STEP_BUDGET):
    """Run ``source`` on the oracle, then compiled; return (console, error, steps) pairs."""
    results = []
    for engine in (ReferenceInterpreter, Interpreter):
        interp = engine(step_budget=step_budget)
        error = None
        try:
            interp.run(source, script_url="equiv.js")
        except JSError as exc:
            error = (type(exc).__name__, exc.message, exc.line, exc.col)
        results.append((list(interp.console_log), error, interp.steps_executed))
    return results


class TestSnippetEquivalence:
    @pytest.mark.parametrize("name", sorted(SNIPPETS))
    def test_snippet(self, name):
        reference, compiled = run_both(SNIPPETS[name])
        assert compiled == reference

    @pytest.mark.parametrize("name", sorted(FAILING_SNIPPETS))
    def test_failing_snippet(self, name):
        reference, compiled = run_both(FAILING_SNIPPETS[name])
        assert compiled == reference
        assert compiled[1] is not None, "snippet was expected to raise"

    def test_step_budget_exhaustion_identical(self):
        source = "var n = 0;\nwhile (true) { n++; }\n"
        reference, compiled = run_both(source, step_budget=500)
        assert compiled == reference
        assert "step budget exceeded" in compiled[1][1]

    def test_step_counts_match_on_every_snippet(self):
        # The tick parity claim, asserted in aggregate: identical budgets
        # charge identically in both engines.
        for name, source in SNIPPETS.items():
            reference, compiled = run_both(source)
            assert compiled[2] == reference[2], f"step counts diverge on {name}"


# ---------------------------------------------------------------------------
# vendor-script equivalence through full page loads
# ---------------------------------------------------------------------------


def vendor_corpus():
    """name -> source for every vendor in the catalog (both FPJS builds)."""
    corpus = {}
    for spec in VENDOR_SPECS:
        if spec.per_site:
            corpus[spec.name] = spec.source("equiv-site.example")
        else:
            corpus[spec.name] = spec.source()
    corpus["FingerprintJS-commercial"] = VENDORS_BY_NAME["FingerprintJS"].source(
        commercial=True
    )
    return corpus


def load_vendor_page(source):
    network = Network()
    server = network.server_for("vendor-equiv.example")
    server.add_resource("/fp.js", source, content_type="application/javascript")
    server.add_resource(
        "/", "<html><title>equiv</title><script src='/fp.js'></script></html>"
    )
    return Browser(network).load("https://vendor-equiv.example/")


def page_fingerprint(page):
    return {
        "extractions": [
            (e.canvas_id, e.method, e.script_url, e.data_url, e.width, e.height)
            for e in page.instrument.extractions
        ],
        "calls": [
            (c.canvas_id, c.interface, c.method, c.args, c.retval, c.script_url)
            for c in page.instrument.calls
        ],
        "console": list(page.console),
        "script_errors": list(page.script_errors),
        "executed": list(page.executed_scripts),
    }


class TestVendorEquivalence:
    @pytest.mark.parametrize("vendor", sorted(vendor_corpus()))
    def test_vendor_page_identical(self, vendor):
        source = vendor_corpus()[vendor]
        with oracle():
            reference = page_fingerprint(load_vendor_page(source))
        compiled = page_fingerprint(load_vendor_page(source))
        assert compiled == reference


# ---------------------------------------------------------------------------
# crawl-level equivalence: whole datasets byte for byte
# ---------------------------------------------------------------------------

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 280; c.height = 60;
var g = c.getContext('2d');
g.textBaseline = 'alphabetic';
g.font = '14px Arial';
g.fillStyle = '#069';
g.fillText('equivalence probe', 4, 22);
window.__out = c.toDataURL();
"""


def make_network(n=8):
    network = Network()
    for i in range(n):
        server = network.server_for(f"site-{i}.example")
        server.add_resource(
            "/", f"<html><title>{i}</title><script>{FP_SCRIPT}</script></html>"
        )
    return network


def make_targets(n=8):
    return [
        CrawlTarget(f"site-{i}.example", i + 1, "top" if i % 2 == 0 else "tail")
        for i in range(n)
    ]


def crawl_bytes(tmp_path, name, reference, network=None, targets=None, **kwargs):
    with oracle() if reference else contextlib.nullcontext():
        dataset = run_sharded_crawl(
            network or make_network(), targets or make_targets(), label="control", **kwargs
        )
    path = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, path)
    return path.read_bytes()


class TestCrawlEquivalence:
    def test_serial_crawl_datasets_identical(self, tmp_path):
        compiled = crawl_bytes(tmp_path, "compiled", reference=False)
        reference = crawl_bytes(tmp_path, "reference", reference=True)
        assert compiled == reference

    def test_parallel_prewarmed_crawl_datasets_identical(self, tmp_path):
        compiled = crawl_bytes(
            tmp_path, "compiled-par", reference=False, shards=3,
            execution=ExecutionConfig(jobs=2, js_prewarm=prewarm_sources()),
        )
        reference = crawl_bytes(
            tmp_path, "reference-par", reference=True, shards=3,
            execution=ExecutionConfig(jobs=2),
        )
        assert compiled == reference

    def test_fault_injected_supervised_crawl_identical(self, tmp_path):
        from repro.crawler.supervisor import SupervisorConfig

        def faulty():
            # Deterministic transient faults: same seed, same failures, so the
            # two engines see identical degraded networks.
            return FaultyNetwork(
                make_network(), FaultConfig(fault_rate=0.2), seed=11
            )

        config = SupervisorConfig(liveness_deadline_s=30.0, poll_interval_s=0.01)
        compiled = crawl_bytes(
            tmp_path, "compiled-faulty", reference=False, network=faulty(), shards=3,
            execution=ExecutionConfig(
                jobs=2, supervisor=config, js_prewarm=prewarm_sources()
            ),
        )
        reference = crawl_bytes(
            tmp_path, "reference-faulty", reference=True, network=faulty(), shards=3,
            execution=ExecutionConfig(jobs=2, supervisor=config),
        )
        assert compiled == reference

    def test_study_world_crawl_identical(self, tmp_path):
        # Every target of a generated study world: vendor bundles in
        # first-party code, consent and scroll script groups, benign canvas
        # users and dead sites, as a default control crawl meets them.
        world = build_world(StudyScale(fraction=0.005))
        targets = world.all_targets
        assert len(targets) == 200
        compiled = crawl_bytes(
            tmp_path, "world-compiled", reference=False, network=world.network, targets=targets
        )
        reference = crawl_bytes(
            tmp_path, "world-reference", reference=True, network=world.network, targets=targets
        )
        assert compiled == reference


# ---------------------------------------------------------------------------
# the machinery itself: cache, prewarm, shapes
# ---------------------------------------------------------------------------


class TestScriptCache:
    def test_same_source_compiles_once(self):
        cache = compiler.script_cache()
        source = "var unique_cache_probe = 1 + 2;"
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        key = (digest, compiler.ENGINE_VERSION)
        cache.clear()
        first = compiler.get_or_compile(source, "a.js")
        second = compiler.get_or_compile(source, "b.js")
        assert first is second  # URL is not part of the key, the digest is
        assert cache.contains(key)

    def test_prewarm_compiles_vendor_corpus(self):
        compiler.script_cache().clear()
        sources = prewarm_sources()
        assert compiler.prewarm(sources) == len(sources)
        cache = compiler.script_cache()
        for source in sources:
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            assert cache.contains((digest, compiler.ENGINE_VERSION))

    def test_contains_records_no_counters(self):
        from repro import obs
        from repro.obs.metrics import layer_rows

        cache = compiler.script_cache()
        before = layer_rows(obs.METRICS.snapshot()).get("js.cache", {})
        cache.contains(("nonexistent-digest", compiler.ENGINE_VERSION))
        after = layer_rows(obs.METRICS.snapshot()).get("js.cache", {})
        assert after.get("hits", 0.0) == before.get("hits", 0.0)
        assert after.get("misses", 0.0) == before.get("misses", 0.0)


class TestShapes:
    def test_same_insertion_order_shares_shape(self):
        a, b = JSObject(), JSObject()
        for o in (a, b):
            o.set("x", 1)
            o.set("y", 2)
        assert a.shape is b.shape
        assert a.shape.keys == ("x", "y")

    def test_different_order_distinct_shapes(self):
        a, b = JSObject(), JSObject()
        a.set("x", 1); a.set("y", 2)
        b.set("y", 2); b.set("x", 1)
        assert a.shape is not b.shape

    def test_empty_objects_share_root(self):
        assert JSObject().shape is ROOT_SHAPE
        assert JSObject().shape is JSObject().shape
