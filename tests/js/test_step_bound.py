"""The static step bound is sound: no run charges more steps than it.

Triage skips a script only when its step bound fits the page's step
budget, so a bound below the steps a run really charges would let a script
that fails eagerly (``step budget exceeded``) vanish from a dataset.  Every
script with a bound in the study's corpora — the 13 vendor scripts, the
benign corpus, every script of a scale-0.01 world — and a set of loop
shapes runs eagerly here, and must charge no more steps than its bound.
"""

import pytest

from repro.config import StudyScale
from repro.crawler import crawl as crawl_module
from repro.crawler.crawl import run_crawl
from repro.js.interpreter import Interpreter
from repro.js.static import verdict_for_source
from repro.net.server import Network
from repro.webgen import build_world
from repro.webgen import scripts as S
from tests.crawler.eager_browser import EagerBrowser
from tests.js.test_static_verdicts import BENIGN, VENDORS

#: Loop shapes whose steps an unsound bound underestimates: nested loops,
#: long loops, loops whose body costs more than a few steps, calls in loops.
LOOPS = {
    "long-body": "var n = 0; for (var i = 0; i < 3000; i++) { n = n + i * 2 + 1; }",
    "nested": "var n = 0; for (var i = 0; i < 30; i++) { for (var j = 0; j < 40; j++) { n = n + 1; } }",
    "nested-4000": "var n = 0; for (var i = 0; i < 4000; i++) { for (var j = 0; j < 4000; j++) { n++; } }",
    "long": "var n = 0; for (var i = 0; i < 100000; i++) { n = n + 1; }",
    "inclusive": "var n = 0; for (var i = 1; i <= 64; i += 3) { n += i; }",
    "fraction": "var n = 0; for (var i = 0; i < 1; i += 0.1) { n++; }",
    "call-in-loop": (
        "function f(x) { var s = 0; for (var k = 0; k < 10; k++) { s += x; } return s; }"
        "var t = 0; for (var i = 0; i < 20; i++) { t += f(i); }"
    ),
    "iife-closure": S.analytics_filler_script(7),
}

#: Step budget for running the loop shapes: low enough that the runaway
#: ones stop quickly, high enough that every bounded one completes.
LOOP_BUDGET = 200_000


class StepRecorder(EagerBrowser):
    """An eager browser that records the most steps each source charged."""

    steps = {}

    def _run_script(self, page, effective_url, source):
        super()._run_script(page, effective_url, source)
        steps = page._interp.steps_executed
        StepRecorder.steps[source] = max(StepRecorder.steps.get(source, 0), steps)


def page_steps(sources):
    """Load each source alone in a page, eagerly; source -> steps."""
    StepRecorder.steps = {}
    net = Network()
    for index, source in enumerate(sources):
        server = net.server_for(f"s{index}.example")
        server.add_script("/s.js", source)
        server.add_resource("/", '<html><title>t</title><script src="/s.js"></script></html>')
    for index in range(len(sources)):
        StepRecorder(net).load(f"https://s{index}.example/")
    return dict(StepRecorder.steps)


def assert_within_bounds(steps):
    checked = 0
    for source, executed in steps.items():
        bound = verdict_for_source(source).step_bound
        if bound is None:
            continue
        assert executed <= bound, f"bound {bound} < {executed} steps for {source[:120]!r}"
        checked += 1
    return checked


class TestCorpora:
    def test_vendor_and_benign_scripts(self):
        assert_within_bounds(page_steps([source for _name, source in VENDORS + BENIGN]))

    def test_every_script_of_a_small_world(self):
        world = build_world(StudyScale(fraction=0.01, seed=20250504))
        StepRecorder.steps = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crawl_module, "Browser", StepRecorder)
            run_crawl(world.network, world.all_targets)
        steps = dict(StepRecorder.steps)
        skippable = [s for s in steps if verdict_for_source(s).skippable]
        assert skippable, "the world has no skippable script to check"
        assert assert_within_bounds(steps) >= len(skippable)


class TestLoops:
    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_loop_shape_within_bound(self, name):
        source = LOOPS[name]
        interp = Interpreter(step_budget=LOOP_BUDGET)
        try:
            interp.run(source, name)
        except Exception:  # noqa: BLE001 — a runaway stops at the budget
            pass
        bound = verdict_for_source(source).step_bound
        assert bound is not None, name
        assert interp.steps_executed <= bound

    def test_runaway_loops_are_not_skippable(self):
        for name in ("nested-4000", "long"):
            assert not verdict_for_source(LOOPS[name]).skippable, name

    @pytest.mark.parametrize("source", [
        "var s = 0; for (var i = 0; i < 10; i++) { i = 0; s++; }",
        "var s = 0; function reset() { i = 0; } for (var i = 0; i < 10; i++) { reset(); }",
        "var s = 0; for (var i = 0; i < 10; i++) { [1, 2].forEach(function () { s++; }); }",
        "var f = function () { return 1; }; f = 3; f();",
        "for (var i = 1e999; i < 0; i++) {}",  # the span is -Infinity
    ])
    def test_unboundable_shapes_are_refused(self, source):
        assert verdict_for_source(source).step_bound is None
