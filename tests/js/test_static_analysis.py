"""Units for the static script analyzer: CFG, dataflow, taint, verdicts.

The analyzer never executes a script — everything here checks that the
abstract pass alone recovers what the dynamic engine would observe: which
canvas APIs are reachable, whether readouts survive the paper's §3.2
exclusions, where tainted bytes flow, and when a script is provably inert.
"""

import hashlib

from repro import perf
from repro.js import nodes as N
from repro.js.parser import parse
from repro.js.static import (
    CLASS_BENIGN,
    CLASS_FP_LIKELY,
    CLASS_INERT,
    CLASS_PARSE_ERROR,
    analyze_program,
    build_cfg,
    classify,
    verdict_for_source,
)


def analyze(src):
    return analyze_program(parse(src))


def classed(src):
    classification, _excluded = classify(analyze(src))
    return classification


FP_SCRIPT = """
var c = document.createElement('canvas');
var ctx = c.getContext('2d');
ctx.fillText('fingerprint,<canvas> 1.0', 2, 15);
var data = c.toDataURL();
fetch('https://collect.example/?d=' + data);
"""


class TestCFG:
    def test_if_else_diamond(self):
        graph = build_cfg(parse("a(); if (x) { b(); } else { c(); } d();").body)
        entry = graph.blocks[1]
        assert len(entry.successors) == 2
        join_targets = {graph.blocks[s].successors[0] for s in entry.successors}
        assert len(join_targets) == 1  # both arms converge on d()

    def test_exit_block_is_zero(self):
        graph = build_cfg(parse("a();").body)
        assert graph.blocks[0].successors == []
        assert all(0 in b.successors or b.successors for b in graph.blocks[1:])

    def test_statements_after_return_are_dead(self):
        fn = parse("function f() { a(); return 1; dead(); }").body[0]
        graph = build_cfg(fn.body.body)
        live = list(graph.live_statements())
        assert len(live) == 2
        assert not any(
            isinstance(s, N.ExpressionStatement) and s.line > 1 for s in live
        ) or len(live) == 2

    def test_loop_detected_and_statements_collected(self):
        graph = build_cfg(parse("for (var i = 0; i < 3; i++) { work(); } after();").body)
        assert graph.has_loops
        assert len(graph.loop_statements) == 1

    def test_straight_line_has_no_loops(self):
        graph = build_cfg(parse("a(); b(); c();").body)
        assert not graph.has_loops
        assert graph.loop_statements == []


class TestApiProfile:
    def test_canvas_creation_and_draws_recorded(self):
        a = analyze(
            "var c = document.createElement('canvas');"
            "var x = c.getContext('2d');"
            "x.fillText('hi', 2, 2);"
            "var d = c.toDataURL();"
        )
        assert "createElement('canvas')" in a.api_profile
        assert "getContext" in a.api_profile
        assert "fillText" in a.api_profile
        assert "toDataURL" in a.api_profile
        assert a.text_draws and not a.geometry_draws
        assert len(a.readouts) == 1

    def test_no_canvas_means_no_mention(self):
        a = analyze("var total = 0; for (var i = 0; i < 5; i++) { total += i; }")
        assert not a.canvas_mention
        assert a.readouts == []

    def test_context_shares_allocation_site(self):
        a = analyze(
            "var c = document.createElement('canvas');"
            "c.width = 640; c.height = 480;"
            "var x = c.getContext('2d');"
            "x.fillRect(0, 0, 10, 10);"
            "var d = c.toDataURL();"
        )
        (site,) = a.readouts
        assert site.alloc.width == 640.0 and site.alloc.height == 480.0
        assert not site.alloc.small


class TestTaint:
    def test_readout_to_network_sink(self):
        assert analyze(FP_SCRIPT).taint_paths == {("toDataURL", "network")}

    def test_readout_to_storage_sink(self):
        src = FP_SCRIPT.replace(
            "fetch('https://collect.example/?d=' + data);",
            "localStorage.setItem('fp', data);",
        )
        assert analyze(src).taint_paths == {("toDataURL", "storage")}

    def test_readout_to_global_sink(self):
        src = FP_SCRIPT.replace(
            "fetch('https://collect.example/?d=' + data);",
            "window.__fp = data;",
        )
        assert analyze(src).taint_paths == {("toDataURL", "global")}

    def test_taint_survives_string_concatenation(self):
        src = FP_SCRIPT.replace(
            "fetch('https://collect.example/?d=' + data);",
            "var wrapped = 'v1:' + data + ':end';"
            "navigator.sendBeacon('/c', wrapped);",
        )
        assert ("toDataURL", "network") in analyze(src).taint_paths

    def test_interprocedural_readout_through_helper(self):
        a = analyze(
            "function grab(canvas) { return canvas.toDataURL(); }"
            "var c = document.createElement('canvas');"
            "var x = c.getContext('2d');"
            "x.fillText('q', 1, 1);"
            "navigator.sendBeacon('/c', grab(c));"
        )
        assert a.taint_paths == {("toDataURL", "network")}
        assert len(a.readouts) == 1

    def test_stored_but_uncalled_callback_still_counts(self):
        # A function expression assigned but never invoked may still run
        # later (event handlers); its effects must be accounted.
        a = analyze(
            "var handler = function() {"
            "  var c = document.createElement('canvas');"
            "  var x = c.getContext('2d');"
            "  x.fillText('z', 1, 1);"
            "  window.__out = c.toDataURL();"
            "};"
        )
        assert a.taint_paths == {("toDataURL", "global")}

    def test_untainted_network_call_is_not_a_taint_path(self):
        a = analyze("fetch('https://benign.example/ping');")
        assert a.taint_paths == set()


class TestExclusions:
    def test_lossy_format_excluded(self):
        src = FP_SCRIPT.replace("c.toDataURL()", "c.toDataURL('image/jpeg')")
        classification, excluded = classify(analyze(src))
        assert classification == CLASS_BENIGN
        assert "lossy-format" in excluded

    def test_small_canvas_excluded(self):
        classification, excluded = classify(
            analyze(
                "var c = document.createElement('canvas');"
                "c.width = 8; c.height = 8;"
                "var x = c.getContext('2d');"
                "x.fillRect(0, 0, 8, 8);"
                "var d = c.toDataURL();"
            )
        )
        assert classification == CLASS_BENIGN
        assert "small-canvas" in excluded

    def test_animation_excluded(self):
        classification, excluded = classify(
            analyze(
                "var c = document.createElement('canvas');"
                "var x = c.getContext('2d');"
                "function frame() {"
                "  x.save(); x.fillRect(0, 0, 10, 10); x.restore();"
                "  var d = c.toDataURL();"
                "}"
                "requestAnimationFrame(frame);"
            )
        )
        assert classification == CLASS_BENIGN
        assert "animation" in excluded

    def test_draw_without_readout_is_benign(self):
        assert (
            classed(
                "var c = document.createElement('canvas');"
                "var x = c.getContext('2d');"
                "x.fillRect(0, 0, 50, 50);"
            )
            == CLASS_BENIGN
        )

    def test_default_canvas_size_is_not_small(self):
        # HTML default 300x150 is over the threshold; a live text readout
        # on an unsized canvas stays fingerprinting-likely.
        assert classed(FP_SCRIPT) == CLASS_FP_LIKELY


class TestTermination:
    def test_literal_bounded_for_loop_terminates(self):
        a = analyze("var s = 0; for (var i = 0; i < 10; i++) { s += i; }")
        assert a.terminating()
        assert a.nonterm_reasons == []

    def test_while_loop_is_unproven(self):
        a = analyze("var s = 0; while (s < 10) { s += 1; }")
        assert not a.terminating()
        assert any("unbounded loop" in r for r in a.nonterm_reasons)

    def test_recursion_is_unproven(self):
        a = analyze("function r(n) { return r(n); } r(1);")
        assert not a.terminating()
        assert any("recursive" in r for r in a.nonterm_reasons)


class TestGlobalPools:
    def test_window_props_and_bare_globals_share_one_pool(self):
        a = analyze(
            "window.shared = 1; var v = window.other;"
            "bare = 2; var w = typeof missing;"
        )
        assert {"shared", "bare"} <= a.global_writes
        assert {"other", "missing"} <= a.global_reads

    def test_computed_window_access_reads_top(self):
        a = analyze("var k = 'se' + 'cret'; var v = window[k];")
        assert a.reads_top

    def test_typeof_missing_global_does_not_throw(self):
        a = analyze("var t = typeof definitelyMissing;")
        assert not a.may_throw()
        assert "definitelyMissing" in a.global_reads

    def test_bare_read_of_missing_global_may_throw(self):
        assert analyze("var v = definitelyMissing;").may_throw()


class TestVerdicts:
    def test_inert_script_is_skippable(self):
        v = verdict_for_source("var __t_inert_a = 41 + 1;")
        assert v.classification == CLASS_INERT
        assert v.skippable
        assert v.parse_error is None

    def test_fp_script_is_not_skippable(self):
        v = verdict_for_source(FP_SCRIPT)
        assert v.classification == CLASS_FP_LIKELY
        assert not v.skippable
        assert "canvas" in " ".join(v.skip_blockers)

    def test_unbounded_loop_blocks_skipping(self):
        v = verdict_for_source("var s = 0; while (s < 3) { s += 1; }")
        assert not v.skippable

    def test_math_random_blocks_skipping(self):
        # Math.random advances the realm's shared generator: skipping a
        # draw would shift every later script's draws.
        assert not verdict_for_source("var a = Math.floor(Math.random() * 1000);").skippable
        assert verdict_for_source("var a = Math.floor(2.5);").skippable

    def test_throwing_builtins_block_skipping(self):
        for source in (
            "var a = JSON.parse('{bad');",
            "var a = localStorage;",
            "var o = {}; o.o = o; var s = JSON.stringify(o);",
        ):
            assert not verdict_for_source(source).skippable, source
        assert verdict_for_source("var s = JSON.stringify({a: 1});").skippable

    def test_host_rebinding_is_a_host_write(self):
        v = verdict_for_source("var screen = 1; Math = {};")
        assert set(v.host_writes) == {"screen", "Math"}
        assert verdict_for_source("var w = screen.width;").host_reads == ("screen",)

    def test_parse_error_verdict(self):
        v = verdict_for_source("var x = " + "(" * 400 + "1" + ")" * 400 + ";")
        assert v.classification == CLASS_PARSE_ERROR
        assert v.parse_error is not None
        assert not v.skippable
        assert v.reads_top  # worst-case assumption: could read anything

    def test_malformed_literal_is_a_parse_error_verdict(self):
        v = verdict_for_source("var a = 0x;")
        assert v.classification == CLASS_PARSE_ERROR
        assert v.parse_error.startswith("JSSyntaxError")

    def test_verdict_does_not_depend_on_the_url(self):
        # The cache keys by digest: a verdict that named the URL which
        # first parsed a source would freeze that URL into every report.
        src = "var broken = 0x;"
        perf.reset_caches()
        first = verdict_for_source(src, "https://a.example/x.js")
        perf.reset_caches()
        second = verdict_for_source(src, "https://b.example/y.js")
        assert first == second
        assert first.parse_error == "JSSyntaxError: malformed number '0x' at line 1:14"

    def test_lone_surrogates_have_their_own_verdicts(self):
        # The digest encoded with errors="replace", so both sources hashed
        # as one and the second got the first's verdict and signature.
        first = verdict_for_source("var k = 'abcdefghijkl\ud800';")
        second = verdict_for_source("var k = 'abcdefghijkl\udbff';")
        assert first.sha != second.sha
        assert second.signature == ("abcdefghijkl\udbff",)
        # A source without a lone surrogate keeps the digest of its UTF-8 bytes.
        src = "var k = 'caf\u00e9';"
        assert verdict_for_source(src).sha == hashlib.sha256(src.encode("utf-8")).hexdigest()

    def test_verdict_cache_hits_on_second_lookup(self):
        src = "var __t_cache_probe = 1 + 2 + 3;"
        before = perf.PERF.snapshot().get("js.static", {})
        verdict_for_source(src)
        mid = perf.PERF.snapshot().get("js.static", {})
        again = verdict_for_source(src)
        after = perf.PERF.snapshot().get("js.static", {})
        assert mid.get("misses", 0) - before.get("misses", 0) == 1
        assert after.get("hits", 0) - mid.get("hits", 0) == 1
        assert again.classification == CLASS_INERT

    def test_signature_captures_banner_and_constants(self):
        v = verdict_for_source(
            "/*! AcmeMetrics v3.1 (c) Acme Corp */\n"
            "var banner_payload = 'a-long-constant-string-for-matching';\n"
        )
        joined = " ".join(v.signature)
        assert "AcmeMetrics" in joined
        assert "a-long-constant-string-for-matching" in joined

    def test_to_row_is_json_friendly(self):
        import json

        row = verdict_for_source(FP_SCRIPT).to_row()
        assert json.loads(json.dumps(row)) == row
        assert row["classification"] == CLASS_FP_LIKELY
