"""Verdicts served by a script's shape equal the verdicts a full analysis gives.

On a digest miss, ``verdict_for_source`` lexes the source and looks up its
shape: the tokens with number values left out.  A source whose shape is
held gets the held verdict with its own ``sha`` and ``signature``, and is
neither parsed nor analysed; only analyses that read no number literal's
value (``Analysis.reads_numbers``) are held by shape.  The oracle is the
cold verdict: the same source on an empty cache, analysed in full.

* Differential: every distinct script of a small study world and the
  vendor and benign corpora, and copies of each with its number literals
  replaced, served on a warm cache against cold.
* Pairs of one shape whose verdicts differ: each fails if the flag that
  keeps them apart is dropped.
* The flag and the shape key, a Hypothesis property over generated
  one-shape templates, and the cache's hit and miss counts.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.js.lexer import tokenize
from repro.js.parser import parse
from repro.js.static import analyze_program
from repro.js.static import verdict as V
from repro.js.tokens import TokenType
from repro.obs.metrics import layer_rows
from repro.webgen import scripts as S
from tests.js.test_frontend_differential import world_scripts
from tests.js.test_static_verdicts import BENIGN, VENDORS

#: What the copies put in place of number literals: around the small-canvas
#: threshold (16), step counts, a fraction and the largest order of magnitude.
VALUES = ("0", "1", "15", "16", "17", "300", "4096", "0.5", "1e308")

_NUMBER_TEXT = re.compile(
    r"0[xX][0-9a-fA-F]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
)


@pytest.fixture(autouse=True)
def empty_verdict_cache():
    V._VERDICT_CACHE.clear()
    yield
    V._VERDICT_CACHE.clear()


def cold(source):
    """The verdict of a full analysis: ``source`` on an empty cache."""
    V._VERDICT_CACHE.clear()
    return V.verdict_for_source(source)


def served(first, second):
    """``second``'s verdict on a cache that holds only ``first``'s."""
    cold(first)
    return V.verdict_for_source(second)


def shape(source):
    return V._shape_key(tokenize(source))


def counts():
    stats = layer_rows(obs.METRICS.snapshot()).get("js.static", {})
    return stats.get("hits", 0), stats.get("misses", 0)


def renumbered(source, shift):
    """``source`` with its i-th number literal replaced by ``VALUES[(i + shift) % 9]``.

    Numbers are found from their tokens' lines and columns.  A number inside
    a template's ``${...}`` has a position relative to the part, so its
    copy may replace another digit run instead; any copy is a valid input.
    """
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    spans = []
    for token in tokenize(source):
        if token.type is TokenType.NUMBER and token.col:
            match = _NUMBER_TEXT.match(source, line_starts[token.line - 1] + token.col - 1)
            if match:
                spans.append(match.span())
    parts, last = [], 0
    for i, (start, end) in enumerate(sorted(set(spans))):
        parts += [source[last:start], VALUES[(i + shift) % len(VALUES)]]
        last = end
    return "".join(parts) + source[last:]


class TestDifferential:
    def test_warm_verdicts_equal_cold_ones(self):
        world = list(dict.fromkeys(world_scripts(20250504)))
        corpora = [source for _name, source in VENDORS + BENIGN]
        assert len(world) > 100
        # One copy of each world script (its literals take the values in
        # turn, from a different start each time) and every copy of the
        # vendor and benign scripts, which set canvas sizes.
        variants = list(dict.fromkeys(
            world + corpora
            + [renumbered(source, i) for i, source in enumerate(world)]
            + [renumbered(source, k) for source in corpora for k in range(len(VALUES))]
        ))
        warm = []
        for source in variants:
            hits, misses = counts()
            verdict = V.verdict_for_source(source)
            new_hits, new_misses = counts()
            assert (new_hits - hits, new_misses - misses) in ((1, 0), (0, 1))
            if new_hits > hits:  # every variant is distinct: a hit is by shape
                warm.append((source, verdict))
        # Every site's analytics script after the first (one per site).
        assert len(warm) > 300
        for source, verdict in warm:
            assert verdict == cold(source), source[:200]


FP_CANVAS = (
    "var c = document.createElement('canvas'); c.width = {}; c.height = 60;\n"
    "var g = c.getContext('2d'); g.fillText('Cwm fjordbank', 2, 20);\n"
    "window.__fp = c.toDataURL();\n"
)
LOOP = "var __sum = 0; for (var i = 0; i < {}; i++) {{ __sum += i * 3; }}"

#: Pairs of one shape whose verdicts differ.
PAIRS = {
    "canvas-width": (FP_CANVAS.format("15"), FP_CANVAS.format("16")),
    "folded-width": (FP_CANVAS.format("3 * 5"), FP_CANVAS.format("4 * 4")),
    "loop-bound": (LOOP.format(10), LOOP.format(10_000_000)),
}


class TestDifferingPairs:
    @pytest.mark.parametrize("name", PAIRS)
    def test_one_shape_two_verdicts(self, name):
        first, second = PAIRS[name]
        assert shape(first) == shape(second)
        assert cold(first) != cold(second)
        assert served(first, second) == cold(second)
        assert served(second, first) == cold(first)

    @pytest.mark.parametrize("name", ["canvas-width", "folded-width"])
    def test_small_canvas_against_fingerprinting(self, name):
        small, large = (cold(source) for source in PAIRS[name])
        assert (small.classification, small.excluded) == (V.CLASS_BENIGN, ("small-canvas",))
        assert (large.classification, large.excluded) == (V.CLASS_FP_LIKELY, ())

    def test_short_loop_against_long_loop(self):
        short, long = (cold(source) for source in PAIRS["loop-bound"])
        assert (short.step_bound, short.skippable) == (162, True)
        assert (long.step_bound, long.skippable) == (140_000_022, False)


class TestServedFields:
    def test_a_served_verdict_has_its_own_sha_and_signature(self):
        # Comments are no tokens, so the banner and a string constant in a
        # comment differ within one shape.
        first = "/*! Acme tag v1 */\nvar __tag = 101; // 'first-site-constant'\n"
        second = "/*! Bolt tag v2 */\nvar __tag = 202; // 'second-site-constant'\n"
        assert shape(first) == shape(second)
        verdict = served(first, second)
        assert verdict == cold(second)
        assert verdict.sha != cold(first).sha
        assert verdict.signature == ("Bolt tag v2", "second-site-constant")


def reads_numbers(source):
    return analyze_program(parse(source)).reads_numbers


class TestReadsNumbers:
    @pytest.mark.parametrize(
        "source", ["var s = 'a' + 1;", "var s = 'a' + 'b';", "var n = 2 * 3;", "var n = 1 + 2;"]
    )
    def test_concatenation_and_folding_read_numbers(self, source):
        assert reads_numbers(source)

    @pytest.mark.parametrize(
        "source",
        [
            "var n = 2; var m = n * x;",
            "var a = [1, 2]; var o = {k: 3};",
            "window.__t = Math.floor(2.5);",
            S.analytics_filler_script(7),
        ],
    )
    def test_passing_a_number_on_reads_none(self, source):
        assert not reads_numbers(source)

    def test_a_loop_reads_numbers_even_when_refused(self):
        assert reads_numbers(LOOP.format(10))
        assert reads_numbers("for (var i = 0; i < 3; i += -1) {}")
        assert V.verdict_for_source("for (var i = 0; i < 3; i += -1) {}").step_bound is None


class TestShapeKey:
    def test_numbers_that_become_names_keep_their_value(self):
        assert shape("var o = {1: f};") != shape("var o = {2: f};")
        assert shape("var o = new a. 1();") != shape("var o = new a. 2();")
        assert shape("var o = {a: 1};") == shape("var o = {a: 2};")

    def test_lines_count_and_columns_do_not(self):
        assert shape("var a = 1; var b = 2;") == shape("var a = 100000; var b = 2;")
        assert shape("var a = 1; var b = 2;") != shape("var a = 1;\nvar b = 2;")

    def test_token_types_and_values_count(self):
        assert shape("var a = 'b';") != shape("var a = b;")
        assert shape("var a = 1;") != shape("var a = '1';")
        assert shape("var a = 1;") != shape("var b = 1;")

    def test_a_parse_error_serves_no_shape(self):
        first = V.verdict_for_source("var a = 1 +;")
        hits, misses = counts()
        second = V.verdict_for_source("var a = 1000 +;")
        assert counts() == (hits, misses + 1)
        assert first.parse_error != second.parse_error
        assert second == cold("var a = 1000 +;")


#: Statements with ``#`` holes for number literals.
_STATEMENTS = [
    "var c = document.createElement('canvas');",
    "c.width = #;",
    "c.height = # * #;",
    "var g = c.getContext('2d');",
    "g.fillText('probe', #, #);",
    "g.fillRect(#, #, #, #);",
    "window.__out = c.toDataURL();",
    "window.__jpg = c.toDataURL('image/jpeg', #);",
    "var t = 0; for (var i = #; i < #; i++) { t += #; }",
    "for (var j = 0; j < #; j += #) { g.arc(#, #, #, 0, 6); }",
    "var s = 'n' + #;",
    "var n = # + # - #;",
    "var o = {#: 'k', a: #};",
    "window.__v = o[#];",
    "var k = [#, #].length;",
    "if (# < #) { g.save(); }",
    "var f = function(x) { return x * #; }; f(#);",
    "window.__w = Math.floor(#);",
    "setTimeout(function() { g.strokeText('t', #, #); }, #);",
    "var q = # ? # : #;",
]
_numbers = st.one_of(
    st.sampled_from(VALUES + ("2", "10", "1e3", "0x1F", ".25", "1e999")),
    st.integers(min_value=0, max_value=10**7).map(str),
)


@st.composite
def _one_shape_pair(draw):
    """A template of statements, instantiated with two draws of numbers."""
    template = "\n".join(draw(st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=8)))
    holes = template.count("#")
    instances = []
    for _ in range(2):
        numbers = draw(st.lists(_numbers, min_size=holes, max_size=holes))
        parts = template.split("#")
        instances.append("".join(p + n for p, n in zip(parts, numbers)) + parts[-1])
    return instances


@settings(max_examples=200, deadline=None)
@given(_one_shape_pair())
def test_a_warm_instance_equals_its_cold_verdict(pair):
    first, second = pair
    assert served(first, second) == cold(second)


class TestCounts:
    def test_two_analytics_scripts_are_analysed_once(self, monkeypatch):
        parses = []
        monkeypatch.setattr(V, "parse", lambda *a, **k: parses.append(1) or parse(*a, **k))
        hits, misses = counts()
        first = V.verdict_for_source(S.analytics_filler_script(11))
        assert counts() == (hits, misses + 1)
        second = V.verdict_for_source(S.analytics_filler_script(12))
        assert counts() == (hits + 1, misses + 1)
        assert len(parses) == 1
        assert first.sha != second.sha
        assert second == cold(S.analytics_filler_script(12))

    def test_every_call_records_one_hit_or_one_miss(self):
        sources = [
            S.analytics_filler_script(1),   # miss, held by shape
            S.analytics_filler_script(1),   # hit by digest
            S.analytics_filler_script(2),   # hit by shape
            S.analytics_filler_script(2),   # hit by digest
            LOOP.format(10),                # miss, reads numbers
            LOOP.format(20),                # miss
            "var a = 0x;",                  # miss, lex error
            "var a = 1 +;",                 # miss, parse error
            "var a = 2 +;",                 # miss: parse errors serve no shape
        ]
        for source in sources:
            hits, misses = counts()
            V.verdict_for_source(source)
            new_hits, new_misses = counts()
            assert (new_hits - hits) + (new_misses - misses) == 1, source
