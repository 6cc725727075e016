"""Verdicts served by a script's shape equal the verdicts a full analysis gives.

On a digest miss, ``verdict_for_source`` looks up the source's shape: its
text with number literals left out, from one regular-expression pass
(``repro.js.lexer.shape_key``).  A source whose shape is held gets the held
verdict with its own ``sha`` and ``signature``, and is neither lexed,
parsed nor analysed; only analyses that read no number literal's value
(``Analysis.reads_numbers``) are held by shape.  The oracle is the cold
verdict: the same source on an empty cache, analysed in full.

* Soundness of the text key against the token shape, the tokens' types,
  values and lines with number values left out (``token_shape``): every
  source of up to four boundary characters, and seeded random and
  Hypothesis sources of up to about twelve.
* Differential: every distinct script of a small study world and the
  vendor and benign corpora, and copies of each with its number literals
  replaced, served on a warm cache against cold.
* Pairs of one shape whose verdicts differ: each fails if the flag that
  keeps them apart is dropped.
* The flag and the shape key, a Hypothesis property over generated
  one-shape templates, and the cache's hit and miss counts.
"""

import hashlib
import itertools
import marshal
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.js import lexer as L
from repro.js import parser as P
from repro.js.errors import JSSyntaxError
from repro.js.lexer import shape_key, tokenize
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
    return shape_key(source)


_TYPE_CODES = {kind: code for code, kind in enumerate(TokenType)}


def token_shape(source):
    """The digest of ``source``'s token types, values and lines, with number
    values left out except where the parser makes a number a name: followed
    by ``:`` (an object key) or after ``.`` (the property of ``new a. 1``).
    ``None`` when the source fails to lex."""
    try:
        tokens = tokenize(source)
    except JSSyntaxError:
        return None
    codes = bytes(_TYPE_CODES[token.type] for token in tokens)
    values = [token.value for token in tokens]
    for index, token in enumerate(tokens):  # the last token is EOF
        if token.type is TokenType.NUMBER:
            if tokens[index + 1].key != ":" and tokens[index - 1].key != ".":
                values[index] = None
    lines = [token.line for token in tokens]
    return hashlib.sha256(marshal.dumps((codes, values, lines), 2)).digest()


def shape_entries():
    """The keys of the cache's shape templates (a digest key is a hex ``str``)."""
    return [key for key, _verdict in V._VERDICT_CACHE.items() if isinstance(key[0], bytes)]


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


#: Characters at the lexer's branch boundaries: digits, number and hex
#: parts, a key's ``:``, both quotes and the escapes, comments, spaces and
#: lines, a letter, and three the shape pass does not mirror.
BOUNDARY = ("0", "1", "9", ".", ":", "x", "e", "+", "'", '"', "\\", "/", "*",
            " ", "\n", "a", "`", "@", "\u00e9")
#: More digits, a hex digit, ``\u``, the punctuators around numbers, and
#: comments and escapes whole, which a few characters rarely spell.
RANDOM_EXTRA = ("5", "F", "E", "X", "u", "-", "=", ";", "{", "}", ",", "\t", "_", "$",
                "/**/", "//", "*/", "0x1", "1e5", "\\x41", "\\u0041")

_DIGITS = re.compile(r"[0-9]+")


def assert_sound(sources):
    """Sources of one text key have one token shape, or all fail to lex.

    Returns the groups of sources that share a key.
    """
    groups = {}
    for source in sources:
        key = shape_key(source)
        if key is not None:
            groups.setdefault(key, []).append(source)
    shared = [group for group in groups.values() if len(group) > 1]
    for group in shared:
        assert len({token_shape(source) for source in group}) == 1, group
    return shared


def renumber_digits(rng, source):
    """``source`` with some digit runs replaced by others, of other lengths."""
    return _DIGITS.sub(
        lambda m: rng.choice(("0", "1", "7", "10", "123")) if rng.random() < 0.7 else m.group(),
        source,
    )


class TestTextKeySoundness:
    def test_every_source_of_four_boundary_characters(self):
        shared = assert_sound(
            "".join(chars)
            for length in range(5)
            for chars in itertools.product(BOUNDARY, repeat=length)
        )
        # Numbers are left out, so thousands of keys stand for sources that
        # lex, and for more than one each.
        assert sum(token_shape(group[0]) is not None for group in shared) > 1000

    def test_seeded_random_sources(self):
        rng = random.Random(20250504)
        alphabet = BOUNDARY + RANDOM_EXTRA
        weights = [4] * len(BOUNDARY) + [1] * len(RANDOM_EXTRA)
        sources = []
        for _ in range(6000):
            source = "".join(rng.choices(alphabet, weights, k=rng.randint(1, 9)))
            sources += [source, renumber_digits(rng, source), renumber_digits(rng, source)]
        assert_sound(sources)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(BOUNDARY + RANDOM_EXTRA), max_size=9).map("".join), st.randoms())
    def test_hypothesis_sources(self, source, rng):
        assert_sound([source, renumber_digits(rng, source), renumber_digits(rng, source)])

    @pytest.mark.parametrize(
        "source",
        ["var a = `x`;", "var s = '\u00e9';", "var a = 1 @ 2;", "var a = 1..x;", "var a = '\\x 1';"],
    )
    def test_a_source_the_pass_does_not_mirror_has_no_key(self, source):
        assert shape_key(source) is None

    def test_earlier_collisions_are_told_apart(self):
        # An unterminated block comment against two punctuators, and a hex
        # prefix without digits after ``.`` against a number and a name.
        assert shape_key("/*") != shape_key("/ *")
        assert shape_key("a. 0x") != shape_key("a. 0 x")
        assert token_shape("/*") is None and token_shape("a. 0x") is None


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
        # Signature constants are found in the text, so the one between the
        # closing and opening quotes takes in the number between them.
        first = "var a = 'x'; var __tag = 101; var b = 'y';\n"
        second = "var a = 'x'; var __tag = 202; var b = 'y';\n"
        assert shape(first) == shape(second)
        verdict = served(first, second)
        assert verdict == cold(second)
        assert verdict.sha != cold(first).sha
        assert verdict.signature == ("; var __tag = 202; var b = ",)


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
        parses, lexes = [], []
        monkeypatch.setattr(V, "parse", lambda *a, **k: parses.append(1) or parse(*a, **k))
        for module in (L, P):
            monkeypatch.setattr(module, "tokenize", lambda *a, **k: lexes.append(1) or tokenize(*a, **k))
        hits, misses = counts()
        first = V.verdict_for_source(S.analytics_filler_script(11))
        assert counts() == (hits, misses + 1)
        assert (len(parses), len(lexes)) == (1, 1)
        second = V.verdict_for_source(S.analytics_filler_script(12))
        assert counts() == (hits + 1, misses + 1)
        # The shape hit neither lexes nor parses.
        assert (len(parses), len(lexes)) == (1, 1)
        assert first.sha != second.sha
        assert second == cold(S.analytics_filler_script(12))

    @pytest.mark.parametrize(
        "template", ["var a = `x` + {};", "var s = '\u00e9' + {};", "var a = {} @ 2;"]
    )
    def test_a_source_the_pass_does_not_mirror_is_analysed_in_full(self, template):
        for value in (1, 2):
            hits, misses = counts()
            V.verdict_for_source(template.format(value))
            assert counts() == (hits, misses + 1)
        assert shape_entries() == []

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
