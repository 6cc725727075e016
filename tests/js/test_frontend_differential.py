"""Differential tests: the JS front end against the reference oracle.

``reference_frontend`` is the per-character tokenizer and parser that the
regex scanner and the flatter parser replaced.  On every input both must
agree exactly: the same tokens (type, value, line, column), the same AST
(dataclass ``==``, positions included) and, on failure, the same
``JSSyntaxError`` message, line and column.  Where the reference raised a
bare ``ValueError`` (malformed ``0x``, ``'\\xZZ'``, ``²``), the front end
raises ``JSSyntaxError`` instead.

Inputs: the vendor and benign corpora, every script of two small study
worlds, the compiler-equivalence snippets, explicit arrow-function cases,
and two Hypothesis strategies (a token soup for the lexer and error paths,
generated programs for the parser).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StudyScale
from repro.dom.html import parse_html
from repro.js.errors import JSSyntaxError
from repro.js.lexer import tokenize
from repro.js.parser import Parser
from repro.js.tokens import KEYWORDS, PUNCTUATORS
from repro.webgen import build_world
from tests.js import reference_frontend as ref
from tests.js.test_compiler_equivalence import FAILING_SNIPPETS, SNIPPETS
from tests.js.test_static_verdicts import BENIGN, VENDORS


def _outcome(run):
    try:
        return ("ok", run())
    except JSSyntaxError as exc:
        return ("syntax", exc.message, exc.line, exc.col)
    except ValueError:
        return ("value-error",)


def _front_end(lex, parser_class, source):
    """``(tokens outcome, AST outcome)`` of one front end (``parse`` is lex, then parse)."""
    tokens = _outcome(lambda: lex(source, "t.js"))
    if tokens[0] != "ok":
        return tokens, tokens
    return tokens, _outcome(lambda: parser_class(tokens[1], "t.js").parse_program())


def assert_same(source, label=None):
    """Tokens and AST of ``source`` match the reference (ValueError -> JSSyntaxError)."""
    label = label or repr(source)
    got = _front_end(tokenize, Parser, source)
    expected = _front_end(ref.tokenize, ref.Parser, source)
    for stage, new, old in zip(("tokens", "AST"), got, expected):
        if old == ("value-error",):
            assert new[0] == "syntax", f"{stage}: reference ValueError, got {new[0]} on {label}"
        else:
            assert new == old, f"{stage} differ on {label}"


def world_scripts(seed):
    """Every distinct script source of a scale-0.01 world: served and inline."""
    world = build_world(StudyScale(fraction=0.01, seed=seed))
    sources = {}
    for host, server in sorted(world.network.servers().items()):
        for path, resource in server.resources():
            if resource.content_type == "application/javascript":
                sources.setdefault(resource.body, f"https://{host}{path}")
            elif resource.content_type.startswith("text/html"):
                for script in parse_html(resource.body).scripts:
                    if script.is_inline:
                        sources.setdefault(script.source, f"https://{host}{path}#inline")
    return sources


class TestCorpora:
    @pytest.mark.parametrize("name,source", VENDORS + BENIGN, ids=[n for n, _ in VENDORS + BENIGN])
    def test_vendor_and_benign_scripts(self, name, source):
        assert_same(source)

    @pytest.mark.parametrize("seed", [20250504, 4242])
    def test_every_script_in_a_study_world(self, seed):
        sources = world_scripts(seed)
        assert len(sources) > 100
        for source, url in sources.items():
            assert_same(source, url)

    @pytest.mark.parametrize("name", sorted(SNIPPETS) + sorted(FAILING_SNIPPETS))
    def test_adversarial_snippets(self, name):
        assert_same(SNIPPETS.get(name) or FAILING_SNIPPETS[name])


ARROW_CASES = [
    "() => 1;",
    "(a, b) => a + b;",
    "f((x) => x, (y));",
    "(a) + (b);",
    "((a)) => a;",  # rejected: arrow parameters are plain identifiers
    "x => y => x + y;",
    "(a, b) => { return a * b; };",
    "var t = `sum ${((a, b) => a + b)(1, 2)} done`;",
    "(a, 1) => a;",
    "(a, b",  # unclosed at EOF
    "f(",
    "(",
]


@pytest.mark.parametrize("source", ARROW_CASES)
def test_arrow_functions(source):
    assert_same(source)


@pytest.mark.parametrize(
    "source",
    [
        "a || b && c;",
        "a && b || c;",
        "a || b || c && d && e;",
        "a | b || c & d && e ^ f;",
        "x = a == b || c < d && e + f * g;",
        "a ? b || c : d && e;",
        "!a || -b && typeof c in d instanceof e;",
    ],
)
def test_operator_precedence(source):
    assert_same(source)


@pytest.mark.parametrize(
    "source",
    [
        "var a = 0x;",
        "var a = 0xg;",
        "var s = '\\xZZ';",
        "var s = '\\u12G4';",
        "var s = '\\u-123';",
        "var n = ²;",
        "var n = 1²;",
        "var n = 1e²;",
        "var n = .²;",
        "var n = ٣ + 1٣ + 1.٣ + 1e٣ + .٣ + 1e+٣ + 2E-٣;",  # Arabic-Indic digits: float() accepts them
        "a.é + 1é + 1.5.toFixed(1) + 1..x + 1e5e5;",
        "var s = '\\x1\nx';",
        "var s = 'a\\\nb' + \"c\\\r\nd\";",
        "`a\\\nb${x}`;",
        "a\u00a0b;",
    ],
)
def test_literal_edge_cases(source):
    assert_same(source)


# -- Hypothesis: token soup (lexer, error paths) --------------------------------------

_IDENT_ALPHABET = "abxyzAB_$éßλ中٣²0129"
_identifiers = st.text(alphabet=_IDENT_ALPHABET, min_size=1, max_size=6)
_numbers = st.one_of(
    st.sampled_from(
        [".5", "1.", "1e", "1e+", "1e-3", "2E5", "0x1F", "0XaB", "0x", "0xg", "007",
         "1.5e+3", "3.", "1..2", "٣", "²"]
    ),
    st.integers(min_value=0, max_value=10**12).map(str),
    st.floats(min_value=0, max_value=1e6, allow_nan=False).map(repr),
)
_ESCAPE_PIECES = [
    "\\n", "\\t", "\\r", "\\b", "\\f", "\\v", "\\0", "\\'", '\\"', "\\\\", "\\/",
    "\\\n", "\\\r\n", "\\x41", "\\xZZ", "\\x4", "\\u00e9", "\\u12G4", "\\u00", "\\q", "\\",
]
_string_body = st.lists(
    st.one_of(st.sampled_from(_ESCAPE_PIECES), st.text(alphabet="ab ${}é`'\"", max_size=3)),
    max_size=5,
).map("".join)
_strings = st.builds(
    lambda quote, body, closed: quote + body + (quote if closed else ""),
    st.sampled_from(["'", '"']),
    _string_body,
    st.booleans(),
)
_template_leaf = st.text(alphabet="ab $\\`'\"\n", max_size=4)
_templates = st.recursive(
    _template_leaf.map(lambda s: "`" + s + "`"),
    lambda inner: st.builds(
        lambda head, expr, tail: "`" + head + "${" + expr + "}" + tail + "`",
        st.text(alphabet="ab \n", max_size=3),
        st.one_of(inner, st.sampled_from(["x", "a + 1", "f(x)", "{a: 1}.a", "'}'"])),
        st.text(alphabet="ab \n", max_size=3),
    ),
    max_leaves=3,
)
_comments = st.sampled_from(["// line\n", "/* a */", "/* a\nb\r\n */", "/* open", "//", "/**/"])
_fragments = st.one_of(
    _identifiers,
    st.sampled_from(sorted(KEYWORDS)),
    _numbers,
    _strings,
    _templates,
    _comments,
    st.sampled_from(PUNCTUATORS),
    st.sampled_from(["@", "#", "\\", "\u00a0", "\u2028", "\x00"]),
)
_separators = st.sampled_from(["", " ", "\n", "\r\n", "\t", "  ", "\f"])
_soup = st.lists(st.tuples(_fragments, _separators), max_size=14).map(
    lambda parts: "".join(text + sep for text, sep in parts)
)


@settings(max_examples=400, deadline=None)
@given(_soup)
def test_token_soup(source):
    assert_same(source)


# -- Hypothesis: generated programs (parser) -------------------------------------------


def _form(template, *parts):
    """Strategy for ``template.format(...)`` over one draw from each part."""
    return st.tuples(*parts).map(lambda drawn: template.format(*drawn))


def _joined(strategy, max_size=3):
    return st.lists(strategy, max_size=max_size).map(", ".join)


_names = st.sampled_from(["a", "b", "x1", "$", "_y", "café", "λ", "ab²", "undefinedX"])
_atoms = st.one_of(
    _names,
    st.sampled_from(
        ["1", ".5", "0xff", "2e3", "'s'", '"d\\n"', "`t${a}`", "true", "null", "undefined",
         "this", "[]", "{}"]
    ),
)
_BINARY = ["||", "&&", "|", "^", "&", "==", "!=", "===", "!==", "<", ">", "<=", ">=",
           "instanceof", "in", "<<", ">>", ">>>", "+", "-", "*", "/", "%"]
_PREFIX = ["!", "-", "+", "~", "typeof ", "delete ", "++", "--"]
_ASSIGN = ["=", "+=", "-=", "*=", "|=", "^="]
_KEYS = ["k", "'s k'", "1", "2.5", "if"]


def _expression_forms(inner):
    return st.one_of(
        _form("{} {} {}", inner, st.sampled_from(_BINARY), inner),
        _form("{} {} {} {} {}", inner, st.sampled_from(_BINARY), inner, st.sampled_from(_BINARY), inner),
        _form("{}{}", st.sampled_from(_PREFIX), inner),
        _form("{}{}", _names, st.sampled_from(["++", "--"])),
        _form("{} ? {} : {}", inner, inner, inner),
        _form("({})", inner),
        _form("{}({})", _names, _joined(inner)),
        _form("{}.{}", inner, st.sampled_from(["p", "length", "default", "if"])),
        _form("{}[{}]", inner, inner),
        _form("{} {} {}", _names, st.sampled_from(_ASSIGN), inner),
        _form("({}) => {}", _joined(_names), inner),
        _form("{} => {{ return {}; }}", _names, inner),
        _form("new {}({})", st.sampled_from(["Date", "a.B"]), _joined(inner, 2)),
        _form("[{}]", _joined(inner)),
        _form("{{{}}}", _joined(_form("{}: {}", st.sampled_from(_KEYS), inner))),
        _form("function ({}) {{ return {}; }}", _joined(_names, 2), inner),
        _form("{}, {}", inner, inner),
    )


_expressions = st.recursive(_atoms, _expression_forms, max_leaves=8)


def _statement_forms(inner):
    body = st.lists(inner, max_size=3).map(" ".join)
    return st.one_of(
        _form("{{ {} }}", body),
        _form("if ({}) {} else {}", _expressions, inner, inner),
        _form("if ({}) {}", _expressions, inner),
        _form("for (var i = {}; i < {}; i++) {}", _expressions, _expressions, inner),
        _form("for (const v of {}) {}", _expressions, inner),
        st.just("for (;;) { break; }"),
        _form("while ({}) {}", _expressions, inner),
        _form("do {} while ({});", inner, _expressions),
        _form("switch ({}) {{ case {}: {} default: {} }}", _expressions, _expressions, body, body),
        _form("try {{ {} }} catch (e) {{ {} }} finally {{ {} }}", body, body, body),
        _form("function {}({}) {{ {} return; }}", _names, _joined(_names, 2), body),
    )


_leaf_statements = st.one_of(
    _form("{};", _expressions),
    _form("{} {} = {};", st.sampled_from(["var", "let", "const"]), _names, _expressions),
    _form("throw {};", _expressions),
    st.sampled_from([";", "break;", "continue;", "return;", "return 1"]),
)
_statements = st.recursive(_leaf_statements, _statement_forms, max_leaves=6)
_programs = st.tuples(
    st.lists(_statements, min_size=1, max_size=4).map("\n".join),
    st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
)


@settings(max_examples=200, deadline=None)
@given(_programs)
def test_generated_programs(program):
    source, cut = program
    if cut is not None:  # drop one character to exercise the error paths too
        cut %= len(source)
        source = source[:cut] + source[cut + 1 :]
    assert_same(source)
