"""Tests for the JS tokenizer."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.js.errors import JSSyntaxError
from repro.js.lexer import tokenize
from repro.js.tokens import TokenType


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].type is TokenType.EOF

    def test_numbers(self):
        assert kinds("42 3.14 .5 1e3 2E-2 0xff") == [
            (TokenType.NUMBER, 42.0),
            (TokenType.NUMBER, 3.14),
            (TokenType.NUMBER, 0.5),
            (TokenType.NUMBER, 1000.0),
            (TokenType.NUMBER, 0.02),
            (TokenType.NUMBER, 255.0),
        ]

    def test_strings_both_quotes(self):
        assert kinds("""'a' "b" """) == [(TokenType.STRING, "a"), (TokenType.STRING, "b")]

    def test_string_escapes(self):
        assert kinds(r"'a\nb\t\\\' \x41 é'") == [(TokenType.STRING, "a\nb\t\\' A é")]

    def test_identifiers_and_keywords(self):
        out = kinds("var foo = function() {}")
        assert out[0] == (TokenType.KEYWORD, "var")
        assert out[1] == (TokenType.IDENT, "foo")
        assert out[3] == (TokenType.KEYWORD, "function")

    def test_dollar_and_underscore_idents(self):
        assert kinds("$a _b") == [(TokenType.IDENT, "$a"), (TokenType.IDENT, "_b")]

    def test_punctuator_longest_match(self):
        assert [v for _, v in kinds("=== == = => <= <")] == ["===", "==", "=", "=>", "<=", "<"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [(TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [(TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_block_comment_tracks_lines(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(JSSyntaxError):
            tokenize("/* never closed")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'abc")

    def test_newline_in_string(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'a\nb'")

    def test_unexpected_char(self):
        with pytest.raises(JSSyntaxError):
            tokenize("var a = @;")

    @pytest.mark.parametrize(
        "source",
        ["var a = 0x;", "var a = 0xg;", "var a = '\\xZZ';", "var a = '\\u12G4';", "var a = ²;"],
    )
    def test_malformed_literal_is_a_syntax_error(self, source):
        # int()/float() rejected these with a bare ValueError, which no
        # caller contains; the literal starts at line 2, column 9.
        with pytest.raises(JSSyntaxError) as info:
            tokenize("\n" + source)
        assert (info.value.line, info.value.col) == (2, 9)


    def test_numbers_past_the_largest_double_are_infinity(self):
        # float(int(...)) of a hex literal raised OverflowError out of tokenize.
        huge_hex = "0x" + "F" * 300
        assert kinds(f"{huge_hex} 1e999 {'9' * 400}") == [(TokenType.NUMBER, math.inf)] * 3
        # 2**1020 - 1 rounds to a double; 2**1024 - 1 rounds past the largest.
        assert kinds("0x" + "F" * 255 + " 0x" + "F" * 256) == [
            (TokenType.NUMBER, 2.0**1020), (TokenType.NUMBER, math.inf)
        ]


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False).map(lambda x: round(x, 4)))
def test_number_roundtrip(x):
    toks = tokenize(repr(x))
    assert toks[0].type is TokenType.NUMBER
    assert toks[0].value == pytest.approx(x)


_safe_text = st.text(
    alphabet=st.characters(blacklist_characters="\\'\"\n\r", min_codepoint=32, max_codepoint=0x2FF),
    max_size=40,
)


@given(_safe_text)
def test_string_roundtrip(s):
    toks = tokenize('"' + s + '"')
    assert toks[0].type is TokenType.STRING
    assert toks[0].value == s


class TestTemplateLiterals:
    def test_plain_template(self):
        toks = kinds("`hello`")
        assert (TokenType.STRING, "hello") in toks

    def test_desugars_to_concatenation(self):
        values = [v for _, v in kinds("`a${x}b`")]
        assert values == ["(", "a", "+", "(", "x", ")", "+", "b", ")"]

    def test_multiline_allowed(self):
        toks = kinds("`line1\nline2`")
        assert (TokenType.STRING, "line1\nline2") in toks

    def test_unterminated_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("`never closed")

    def test_unterminated_interpolation_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("`a${1 + 2`")

    def test_nested_template(self):
        # Must lex without error; semantics covered by interpreter tests.
        tokenize("`outer ${`inner ${x}`}`")

    def test_escaped_backtick(self):
        toks = kinds(r"`tick \` here`")
        assert (TokenType.STRING, "tick ` here") in toks
