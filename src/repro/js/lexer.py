"""Tokenizer for the ECMAScript subset.

Handles line/block comments, decimal and hex numbers, single- and
double-quoted strings with the common escapes, template literals
(desugared to string concatenation), identifiers/keywords, and the
punctuator set in :mod:`repro.js.tokens`.  Regex literals are not part of
the subset.

One compiled master pattern is matched at each position and the named
group that matched picks the token kind; leading spaces and tabs are part
of the pattern.  The rare inputs a regular expression cannot classify the
way ``str.isdigit``/``str.isalpha`` do (numbers touching non-ASCII
characters, identifiers starting with one) take :func:`_lex_rare`.
Malformed literals (``0x``, ``'\\xZZ'``, ``²``) raise
:class:`~repro.js.errors.JSSyntaxError` with a line and column.
"""

from __future__ import annotations

import re
from typing import List

from repro.js.errors import JSSyntaxError
from repro.js.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType

__all__ = ["tokenize"]

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
    "\n": "",  # line continuation
}

_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_PUNCT = TokenType.PUNCT

#: An ASCII digit or any non-ASCII character: either may continue a number
#: under the ``str.isdigit`` rule.  Written as a negated ASCII class because
#: a literal range up to U+10FFFF makes the pattern ten times slower to
#: compile (~12 ms per process).
_DIGITISH = r"[^\x00-\x2f\x3a-\x7f]"

#: Punctuators, longest match first (the order of ``PUNCTUATORS``).  A ``.``
#: followed by something that may be a digit is left to ``_lex_rare``,
#: which decides between ``.5`` and member access.
_PUNCT_ALTERNATION = "|".join(
    r"\.(?!" + _DIGITISH + ")" if p == "." else re.escape(p) for p in PUNCTUATORS
)

_MASTER = re.compile(
    r"[ \t\r\f\v]*(?:"
    r"(?P<ident>[A-Za-z_$][\w$]*)"
    r"|(?P<nl>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    # A decimal number.  The lookahead rejects a match followed by ".", a
    # digit, an exponent or a non-ASCII character.  That rejects every
    # shorter prefix of a number, so the branch cannot backtrack into one,
    # and every number str.isdigit could extend ("1٣", "1e٣"); those, and
    # the odd "1.5.x", go to _lex_rare.
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"(?![.]|" + _DIGITISH + r"|[eE][+-]?" + _DIGITISH + r"))"
    r"|(?P<punct>" + _PUNCT_ALTERNATION + r")"
    r"|(?P<string>'[^'\\\n]*'|\"[^\"\\\n]*\")"
    r"|(?P<escaped>['\"])"
    r"|(?P<template>`)"
    # Not a space or tab, so at the end of input the prefix cannot give one
    # back to this branch.
    r"|(?P<rare>[^ \t\r\f\v])"
    r")"
)

_IDENT_REST = re.compile(r"[\w$]*")


def _digits_end(source: str, i: int) -> int:
    """End of the run of ``str.isdigit`` characters starting at ``source[i]``."""
    n = len(source)
    while i < n and source[i].isdigit():
        i += 1
    return i


def _lex_rare(source: str, i: int, line: int, col: int, script: str):
    """The token at ``source[i]`` that no fast branch of the scanner took.

    Returns ``(token, end)``.  Numbers follow ``str.isdigit`` (which also
    accepts non-ASCII digits), identifiers may start with any
    ``str.isalpha`` character, a ``.`` not starting a number is a
    punctuator, and anything else is an unexpected character.
    """
    ch = source[i]
    if ch.isdigit() or (ch == "." and source[i + 1 : i + 2].isdigit()):
        end = _digits_end(source, i)
        if source[end : end + 1] == ".":
            end = _digits_end(source, end + 1)
        if source[end : end + 1] in ("e", "E"):
            j = end + 1
            if source[j : j + 1] in ("+", "-"):
                j += 1
            if source[j : j + 1].isdigit():
                end = _digits_end(source, j)
        text = source[i:end]
        try:
            value = float(text)
        except ValueError:  # a digit float() rejects, such as "²"
            raise JSSyntaxError(f"malformed number {text!r}", line, script, col=col) from None
        return Token(_NUMBER, value, line, col), end
    if ch.isalpha():
        end = _IDENT_REST.match(source, i + 1).end()
        return Token(_IDENT, source[i:end], line, col), end
    if ch == ".":  # the scanner's guard sent it here; it starts no number
        return Token(_PUNCT, ".", line, col), i + 1
    raise JSSyntaxError(f"unexpected character {ch!r}", line, script, col=col)


def _lex_string(source: str, i: int, line: int, line_start: int, script: str):
    """Lex a quoted string with escapes (or a malformed one) at ``source[i]``.

    Returns ``(value, end, line, line_start)``: a line continuation moves
    the line on, and the token takes the line the string ends on.
    """
    quote = source[i]
    n = len(source)
    col = i - line_start + 1
    i += 1
    parts: List[str] = []
    while True:
        if i >= n:
            raise JSSyntaxError("unterminated string", line, script, col=col)
        c = source[i]
        if c == quote:
            i += 1
            break
        if c == "\n":
            raise JSSyntaxError("newline in string", line, script, col=i - line_start + 1)
        if c == "\\":
            i += 1
            if i >= n:
                raise JSSyntaxError("bad escape at end of input", line, script, col=col)
            esc = source[i]
            if esc == "x" or esc == "u":
                width = 2 if esc == "x" else 4
                hex_digits = source[i + 1 : i + 1 + width]
                char = None
                if len(hex_digits) == width:
                    try:  # int() keeps its leniency (" 1", "+1") for compatibility
                        char = chr(int(hex_digits, 16))
                    except ValueError:  # not hex, such as "ZZ"
                        pass
                if char is None:
                    raise JSSyntaxError(f"bad \\{esc} escape", line, script, col=col)
                parts.append(char)
                i += 1 + width
                continue
            parts.append(_ESCAPES.get(esc, esc))
            if esc == "\n":
                line += 1
                line_start = i + 1
            i += 1
            continue
        parts.append(c)
        i += 1
    return "".join(parts), i, line, line_start


def _lex_template(source: str, i: int, line: int, line_start: int, script: str, tokens: List[Token]):
    """Lex a template literal starting at the backtick at ``source[i]``.

    Desugars to a parenthesized string concatenation: ``("head" + (expr) +
    "tail")`` — empty head/tail strings are kept so the result is always a
    string, matching template semantics for our subset.  Synthetic tokens
    carry the column of the opening backtick; tokens lexed from ``${...}``
    parts keep their inner-relative positions (they are desugared code).
    """
    assert source[i] == "`"
    n = len(source)
    start_line = line
    col = i - line_start + 1
    i += 1
    tokens.append(Token(TokenType.PUNCT, "(", line, col))
    first_part = True

    def flush_literal(text: str) -> None:
        nonlocal first_part
        if not first_part:
            tokens.append(Token(TokenType.PUNCT, "+", line, col))
        tokens.append(Token(TokenType.STRING, text, line, col))
        first_part = False

    chars: List[str] = []
    while True:
        if i >= n:
            raise JSSyntaxError("unterminated template literal", start_line, script, col=col)
        c = source[i]
        if c == "`":
            i += 1
            break
        if c == "\\" and i + 1 < n:
            esc = source[i + 1]
            chars.append(_ESCAPES.get(esc, esc))
            if esc == "\n":
                line += 1
                line_start = i + 2
            i += 2
            continue
        if c == "$" and i + 1 < n and source[i + 1] == "{":
            flush_literal("".join(chars))
            chars = []
            # Find the matching close brace (nesting-aware, string-aware).
            j = i + 2
            depth = 1
            while j < n and depth:
                cj = source[j]
                if cj in "'\"`":
                    quote = cj
                    j += 1
                    while j < n and source[j] != quote:
                        j += 2 if source[j] == "\\" else 1
                elif cj == "{":
                    depth += 1
                elif cj == "}":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth:
                raise JSSyntaxError("unterminated ${...} in template", line, script, col=col)
            inner = source[i + 2 : j]
            tokens.append(Token(TokenType.PUNCT, "+", line, col))
            tokens.append(Token(TokenType.PUNCT, "(", line, col))
            inner_tokens = tokenize(inner, script)
            tokens.extend(inner_tokens[:-1])  # drop the inner EOF
            tokens.append(Token(TokenType.PUNCT, ")", line, col))
            nl = inner.rfind("\n")
            if nl >= 0:
                line += inner.count("\n")
                line_start = i + 2 + nl + 1
            i = j + 1
            continue
        if c == "\n":
            line += 1
            line_start = i + 1
        chars.append(c)
        i += 1
    flush_literal("".join(chars))
    tokens.append(Token(TokenType.PUNCT, ")", line, col))
    return i, line, line_start


def tokenize(source: str, script: str = "<anonymous>") -> List[Token]:
    """Tokenize ``source``, returning a token list terminated by EOF."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    keywords = KEYWORDS
    pos = 0
    line = 1
    #: Index of the first character of the current line (col = i - line_start + 1).
    line_start = 0

    while True:
        m = match(source, pos)
        if m is None:  # only trailing spaces and tabs are left
            break
        kind = m.lastgroup
        pos = m.end()
        if kind == "punct":
            text = m.group(kind)
            append(Token(_PUNCT, text, line, pos - len(text) - line_start + 1))
        elif kind == "ident":
            text = m.group(kind)
            kind_type = _KEYWORD if text in keywords else _IDENT
            append(Token(kind_type, text, line, pos - len(text) - line_start + 1))
        elif kind == "nl":
            line += 1
            line_start = pos
        elif kind == "num":
            text = m.group(kind)
            append(Token(_NUMBER, float(text), line, pos - len(text) - line_start + 1))
        elif kind == "string":
            text = m.group(kind)
            append(Token(_STRING, text[1:-1], line, pos - len(text) - line_start + 1))
        elif kind == "comment":
            pass
        elif kind == "block":
            start = pos - 2
            end = source.find("*/", pos)
            if end < 0:
                col = start - line_start + 1
                raise JSSyntaxError("unterminated block comment", line, script, col=col)
            nl = source.rfind("\n", start, end)
            if nl >= 0:
                line += source.count("\n", start, end)
                line_start = nl + 1
            pos = end + 2
        elif kind == "hex":
            text = m.group(kind)
            col = pos - len(text) - line_start + 1
            if len(text) == 2:
                raise JSSyntaxError(f"malformed number {text!r}", line, script, col=col)
            append(Token(_NUMBER, float(int(text, 16)), line, col))
        elif kind == "escaped":
            start = pos - 1
            col = start - line_start + 1
            value, pos, line, line_start = _lex_string(source, start, line, line_start, script)
            append(Token(_STRING, value, line, col))
        elif kind == "template":
            pos, line, line_start = _lex_template(source, pos - 1, line, line_start, script, tokens)
        else:  # rare
            start = pos - 1
            tok, pos = _lex_rare(source, start, line, start - line_start + 1, script)
            append(tok)

    tokens.append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens
