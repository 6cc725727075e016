"""Token model for the JavaScript lexer."""

from __future__ import annotations

import enum
from typing import Union

__all__ = ["TokenType", "Token", "KEYWORDS", "PUNCTUATORS"]


class TokenType(enum.Enum):
    NUMBER = "number"
    STRING = "string"
    IDENT = "ident"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"

    # Members are singletons compared by identity; hashing by identity keeps
    # the parser's dict and set lookups on ``Token.key`` in C.
    __hash__ = object.__hash__


_PUNCT = TokenType.PUNCT
_KEYWORD = TokenType.KEYWORD


KEYWORDS = frozenset(
    {
        "var",
        "let",
        "const",
        "function",
        "return",
        "if",
        "else",
        "for",
        "of",
        "in",
        "while",
        "do",
        "break",
        "continue",
        "true",
        "false",
        "null",
        "undefined",
        "typeof",
        "new",
        "try",
        "catch",
        "finally",
        "throw",
        "switch",
        "case",
        "default",
        "delete",
        "instanceof",
        "this",
    }
)

#: Longest-match-first list of punctuators.
PUNCTUATORS = (
    "===",
    "!==",
    ">>>",
    "...",
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "!",
    "?",
    ":",
    ".",
    "&",
    "|",
    "^",
    "~",
)


class Token:
    """One lexed token.

    ``key`` is what the parser dispatches on: the text of a punctuator or
    keyword, the :class:`TokenType` for every other token, so one
    comparison (``tok.key == "("``) replaces a type check plus a value check.
    Equality and hashing cover ``type``, ``value``, ``line`` and ``col``.
    """

    __slots__ = ("type", "value", "line", "col", "key")

    def __init__(
        self, type: TokenType, value: Union[str, float, int], line: int, col: int = 0
    ) -> None:
        self.type = type
        self.value = value
        self.line = line
        #: 1-based column of the token's first character (0 = unknown, e.g.
        #: synthetic tokens produced by template-literal desugaring).
        self.col = col
        self.key = value if type is _PUNCT or type is _KEYWORD else type

    def _fields(self):
        return (self.type, self.value, self.line, self.col)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def is_punct(self, *values: str) -> bool:
        return self.type is TokenType.PUNCT and self.value in values

    def is_keyword(self, *values: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.value}, {self.value!r}, line={self.line}, col={self.col})"
