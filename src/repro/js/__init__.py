"""A small ECMAScript-subset engine.

Fingerprinting scripts in the synthetic web are *real programs*: they are
lexed, parsed and interpreted by this package, which lets the crawler
attribute every Canvas API call to the script URL that made it, lets
attribution inspect script source (copyright banners, URL patterns), and
makes first-party bundling a literal concatenation of vendor code into a
site's own JavaScript.

Supported syntax: ``var``/``let``/``const``, functions (declarations,
expressions, arrows), ``if``/``else``, ``for``, ``for``-``of``, ``while``,
``do``-``while``, ``switch``, ``try``/``catch``/``finally``, ``throw``,
``return`` / ``break`` / ``continue``, the usual operators (including
``typeof``, ``? :``, ``++``/``--``), object/array literals, member and
index access, ``new``, and strings including template literals.
Built-ins: ``Math``, ``JSON``, ``console``, and the common
``String``/``Array``/``Number`` methods.

One engine runs every script: :class:`Interpreter` executes it through
the closure compiler (:mod:`repro.js.compiler`), with statically resolved
scope slots, inline property caches and a cross-page compiled-script
cache.  Compiled execution must match the tree-walking oracle in
``tests/js/reference_interpreter.py`` exactly — results, errors and step
counts.  See ``docs/performance.md``.
"""

from repro.js.compiler import script_cache
from repro.js.errors import JSError, JSRuntimeError, JSSyntaxError
from repro.js.interpreter import Interpreter
from repro.js.lexer import tokenize
from repro.js.parser import parse
from repro.js.values import (
    JSArray,
    JSFunction,
    JSNull,
    JSObject,
    JSUndefined,
    NativeFunction,
    UNDEFINED,
    NULL,
    js_repr,
    js_truthy,
)

__all__ = [
    "Interpreter",
    "script_cache",
    "tokenize",
    "parse",
    "JSError",
    "JSSyntaxError",
    "JSRuntimeError",
    "JSObject",
    "JSArray",
    "JSFunction",
    "NativeFunction",
    "JSUndefined",
    "JSNull",
    "UNDEFINED",
    "NULL",
    "js_repr",
    "js_truthy",
]
