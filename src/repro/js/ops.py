"""Operator semantics shared by the compiler and its tree-walking oracle.

The compiled engine (:mod:`repro.js.compiler`) must produce bit-identical
results to the tree-walking reference kept in
``tests/js/reference_interpreter.py``, so the arithmetic that is easy to
get subtly wrong twice lives here once: int32 coercions, JS
division/modulo edge cases, relational comparison, and the
compound-assignment variants (which historically differ from the plain
binary operators — ``+=`` ignores objects, ``/=`` returns NaN on a zero
divisor where ``/`` returns a signed infinity; both must preserve those
quirks exactly).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.js.values import js_to_number, js_to_string

__all__ = [
    "to_int32",
    "wrap_int32",
    "to_uint32",
    "neg_zero",
    "compare",
    "js_div",
    "js_mod",
    "COMPOUND_OPS",
    "apply_compound",
]


def to_int32(x: float) -> int:
    if math.isnan(x) or math.isinf(x):
        return 0
    n = int(x) & 0xFFFFFFFF
    return n - 0x100000000 if n >= 0x80000000 else n


def wrap_int32(n: int) -> int:
    n &= 0xFFFFFFFF
    return n - 0x100000000 if n >= 0x80000000 else n


def to_uint32(x: float) -> int:
    if math.isnan(x) or math.isinf(x):
        return 0
    return int(x) & 0xFFFFFFFF


def neg_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) < 0


def compare(left: Any, right: Any, op: str) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        a, b = left, right
    else:
        a, b = js_to_number(left), js_to_number(right)
        if isinstance(a, float) and math.isnan(a):
            return False
        if isinstance(b, float) and math.isnan(b):
            return False
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    return a >= b


def js_div(left: Any, right: Any) -> float:
    """The binary ``/`` operator (signed-infinity semantics on zero divisor)."""
    denom = js_to_number(right)
    num = js_to_number(left)
    if denom == 0:
        if num == 0 or math.isnan(num):
            return math.nan
        return math.inf if (num > 0) == (denom >= 0 and not neg_zero(denom)) else -math.inf
    return num / denom


def js_mod(left: Any, right: Any) -> float:
    """The binary ``%`` operator."""
    denom = js_to_number(right)
    num = js_to_number(left)
    if denom == 0 or math.isnan(num) or math.isinf(num):
        return math.nan
    return math.fmod(num, denom)


def _compound_add(left: Any, right: Any) -> Any:
    if isinstance(left, str) or isinstance(right, str):
        return js_to_string(left) + js_to_string(right)
    return js_to_number(left) + js_to_number(right)


def _compound_sub(left: Any, right: Any) -> float:
    return js_to_number(left) - js_to_number(right)


def _compound_mul(left: Any, right: Any) -> float:
    return js_to_number(left) * js_to_number(right)


def _compound_div(left: Any, right: Any) -> float:
    denom = js_to_number(right)
    return js_to_number(left) / denom if denom != 0 else math.nan


def _compound_mod(left: Any, right: Any) -> float:
    denom = js_to_number(right)
    return math.fmod(js_to_number(left), denom) if denom != 0 else math.nan


def _compound_and(left: Any, right: Any) -> float:
    return float(to_int32(js_to_number(left)) & to_int32(js_to_number(right)))


def _compound_or(left: Any, right: Any) -> float:
    return float(to_int32(js_to_number(left)) | to_int32(js_to_number(right)))


def _compound_xor(left: Any, right: Any) -> float:
    return float(to_int32(js_to_number(left)) ^ to_int32(js_to_number(right)))


#: Compound-assignment arithmetic (``x op= y``), keyed by the bare operator.
#:
#: Deliberately NOT the same as the plain binary operators: ``+=`` only
#: checks for strings (objects coerce through ToNumber), and ``/=`` / ``%=``
#: collapse every zero-divisor case to NaN.  The compiler pre-dispatches on
#: the operator at compile time; the interpreter goes through
#: :func:`apply_compound`.
COMPOUND_OPS = {
    "+": _compound_add,
    "-": _compound_sub,
    "*": _compound_mul,
    "/": _compound_div,
    "%": _compound_mod,
    "&": _compound_and,
    "|": _compound_or,
    "^": _compound_xor,
}


def apply_compound(op: str, left: Any, right: Any) -> Optional[Any]:
    """Apply a compound-assignment operator, or return None if unsupported."""
    fn = COMPOUND_OPS.get(op)
    if fn is None:
        return None
    return fn(left, right)
