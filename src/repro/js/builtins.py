"""Built-in objects and primitive method dispatch for the JS engine.

Provides ``Math``, ``JSON`` (stringify/parse for the value subset),
``console``, ``parseInt``/``parseFloat``/``isNaN``, the ``String``/``Number``
/ ``Array`` / ``Object`` namespace functions, and the instance methods of
strings, numbers, arrays and functions that the synthetic web's scripts use.
"""

from __future__ import annotations

import json as _json
import math
from fractions import Fraction
from typing import Any, List, Optional

from repro.js.errors import JSThrow
from repro.js.ops import to_int32
from repro.js.values import (
    NULL,
    UNDEFINED,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    digits_to_number,
    js_equals_strict,
    js_to_number,
    js_to_string,
    js_truthy,
)

__all__ = [
    "install_globals",
    "string_member",
    "number_member",
    "array_member",
    "function_member",
]


# --- global installation -----------------------------------------------------------


def install_globals(interp) -> None:
    """Populate the interpreter's global environment."""
    g = interp.define_global

    g("NaN", math.nan)
    g("Infinity", math.inf)
    g("globalThis", JSObject())

    g("Math", _make_math(interp))
    g("JSON", _make_json())
    g("console", _make_console(interp))
    g("Object", _make_object_ns())
    g("Array", _make_array_ns())
    g("String", _make_string_ns())
    g("Number", _make_number_ns())
    g("Error", NativeFunction(_error_ctor, "Error"))
    g("TypeError", NativeFunction(_error_ctor, "TypeError"))

    g("parseInt", NativeFunction(_parse_int, "parseInt"))
    g("parseFloat", NativeFunction(_parse_float, "parseFloat"))
    g("isNaN", NativeFunction(lambda i, t, a: math.isnan(js_to_number(a[0] if a else UNDEFINED)), "isNaN"))
    g(
        "isFinite",
        NativeFunction(lambda i, t, a: math.isfinite(js_to_number(a[0] if a else UNDEFINED)), "isFinite"),
    )
    g("btoa", NativeFunction(_btoa, "btoa"))
    g("atob", NativeFunction(_atob, "atob"))
    g("encodeURIComponent", NativeFunction(_encode_uri_component, "encodeURIComponent"))


def _make_math(interp) -> JSObject:
    m = JSObject()
    m.set("PI", math.pi)
    m.set("E", math.e)
    m.set("LN2", math.log(2))
    m.set("SQRT2", math.sqrt(2))

    def unary(name, fn):
        m.set(name, NativeFunction(lambda i, t, a, f=fn: _safe_float(f, a), name))

    unary("abs", abs)
    unary("floor", math.floor)
    unary("ceil", math.ceil)
    unary("sqrt", lambda x: math.sqrt(x) if x >= 0 else math.nan)
    unary("sin", math.sin)
    unary("cos", math.cos)
    unary("tan", math.tan)
    unary("atan", math.atan)
    unary("log", lambda x: math.log(x) if x > 0 else (-math.inf if x == 0 else math.nan))
    unary("exp", math.exp)
    unary("round", lambda x: math.floor(x + 0.5))
    unary("trunc", math.trunc)
    unary("sign", lambda x: math.copysign(1.0, x) if x != 0 else 0.0)

    m.set(
        "pow",
        NativeFunction(
            lambda i, t, a: float(
                math.pow(js_to_number(a[0] if a else UNDEFINED), js_to_number(a[1] if len(a) > 1 else UNDEFINED))
            )
            if a
            else math.nan,
            "pow",
        ),
    )
    m.set(
        "max",
        NativeFunction(lambda i, t, a: max((js_to_number(x) for x in a), default=-math.inf), "max"),
    )
    m.set(
        "min",
        NativeFunction(lambda i, t, a: min((js_to_number(x) for x in a), default=math.inf), "min"),
    )
    m.set(
        "atan2",
        NativeFunction(lambda i, t, a: math.atan2(js_to_number(a[0]), js_to_number(a[1])), "atan2"),
    )
    m.set(
        "hypot",
        NativeFunction(lambda i, t, a: math.hypot(*(js_to_number(x) for x in a)), "hypot"),
    )

    # Math.random is deterministic per interpreter: a seeded LCG the browser
    # reseeds per page load.  Fingerprinting canvases never depend on it, but
    # benign scripts do use it.
    state = {"x": 0x2545F4914F6CDD1D}

    def random(i, t, a):
        state["x"] = (state["x"] * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return (state["x"] >> 11) / float(1 << 53)

    m.set("random", NativeFunction(random, "random"))
    return m


def _safe_float(fn, args: List[Any]) -> float:
    x = js_to_number(args[0] if args else UNDEFINED)
    if math.isnan(x):
        return math.nan
    try:
        return float(fn(x))
    except (ValueError, OverflowError):
        return math.nan


def _make_console(interp) -> JSObject:
    console = JSObject()

    def log(i, t, a):
        from repro.js.values import js_repr

        interp.console_log.append(" ".join(js_repr(x) for x in a))
        return UNDEFINED

    console.set("log", NativeFunction(log, "log"))
    console.set("warn", NativeFunction(log, "warn"))
    console.set("error", NativeFunction(log, "error"))
    console.set("debug", NativeFunction(log, "debug"))
    return console


def _make_json() -> JSObject:
    ns = JSObject()

    def stringify(i, t, a):
        value = a[0] if a else UNDEFINED
        if value is UNDEFINED:
            return UNDEFINED
        return _json.dumps(_to_python(value), separators=(",", ":"))

    def parse(i, t, a):
        text = js_to_string(a[0] if a else UNDEFINED)
        try:
            return _from_python(_json.loads(text))
        except (_json.JSONDecodeError, ValueError):
            raise JSThrow("SyntaxError: invalid JSON")

    ns.set("stringify", NativeFunction(stringify, "stringify"))
    ns.set("parse", NativeFunction(parse, "parse"))
    return ns


def _to_python(value: Any) -> Any:
    if value is UNDEFINED or value is NULL:
        return None
    if isinstance(value, JSArray):
        return [_to_python(v) for v in value.elements]
    if isinstance(value, (JSFunction, NativeFunction)):
        return None
    if isinstance(value, JSObject):
        return {k: _to_python(v) for k, v in value.properties.items() if not isinstance(v, (JSFunction, NativeFunction))}
    if isinstance(value, float) and value == int(value) and math.isfinite(value):
        return int(value)
    return value


def _from_python(value: Any) -> Any:
    if value is None:
        return NULL
    if isinstance(value, list):
        return JSArray([_from_python(v) for v in value])
    if isinstance(value, dict):
        obj = JSObject()
        for k, v in value.items():
            obj.set(str(k), _from_python(v))
        return obj
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _make_object_ns() -> JSObject:
    ns = NativeFunction(lambda i, t, a: JSObject(), "Object")

    def keys(i, t, a):
        obj = a[0] if a else UNDEFINED
        if isinstance(obj, JSArray):
            return JSArray([str(n) for n in range(len(obj.elements))])
        if isinstance(obj, JSObject):
            return JSArray(list(obj.keys()))
        return JSArray([])

    def values(i, t, a):
        obj = a[0] if a else UNDEFINED
        if isinstance(obj, JSArray):
            return JSArray(list(obj.elements))
        if isinstance(obj, JSObject):
            return JSArray([obj.get(k) for k in obj.keys()])
        return JSArray([])

    def assign(i, t, a):
        if not a or not isinstance(a[0], JSObject):
            return a[0] if a else UNDEFINED
        target = a[0]
        for src in a[1:]:
            if isinstance(src, JSObject):
                for k in src.keys():
                    target.set(k, src.get(k))
        return target

    ns.set("keys", NativeFunction(keys, "keys"))
    ns.set("values", NativeFunction(values, "values"))
    ns.set("assign", NativeFunction(assign, "assign"))
    return ns


def _make_array_ns() -> JSObject:
    ns = NativeFunction(
        lambda i, t, a: JSArray([UNDEFINED] * int(js_to_number(a[0]))) if len(a) == 1 and isinstance(a[0], float) else JSArray(list(a)),
        "Array",
    )
    ns.set("isArray", NativeFunction(lambda i, t, a: isinstance(a[0] if a else UNDEFINED, JSArray), "isArray"))

    def array_from(i, t, a):
        src = a[0] if a else UNDEFINED
        if isinstance(src, JSArray):
            items = list(src.elements)
        elif isinstance(src, str):
            items = list(src)
        else:
            items = []
        if len(a) > 1:
            items = [i.call_function(a[1], UNDEFINED, [item, float(idx)]) for idx, item in enumerate(items)]
        return JSArray(items)

    ns.set("from", NativeFunction(array_from, "from"))
    return ns


def _make_string_ns() -> JSObject:
    ns = NativeFunction(lambda i, t, a: js_to_string(a[0]) if a else "", "String")
    ns.set(
        "fromCharCode",
        NativeFunction(lambda i, t, a: "".join(chr(int(js_to_number(x)) & 0xFFFF) for x in a), "fromCharCode"),
    )
    return ns


def _make_number_ns() -> JSObject:
    ns = NativeFunction(lambda i, t, a: js_to_number(a[0]) if a else 0.0, "Number")
    ns.set("MAX_SAFE_INTEGER", float(2**53 - 1))
    ns.set("isInteger", NativeFunction(
        lambda i, t, a: isinstance(a[0], float) and math.isfinite(a[0]) and a[0] == int(a[0]) if a else False,
        "isInteger",
    ))
    ns.set("isNaN", NativeFunction(
        lambda i, t, a: isinstance(a[0], float) and math.isnan(a[0]) if a else False, "isNaN"
    ))
    return ns


def _error_ctor(i, t, a):
    err = JSObject()
    err.js_class = "Error"
    err.set("message", js_to_string(a[0]) if a else "")
    err.set("name", "Error")
    return err


def _parse_int(i, t, a):
    text = js_to_string(a[0] if a else UNDEFINED).strip()
    sign = 1.0
    if text.startswith(("-", "+")):
        if text[0] == "-":
            sign = -1.0
        text = text[1:]
    radix = to_int32(js_to_number(a[1])) if len(a) > 1 else 0
    if radix and not 2 <= radix <= 36:
        return math.nan
    if radix in (0, 16) and text.lower().startswith("0x"):
        radix = 16
        text = text[2:]
    radix = radix or 10
    digits = _DIGITS[:radix]
    end = 0
    for ch in text.lower():
        if ch not in digits:
            break
        end += 1
    if end == 0:
        return math.nan
    return sign * digits_to_number(text[:end], radix)


def _parse_float(i, t, a):
    text = js_to_string(a[0] if a else UNDEFINED).strip()
    import re

    m = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text)
    if not m:
        return math.nan
    return float(m.group(0))


def _btoa(i, t, a):
    import base64

    text = js_to_string(a[0] if a else UNDEFINED)
    try:
        raw = text.encode("latin-1")
    except UnicodeEncodeError:
        raise JSThrow("InvalidCharacterError: btoa on non-latin1 string")
    return base64.b64encode(raw).decode("ascii")


def _atob(i, t, a):
    import base64

    text = js_to_string(a[0] if a else UNDEFINED)
    try:
        return base64.b64decode(text.encode("ascii")).decode("latin-1")
    except Exception:
        raise JSThrow("InvalidCharacterError: atob on invalid base64")


def _encode_uri_component(i, t, a):
    from urllib.parse import quote

    return quote(js_to_string(a[0] if a else UNDEFINED), safe="!'()*-._~")


# --- primitive member dispatch ---------------------------------------------------


def string_member(interp, s: str, name: str) -> Any:
    """Member access on a string primitive."""
    if name == "length":
        return float(len(s))
    if name.isdigit():
        idx = int(name)
        return s[idx] if 0 <= idx < len(s) else UNDEFINED

    def method(fn):
        return NativeFunction(fn, name)

    if name == "charCodeAt":
        return method(lambda i, t, a: float(ord(s[int(js_to_number(a[0] if a else 0.0))])) if 0 <= int(js_to_number(a[0] if a else 0.0)) < len(s) else math.nan)
    if name == "charAt":
        return method(lambda i, t, a: s[int(js_to_number(a[0] if a else 0.0))] if 0 <= int(js_to_number(a[0] if a else 0.0)) < len(s) else "")
    if name == "codePointAt":
        return method(lambda i, t, a: float(ord(s[int(js_to_number(a[0] if a else 0.0))])) if 0 <= int(js_to_number(a[0] if a else 0.0)) < len(s) else UNDEFINED)
    if name == "indexOf":
        return method(lambda i, t, a: float(s.find(js_to_string(a[0] if a else UNDEFINED), int(js_to_number(a[1])) if len(a) > 1 else 0)))
    if name == "lastIndexOf":
        return method(lambda i, t, a: float(s.rfind(js_to_string(a[0] if a else UNDEFINED))))
    if name == "includes":
        return method(lambda i, t, a: js_to_string(a[0] if a else UNDEFINED) in s)
    if name == "startsWith":
        return method(lambda i, t, a: s.startswith(js_to_string(a[0] if a else UNDEFINED)))
    if name == "endsWith":
        return method(lambda i, t, a: s.endswith(js_to_string(a[0] if a else UNDEFINED)))
    if name == "slice":
        return method(lambda i, t, a: _slice_str(s, a))
    if name == "substring":
        return method(lambda i, t, a: _substring(s, a))
    if name == "substr":
        return method(lambda i, t, a: _substr(s, a))
    if name == "toLowerCase":
        return method(lambda i, t, a: s.lower())
    if name == "toUpperCase":
        return method(lambda i, t, a: s.upper())
    if name == "trim":
        return method(lambda i, t, a: s.strip())
    if name == "split":
        return method(lambda i, t, a: _split(s, a))
    if name == "replace":
        return method(lambda i, t, a: s.replace(js_to_string(a[0]), js_to_string(a[1]), 1) if len(a) >= 2 else s)
    if name == "replaceAll":
        return method(lambda i, t, a: s.replace(js_to_string(a[0]), js_to_string(a[1])) if len(a) >= 2 else s)
    if name == "repeat":
        return method(lambda i, t, a: s * int(js_to_number(a[0] if a else 0.0)))
    if name == "padStart":
        return method(lambda i, t, a: s.rjust(int(js_to_number(a[0] if a else 0.0)), js_to_string(a[1]) if len(a) > 1 else " "))
    if name == "padEnd":
        return method(lambda i, t, a: s.ljust(int(js_to_number(a[0] if a else 0.0)), js_to_string(a[1]) if len(a) > 1 else " "))
    if name == "concat":
        return method(lambda i, t, a: s + "".join(js_to_string(x) for x in a))
    if name == "toString":
        return method(lambda i, t, a: s)
    return UNDEFINED


def _slice_str(s: str, a: List[Any]) -> str:
    start = int(js_to_number(a[0])) if a else 0
    end = int(js_to_number(a[1])) if len(a) > 1 and a[1] is not UNDEFINED else len(s)
    return s[slice(*_norm_range(start, end, len(s)))]


def _substring(s: str, a: List[Any]) -> str:
    start = max(0, min(len(s), int(js_to_number(a[0])) if a else 0))
    end = max(0, min(len(s), int(js_to_number(a[1])) if len(a) > 1 and a[1] is not UNDEFINED else len(s)))
    if start > end:
        start, end = end, start
    return s[start:end]


def _substr(s: str, a: List[Any]) -> str:
    start = int(js_to_number(a[0])) if a else 0
    if start < 0:
        start = max(0, len(s) + start)
    length = int(js_to_number(a[1])) if len(a) > 1 else len(s) - start
    return s[start : start + max(0, length)]


def _norm_range(start: int, end: int, n: int):
    if start < 0:
        start = max(0, n + start)
    if end < 0:
        end = max(0, n + end)
    return min(start, n), min(end, n)


def _split(s: str, a: List[Any]) -> JSArray:
    if not a or a[0] is UNDEFINED:
        return JSArray([s])
    sep = js_to_string(a[0])
    if sep == "":
        return JSArray(list(s))
    return JSArray(s.split(sep))


def number_member(interp, x: float, name: str) -> Any:
    def method(fn):
        return NativeFunction(fn, name)

    if name == "toFixed":
        return method(lambda i, t, a: _to_fixed(x, a[0] if a else UNDEFINED))
    if name == "toString":
        return method(lambda i, t, a: _to_radix_string(x, a[0] if a else UNDEFINED))
    if name == "toPrecision":
        return method(lambda i, t, a: _to_precision(x, a[0] if a else UNDEFINED))
    if name == "valueOf":
        return method(lambda i, t, a: x)
    return UNDEFINED


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _integer_or_infinity(value: Any) -> float:
    """ECMAScript ToIntegerOrInfinity: NaN is 0, the infinities stay, the rest truncate."""
    number = js_to_number(value)
    if math.isnan(number):
        return 0.0
    return number if math.isinf(number) else float(math.trunc(number))


def _to_radix_string(x: float, radix_arg: Any) -> str:
    radix = 10.0 if radix_arg is UNDEFINED else _integer_or_infinity(radix_arg)
    if not 2 <= radix <= 36:
        raise JSThrow("RangeError: toString() radix must be between 2 and 36")
    if radix == 10 or not math.isfinite(x):
        return js_to_string(x)
    # V8's DoubleToRadixCString, in doubles as V8 computes it: fraction
    # digits only up to the input's precision, the last one rounded to even.
    r = int(radix)
    value = abs(x)
    integer = math.floor(value)
    fraction = value - integer
    delta = max(0.5 * (math.nextafter(value, math.inf) - value), math.nextafter(0.0, 1.0))
    fraction_digits: List[int] = []
    while fraction >= delta:
        fraction *= r
        delta *= r
        digit = int(fraction)
        fraction_digits.append(digit)
        fraction -= digit
        if (fraction > 0.5 or (fraction == 0.5 and digit & 1)) and fraction + delta > 1:
            # Round up: carry through trailing maximal digits, into the integer part.
            while fraction_digits and fraction_digits[-1] + 1 == r:
                fraction_digits.pop()
            if fraction_digits:
                fraction_digits[-1] += 1
            else:
                integer += 1
            break
    integer_digits: List[int] = []
    while integer / r >= 2.0**53:
        # Digits below the double's precision are written as zeros.
        integer /= r
        integer_digits.append(0)
    while True:
        remainder = math.fmod(integer, r)
        integer_digits.append(int(remainder))
        integer = (integer - remainder) / r
        if integer <= 0:
            break
    out = "".join(_DIGITS[d] for d in reversed(integer_digits))
    if fraction_digits:
        out += "." + "".join(_DIGITS[d] for d in fraction_digits)
    return ("-" if x < 0 else "") + out


def _round_half_up(value: Fraction) -> int:
    """The integer nearest ``value``; a tie takes the larger one."""
    return math.floor(value + Fraction(1, 2))


def _to_fixed(x: float, digits_arg: Any) -> str:
    digits = _integer_or_infinity(digits_arg)
    if not 0 <= digits <= 100:
        raise JSThrow("RangeError: toFixed() digits argument must be between 0 and 100")
    if not math.isfinite(x) or abs(x) >= 1e21:
        return js_to_string(x)
    f = int(digits)
    # n / 10**f nearest the exact value of x (ECMAScript Number.prototype.toFixed).
    m = str(_round_half_up(Fraction(abs(x)) * 10**f))
    if f:
        m = m.rjust(f + 1, "0")
        m = m[:-f] + "." + m[-f:]
    return ("-" if x < 0 else "") + m


def _to_precision(x: float, precision_arg: Any) -> str:
    if precision_arg is UNDEFINED:
        return js_to_string(x)
    precision = _integer_or_infinity(precision_arg)
    if not math.isfinite(x):
        return js_to_string(x)
    if not 1 <= precision <= 100:
        raise JSThrow("RangeError: toPrecision() argument must be between 1 and 100")
    p = int(precision)
    sign = "-" if x < 0 else ""
    if x == 0:
        m, e = "0" * p, 0
    else:
        # n * 10**(e - p + 1) nearest the exact value, 10**(p - 1) <= n < 10**p
        # (ECMAScript Number.prototype.toPrecision).
        exact = Fraction(abs(x))
        e = math.floor(math.log10(abs(x)))
        while exact < Fraction(10) ** e:
            e -= 1
        while exact >= Fraction(10) ** (e + 1):
            e += 1
        n = _round_half_up(exact / Fraction(10) ** (e - p + 1))
        if n == 10**p:
            n, e = n // 10, e + 1
        m = str(n)
    if e < -6 or e >= p:
        mantissa = m if p == 1 else m[0] + "." + m[1:]
        return f"{sign}{mantissa}e{'+' if e > 0 else '-'}{abs(e)}"
    if e == p - 1:
        return sign + m
    if e >= 0:
        return sign + m[: e + 1] + "." + m[e + 1 :]
    return sign + "0." + "0" * (-(e + 1)) + m


def array_member(interp, arr: JSArray, name: str) -> Optional[Any]:
    """Array instance methods; returns None when ``name`` is not a method."""

    def method(fn):
        return NativeFunction(fn, name)

    if name == "push":
        def push(i, t, a):
            arr.elements.extend(a)
            return float(len(arr.elements))
        return method(push)
    if name == "pop":
        return method(lambda i, t, a: arr.elements.pop() if arr.elements else UNDEFINED)
    if name == "shift":
        return method(lambda i, t, a: arr.elements.pop(0) if arr.elements else UNDEFINED)
    if name == "unshift":
        def unshift(i, t, a):
            arr.elements[:0] = a
            return float(len(arr.elements))
        return method(unshift)
    if name == "join":
        return method(
            lambda i, t, a: (js_to_string(a[0]) if a and a[0] is not UNDEFINED else ",").join(
                "" if e is UNDEFINED or e is NULL else js_to_string(e) for e in arr.elements
            )
        )
    if name == "indexOf":
        def index_of(i, t, a):
            target = a[0] if a else UNDEFINED
            for idx, e in enumerate(arr.elements):
                if js_equals_strict(e, target):
                    return float(idx)
            return -1.0
        return method(index_of)
    if name == "includes":
        def includes(i, t, a):
            target = a[0] if a else UNDEFINED
            return any(js_equals_strict(e, target) for e in arr.elements)
        return method(includes)
    if name == "slice":
        def do_slice(i, t, a):
            n = len(arr.elements)
            start = int(js_to_number(a[0])) if a and a[0] is not UNDEFINED else 0
            end = int(js_to_number(a[1])) if len(a) > 1 and a[1] is not UNDEFINED else n
            lo, hi = _norm_range(start, end, n)
            return JSArray(arr.elements[lo:hi])
        return method(do_slice)
    if name == "concat":
        def concat(i, t, a):
            out = list(arr.elements)
            for x in a:
                if isinstance(x, JSArray):
                    out.extend(x.elements)
                else:
                    out.append(x)
            return JSArray(out)
        return method(concat)
    if name == "reverse":
        def reverse(i, t, a):
            arr.elements.reverse()
            return arr
        return method(reverse)
    if name == "map":
        def do_map(i, t, a):
            fn = a[0]
            return JSArray([i.call_function(fn, UNDEFINED, [e, float(idx), arr]) for idx, e in enumerate(arr.elements)])
        return method(do_map)
    if name == "filter":
        def do_filter(i, t, a):
            fn = a[0]
            return JSArray([e for idx, e in enumerate(arr.elements) if js_truthy(i.call_function(fn, UNDEFINED, [e, float(idx), arr]))])
        return method(do_filter)
    if name == "forEach":
        def for_each(i, t, a):
            fn = a[0]
            for idx, e in enumerate(list(arr.elements)):
                i.call_function(fn, UNDEFINED, [e, float(idx), arr])
            return UNDEFINED
        return method(for_each)
    if name == "reduce":
        def reduce(i, t, a):
            fn = a[0]
            items = list(arr.elements)
            if len(a) > 1:
                acc = a[1]
                start = 0
            else:
                if not items:
                    raise JSThrow("TypeError: reduce of empty array with no initial value")
                acc = items[0]
                start = 1
            for idx in range(start, len(items)):
                acc = i.call_function(fn, UNDEFINED, [acc, items[idx], float(idx), arr])
            return acc
        return method(reduce)
    if name == "some":
        def some(i, t, a):
            fn = a[0]
            return any(js_truthy(i.call_function(fn, UNDEFINED, [e, float(idx), arr])) for idx, e in enumerate(arr.elements))
        return method(some)
    if name == "every":
        def every(i, t, a):
            fn = a[0]
            return all(js_truthy(i.call_function(fn, UNDEFINED, [e, float(idx), arr])) for idx, e in enumerate(arr.elements))
        return method(every)
    if name == "sort":
        def sort(i, t, a):
            import functools

            if a and a[0] is not UNDEFINED:
                fn = a[0]
                arr.elements.sort(
                    key=functools.cmp_to_key(
                        lambda x, y: (lambda r: -1 if r < 0 else (1 if r > 0 else 0))(
                            js_to_number(i.call_function(fn, UNDEFINED, [x, y]))
                        )
                    )
                )
            else:
                arr.elements.sort(key=js_to_string)
            return arr
        return method(sort)
    if name == "splice":
        def splice(i, t, a):
            n = len(arr.elements)
            start = int(js_to_number(a[0])) if a else 0
            if start < 0:
                start = max(0, n + start)
            start = min(start, n)
            count = int(js_to_number(a[1])) if len(a) > 1 else n - start
            count = max(0, min(count, n - start))
            removed = arr.elements[start : start + count]
            arr.elements[start : start + count] = list(a[2:])
            return JSArray(removed)
        return method(splice)
    if name == "find":
        def find(i, t, a):
            fn = a[0]
            for idx, e in enumerate(arr.elements):
                if js_truthy(i.call_function(fn, UNDEFINED, [e, float(idx), arr])):
                    return e
            return UNDEFINED
        return method(find)
    if name == "toString":
        return method(lambda i, t, a: js_to_string(arr))
    return None


def function_member(interp, fn, name: str) -> Optional[Any]:
    """Members on function objects (call/apply/bind/name)."""
    if name == "call":
        return NativeFunction(lambda i, t, a: i.call_function(fn, a[0] if a else UNDEFINED, a[1:]), "call")
    if name == "apply":
        def apply(i, t, a):
            this = a[0] if a else UNDEFINED
            args = list(a[1].elements) if len(a) > 1 and isinstance(a[1], JSArray) else []
            return i.call_function(fn, this, args)
        return NativeFunction(apply, "apply")
    if name == "bind":
        def bind(i, t, a):
            bound_this = a[0] if a else UNDEFINED
            bound_args = a[1:]
            return NativeFunction(
                lambda i2, t2, a2: i2.call_function(fn, bound_this, list(bound_args) + list(a2)),
                f"bound {getattr(fn, 'name', '')}",
            )
        return NativeFunction(bind, "bind")
    if name == "name":
        return getattr(fn, "name", "")
    return None
