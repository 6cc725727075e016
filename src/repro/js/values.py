"""JavaScript value model.

Mapping to Python values:

* numbers -> ``float`` (integral floats print without the trailing ``.0``,
  like JS), booleans -> ``bool``, strings -> ``str``
* ``undefined`` / ``null`` -> the :data:`UNDEFINED` / :data:`NULL` singletons
* objects -> :class:`JSObject`, arrays -> :class:`JSArray`
* user functions -> :class:`JSFunction` (closure over an environment)
* host functions -> :class:`NativeFunction` wrapping a Python callable
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "JSUndefined",
    "JSNull",
    "UNDEFINED",
    "NULL",
    "Shape",
    "ROOT_SHAPE",
    "JSObject",
    "JSArray",
    "JSFunction",
    "NativeFunction",
    "js_truthy",
    "js_to_string",
    "js_to_number",
    "js_type_of",
    "js_equals_strict",
    "js_equals_loose",
    "js_repr",
]


class JSUndefined:
    """The ``undefined`` value (singleton)."""

    _instance: Optional["JSUndefined"] = None

    def __new__(cls) -> "JSUndefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


class JSNull:
    """The ``null`` value (singleton)."""

    _instance: Optional["JSNull"] = None

    def __new__(cls) -> "JSNull":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"

    def __bool__(self) -> bool:
        return False


UNDEFINED = JSUndefined()
NULL = JSNull()


class Shape:
    """A hidden class: the ordered tuple of property keys an object holds.

    Two plain :class:`JSObject` instances that acquired the same keys in the
    same order share the same ``Shape`` instance, so the compiler's inline
    caches can validate a cached property lookup with a single identity
    check.  Shapes form a transition tree rooted at :data:`ROOT_SHAPE`;
    transitions are interned, which keeps the check an ``is`` comparison.
    """

    __slots__ = ("keys", "transitions")

    def __init__(self, keys: tuple = ()) -> None:
        self.keys = keys
        self.transitions: Dict[str, "Shape"] = {}

    def child(self, key: str) -> "Shape":
        nxt = self.transitions.get(key)
        if nxt is None:
            nxt = Shape(self.keys + (key,))
            self.transitions[key] = nxt
        return nxt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shape({', '.join(self.keys)})"


#: The shape of an object with no properties (transition-tree root).
ROOT_SHAPE = Shape()


def _shape_for(keys) -> Shape:
    shape = ROOT_SHAPE
    for key in keys:
        shape = shape.child(key)
    return shape


class JSObject:
    """A plain JavaScript object: ordered string-keyed properties.

    Host objects subclass this and override :meth:`get` / :meth:`set` to
    expose live attributes (e.g. ``canvas.width``).  The base class keeps
    ``shape`` in sync with the key set so compiled code can use shape-keyed
    inline caches; subclasses that override accessors are never fast-pathed
    (the caches check ``type(obj) is JSObject`` exactly), so a stale shape
    on an exotic host object is harmless.
    """

    #: Class name reported by host objects (used in error messages).
    js_class = "Object"

    def __init__(self, properties: Optional[Dict[str, Any]] = None) -> None:
        self.properties: Dict[str, Any] = dict(properties or {})
        self.shape: Shape = _shape_for(self.properties) if self.properties else ROOT_SHAPE

    def get(self, name: str) -> Any:
        return self.properties.get(name, UNDEFINED)

    def set(self, name: str, value: Any) -> None:
        props = self.properties
        if name not in props:
            self.shape = self.shape.child(name)
        props[name] = value

    def has(self, name: str) -> bool:
        return name in self.properties

    def delete(self, name: str) -> bool:
        props = self.properties
        if name in props:
            value = props.pop(name)
            self.shape = _shape_for(props)
            return value is not None
        return False

    def keys(self) -> List[str]:
        return list(self.properties.keys())

    def __repr__(self) -> str:
        return f"[object {self.js_class}]"


class JSArray(JSObject):
    """A JavaScript array backed by a Python list."""

    js_class = "Array"

    def __init__(self, elements: Optional[List[Any]] = None) -> None:
        super().__init__()
        self.elements: List[Any] = list(elements or [])

    def get(self, name: str) -> Any:
        if name == "length":
            return float(len(self.elements))
        idx = _array_index(name)
        if idx is not None:
            if 0 <= idx < len(self.elements):
                return self.elements[idx]
            return UNDEFINED
        return super().get(name)

    def set(self, name: str, value: Any) -> None:
        if name == "length":
            new_len = int(js_to_number(value))
            cur = len(self.elements)
            if new_len < cur:
                del self.elements[new_len:]
            else:
                self.elements.extend([UNDEFINED] * (new_len - cur))
            return
        idx = _array_index(name)
        if idx is not None:
            if idx >= len(self.elements):
                self.elements.extend([UNDEFINED] * (idx + 1 - len(self.elements)))
            self.elements[idx] = value
            return
        super().set(name, value)

    def __repr__(self) -> str:
        return f"[array length={len(self.elements)}]"


def _array_index(name: str) -> Optional[int]:
    if name.isdigit():
        return int(name)
    return None


class JSFunction(JSObject):
    """A user-defined function: parameters + body + defining environment."""

    js_class = "Function"

    def __init__(self, params, body, env, name: Optional[str] = None, is_arrow: bool = False, this=None):
        super().__init__()
        self.params = list(params)
        self.body = body
        self.env = env
        self.name = name or ""
        self.is_arrow = is_arrow
        #: Lexical ``this`` captured by arrows.
        self.lexical_this = this

    def __repr__(self) -> str:
        return f"[function {self.name or 'anonymous'}]"


class NativeFunction(JSObject):
    """A host function: ``fn(interpreter, this, args) -> value``."""

    js_class = "Function"

    def __init__(self, fn: Callable, name: str = "") -> None:
        super().__init__()
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "native")

    def __repr__(self) -> str:
        return f"[native {self.name}]"


# --- conversions -----------------------------------------------------------------


def js_truthy(value: Any) -> bool:
    """JavaScript ToBoolean."""
    if value is UNDEFINED or value is NULL or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0 and not math.isnan(value)
    if isinstance(value, int):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    return True  # objects, arrays, functions


def js_to_string(value: Any) -> str:
    """JavaScript ToString."""
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _number_to_string(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, JSArray):
        return ",".join("" if e is UNDEFINED or e is NULL else js_to_string(e) for e in value.elements)
    if isinstance(value, (JSFunction, NativeFunction)):
        return f"function {value.name}() {{ [code] }}"
    if isinstance(value, JSObject):
        return f"[object {value.js_class}]"
    return str(value)


def _number_to_string(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e21:
        return str(int(x))
    return repr(x)


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+\Z")


def digits_to_number(digits: str, radix: int) -> float:
    """The double nearest the value of a digit string; Infinity past the largest double.

    Python's ``int`` refuses more than 4,300 digits in a radix that is not
    a power of two, so leading zeros go first, and more than 1,100
    significant digits is at least ``2 ** 1100`` in any radix: Infinity.
    """
    significant = digits.lstrip("0")
    if len(significant) > 1100:
        return math.inf
    try:
        return float(int(significant or "0", radix))
    except OverflowError:
        return math.inf


def js_to_number(value: Any) -> float:
    """JavaScript ToNumber."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is UNDEFINED:
        return math.nan
    if value is NULL:
        return 0.0
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return 0.0
        if text[:2] in ("0x", "0X"):
            digits = text[2:]
            return digits_to_number(digits, 16) if _HEX_DIGITS.match(digits) else math.nan
        try:
            return float(text)
        except ValueError:
            return math.nan
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return js_to_number(value.elements[0])
        return math.nan
    return math.nan  # objects


def js_type_of(value: Any) -> str:
    """The ``typeof`` operator."""
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JSFunction, NativeFunction)):
        return "function"
    return "object"


def js_equals_strict(a: Any, b: Any) -> bool:
    """The ``===`` operator."""
    ta, tb = js_type_of(a), js_type_of(b)
    if ta != tb:
        return False
    if ta == "number":
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return False
        return fa == fb
    if ta in ("string", "boolean", "undefined"):
        return a == b
    if a is NULL and b is NULL:
        return True
    return a is b  # objects/functions by identity


def js_equals_loose(a: Any, b: Any) -> bool:
    """The ``==`` operator (common coercion cases)."""
    if (a is NULL or a is UNDEFINED) and (b is NULL or b is UNDEFINED):
        return True
    if (a is NULL or a is UNDEFINED) or (b is NULL or b is UNDEFINED):
        return False
    ta, tb = js_type_of(a), js_type_of(b)
    if ta == tb:
        return js_equals_strict(a, b)
    if ta == "number" and tb == "string":
        return js_equals_strict(a, js_to_number(b))
    if ta == "string" and tb == "number":
        return js_equals_strict(js_to_number(a), b)
    if ta == "boolean":
        return js_equals_loose(js_to_number(a), b)
    if tb == "boolean":
        return js_equals_loose(a, js_to_number(b))
    if ta == "object" and tb in ("number", "string"):
        return js_equals_loose(js_to_string(a), b)
    if tb == "object" and ta in ("number", "string"):
        return js_equals_loose(a, js_to_string(b))
    return False


def js_repr(value: Any) -> str:
    """Debug representation (used by console.log capture)."""
    if isinstance(value, str):
        return value
    if isinstance(value, JSArray):
        return "[" + ", ".join(js_repr(e) for e in value.elements) + "]"
    if isinstance(value, (JSFunction, NativeFunction)):
        return repr(value)
    if isinstance(value, JSObject):
        inner = ", ".join(f"{k}: {js_repr(v)}" for k, v in value.properties.items())
        return "{" + inner + "}"
    return js_to_string(value)
