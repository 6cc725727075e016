"""Closure compiler for the ECMAScript subset.

Lowers a parsed :class:`~repro.js.nodes.Program` once into a tree of plain
Python closures — a "compiled program" — which is how
:class:`~repro.js.interpreter.Interpreter` runs every script.  It has the
semantics of a tree-walking evaluator without its per-node dynamic
dispatch, environment-dict chain walks or repeated AST traversal:

* **Slot-resolved scopes.**  Every point where the tree-walker allocates an
  ``Environment`` (function call, block, ``for`` loop header, ``for-of``
  iteration, ``switch`` body, ``catch`` clause, named function expression)
  becomes a *static scope* whose bindings are integer slots in a flat list
  frame (``frame[0]`` is the parent frame).  Identifier reads compile to a
  candidate list of ``(hops, slot)`` pairs resolved innermost-first, with
  the interpreter's global dict as the final fallback.  A :data:`_HOLE`
  sentinel marks a slot whose ``let``/``var`` has not executed yet, which
  reproduces the tree-walker's dict-membership semantics exactly (mid-block
  ``let``, conditional ``var`` hoisting, shadowing that only begins at the
  declaration statement).
* **Constant folding.**  Literal-only unary/binary subtrees are folded at
  compile time; the folded closure still charges the subtree's full step
  cost to the step budget (and folding is restricted to same-line subtrees)
  so budget exhaustion surfaces on the same line in both engines.
* **Inline caches.**  Property reads on plain ``JSObject`` instances use a
  per-site monomorphic cache keyed by the object's hidden class
  (:class:`~repro.js.values.Shape`): one identity check replaces the
  method-resolution ladder.  Host objects (subclasses overriding
  ``get``/``set``) never take the fast path.
* **Compiled-script cache.**  Compiled programs are interned in a
  module-global byte-budget LRU keyed by ``sha256(source)`` and
  :data:`ENGINE_VERSION`, shared by every page load in the process.
  Counters flow into :data:`repro.obs.METRICS` under the ``js.cache`` /
  ``js.compile`` / ``js.ic`` layers.

Transparency is the contract.  The tree-walker is kept as an oracle in
``tests/js/reference_interpreter.py``, and for any script compiled
execution must produce what it produces: identical results, canvas
observations, error messages (line and column included) *and step
counts*.  Every closure ticks exactly once, mirroring the reference's
``eval`` / ``exec_statement``; quirks of the tree-walker (double
evaluation of member objects in compound assignment, un-ticked ``try``
blocks, switch bodies without hoisting) are reproduced deliberately.
``tests/js/test_compiler_equivalence.py`` holds the engine to it, from
snippets up to whole crawl datasets.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs, perf
from repro.js import nodes as N
from repro.js import ops
from repro.js.errors import JSRuntimeError, JSThrow
from repro.js.parser import parse
from repro.js.values import (
    NULL,
    UNDEFINED,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    js_equals_loose,
    js_equals_strict,
    js_to_number,
    js_to_string,
    js_truthy,
    js_type_of,
)

__all__ = [
    "ENGINE_VERSION",
    "CompiledProgram",
    "CompiledFunction",
    "Runtime",
    "compile_program",
    "get_or_compile",
    "run_compiled",
    "script_cache",
]

#: Bumped whenever compilation output changes; part of the cache key so a
#: stale cached program can never execute under a newer engine.
ENGINE_VERSION = 1

#: Rough resident size charged to the cache per compiled AST node (closure
#: object + cells); only used for LRU budget accounting.
_NODE_BYTES = 400


class _Hole:
    """Sentinel for a frame slot whose declaration has not executed yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<hole>"


_HOLE = _Hole()


class _Return(Exception):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Runtime:
    """Per-interpreter mutable state threaded through compiled closures."""

    __slots__ = ("interp", "gvars", "budget", "steps", "ic_hits", "ic_misses")

    def __init__(self, interp) -> None:
        self.interp = interp
        self.gvars: Dict[str, Any] = interp.globals
        self.budget: int = interp.step_budget
        self.steps: int = 0
        self.ic_hits: int = 0
        self.ic_misses: int = 0


def _flush_ic(rt: Runtime) -> None:
    """Fold the runtime's IC tallies into the ``js.ic`` layer (once per script run)."""
    if rt.ic_hits:
        obs.METRICS.inc("perf.hits[js.ic]", rt.ic_hits)
        rt.ic_hits = 0
    if rt.ic_misses:
        obs.METRICS.inc("perf.misses[js.ic]", rt.ic_misses)
        rt.ic_misses = 0


class _FnTemplate:
    """The compile-once part of a function: body closures and slot layout."""

    __slots__ = (
        "name",
        "params",
        "is_arrow",
        "nslots",
        "this_slot",
        "param_slots",
        "arguments_slot",
        "hoist",
        "body",
    )

    def __init__(self) -> None:
        self.name: str = ""
        self.params: List[str] = []
        self.is_arrow: bool = False
        self.nslots: int = 0
        self.this_slot: int = 0
        self.param_slots: List[int] = []
        self.arguments_slot: int = 0
        self.hoist: List[Callable] = []
        self.body: List[Callable] = []


class CompiledFunction(JSFunction):
    """A function closing over a frame instead of an ``Environment``.

    Subclasses :class:`JSFunction` so the value model (``typeof``,
    ``toString``, ``call``/``apply``/``bind`` members, JSON exclusion)
    treats it as any other function.
    """

    def __init__(self, template: _FnTemplate, frame: Optional[list], lexical_this: Any = None):
        JSFunction.__init__(
            self,
            template.params,
            None,
            None,
            name=template.name,
            is_arrow=template.is_arrow,
            this=lexical_this,
        )
        self.template = template
        self.frame = frame

    def invoke(self, rt: Runtime, this: Any, args: List[Any]) -> Any:
        t = self.template
        f = [self.frame] + [_HOLE] * t.nslots
        f[t.this_slot] = self.lexical_this if t.is_arrow else this
        na = len(args)
        i = 0
        for slot in t.param_slots:
            f[slot] = args[i] if i < na else UNDEFINED
            i += 1
        f[t.arguments_slot] = JSArray(args)
        for op in t.hoist:
            op(rt, f)
        try:
            for st in t.body:
                st(rt, f)
        except _Return as ret:
            return ret.value
        return UNDEFINED


class CompiledProgram:
    """Top-level hoist ops + statement closures for one script."""

    __slots__ = ("hoist", "body", "node_count", "nbytes")

    def __init__(self, hoist: List[Callable], body: List[Callable], node_count: int) -> None:
        self.hoist = hoist
        self.body = body
        self.node_count = node_count
        self.nbytes = node_count * _NODE_BYTES + 256


# --- static scopes -----------------------------------------------------------------


class _Scope:
    """Compile-time mirror of one runtime ``Environment``."""

    __slots__ = ("parent", "slots")

    def __init__(self, parent: Optional["_Scope"]) -> None:
        self.parent = parent
        self.slots: Dict[str, int] = {}

    def add(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.slots) + 1  # slot 0 is the parent link
            self.slots[name] = slot
        return slot


def _resolve(scope: Optional[_Scope], name: str) -> Tuple[Tuple[int, int], ...]:
    """All frame slots ``name`` could bind to, as (hops, slot), innermost first."""
    out: List[Tuple[int, int]] = []
    hops = 0
    while scope is not None:
        slot = scope.slots.get(name)
        if slot is not None:
            out.append((hops, slot))
        scope = scope.parent
        hops += 1
    return tuple(out)


def _frame_at(f: list, hops: int) -> list:
    while hops:
        f = f[0]
        hops -= 1
    return f


def _direct_decls(stmts: List[N.Node]) -> List[str]:
    """Names declared directly into the scope executing ``stmts``.

    Mirrors the tree-walker: ``if``/``while``/``do-while`` bodies execute in
    the *same* environment, so declarations inside them land here; blocks,
    loops with headers, ``switch``, ``try`` parts and function bodies make
    their own environments and are not descended into.
    """
    names: List[str] = []

    def visit(st: N.Node) -> None:
        t = type(st)
        if t is N.VariableDeclaration:
            for d in st.declarations:
                names.append(d.name)
        elif t is N.FunctionDeclaration:
            names.append(st.name)
        elif t is N.IfStatement:
            visit(st.consequent)
            if st.alternate is not None:
                visit(st.alternate)
        elif t is N.WhileStatement or t is N.DoWhileStatement:
            visit(st.body)

    for st in stmts:
        visit(st)
    return names


# --- constant folding --------------------------------------------------------------

_FOLD_UNARY = ("!", "-", "+", "~")
_FOLD_BINARY = frozenset(
    ("+", "-", "*", "/", "%", "==", "!=", "===", "!==", "<", ">", "<=", ">=", "&", "|", "^", "<<", ">>", ">>>")
)


def _apply_binary_const(op: str, left: Any, right: Any) -> Any:
    """Binary-operator semantics on constants (mirrors ``_eval_BinaryOp``)."""
    if op == "+":
        if isinstance(left, str) or isinstance(right, str) or isinstance(left, JSObject) or isinstance(right, JSObject):
            return js_to_string(left) + js_to_string(right)
        return js_to_number(left) + js_to_number(right)
    if op == "-":
        return js_to_number(left) - js_to_number(right)
    if op == "*":
        return js_to_number(left) * js_to_number(right)
    if op == "/":
        return ops.js_div(left, right)
    if op == "%":
        return ops.js_mod(left, right)
    if op == "==":
        return js_equals_loose(left, right)
    if op == "!=":
        return not js_equals_loose(left, right)
    if op == "===":
        return js_equals_strict(left, right)
    if op == "!==":
        return not js_equals_strict(left, right)
    if op in ("<", ">", "<=", ">="):
        return ops.compare(left, right, op)
    if op == "&":
        return float(ops.to_int32(js_to_number(left)) & ops.to_int32(js_to_number(right)))
    if op == "|":
        return float(ops.to_int32(js_to_number(left)) | ops.to_int32(js_to_number(right)))
    if op == "^":
        return float(ops.to_int32(js_to_number(left)) ^ ops.to_int32(js_to_number(right)))
    if op == "<<":
        return float(ops.wrap_int32(ops.to_int32(js_to_number(left)) << (ops.to_uint32(js_to_number(right)) & 31)))
    if op == ">>":
        return float(ops.to_int32(js_to_number(left)) >> (ops.to_uint32(js_to_number(right)) & 31))
    return float(ops.to_uint32(js_to_number(left)) >> (ops.to_uint32(js_to_number(right)) & 31))


def _fold(node: N.Node) -> Optional[Tuple[Any, int]]:
    """Return ``(value, step_cost)`` for a literal-constant subtree, else None.

    Folding is restricted to subtrees whose nodes share one source line so a
    step-budget exhaustion raised by the folded closure (which charges the
    whole subtree's cost at once) names the same line the tree-walker would.
    """
    t = type(node)
    if t is N.NumberLiteral or t is N.StringLiteral or t is N.BooleanLiteral:
        return (node.value, 1)
    if t is N.NullLiteral:
        return (NULL, 1)
    if t is N.UndefinedLiteral:
        return (UNDEFINED, 1)
    if t is N.UnaryOp and node.op in _FOLD_UNARY:
        if node.operand.line != node.line:
            return None
        sub = _fold(node.operand)
        if sub is None:
            return None
        value, cost = sub
        op = node.op
        if op == "!":
            return (not js_truthy(value), cost + 1)
        if op == "-":
            return (-js_to_number(value), cost + 1)
        if op == "+":
            return (js_to_number(value), cost + 1)
        return (float(~ops.to_int32(js_to_number(value))), cost + 1)
    if t is N.BinaryOp and node.op in _FOLD_BINARY:
        if node.left.line != node.line or node.right.line != node.line:
            return None
        left = _fold(node.left)
        if left is None:
            return None
        right = _fold(node.right)
        if right is None:
            return None
        return (_apply_binary_const(node.op, left[0], right[0]), left[1] + right[1] + 1)
    return None


# --- shared runtime helpers --------------------------------------------------------


def _invoke(rt: Runtime, fn: Any, this: Any, args: List[Any], line: int, col: int) -> Any:
    tfn = type(fn)
    if tfn is NativeFunction:
        return fn.fn(rt.interp, this, args)
    if tfn is CompiledFunction:
        return fn.invoke(rt, this, args)
    if isinstance(fn, NativeFunction):
        return fn.fn(rt.interp, this, args)
    if isinstance(fn, CompiledFunction):
        return fn.invoke(rt, this, args)
    raise JSRuntimeError(f"{js_to_string(fn)} is not a function", line, rt.interp.current_script, col)


def _member_set(rt: Runtime, obj: Any, name: str, value: Any, line: int, col: int) -> None:
    if isinstance(obj, JSObject):
        obj.set(name, value)
        return
    raise JSRuntimeError(
        f"cannot set property {name!r} on {js_type_of(obj)}", line, rt.interp.current_script, col
    )


def _make_member_getter(line: int, col: int):
    """A per-site property getter with a monomorphic (shape, name) cache.

    Fast paths cover exactly the cases whose semantics are closed-form:
    plain ``JSObject`` data lookups, array index/length, string
    index/length.  Everything else (host objects, primitive methods,
    functions) defers to ``Interpreter.get_member`` so behaviour — including
    fresh method-wrapper identity — is byte-compatible with the tree-walker.
    """
    cache: list = [None, None, False]

    def get(rt: Runtime, obj: Any, name: str) -> Any:
        tobj = type(obj)
        if tobj is JSObject:
            if cache[0] is obj.shape and cache[1] == name:
                rt.ic_hits += 1
                return obj.properties[name] if cache[2] else UNDEFINED
            rt.ic_misses += 1
            cache[0] = obj.shape
            cache[1] = name
            present = name in obj.properties
            cache[2] = present
            return obj.properties[name] if present else UNDEFINED
        if tobj is JSArray:
            if name == "length" or name.isdigit():
                return obj.get(name)
        elif tobj is str:
            if name == "length":
                return float(len(obj))
            if name.isdigit():
                idx = int(name)
                return obj[idx] if idx < len(obj) else UNDEFINED
        return rt.interp.get_member(obj, name, line, col)

    return get


# --- the compiler ------------------------------------------------------------------


class _Compiler:
    def __init__(self) -> None:
        self.node_count = 0
        self._templates: Dict[int, _FnTemplate] = {}

    # -- identifier access ---------------------------------------------------------

    def _read_ident(self, name: str, scope: Optional[_Scope], line: int, col: int, ticked: bool = True):
        """Closure evaluating an identifier (raises ReferenceError-alike)."""
        cands = _resolve(scope, name)
        self.node_count += 1

        def missing(rt: Runtime):
            raise JSRuntimeError(f"{name} is not defined", line, rt.interp.current_script, col) from None

        if not cands:
            if ticked:
                def read(rt, f):
                    rt.steps = s = rt.steps + 1
                    if s > rt.budget:
                        raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                    try:
                        return rt.gvars[name]
                    except KeyError:
                        return missing(rt)
            else:
                def read(rt, f):
                    try:
                        return rt.gvars[name]
                    except KeyError:
                        return missing(rt)
            return read

        if len(cands) == 1 and cands[0][0] == 0:
            slot = cands[0][1]
            if ticked:
                def read(rt, f):
                    rt.steps = s = rt.steps + 1
                    if s > rt.budget:
                        raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                    v = f[slot]
                    if v is not _HOLE:
                        return v
                    v = rt.gvars.get(name, _HOLE)
                    if v is not _HOLE:
                        return v
                    return missing(rt)
            else:
                def read(rt, f):
                    v = f[slot]
                    if v is not _HOLE:
                        return v
                    v = rt.gvars.get(name, _HOLE)
                    if v is not _HOLE:
                        return v
                    return missing(rt)
            return read

        def read(rt, f):
            if ticked:
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            for hops, slot in cands:
                v = _frame_at(f, hops)[slot]
                if v is not _HOLE:
                    return v
            v = rt.gvars.get(name, _HOLE)
            if v is not _HOLE:
                return v
            return missing(rt)

        return read

    def _write_ident(self, name: str, scope: Optional[_Scope]):
        """Closure implementing ``Environment.assign`` + implicit-global fallback."""
        cands = _resolve(scope, name)

        if not cands:
            def write(rt, f, value):
                rt.gvars[name] = value
            return write

        if len(cands) == 1 and cands[0][0] == 0:
            slot = cands[0][1]

            def write(rt, f, value):
                if f[slot] is not _HOLE:
                    f[slot] = value
                else:
                    rt.gvars[name] = value
            return write

        def write(rt, f, value):
            for hops, slot in cands:
                fr = _frame_at(f, hops)
                if fr[slot] is not _HOLE:
                    fr[slot] = value
                    return
            rt.gvars[name] = value

        return write

    def _has_ident(self, name: str, scope: Optional[_Scope]):
        """Closure implementing ``Environment.has`` over frames + globals."""
        cands = _resolve(scope, name)

        if not cands:
            def has(rt, f):
                return name in rt.gvars
            return has

        def has(rt, f):
            for hops, slot in cands:
                if _frame_at(f, hops)[slot] is not _HOLE:
                    return True
            return name in rt.gvars

        return has

    def _declare(self, name: str, scope: Optional[_Scope]):
        """Closure implementing ``Environment.declare`` in the current scope."""
        if scope is None:
            def store(rt, f, value):
                rt.gvars[name] = value
            return store
        slot = scope.slots[name]

        def store(rt, f, value):
            f[slot] = value
        return store

    def _this_getter(self, scope: Optional[_Scope]):
        """Un-ticked ``this`` resolution (lookup with UNDEFINED fallback)."""
        cands = _resolve(scope, "this")

        def getter(rt, f):
            for hops, slot in cands:
                v = _frame_at(f, hops)[slot]
                if v is not _HOLE:
                    return v
            return rt.gvars.get("this", UNDEFINED)

        return getter

    # -- hoisting ------------------------------------------------------------------

    def _fn_template_for(self, node, scope: Optional[_Scope]) -> _FnTemplate:
        template = self._templates.get(id(node))
        if template is None:
            template = self._function_template(node.params, node.body, node.name, False, scope)
            self._templates[id(node)] = template
        return template

    def _hoist_ops(self, body: List[N.Node], scope: Optional[_Scope]) -> List[Callable]:
        """Compile the hoisting pass (function declarations + ``var`` names)."""
        hoist: List[Callable] = []
        for stmt in body:
            if isinstance(stmt, N.FunctionDeclaration):
                template = self._fn_template_for(stmt, scope)
                if scope is None:
                    def op(rt, f, template=template, name=stmt.name):
                        rt.gvars[name] = CompiledFunction(template, None)
                else:
                    slot = scope.slots[stmt.name]

                    def op(rt, f, template=template, slot=slot):
                        f[slot] = CompiledFunction(template, f)
                hoist.append(op)
            elif isinstance(stmt, N.VariableDeclaration) and stmt.kind == "var":
                for d in stmt.declarations:
                    if scope is None:
                        def op(rt, f, name=d.name):
                            if name not in rt.gvars:
                                rt.gvars[name] = UNDEFINED
                    else:
                        has = self._has_ident(d.name, scope)
                        slot = scope.slots[d.name]

                        def op(rt, f, has=has, slot=slot):
                            if not has(rt, f):
                                f[slot] = UNDEFINED
                    hoist.append(op)
        return hoist

    # -- functions -----------------------------------------------------------------

    def _function_template(
        self,
        params: List[str],
        body: N.Block,
        name: Optional[str],
        is_arrow: bool,
        defn_scope: Optional[_Scope],
    ) -> _FnTemplate:
        fscope = _Scope(defn_scope)
        t = _FnTemplate()
        t.name = name or ""
        t.params = list(params)
        t.is_arrow = is_arrow
        t.this_slot = fscope.add("this")
        t.param_slots = [fscope.add(p) for p in params]
        t.arguments_slot = fscope.add("arguments")
        for nm in _direct_decls(body.body):
            fscope.add(nm)
        t.hoist = self._hoist_ops(body.body, fscope)
        t.body = [self._stmt(st, fscope) for st in body.body]
        t.nslots = len(fscope.slots)
        return t

    # -- statements ----------------------------------------------------------------

    def _stmt(self, node: N.Node, scope: Optional[_Scope]) -> Callable:
        self.node_count += 1
        method = getattr(self, "_stmt_" + type(node).__name__, None)
        if method is not None:
            return method(node, scope)
        line, col = node.line, node.col
        kind = type(node).__name__

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise JSRuntimeError(f"cannot execute {kind}", line, rt.interp.current_script, col)
        return st

    def _tick_only(self, line: int, col: int, result: Callable) -> Callable:
        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            return result(rt, f)
        return st

    def _stmt_EmptyStatement(self, node, scope):
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            return UNDEFINED
        return st

    def _stmt_ExpressionStatement(self, node, scope):
        expr = self._expr(node.expression, scope)
        return self._tick_only(node.line, node.col, expr)

    def _stmt_VariableDeclaration(self, node, scope):
        decls = []
        for d in node.declarations:
            init_c = self._expr(d.init, scope) if d.init is not None else None
            decls.append((init_c, self._declare(d.name, scope)))
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            for init_c, store in decls:
                store(rt, f, init_c(rt, f) if init_c is not None else UNDEFINED)
            return UNDEFINED
        return st

    def _stmt_FunctionDeclaration(self, node, scope):
        template = self._fn_template_for(node, scope)
        line, col = node.line, node.col
        if scope is None:
            name = node.name

            def st(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                rt.gvars[name] = CompiledFunction(template, None)
                return UNDEFINED
            return st
        slot = scope.slots[node.name]

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            f[slot] = CompiledFunction(template, f)
            return UNDEFINED
        return st

    def _stmt_ReturnStatement(self, node, scope):
        arg_c = self._expr(node.argument, scope) if node.argument is not None else None
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise _Return(arg_c(rt, f) if arg_c is not None else UNDEFINED)
        return st

    def _stmt_IfStatement(self, node, scope):
        test_c = self._expr(node.test, scope)
        cons_c = self._stmt(node.consequent, scope)
        alt_c = self._stmt(node.alternate, scope) if node.alternate is not None else None
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            if js_truthy(test_c(rt, f)):
                return cons_c(rt, f)
            if alt_c is not None:
                return alt_c(rt, f)
            return UNDEFINED
        return st

    def _stmt_Block(self, node, scope):
        return self._compile_block(node, scope, ticked=True)

    def _compile_block(self, node: N.Block, scope: Optional[_Scope], ticked: bool) -> Callable:
        inner = _Scope(scope)
        for nm in _direct_decls(node.body):
            inner.add(nm)
        hoist = self._hoist_ops(node.body, inner)
        stmts = [self._stmt(st, inner) for st in node.body]
        nslots = len(inner.slots)
        line, col = node.line, node.col

        def block(rt, f):
            if ticked:
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            nf = [f] + [_HOLE] * nslots
            for op in hoist:
                op(rt, nf)
            result = UNDEFINED
            for st in stmts:
                result = st(rt, nf)
            return result
        return block

    def _stmt_ForStatement(self, node, scope):
        lscope = _Scope(scope)
        if isinstance(node.init, N.VariableDeclaration):
            for d in node.init.declarations:
                lscope.add(d.name)
        for nm in _direct_decls([node.body]):
            lscope.add(nm)
        init_c = self._stmt(node.init, lscope) if node.init is not None else None
        # The body may add slots via nested compile order, so compile all
        # statements before reading nslots.
        test_c = self._expr(node.test, lscope) if node.test is not None else None
        update_c = self._expr(node.update, lscope) if node.update is not None else None
        body_c = self._stmt(node.body, lscope)
        nslots = len(lscope.slots)
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            lf = [f] + [_HOLE] * nslots
            if init_c is not None:
                init_c(rt, lf)
            while test_c is None or js_truthy(test_c(rt, lf)):
                try:
                    body_c(rt, lf)
                except _Break:
                    break
                except _Continue:
                    pass
                if update_c is not None:
                    update_c(rt, lf)
            return UNDEFINED
        return st

    def _stmt_ForOfStatement(self, node, scope):
        lscope = _Scope(scope)
        name_slot = lscope.add(node.name)
        for nm in _direct_decls([node.body]):
            lscope.add(nm)
        iter_c = self._expr(node.iterable, scope)
        body_c = self._stmt(node.body, lscope)
        nslots = len(lscope.slots)
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            iterable = iter_c(rt, f)
            if isinstance(iterable, JSArray):
                items = list(iterable.elements)
            elif isinstance(iterable, str):
                items = list(iterable)
            else:
                raise JSRuntimeError("value is not iterable", line, rt.interp.current_script, col)
            for item in items:
                lf = [f] + [_HOLE] * nslots
                lf[name_slot] = item
                try:
                    body_c(rt, lf)
                except _Break:
                    break
                except _Continue:
                    continue
            return UNDEFINED
        return st

    def _stmt_WhileStatement(self, node, scope):
        test_c = self._expr(node.test, scope)
        body_c = self._stmt(node.body, scope)
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            while js_truthy(test_c(rt, f)):
                try:
                    body_c(rt, f)
                except _Break:
                    break
                except _Continue:
                    continue
            return UNDEFINED
        return st

    def _stmt_DoWhileStatement(self, node, scope):
        test_c = self._expr(node.test, scope)
        body_c = self._stmt(node.body, scope)
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            while True:
                try:
                    body_c(rt, f)
                except _Break:
                    break
                except _Continue:
                    pass
                if not js_truthy(test_c(rt, f)):
                    break
            return UNDEFINED
        return st

    def _stmt_BreakStatement(self, node, scope):
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise _Break()
        return st

    def _stmt_ContinueStatement(self, node, scope):
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise _Continue()
        return st

    def _stmt_ThrowStatement(self, node, scope):
        arg_c = self._expr(node.argument, scope)
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise JSThrow(arg_c(rt, f), line, col)
        return st

    def _stmt_SwitchStatement(self, node, scope):
        sscope = _Scope(scope)
        for case in node.cases:
            for nm in _direct_decls(case.body):
                sscope.add(nm)
        disc_c = self._expr(node.discriminant, scope)
        cases = []
        for case in node.cases:
            test_c = self._expr(case.test, sscope) if case.test is not None else None
            cases.append((test_c, [self._stmt(st, sscope) for st in case.body]))
        nslots = len(sscope.slots)
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            value = disc_c(rt, f)
            sf = [f] + [_HOLE] * nslots
            matched = False
            try:
                for test_c, body in cases:
                    if not matched and test_c is not None:
                        if js_equals_strict(value, test_c(rt, sf)):
                            matched = True
                    if matched:
                        for s2 in body:
                            s2(rt, sf)
                if not matched:
                    run = False
                    for test_c, body in cases:
                        if test_c is None:
                            run = True
                        if run:
                            for s2 in body:
                                s2(rt, sf)
            except _Break:
                pass
            return UNDEFINED
        return st

    def _stmt_TryStatement(self, node, scope):
        # The tree-walker calls _exec_Block directly on the try/catch/finally
        # blocks, so those Block nodes are never ticked — mirror that.
        block_c = self._compile_block(node.block, scope, ticked=False)
        handler_c = None
        param_slot = None
        h_nslots = 0
        if node.handler is not None:
            hscope = _Scope(scope)
            if node.param:
                param_slot = hscope.add(node.param)
            handler_c = self._compile_block(node.handler, hscope, ticked=False)
            h_nslots = len(hscope.slots)
        finalizer_c = self._compile_block(node.finalizer, scope, ticked=False) if node.finalizer is not None else None
        line, col = node.line, node.col

        def st(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            try:
                block_c(rt, f)
            except JSThrow as exc:
                if handler_c is not None:
                    hf = [f] + [_HOLE] * h_nslots
                    if param_slot is not None:
                        hf[param_slot] = exc.value
                    handler_c(rt, hf)
                else:
                    raise
            finally:
                if finalizer_c is not None:
                    finalizer_c(rt, f)
            return UNDEFINED
        return st

    # -- expressions ---------------------------------------------------------------

    def _expr(self, node: N.Node, scope: Optional[_Scope]) -> Callable:
        self.node_count += 1
        folded = _fold(node)
        if folded is not None:
            value, cost = folded
            line, col = node.line, node.col

            def const(rt, f):
                rt.steps = s = rt.steps + cost
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return value
            return const
        method = getattr(self, "_expr_" + type(node).__name__, None)
        if method is not None:
            return method(node, scope)
        line, col = node.line, node.col
        kind = type(node).__name__

        def bad(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise JSRuntimeError(f"cannot evaluate {kind}", line, rt.interp.current_script, col)
        return bad

    def _expr_Identifier(self, node, scope):
        return self._read_ident(node.name, scope, node.line, node.col)

    def _expr_ThisExpression(self, node, scope):
        getter = self._this_getter(scope)
        return self._tick_only(node.line, node.col, getter)

    def _expr_ArrayLiteral(self, node, scope):
        elem_cs = [self._expr(e, scope) for e in node.elements]
        line, col = node.line, node.col

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            return JSArray([c(rt, f) for c in elem_cs])
        return e

    def _expr_ObjectLiteral(self, node, scope):
        prop_cs = [(key, self._expr(value, scope)) for key, value in node.properties]
        line, col = node.line, node.col

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            obj = JSObject()
            for key, vc in prop_cs:
                obj.set(key, vc(rt, f))
            return obj
        return e

    def _expr_FunctionExpression(self, node, scope):
        line, col = node.line, node.col
        if node.is_arrow:
            this_get = self._this_getter(scope)
            template = self._function_template(node.params, node.body, node.name, True, scope)

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return CompiledFunction(template, f, lexical_this=this_get(rt, f))
            return e
        if node.name:
            # Named function expressions see themselves through a one-slot
            # wrapper scope (mirrors the tree-walker's fn_env).
            wscope = _Scope(scope)
            wslot = wscope.add(node.name)
            template = self._function_template(node.params, node.body, node.name, False, wscope)

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                wrap = [f, _HOLE]
                fn = CompiledFunction(template, wrap)
                wrap[wslot] = fn
                return fn
            return e
        template = self._function_template(node.params, node.body, None, False, scope)

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            return CompiledFunction(template, f)
        return e

    def _prop_parts(self, node: N.MemberExpression, scope):
        """(name_closure, is_constant_name) for a member expression's property."""
        if node.computed:
            prop_c = self._expr(node.prop, scope)

            def name_of(rt, f):
                return js_to_string(prop_c(rt, f))
            return name_of, None
        name = node.prop

        def name_of(rt, f):
            return name
        return name_of, name

    def _expr_MemberExpression(self, node, scope):
        obj_c = self._expr(node.obj, scope)
        line, col = node.line, node.col
        if not node.computed:
            name = node.prop
            cache: list = [None, False]

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                obj = obj_c(rt, f)
                tobj = type(obj)
                if tobj is JSObject:
                    if cache[0] is obj.shape:
                        rt.ic_hits += 1
                        return obj.properties[name] if cache[1] else UNDEFINED
                    rt.ic_misses += 1
                    cache[0] = obj.shape
                    present = name in obj.properties
                    cache[1] = present
                    return obj.properties[name] if present else UNDEFINED
                if tobj is JSArray:
                    if name == "length":
                        return float(len(obj.elements))
                elif tobj is str:
                    if name == "length":
                        return float(len(obj))
                return rt.interp.get_member(obj, name, line, col)
            return e
        prop_c = self._expr(node.prop, scope)
        getter = _make_member_getter(line, col)

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            obj = obj_c(rt, f)
            return getter(rt, obj, js_to_string(prop_c(rt, f)))
        return e

    def _expr_CallExpression(self, node, scope):
        arg_cs = [self._expr(a, scope) for a in node.args]
        line, col = node.line, node.col
        if isinstance(node.callee, N.MemberExpression):
            callee = node.callee
            obj_c = self._expr(callee.obj, scope)
            name_of, const_name = self._prop_parts(callee, scope)
            getter = _make_member_getter(line, col)

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                this = obj_c(rt, f)
                fn = getter(rt, this, name_of(rt, f))
                args = [a(rt, f) for a in arg_cs]
                return _invoke(rt, fn, this, args, line, col)
            return e
        callee_c = self._expr(node.callee, scope)

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            fn = callee_c(rt, f)
            args = [a(rt, f) for a in arg_cs]
            return _invoke(rt, fn, UNDEFINED, args, line, col)
        return e

    def _expr_NewExpression(self, node, scope):
        callee_c = self._expr(node.callee, scope)
        arg_cs = [self._expr(a, scope) for a in node.args]
        line, col = node.line, node.col

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            fn = callee_c(rt, f)
            args = [a(rt, f) for a in arg_cs]
            if isinstance(fn, NativeFunction):
                return fn.fn(rt.interp, UNDEFINED, args)
            if isinstance(fn, CompiledFunction):
                this = JSObject()
                result = fn.invoke(rt, this, args)
                return result if isinstance(result, JSObject) else this
            raise JSRuntimeError("not a constructor", line, rt.interp.current_script, col)
        return e

    def _expr_UnaryOp(self, node, scope):
        line, col = node.line, node.col
        op = node.op
        if op == "typeof":
            if isinstance(node.operand, N.Identifier):
                has = self._has_ident(node.operand.name, scope)
                operand_c = self._expr(node.operand, scope)

                def e(rt, f):
                    rt.steps = s = rt.steps + 1
                    if s > rt.budget:
                        raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                    if not has(rt, f):
                        return "undefined"
                    return js_type_of(operand_c(rt, f))
                return e
            operand_c = self._expr(node.operand, scope)

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return js_type_of(operand_c(rt, f))
            return e
        if op == "delete":
            if isinstance(node.operand, N.MemberExpression):
                obj_c = self._expr(node.operand.obj, scope)
                name_of, _ = self._prop_parts(node.operand, scope)

                def e(rt, f):
                    rt.steps = s = rt.steps + 1
                    if s > rt.budget:
                        raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                    obj = obj_c(rt, f)
                    name = name_of(rt, f)
                    if isinstance(obj, JSObject):
                        return obj.delete(name)
                    return True
                return e

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return True
            return e
        operand_c = self._expr(node.operand, scope)
        if op == "!":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return not js_truthy(operand_c(rt, f))
            return e
        if op == "-":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return -js_to_number(operand_c(rt, f))
            return e
        if op == "+":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return js_to_number(operand_c(rt, f))
            return e
        if op == "~":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return float(~ops.to_int32(js_to_number(operand_c(rt, f))))
            return e

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            operand_c(rt, f)
            raise JSRuntimeError(f"unknown unary operator {op}", line, rt.interp.current_script, col)
        return e

    def _expr_UpdateExpression(self, node, scope):
        line, col = node.line, node.col
        delta = 1.0 if node.op == "++" else -1.0
        prefix = node.prefix
        target = node.target
        if isinstance(target, N.Identifier):
            read_nt = self._read_ident(target.name, scope, target.line, target.col, ticked=False)
            write = self._write_ident(target.name, scope)

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                old = js_to_number(read_nt(rt, f))
                new = old + delta
                write(rt, f, new)
                return new if prefix else old
            return e
        if isinstance(target, N.MemberExpression):
            obj_c = self._expr(target.obj, scope)
            name_of, _ = self._prop_parts(target, scope)
            getter = _make_member_getter(target.line, target.col)
            tline, tcol = target.line, target.col

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                # The tree-walker evaluates the object (and a computed
                # property) once for the read and again for the write —
                # side effects and step charges both happen twice.
                old = js_to_number(getter(rt, obj_c(rt, f), name_of(rt, f)))
                new = old + delta
                _member_set(rt, obj_c(rt, f), name_of(rt, f), new, tline, tcol)
                return new if prefix else old
            return e

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            raise JSRuntimeError("invalid reference", target.line, rt.interp.current_script, target.col)
        return e

    def _expr_BinaryOp(self, node, scope):
        lc = self._expr(node.left, scope)
        rc = self._expr(node.right, scope)
        line, col = node.line, node.col
        op = node.op
        if op == "+":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                tl = type(left)
                tr = type(right)
                if tl is float and tr is float:
                    return left + right
                if tl is str and tr is str:
                    return left + right
                if isinstance(left, str) or isinstance(right, str) or isinstance(left, JSObject) or isinstance(right, JSObject):
                    return js_to_string(left) + js_to_string(right)
                return js_to_number(left) + js_to_number(right)
            return e
        if op == "-":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if type(left) is float and type(right) is float:
                    return left - right
                return js_to_number(left) - js_to_number(right)
            return e
        if op == "*":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if type(left) is float and type(right) is float:
                    return left * right
                return js_to_number(left) * js_to_number(right)
            return e
        if op == "/":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if type(left) is float and type(right) is float and right != 0:
                    return left / right
                return ops.js_div(left, right)
            return e
        if op == "%":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return ops.js_mod(lc(rt, f), rc(rt, f))
            return e
        if op == "==":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return js_equals_loose(lc(rt, f), rc(rt, f))
            return e
        if op == "!=":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return not js_equals_loose(lc(rt, f), rc(rt, f))
            return e
        if op == "===":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if type(left) is float and type(right) is float:
                    return left == right
                return js_equals_strict(left, right)
            return e
        if op == "!==":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if type(left) is float and type(right) is float:
                    return left != right
                return not js_equals_strict(left, right)
            return e
        if op in ("<", ">", "<=", ">="):
            def e(rt, f, op=op):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if type(left) is float and type(right) is float:
                    if op == "<":
                        return left < right
                    if op == ">":
                        return left > right
                    if op == "<=":
                        return left <= right
                    return left >= right
                return ops.compare(left, right, op)
            return e
        if op in ("&", "|", "^"):
            def e(rt, f, op=op):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                a = ops.to_int32(js_to_number(lc(rt, f)))
                b = ops.to_int32(js_to_number(rc(rt, f)))
                if op == "&":
                    return float(a & b)
                if op == "|":
                    return float(a | b)
                return float(a ^ b)
            return e
        if op == "<<":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return float(
                    ops.wrap_int32(ops.to_int32(js_to_number(lc(rt, f))) << (ops.to_uint32(js_to_number(rc(rt, f))) & 31))
                )
            return e
        if op == ">>":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return float(ops.to_int32(js_to_number(lc(rt, f))) >> (ops.to_uint32(js_to_number(rc(rt, f))) & 31))
            return e
        if op == ">>>":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                return float(ops.to_uint32(js_to_number(lc(rt, f))) >> (ops.to_uint32(js_to_number(rc(rt, f))) & 31))
            return e
        if op == "in":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                right = rc(rt, f)
                if isinstance(right, JSObject):
                    name = js_to_string(left)
                    if isinstance(right, JSArray):
                        idx = name if not name.isdigit() else int(name)
                        if isinstance(idx, int):
                            return 0 <= idx < len(right.elements)
                    return right.has(name)
                raise JSRuntimeError("'in' on non-object", line, rt.interp.current_script, col)
            return e
        if op == "instanceof":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                rc(rt, f)
                return isinstance(left, JSObject)  # approximation; subset has no prototypes
            return e

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            lc(rt, f)
            rc(rt, f)
            raise JSRuntimeError(f"unknown binary operator {op}", line, rt.interp.current_script, col)
        return e

    def _expr_LogicalOp(self, node, scope):
        lc = self._expr(node.left, scope)
        rc = self._expr(node.right, scope)
        line, col = node.line, node.col
        if node.op == "&&":
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                left = lc(rt, f)
                return rc(rt, f) if js_truthy(left) else left
            return e

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            left = lc(rt, f)
            return left if js_truthy(left) else rc(rt, f)
        return e

    def _expr_ConditionalExpression(self, node, scope):
        test_c = self._expr(node.test, scope)
        cons_c = self._expr(node.consequent, scope)
        alt_c = self._expr(node.alternate, scope)
        line, col = node.line, node.col

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            if js_truthy(test_c(rt, f)):
                return cons_c(rt, f)
            return alt_c(rt, f)
        return e

    def _expr_AssignmentExpression(self, node, scope):
        line, col = node.line, node.col
        target = node.target
        value_c = self._expr(node.value, scope)
        if node.op == "=":
            if isinstance(target, N.Identifier):
                write = self._write_ident(target.name, scope)

                def e(rt, f):
                    rt.steps = s = rt.steps + 1
                    if s > rt.budget:
                        raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                    value = value_c(rt, f)
                    write(rt, f, value)
                    return value
                return e
            if not isinstance(target, N.MemberExpression):
                # Mirrors _assign_reference: the value still evaluates first.
                def e(rt, f):
                    rt.steps = s = rt.steps + 1
                    if s > rt.budget:
                        raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                    value_c(rt, f)
                    raise JSRuntimeError(
                        "invalid assignment target", target.line, rt.interp.current_script, target.col
                    )
                return e
            obj_c = self._expr(target.obj, scope)
            name_of, _ = self._prop_parts(target, scope)
            tline, tcol = target.line, target.col

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                value = value_c(rt, f)
                _member_set(rt, obj_c(rt, f), name_of(rt, f), value, tline, tcol)
                return value
            return e
        binop = node.op[:-1]
        compound = ops.COMPOUND_OPS.get(binop)
        if not isinstance(target, (N.Identifier, N.MemberExpression)):
            # Mirrors _eval_reference: raises before the operand evaluates.
            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                raise JSRuntimeError("invalid reference", target.line, rt.interp.current_script, target.col)
            return e
        if isinstance(target, N.Identifier):
            read_nt = self._read_ident(target.name, scope, target.line, target.col, ticked=False)
            write = self._write_ident(target.name, scope)

            def e(rt, f):
                rt.steps = s = rt.steps + 1
                if s > rt.budget:
                    raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
                current = read_nt(rt, f)
                operand = value_c(rt, f)
                if compound is None:
                    raise JSRuntimeError(
                        f"unsupported compound op {binop}=", line, rt.interp.current_script, col
                    )
                value = compound(current, operand)
                write(rt, f, value)
                return value
            return e
        obj_c = self._expr(target.obj, scope)
        name_of, _ = self._prop_parts(target, scope)
        getter = _make_member_getter(target.line, target.col)
        tline, tcol = target.line, target.col

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            # Object and computed property evaluate twice (read + write),
            # matching the tree-walker's _eval_reference/_assign_reference.
            current = getter(rt, obj_c(rt, f), name_of(rt, f))
            operand = value_c(rt, f)
            if compound is None:
                raise JSRuntimeError(f"unsupported compound op {binop}=", line, rt.interp.current_script, col)
            value = compound(current, operand)
            _member_set(rt, obj_c(rt, f), name_of(rt, f), value, tline, tcol)
            return value
        return e

    def _expr_SequenceExpression(self, node, scope):
        expr_cs = [self._expr(e, scope) for e in node.expressions]
        line, col = node.line, node.col

        def e(rt, f):
            rt.steps = s = rt.steps + 1
            if s > rt.budget:
                raise JSRuntimeError("step budget exceeded", line, rt.interp.current_script, col)
            result = UNDEFINED
            for c in expr_cs:
                result = c(rt, f)
            return result
        return e


# --- program compilation and the shared cache --------------------------------------


def compile_program(program: N.Program) -> CompiledProgram:
    """Lower a parsed program into closures executing in the global scope."""
    c = _Compiler()
    hoist = c._hoist_ops(program.body, None)
    body = [c._stmt(st, None) for st in program.body]
    return CompiledProgram(hoist, body, c.node_count)


#: Compiled programs shared across every page load in the process, keyed by
#: (sha256(source), ENGINE_VERSION).  The script URL is deliberately not in
#: the key: attribution is dynamic (``Interpreter.current_script``), so one
#: vendor script served under many URLs compiles once.
_SCRIPT_CACHE = perf.ByteBudgetLRU("js.cache", 64 * perf.MB)


def script_cache() -> perf.ByteBudgetLRU:
    return _SCRIPT_CACHE


def _count_compile(seconds: float) -> None:
    obs.METRICS.inc("perf.misses[js.compile]")
    obs.METRICS.inc("perf.miss_seconds[js.compile]", seconds)


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8", "surrogatepass")).hexdigest()


def get_or_compile(source: str, script_url: str = "<inline>") -> CompiledProgram:
    """Fetch the compiled form of ``source`` from the shared cache, compiling on miss."""
    key = (_source_digest(source), ENGINE_VERSION)
    compiled = _SCRIPT_CACHE.get(key)
    if compiled is not None:
        return compiled
    started = time.perf_counter()
    compiled = compile_program(parse(source, script_url))
    elapsed = time.perf_counter() - started
    _count_compile(elapsed)
    _SCRIPT_CACHE.put(key, compiled, compiled.nbytes, elapsed)
    return compiled


def run_compiled(interp, compiled: CompiledProgram, script_url: str = "<inline>") -> Any:
    """Execute a compiled program against ``interp``'s global namespace.

    Resets the step counter, maintains the script-attribution stack, and
    converts an uncaught ``JSThrow`` into the ``JSRuntimeError`` the
    reference's ``run_program`` raises.
    """
    rt = interp._rt
    rt.budget = interp.step_budget
    rt.steps = 0
    interp._script_stack.append(script_url)
    try:
        for op in compiled.hoist:
            op(rt, None)
        result: Any = UNDEFINED
        for st in compiled.body:
            result = st(rt, None)
        return result
    except JSThrow as exc:
        raise JSRuntimeError(
            f"uncaught exception: {js_to_string(exc.value)}", exc.line, script_url, exc.col
        ) from exc
    finally:
        interp._script_stack.pop()
        _flush_ic(rt)
