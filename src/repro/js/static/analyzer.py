"""Abstract interpretation of one script: canvas reachability, def-use
driven taint, effect sets, and termination facts.

One forward pass per function body over the CFG's *live* statements (dead
code contributes nothing), with a small abstract-value lattice:

* allocation-site tracking for canvases (``document.createElement('canvas')``)
  and their 2d contexts, so per-canvas facts — literal dimensions, text vs
  geometry draws, ``save``/``restore`` animation markers — attach to the
  right object even through local aliases;
* taint from canvas readouts (``toDataURL`` / ``getImageData``) propagated
  through expressions, local bindings and interprocedural returns (function
  summaries are computed on demand in the environment captured at the
  definition site, memoized per function node);
* effect sets: which global/window names the script writes and reads, and
  which host objects (``screen``, ``document``, ``Math`` …) it reads or may
  change — the facts the crawl-time triage needs to prove a skipped script
  invisible to its page — plus the host calls it performs and whether it
  can throw;
* a sound step bound (:mod:`repro.js.static.cost`): at least the steps any
  run of the script charges, or none when the pass cannot prove one.

Everything is conservative in the direction that matters for its consumer:
reachability and readouts over-approximate (a callback that is stored but
never provably called is still analyzed), while the triage facts
(throw-freedom, termination, host purity) under-approximate — a construct
the analyzer does not recognize simply disqualifies the script from being
skipped, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.js import nodes as N
from repro.js.static.cfg import FunctionCFG, build_cfg
from repro.js.static.cost import step_bound

__all__ = ["Analysis", "CanvasAlloc", "ReadoutSite", "analyze_program"]

#: Canvas-API member names that make a script canvas-relevant when they
#: appear in live code (the reachability lattice's generators).
CANVAS_APIS = {
    "getContext", "toDataURL", "getImageData", "fillText", "strokeText",
    "measureText", "requestAnimationFrame",
}

#: Context methods that draw text / geometry (the §3.2 heuristics care
#: whether a fingerprintable readout follows a non-trivial drawing).
TEXT_DRAWS = {"fillText", "strokeText"}
GEOMETRY_DRAWS = {
    "arc", "fill", "rect", "fillRect", "strokeRect", "beginPath", "closePath",
    "bezierCurveTo", "quadraticCurveTo", "ellipse", "lineTo", "moveTo", "stroke",
}
ANIMATION_MARKS = {"save", "restore"}

#: Lossy encodings: a readout in these formats is not stable enough to
#: fingerprint with (mirrors the dynamic detector's lossy-format exclusion).
LOSSY_FORMATS = {"image/jpeg", "image/webp"}

#: Below this square size the entropy is too low (MIN_CANVAS_SIZE mirror).
MIN_CANVAS_SIZE = 16

#: Host globals every page realm defines before any script runs
#: (``Browser.load`` + ``install_globals``): reading them cannot throw.
HOST_GLOBALS = {
    "window", "document", "navigator", "screen", "location", "performance",
    "setTimeout", "addEventListener", "globalThis", "localStorage",
    "sessionStorage",
}
#: Named above but not defined in a page realm: reading one throws.
UNDEFINED_HOSTS = {"localStorage", "sessionStorage"}
BUILTIN_GLOBALS = {
    "NaN", "Infinity", "undefined", "Math", "JSON", "console", "Object",
    "Array", "String", "Number", "Error", "TypeError", "parseInt",
    "parseFloat", "isNaN", "isFinite", "btoa", "atob", "encodeURIComponent",
}

#: Host member calls that are pure: allowed inside a triage-skippable
#: script.  ``Math.*`` is special-cased in code; ``JSON.parse`` throws on
#: malformed text and ``JSON.stringify`` overflows on a cyclic value, so
#: both count as throw risks unless proven otherwise.
PURE_HOST_CALLS = {"performance.now", "JSON.stringify", "JSON.parse"}

#: ``Math`` members that are not pure: ``Math.random`` advances the page
#: realm's shared generator, so skipping a call shifts every later draw.
IMPURE_MATH_CALLS = {"Math.random"}
PURE_FREE_CALLS = {"parseInt", "parseFloat", "isNaN", "isFinite"}

#: Pure methods on script-local strings/arrays/objects (no callbacks).
PURE_LOCAL_METHODS = {
    "push", "pop", "join", "indexOf", "lastIndexOf", "slice", "concat",
    "charCodeAt", "charAt", "substring", "substr", "toLowerCase",
    "toUpperCase", "split", "trim", "toString", "toFixed", "length",
}

#: Sinks a tainted canvas readout can escape through.
SINK_GLOBAL = "global"
SINK_STORAGE = "storage"
SINK_NETWORK = "network"

_STEP_CAP = 200_000


def host_root(name: str) -> str:
    """The host object a host name reaches (``location`` is the window)."""
    return "window" if name == "location" else name


@dataclass
class CanvasAlloc:
    """One ``document.createElement('canvas')`` allocation site."""

    width: Optional[float] = 300.0   # HTML default canvas size
    height: Optional[float] = 150.0
    text: bool = False
    geometry: bool = False
    animated: bool = False

    @property
    def small(self) -> bool:
        return (
            self.width is not None
            and self.height is not None
            and (self.width < MIN_CANVAS_SIZE or self.height < MIN_CANVAS_SIZE)
        )


@dataclass
class ReadoutSite:
    """One live ``toDataURL`` / ``getImageData`` call."""

    api: str
    alloc: Optional[CanvasAlloc]
    lossy: bool = False
    line: int = 0

    def excluded(self, script_animated: bool) -> List[str]:
        """Which §3.2 exclusions fire for this readout, statically."""
        reasons = []
        if self.lossy:
            reasons.append("lossy-format")
        if self.alloc is not None:
            if self.alloc.small:
                reasons.append("small-canvas")
            if self.alloc.animated:
                reasons.append("animation")
        elif script_animated:
            reasons.append("animation")
        return reasons

    def draws(self, script_level: "Analysis") -> Tuple[bool, bool]:
        if self.alloc is not None:
            return self.alloc.text, self.alloc.geometry
        return script_level.text_draws, script_level.geometry_draws


class AV:
    """An abstract value: kind + canvas allocation + taint + literal."""

    __slots__ = ("kind", "literal", "alloc", "fn", "fn_env", "host", "tainted",
                 "taint_src", "safe", "props", "length")

    def __init__(self, kind="top", literal=None, alloc=None, fn=None,
                 fn_env=None, host=None, tainted=False, taint_src=None,
                 safe=False, props=None, length=None):
        self.kind = kind            # top|num|str|bool|undef|null|canvas|context
        #                           # |imagedata|fn|obj|arr|host
        self.literal = literal
        self.alloc = alloc
        self.fn = fn
        self.fn_env = fn_env
        self.host = host            # tuple path for host roots, e.g. ("document",)
        self.tainted = tainted
        self.taint_src = taint_src  # "toDataURL" | "getImageData"
        self.safe = safe            # member access on this value cannot throw
        self.props = props          # known properties of object literals
        self.length = length        # known length of array literals

    def with_taint(self, other: "AV") -> "AV":
        if other.tainted and not self.tainted:
            self.tainted = True
            self.taint_src = self.taint_src or other.taint_src
        return self


def _top(safe=False) -> AV:
    return AV("top", safe=safe)


class Env:
    """A lexical scope: name -> AV, chained to the enclosing scope."""

    def __init__(self, parent: Optional["Env"] = None):
        self.vars: Dict[str, AV] = {}
        self.parent = parent

    def lookup(self, name: str) -> Optional[AV]:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None

    def assign(self, name: str, value: AV) -> bool:
        """Assign to an existing binding; False when the name is free."""
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return True
            env = env.parent
        return False

    def root(self) -> "Env":
        env = self
        while env.parent is not None:
            env = env.parent
        return env


@dataclass
class Analysis:
    """Everything one pass over a script produces."""

    api_profile: Set[str] = field(default_factory=set)
    readouts: List[ReadoutSite] = field(default_factory=list)
    taint_paths: Set[Tuple[str, str]] = field(default_factory=set)
    global_writes: Set[str] = field(default_factory=set)
    global_reads: Set[str] = field(default_factory=set)
    reads_top: bool = False
    #: Host objects (by root name, see :func:`host_root`) the script reads,
    #: and those it may change: assigns a member of, rebinds, calls a
    #: method of, or passes to a host call.
    host_reads: Set[str] = field(default_factory=set)
    host_writes: Set[str] = field(default_factory=set)
    host_calls: Set[str] = field(default_factory=set)
    throw_reasons: List[str] = field(default_factory=list)
    nonterm_reasons: List[str] = field(default_factory=list)
    #: Sound upper bound on the steps one run charges; None when unproven.
    step_bound: Optional[int] = None
    loops: bool = False
    text_draws: bool = False
    geometry_draws: bool = False
    animated: bool = False
    canvas_mention: bool = False
    #: Whether the pass read a number literal's value (folding, a string
    #: concatenation, a canvas size, a loop bound).  When it did not, every
    #: script that differs from this one only in number literals has this
    #: analysis too.
    reads_numbers: bool = False

    def may_throw(self) -> bool:
        return bool(self.throw_reasons)

    def terminating(self) -> bool:
        return (
            not self.nonterm_reasons
            and self.step_bound is not None
            and self.step_bound <= _STEP_CAP
        )


class _Analyzer:
    def __init__(self, program: N.Program):
        self.program = program
        self.result = Analysis()
        self._summaries: Dict[int, AV] = {}
        self._in_progress: Set[int] = set()
        self._pending_fns: List[Tuple[N.Node, Env]] = []
        self._analyzed_fns: Set[int] = set()
        self._try_depth = 0
        self._envs: List[Env] = []

    def _new_env(self, parent: Optional[Env]) -> Env:
        env = Env(parent=parent)
        self._envs.append(env)
        return env

    # -- entry -----------------------------------------------------------------

    def run(self) -> Analysis:
        try:
            return self._run()
        finally:
            # Scopes and the function values bound in them point at each
            # other; unlinking them lets an analysis die by reference count
            # instead of waiting for the cycle collector (the crawl
            # analyses every distinct script it meets).
            for env in self._envs:
                env.vars.clear()
            self._pending_fns.clear()
            self._summaries.clear()

    def _run(self) -> Analysis:
        global_env = self._new_env(None)
        self._hoist(self.program.body, global_env, is_global=True)
        self._exec_body(self.program.body, global_env)
        # Callbacks that were stored but never provably invoked still run in
        # a real page (event handlers, timers): analyze them so their reads,
        # writes and canvas traffic count.  Analyzing one can discover more.
        seen = 0
        while seen < len(self._pending_fns):
            fn, env = self._pending_fns[seen]
            seen += 1
            if id(fn) not in self._analyzed_fns:
                self._call_function(AV("fn", fn=fn, fn_env=env, safe=True), [])
        return self.result

    # -- scaffolding -----------------------------------------------------------

    def _hoist(self, body: Sequence[N.Node], env: Env, is_global: bool) -> None:
        """Declare var/function names of one function scope (not nested fns)."""
        for stmt in body:
            if isinstance(stmt, N.VariableDeclaration):
                for decl in stmt.declarations:
                    env.vars.setdefault(decl.name, AV("undef", safe=False))
                    if is_global:
                        self._write_global(decl.name)
            elif isinstance(stmt, N.FunctionDeclaration):
                env.vars[stmt.name] = AV("fn", fn=stmt, fn_env=env, safe=True)
                if is_global:
                    self._write_global(stmt.name)
            elif isinstance(stmt, N.Block):
                self._hoist(stmt.body, env, is_global)
            elif isinstance(stmt, N.IfStatement):
                self._hoist([s for s in (stmt.consequent, stmt.alternate) if s], env, is_global)
            elif isinstance(stmt, (N.WhileStatement, N.DoWhileStatement, N.ForStatement, N.ForOfStatement)):
                if isinstance(stmt, N.ForStatement) and isinstance(stmt.init, N.VariableDeclaration):
                    self._hoist([stmt.init], env, is_global)
                if isinstance(stmt, N.ForOfStatement):
                    env.vars.setdefault(stmt.name, AV("top"))
                self._hoist([stmt.body] if stmt.body else [], env, is_global)
            elif isinstance(stmt, N.TryStatement):
                self._hoist(stmt.block.body if stmt.block else [], env, is_global)
                if stmt.handler:
                    self._hoist(stmt.handler.body, env, is_global)
                if stmt.finalizer:
                    self._hoist(stmt.finalizer.body, env, is_global)
            elif isinstance(stmt, N.SwitchStatement):
                for case in stmt.cases:
                    self._hoist(case.body, env, is_global)

    def _exec_body(self, body: Sequence[N.Node], env: Env) -> AV:
        """Run one function body over its CFG's live statements; returns the
        merged abstract return value."""
        cfg = build_cfg(list(body))
        if cfg.has_loops:
            self.result.loops = True
        ret = AV("undef", safe=False)
        ret = self._exec_stmts(body, env, cfg, ret)
        if cfg.has_loops:
            # Second pass stabilizes loop-carried facts (taint through an
            # accumulator, dims set inside the loop): the lattice only ever
            # gains facts, so two passes reach the fixpoint for this
            # flow-insensitive domain.
            ret = self._exec_stmts(body, env, cfg, ret)
        return ret

    def _exec_stmts(self, body: Sequence[N.Node], env: Env, cfg: FunctionCFG, ret: AV) -> AV:
        for stmt in body:
            ret = self._exec_stmt(stmt, env, cfg, ret)
        return ret

    # -- statements ------------------------------------------------------------

    def _exec_stmt(self, stmt: N.Node, env: Env, cfg: FunctionCFG, ret: AV) -> AV:
        if stmt is None or not cfg.is_live(stmt):
            return ret

        if isinstance(stmt, N.ExpressionStatement):
            self._eval(stmt.expression, env)
        elif isinstance(stmt, N.VariableDeclaration):
            for decl in stmt.declarations:
                value = self._eval(decl.init, env) if decl.init is not None else AV("undef", safe=False)
                env.vars[decl.name] = value
        elif isinstance(stmt, N.FunctionDeclaration):
            env.vars[stmt.name] = AV("fn", fn=stmt, fn_env=env, safe=True)
        elif isinstance(stmt, N.ReturnStatement):
            if stmt.argument is not None:
                value = self._eval(stmt.argument, env)
                if value.tainted or ret.kind == "undef":
                    ret = value if not ret.tainted else ret.with_taint(value)
                ret.with_taint(value)
        elif isinstance(stmt, N.IfStatement):
            self._eval(stmt.test, env)
            # Both arms execute over one shared env: the union of their
            # effects over-approximates either path.
            ret = self._exec_stmt(stmt.consequent, env, cfg, ret)
            if stmt.alternate is not None:
                ret = self._exec_stmt(stmt.alternate, env, cfg, ret)
        elif isinstance(stmt, N.Block):
            ret = self._exec_stmts(stmt.body, env, cfg, ret)
        elif isinstance(stmt, N.ForStatement):
            if isinstance(stmt.init, N.VariableDeclaration):
                ret = self._exec_stmt(stmt.init, env, cfg, ret)
            elif stmt.init is not None:
                self._eval(stmt.init, env)
            if stmt.test is not None:
                self._eval(stmt.test, env)
            ret = self._exec_stmt(stmt.body, env, cfg, ret)
            if stmt.update is not None:
                self._eval(stmt.update, env)
        elif isinstance(stmt, N.ForOfStatement):
            iterable = self._eval(stmt.iterable, env)
            if iterable.kind not in ("arr", "str"):
                self._throw_risk(f"for-of over unproven iterable at line {stmt.line}")
            element = _top(safe=False)
            element.with_taint(iterable)
            env.vars[stmt.name] = element
            ret = self._exec_stmt(stmt.body, env, cfg, ret)
        elif isinstance(stmt, (N.WhileStatement, N.DoWhileStatement)):
            self._eval(stmt.test, env)
            ret = self._exec_stmt(stmt.body, env, cfg, ret)
        elif isinstance(stmt, N.ThrowStatement):
            self._eval(stmt.argument, env)
            if self._try_depth == 0:
                self._throw_risk(f"explicit throw at line {stmt.line}")
        elif isinstance(stmt, N.TryStatement):
            contained = stmt.handler is not None
            if contained:
                self._try_depth += 1
            try:
                if stmt.block is not None:
                    ret = self._exec_stmts(stmt.block.body, env, cfg, ret)
            finally:
                if contained:
                    self._try_depth -= 1
            if stmt.handler is not None:
                env.vars[stmt.param or "__err"] = _top(safe=False)
                ret = self._exec_stmts(stmt.handler.body, env, cfg, ret)
            if stmt.finalizer is not None:
                ret = self._exec_stmts(stmt.finalizer.body, env, cfg, ret)
        elif isinstance(stmt, N.SwitchStatement):
            self._eval(stmt.discriminant, env)
            for case in stmt.cases:
                if case.test is not None:
                    self._eval(case.test, env)
                ret = self._exec_stmts(case.body, env, cfg, ret)
        # Break/Continue/Empty: nothing to evaluate.
        return ret

    # -- expressions -----------------------------------------------------------

    def _eval(self, node: Optional[N.Node], env: Env) -> AV:
        if node is None:
            return AV("undef", safe=False)
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            self._throw_risk(f"unmodelled expression {type(node).__name__}")
            self.result.reads_top = True
            return _top()
        return method(node, env)

    def _eval_NumberLiteral(self, node, env):
        return AV("num", literal=node.value, safe=True)

    def _eval_StringLiteral(self, node, env):
        return AV("str", literal=node.value, safe=True)

    def _eval_BooleanLiteral(self, node, env):
        return AV("bool", literal=node.value, safe=True)

    def _eval_NullLiteral(self, node, env):
        return AV("null", safe=False)

    def _eval_UndefinedLiteral(self, node, env):
        return AV("undef", safe=False)

    def _eval_ThisExpression(self, node, env):
        # Top-level `this` is the window; treat as the host window object.
        return AV("host", host=("window",), safe=True)

    def _eval_Identifier(self, node, env):
        name = node.name
        if name in CANVAS_APIS:
            self.result.canvas_mention = True
        found = env.lookup(name)
        if found is not None:
            return found
        if name == "requestAnimationFrame":
            self.result.animated = True
            self.result.api_profile.add(name)
        if name in HOST_GLOBALS or name in BUILTIN_GLOBALS:
            self.result.host_reads.add(host_root(name))
            if name in UNDEFINED_HOSTS:
                self._throw_risk(f"read of undefined host '{name}'")
            return AV("host", host=(name,), safe=True)
        # Free read of a name no layer defines: another script's global (or a
        # ReferenceError at runtime).
        self.result.global_reads.add(name)
        self._throw_risk(f"free read of '{name}'")
        return _top(safe=False)

    def _eval_ArrayLiteral(self, node, env):
        out = AV("arr", safe=True, length=len(node.elements))
        for element in node.elements:
            out.with_taint(self._eval(element, env))
        return out

    def _eval_ObjectLiteral(self, node, env):
        props: Dict[str, AV] = {}
        out = AV("obj", safe=True)
        for key, value in node.properties:
            value_av = self._eval(value, env)
            props[key] = value_av
            out.with_taint(value_av)
        out.props = props
        return out

    def _eval_FunctionExpression(self, node, env):
        fn = AV("fn", fn=node, fn_env=env, safe=True)
        self._pending_fns.append((node, env))
        return fn

    def _eval_SequenceExpression(self, node, env):
        value = AV("undef", safe=False)
        for expression in node.expressions:
            value = self._eval(expression, env)
        return value

    def _eval_UnaryOp(self, node, env):
        if node.op == "typeof" and isinstance(node.operand, N.Identifier):
            # `typeof missing` never throws: record the read, skip the risk.
            name = node.operand.name
            if env.lookup(name) is None:
                if name in HOST_GLOBALS or name in BUILTIN_GLOBALS:
                    self.result.host_reads.add(host_root(name))
                else:
                    self.result.global_reads.add(name)
            return AV("str", safe=True)
        operand = self._eval(node.operand, env)
        out = AV("bool" if node.op == "!" else "num", safe=True)
        return out.with_taint(operand)

    def _eval_UpdateExpression(self, node, env):
        self._assign_target(node.target, AV("num", safe=True), env, reads=True)
        return AV("num", safe=True)

    def _eval_BinaryOp(self, node, env):
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if node.op in ("<", ">", "<=", ">=", "==", "===", "!=", "!==", "instanceof", "in"):
            out = AV("bool", safe=True)
        elif node.op == "+" and (left.kind == "str" or right.kind == "str"):
            if left.literal is not None and right.literal is not None:
                self.result.reads_numbers = True
                out = AV("str", literal=f"{left.literal}{right.literal}", safe=True)
            else:
                out = AV("str", safe=True)
        else:
            out = AV("num", safe=True)
            if left.literal is not None and right.literal is not None and node.op in ("+", "-", "*"):
                self.result.reads_numbers = True
                try:
                    value = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                             "*": lambda a, b: a * b}[node.op](left.literal, right.literal)
                    out.literal = value
                except TypeError:
                    pass
        return out.with_taint(left).with_taint(right)

    def _eval_LogicalOp(self, node, env):
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        out = _top(safe=left.safe and right.safe)
        return out.with_taint(left).with_taint(right)

    def _eval_ConditionalExpression(self, node, env):
        self._eval(node.test, env)
        a = self._eval(node.consequent, env)
        b = self._eval(node.alternate, env)
        out = _top(safe=a.safe and b.safe)
        return out.with_taint(a).with_taint(b)

    def _eval_AssignmentExpression(self, node, env):
        value = self._eval(node.value, env)
        self._assign_target(node.target, value, env, reads=node.op != "=")
        return value

    def _eval_NewExpression(self, node, env):
        for arg in node.args:
            self._eval(arg, env)
        callee = node.callee
        self._throw_risk(f"new expression at line {node.line}")
        if isinstance(callee, N.Identifier):
            if callee.name == "Image":
                return AV("host", host=("image",), safe=True)
            if callee.name == "XMLHttpRequest":
                return AV("host", host=("xhr",), safe=True)
        return _top(safe=False)

    def _eval_MemberExpression(self, node, env):
        base = self._eval(node.obj, env)
        if node.computed:
            index = self._eval(node.prop, env)
            if base.kind == "host":
                # window[expr]: could read any global on the page.
                self.result.reads_top = True
                self._throw_risk("computed member on a host object")
                return _top(safe=False)
            if base.kind not in ("arr", "str", "obj", "imagedata"):
                self._throw_risk("computed member on unproven base")
            out = _top(safe=False)
            out.with_taint(base).with_taint(index)
            return out
        prop = node.prop
        if prop in CANVAS_APIS:
            self.result.canvas_mention = True
        if not base.safe:
            self._throw_risk(f"member '.{prop}' on unproven base at line {node.line}")
        if base.kind == "host":
            return self._host_member(base, prop)
        if base.kind in ("canvas", "context"):
            # Method values on canvases are handled at call sites; a bare
            # property read (width, height) is a plain number.
            return AV("num" if prop in ("width", "height") else "top", safe=True)
        if base.kind == "obj" and base.props is not None and prop in base.props:
            return base.props[prop]
        if base.kind in ("arr", "str") and prop == "length":
            out = AV("num", literal=base.length, safe=True)
            return out.with_taint(base)
        out = _top(safe=False)
        return out.with_taint(base)

    def _host_member(self, base: AV, prop: str) -> AV:
        path = base.host + (prop,)
        if base.host == ("window",):
            # One namespace with the globals: window.x and bare x are the
            # same pool as far as cross-script visibility goes.
            self.result.global_reads.add(prop)
            if prop in HOST_GLOBALS or prop in BUILTIN_GLOBALS:
                return AV("host", host=(prop,), safe=True)
            return _top(safe=False)
        return AV("host", host=path, safe=True)

    def _eval_CallExpression(self, node, env):
        args = [self._eval(arg, env) for arg in node.args]

        callee = node.callee
        if isinstance(callee, N.Identifier):
            return self._call_free(callee.name, args, env, node)
        if isinstance(callee, N.MemberExpression) and not callee.computed:
            base = self._eval(callee.obj, env)
            return self._call_member(base, callee.prop, args, node)
        if isinstance(callee, N.FunctionExpression):
            fn = self._eval(callee, env)
            return self._call_function(fn, args)
        value = self._eval(callee, env)
        if value.kind == "fn":
            return self._call_function(value, args)
        self._throw_risk(f"call of unproven callee at line {node.line}")
        return _top(safe=False)

    def _call_free(self, name: str, args: List[AV], env: Env, node) -> AV:
        found = env.lookup(name)
        if found is not None:
            if found.kind == "fn":
                return self._call_function(found, args)
            self._throw_risk(f"call of unproven '{name}'")
            return _top(safe=False)
        if name == "requestAnimationFrame":
            self.result.animated = True
            self.result.api_profile.add(name)
            self.result.host_calls.add(name)
            for arg in args:
                if arg.kind == "fn":
                    self._call_function(arg, [])
            return AV("num", safe=True)
        if name in ("setTimeout", "addEventListener", "fetch"):
            self.result.host_calls.add(name)
            if name == "fetch":
                self._record_sinks(args, SINK_NETWORK)
            for arg in args:
                if arg.kind == "fn":
                    self._call_function(arg, [])
            return _top(safe=True)
        if name in PURE_FREE_CALLS:
            self.result.host_calls.add(name)
            out = AV("num", safe=True)
            for arg in args:
                out.with_taint(arg)
            return out
        if name in BUILTIN_GLOBALS or name in HOST_GLOBALS:
            self.result.host_calls.add(name)
            out = _top(safe=True)
            for arg in args:
                out.with_taint(arg)
            return out
        self.result.global_reads.add(name)
        self._throw_risk(f"call of free '{name}'")
        return _top(safe=False)

    def _call_member(self, base: AV, prop: str, args: List[AV], node) -> AV:
        if prop in CANVAS_APIS:
            self.result.canvas_mention = True

        if base.kind == "canvas":
            return self._canvas_call(base, prop, args, node)
        if base.kind == "context":
            return self._context_call(base, prop, args, node)

        if base.kind == "host":
            return self._host_call(base, prop, args, node)

        if base.kind in ("arr", "str", "obj", "num", "imagedata"):
            if prop not in PURE_LOCAL_METHODS:
                self._throw_risk(f"method '.{prop}' on local value at line {node.line}")
            for arg in args:
                if arg.kind == "fn":
                    self._call_function(arg, [])
            out = _top(safe=True)
            out.with_taint(base)
            for arg in args:
                out.with_taint(arg)
            return out

        if base.kind == "fn" and prop in ("call", "apply"):
            return self._call_function(base, args[1:] if args else [])

        self._throw_risk(f"method '.{prop}' on unproven base at line {node.line}")
        out = _top(safe=False)
        out.with_taint(base)
        for arg in args:
            out.with_taint(arg)
        return out

    def _canvas_call(self, base: AV, prop: str, args: List[AV], node) -> AV:
        self.result.api_profile.add(prop)
        if prop == "getContext":
            return AV("context", alloc=base.alloc, safe=True)
        if prop == "toDataURL":
            fmt = args[0].literal if args and args[0].kind == "str" else None
            site = ReadoutSite(
                api="toDataURL",
                alloc=base.alloc,
                lossy=fmt in LOSSY_FORMATS,
                line=node.line,
            )
            self.result.readouts.append(site)
            return AV("str", tainted=True, taint_src="toDataURL", safe=True)
        return AV("top", safe=True)

    def _context_call(self, base: AV, prop: str, args: List[AV], node) -> AV:
        alloc = base.alloc
        if prop in TEXT_DRAWS or prop == "measureText":
            self.result.api_profile.add(prop)
            self.result.text_draws = True
            if alloc is not None:
                alloc.text = True
        elif prop in GEOMETRY_DRAWS:
            self.result.geometry_draws = True
            if alloc is not None:
                alloc.geometry = True
        elif prop in ANIMATION_MARKS:
            self.result.api_profile.add(prop)
            self.result.animated = True
            if alloc is not None:
                alloc.animated = True
        if prop == "getImageData":
            self.result.api_profile.add(prop)
            site = ReadoutSite(api="getImageData", alloc=alloc, line=node.line)
            self.result.readouts.append(site)
            return AV(
                "imagedata", tainted=True, taint_src="getImageData", safe=True
            )
        return AV("top", safe=True)

    def _host_call(self, base: AV, prop: str, args: List[AV], node) -> AV:
        path = ".".join(base.host + (prop,))
        self.result.host_calls.add(path)
        if path not in PURE_HOST_CALLS and base.host[0] != "Math":
            # A host method may change its own object or any host object
            # handed to it (``Object.assign(Math, …)``).
            self.result.host_writes.add(host_root(base.host[0]))
            for arg in args:
                if arg.kind == "host":
                    self.result.host_writes.add(host_root(arg.host[0]))

        if base.host == ("document",) and prop == "createElement":
            if args and args[0].kind == "str":
                if args[0].literal == "canvas":
                    self.result.canvas_mention = True
                    self.result.api_profile.add("createElement('canvas')")
                    return AV("canvas", alloc=CanvasAlloc(), safe=True)
                return AV("host", host=("domnode",), safe=True)
            # createElement(expr): could mint a canvas.
            self.result.canvas_mention = True
            return _top(safe=True)

        if base.host[0] == "Math":
            out = AV("num", safe=True)
            for arg in args:
                out.with_taint(arg)
            return out
        if path == "JSON.parse" or (path == "JSON.stringify" and not _flat(args[:1])):
            self._throw_risk(f"{path} may throw at line {node.line}")
        if path in PURE_HOST_CALLS:
            out = AV("num" if path == "performance.now" else "top", safe=True)
            for arg in args:
                out.with_taint(arg)
            return out

        if path in ("localStorage.setItem", "sessionStorage.setItem"):
            self._record_sinks(args, SINK_STORAGE)
        elif path in ("navigator.sendBeacon", "xhr.send", "xhr.open", "window.fetch"):
            self._record_sinks(args, SINK_NETWORK)
        elif base.host == ("window",) or prop in ("setTimeout", "addEventListener", "requestAnimationFrame"):
            if prop == "requestAnimationFrame":
                self.result.animated = True
                self.result.api_profile.add(prop)

        for arg in args:
            if arg.kind == "fn":
                self._call_function(arg, [])
        return _top(safe=True)

    def _call_function(self, fn: AV, args: List[AV]) -> AV:
        node = fn.fn
        if node is None:
            return _top(safe=False)
        key = id(node)
        self._analyzed_fns.add(key)
        if key in self._in_progress:
            self.result.nonterm_reasons.append("recursive call")
            return _top(safe=False)
        if key in self._summaries:
            summary = self._summaries[key]
            out = _top(safe=summary.safe)
            out.kind = summary.kind
            out.alloc = summary.alloc
            out.with_taint(summary)
            for arg in args:
                out.with_taint(arg)
            return out

        self._in_progress.add(key)
        try:
            local = self._new_env(fn.fn_env)
            params = node.params or []
            for index, param in enumerate(params):
                local.vars[param] = args[index] if index < len(args) else AV("undef", safe=False)
            body = node.body.body if node.body is not None else []
            self._hoist(body, local, is_global=False)
            ret = self._exec_body(body, local)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = ret
        return ret

    # -- assignment targets ----------------------------------------------------

    def _assign_target(self, target: N.Node, value: AV, env: Env, reads: bool) -> None:
        if isinstance(target, N.Identifier):
            name = target.name
            if reads:
                self._eval(target, env)
            if not env.assign(name, value):
                # Free assignment: creates/overwrites a page global.
                env.root().vars[name] = value
                self._write_global(name)
                if value.tainted:
                    self.result.taint_paths.add((value.taint_src or "readout", SINK_GLOBAL))
            return
        if isinstance(target, N.MemberExpression):
            base = self._eval(target.obj, env)
            if target.computed:
                self._eval(target.prop, env)
                if base.kind == "host":
                    self.result.reads_top = True
                    self._throw_risk("computed write on a host object")
                elif base.kind not in ("arr", "obj"):
                    self._throw_risk("computed write on unproven base")
                base.with_taint(value)
                return
            prop = target.prop
            if base.kind == "canvas" and prop in ("width", "height") and base.alloc is not None:
                if value.kind == "num" and value.literal is not None:
                    self.result.reads_numbers = True
                    setattr(base.alloc, prop, float(value.literal))
                else:
                    setattr(base.alloc, prop, None)
                return
            if base.kind == "host":
                self.result.host_writes.add(host_root(base.host[0]))
                if base.host == ("window",):
                    self._write_global(prop)
                    if value.tainted:
                        self.result.taint_paths.add(
                            (value.taint_src or "readout", SINK_GLOBAL)
                        )
                elif base.host == ("document",) and prop == "cookie":
                    self.result.host_calls.add("document.cookie=")
                    if value.tainted:
                        self.result.taint_paths.add(
                            (value.taint_src or "readout", SINK_STORAGE)
                        )
                elif base.host == ("image",) and prop == "src":
                    self.result.host_calls.add("image.src=")
                    if value.tainted:
                        self.result.taint_paths.add(
                            (value.taint_src or "readout", SINK_NETWORK)
                        )
                elif base.host[0] in ("localStorage", "sessionStorage"):
                    self.result.host_calls.add(f"{base.host[0]}.{prop}=")
                    if value.tainted:
                        self.result.taint_paths.add(
                            (value.taint_src or "readout", SINK_STORAGE)
                        )
                else:
                    self.result.host_calls.add(".".join(base.host + (prop,)) + "=")
                return
            if base.kind == "obj" and base.props is not None:
                base.props[prop] = value
            if base.kind == "context" and base.alloc is None and value.tainted:
                pass
            base.with_taint(value)
            return
        # Unmodelled target (shouldn't happen with this parser).
        self._throw_risk("unmodelled assignment target")

    def _write_global(self, name: str) -> None:
        self.result.global_writes.add(name)
        if name in HOST_GLOBALS or name in BUILTIN_GLOBALS:
            # Rebinding a host name changes what every later script sees.
            self.result.host_writes.add(host_root(name))

    def _record_sinks(self, args: List[AV], sink: str) -> None:
        for arg in args:
            if arg.tainted:
                self.result.taint_paths.add((arg.taint_src or "readout", sink))

    def _throw_risk(self, reason: str) -> None:
        if self._try_depth == 0:
            self.result.throw_reasons.append(reason)


def _flat(args: List[AV]) -> bool:
    """Whether every value is a primitive or a literal object of primitives
    (so serializing it cannot overflow on a cycle)."""
    primitive = ("num", "str", "bool", "undef", "null")
    for arg in args:
        if arg.kind in primitive:
            continue
        if arg.kind != "obj" or arg.props is None:
            return False
        if any(value.kind not in primitive for value in arg.props.values()):
            return False
    return True


def analyze_program(program: N.Program) -> Analysis:
    """Analyze one parsed script; see the module docstring for the contract."""
    result = _Analyzer(program).run()
    result.step_bound, reason, reads_numbers = step_bound(program)
    result.reads_numbers |= reads_numbers
    if result.step_bound is None:
        result.nonterm_reasons.append(reason)
    return result
