"""The tree-walking evaluator, kept as an oracle for the compiled engine.

This is how ``repro.js.interpreter.Interpreter`` executed scripts before
the closure compiler of ``repro.js.compiler`` became the only engine: each
statement is dispatched over the AST on every execution and every
identifier is a lookup up a chain of ``Environment`` dicts.  The
equivalence tests in ``test_compiler_equivalence.py`` swap this class in
for the production ``Interpreter`` and require the same console output,
return values, errors (message, line, column), step counts, canvas
observations and crawl datasets, byte for byte.

The evaluator below is unchanged apart from this docstring, the imports,
the class header, and a constructor, ``run`` and ``steps_executed`` that
wrap the production globals dict in a root ``Environment``
(``global_env``); do not "fix" it — its behaviour is the specification.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.js import nodes as N
from repro.js import ops
from repro.js.errors import JSRuntimeError, JSThrow
from repro.js.interpreter import Interpreter
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

__all__ = ["ReferenceInterpreter", "Environment"]


class Environment:
    """A lexical scope."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.vars: Dict[str, Any] = {}
        self.parent = parent

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        raise KeyError(name)

    def assign(self, name: str, value: Any) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return True
            env = env.parent
        return False

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class ReferenceInterpreter(Interpreter):
    """Evaluates parsed programs by walking the AST."""

    def __init__(self, step_budget: int = Interpreter.DEFAULT_STEP_BUDGET) -> None:
        super().__init__(step_budget)
        #: The global scope: a root Environment over the same dict that
        #: ``define_global`` and the builtins write.
        self.global_env = Environment()
        self.global_env.vars = self.globals
        self._steps = 0

    @property
    def steps_executed(self) -> int:
        """AST-node steps charged by the last `run`."""
        return self._steps

    def run(self, source: str, script_url: str = "<inline>") -> Any:
        """Parse and walk ``source`` attributed to ``script_url``."""
        return self.run_program(parse(source, script_url), script_url)

    def run_program(self, program: N.Program, script_url: str = "<inline>") -> Any:
        self._steps = 0
        self._script_stack.append(script_url)
        try:
            # Classic scripts execute in the global scope, so top-level
            # declarations persist across scripts on the same page.
            result: Any = UNDEFINED
            env = self.global_env
            self._hoist(program.body, env)
            for stmt in program.body:
                result = self.exec_statement(stmt, env)
            return result
        except JSThrow as exc:
            raise JSRuntimeError(
                f"uncaught exception: {js_to_string(exc.value)}", exc.line, script_url, exc.col
            ) from exc
        finally:
            self._script_stack.pop()

    # -- statements -------------------------------------------------------------

    def exec_statement(self, node: N.Node, env: Environment) -> Any:
        self._tick(node)
        method = getattr(self, "_exec_" + type(node).__name__, None)
        if method is None:
            raise JSRuntimeError(
                f"cannot execute {type(node).__name__}", node.line, self.current_script, node.col
            )
        return method(node, env)

    def _hoist(self, body: List[N.Node], env: Environment) -> None:
        """Hoist function declarations (and `var` names) in a body."""
        for stmt in body:
            if isinstance(stmt, N.FunctionDeclaration):
                env.declare(
                    stmt.name,
                    JSFunction(stmt.params, stmt.body, env, name=stmt.name),
                )
            elif isinstance(stmt, N.VariableDeclaration) and stmt.kind == "var":
                for d in stmt.declarations:
                    if not env.has(d.name):
                        env.declare(d.name, UNDEFINED)

    def _exec_Program(self, node: N.Program, env: Environment) -> Any:
        result: Any = UNDEFINED
        for stmt in node.body:
            result = self.exec_statement(stmt, env)
        return result

    def _exec_Block(self, node: N.Block, env: Environment) -> Any:
        inner = Environment(env)
        self._hoist(node.body, inner)
        result: Any = UNDEFINED
        for stmt in node.body:
            result = self.exec_statement(stmt, inner)
        return result

    def _exec_EmptyStatement(self, node: N.EmptyStatement, env: Environment) -> Any:
        return UNDEFINED

    def _exec_ExpressionStatement(self, node: N.ExpressionStatement, env: Environment) -> Any:
        return self.eval(node.expression, env)

    def _exec_VariableDeclaration(self, node: N.VariableDeclaration, env: Environment) -> Any:
        for decl in node.declarations:
            value = self.eval(decl.init, env) if decl.init is not None else UNDEFINED
            env.declare(decl.name, value)
        return UNDEFINED

    def _exec_FunctionDeclaration(self, node: N.FunctionDeclaration, env: Environment) -> Any:
        env.declare(node.name, JSFunction(node.params, node.body, env, name=node.name))
        return UNDEFINED

    def _exec_ReturnStatement(self, node: N.ReturnStatement, env: Environment) -> Any:
        value = self.eval(node.argument, env) if node.argument is not None else UNDEFINED
        raise _Return(value)

    def _exec_IfStatement(self, node: N.IfStatement, env: Environment) -> Any:
        if js_truthy(self.eval(node.test, env)):
            return self.exec_statement(node.consequent, env)
        if node.alternate is not None:
            return self.exec_statement(node.alternate, env)
        return UNDEFINED

    def _exec_ForStatement(self, node: N.ForStatement, env: Environment) -> Any:
        loop_env = Environment(env)
        if node.init is not None:
            self.exec_statement(node.init, loop_env)
        while node.test is None or js_truthy(self.eval(node.test, loop_env)):
            try:
                self.exec_statement(node.body, loop_env)
            except _Break:
                break
            except _Continue:
                pass
            if node.update is not None:
                self.eval(node.update, loop_env)
        return UNDEFINED

    def _exec_ForOfStatement(self, node: N.ForOfStatement, env: Environment) -> Any:
        iterable = self.eval(node.iterable, env)
        if isinstance(iterable, JSArray):
            items = list(iterable.elements)
        elif isinstance(iterable, str):
            items = list(iterable)
        else:
            raise JSRuntimeError("value is not iterable", node.line, self.current_script, node.col)
        for item in items:
            loop_env = Environment(env)
            loop_env.declare(node.name, item)
            try:
                self.exec_statement(node.body, loop_env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_WhileStatement(self, node: N.WhileStatement, env: Environment) -> Any:
        while js_truthy(self.eval(node.test, env)):
            try:
                self.exec_statement(node.body, env)
            except _Break:
                break
            except _Continue:
                continue
        return UNDEFINED

    def _exec_DoWhileStatement(self, node: N.DoWhileStatement, env: Environment) -> Any:
        while True:
            try:
                self.exec_statement(node.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if not js_truthy(self.eval(node.test, env)):
                break
        return UNDEFINED

    def _exec_BreakStatement(self, node: N.BreakStatement, env: Environment) -> Any:
        raise _Break()

    def _exec_ContinueStatement(self, node: N.ContinueStatement, env: Environment) -> Any:
        raise _Continue()

    def _exec_ThrowStatement(self, node: N.ThrowStatement, env: Environment) -> Any:
        raise JSThrow(self.eval(node.argument, env), node.line, node.col)

    def _exec_SwitchStatement(self, node: N.SwitchStatement, env: Environment) -> Any:
        value = self.eval(node.discriminant, env)
        switch_env = Environment(env)
        matched = False
        try:
            for case in node.cases:
                if not matched and case.test is not None:
                    if js_equals_strict(value, self.eval(case.test, switch_env)):
                        matched = True
                if matched:
                    for stmt in case.body:
                        self.exec_statement(stmt, switch_env)
            if not matched:
                # Fall back to the default clause (and fall through after it).
                run = False
                for case in node.cases:
                    if case.test is None:
                        run = True
                    if run:
                        for stmt in case.body:
                            self.exec_statement(stmt, switch_env)
        except _Break:
            pass
        return UNDEFINED

    def _exec_TryStatement(self, node: N.TryStatement, env: Environment) -> Any:
        try:
            self._exec_Block(node.block, env)
        except JSThrow as exc:
            if node.handler is not None:
                handler_env = Environment(env)
                if node.param:
                    handler_env.declare(node.param, exc.value)
                self._exec_Block(node.handler, handler_env)
            else:
                raise
        finally:
            if node.finalizer is not None:
                self._exec_Block(node.finalizer, env)
        return UNDEFINED

    # -- expressions ------------------------------------------------------------

    def eval(self, node: N.Node, env: Environment) -> Any:
        self._tick(node)
        method = getattr(self, "_eval_" + type(node).__name__, None)
        if method is None:
            raise JSRuntimeError(
                f"cannot evaluate {type(node).__name__}", node.line, self.current_script, node.col
            )
        return method(node, env)

    def _eval_NumberLiteral(self, node: N.NumberLiteral, env: Environment) -> Any:
        return node.value

    def _eval_StringLiteral(self, node: N.StringLiteral, env: Environment) -> Any:
        return node.value

    def _eval_BooleanLiteral(self, node: N.BooleanLiteral, env: Environment) -> Any:
        return node.value

    def _eval_NullLiteral(self, node: N.NullLiteral, env: Environment) -> Any:
        return NULL

    def _eval_UndefinedLiteral(self, node: N.UndefinedLiteral, env: Environment) -> Any:
        return UNDEFINED

    def _eval_ThisExpression(self, node: N.ThisExpression, env: Environment) -> Any:
        try:
            return env.lookup("this")
        except KeyError:
            return UNDEFINED

    def _eval_Identifier(self, node: N.Identifier, env: Environment) -> Any:
        try:
            return env.lookup(node.name)
        except KeyError:
            raise JSRuntimeError(
                f"{node.name} is not defined", node.line, self.current_script, node.col
            ) from None

    def _eval_ArrayLiteral(self, node: N.ArrayLiteral, env: Environment) -> Any:
        return JSArray([self.eval(e, env) for e in node.elements])

    def _eval_ObjectLiteral(self, node: N.ObjectLiteral, env: Environment) -> Any:
        obj = JSObject()
        for key, value_node in node.properties:
            obj.set(key, self.eval(value_node, env))
        return obj

    def _eval_FunctionExpression(self, node: N.FunctionExpression, env: Environment) -> Any:
        this = None
        if node.is_arrow:
            try:
                this = env.lookup("this")
            except KeyError:
                this = UNDEFINED
        fn = JSFunction(node.params, node.body, env, name=node.name, is_arrow=node.is_arrow, this=this)
        if node.name and not node.is_arrow:
            # Named function expressions can refer to themselves.
            fn_env = Environment(env)
            fn_env.declare(node.name, fn)
            fn.env = fn_env
        return fn

    def _eval_UnaryOp(self, node: N.UnaryOp, env: Environment) -> Any:
        if node.op == "typeof":
            # typeof on an undefined identifier must not throw.
            if isinstance(node.operand, N.Identifier) and not env.has(node.operand.name):
                return "undefined"
            return js_type_of(self.eval(node.operand, env))
        if node.op == "delete":
            if isinstance(node.operand, N.MemberExpression):
                obj = self.eval(node.operand.obj, env)
                name = self._prop_name(node.operand, env)
                if isinstance(obj, JSObject):
                    return obj.delete(name)
            return True
        value = self.eval(node.operand, env)
        if node.op == "!":
            return not js_truthy(value)
        if node.op == "-":
            return -js_to_number(value)
        if node.op == "+":
            return js_to_number(value)
        if node.op == "~":
            return float(~_to_int32(js_to_number(value)))
        raise JSRuntimeError(
            f"unknown unary operator {node.op}", node.line, self.current_script, node.col
        )

    def _eval_UpdateExpression(self, node: N.UpdateExpression, env: Environment) -> Any:
        old = js_to_number(self._eval_reference(node.target, env))
        new = old + 1 if node.op == "++" else old - 1
        self._assign_reference(node.target, new, env)
        return new if node.prefix else old

    def _eval_BinaryOp(self, node: N.BinaryOp, env: Environment) -> Any:
        op = node.op
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if op == "+":
            if isinstance(left, str) or isinstance(right, str) or isinstance(left, JSObject) or isinstance(right, JSObject):
                return js_to_string(left) + js_to_string(right)
            return js_to_number(left) + js_to_number(right)
        if op == "-":
            return js_to_number(left) - js_to_number(right)
        if op == "*":
            return js_to_number(left) * js_to_number(right)
        if op == "/":
            denom = js_to_number(right)
            num = js_to_number(left)
            if denom == 0:
                if num == 0 or math.isnan(num):
                    return math.nan
                return math.inf if (num > 0) == (denom >= 0 and not _neg_zero(denom)) else -math.inf
            return num / denom
        if op == "%":
            denom = js_to_number(right)
            num = js_to_number(left)
            if denom == 0 or math.isnan(num) or math.isinf(num):
                return math.nan
            return math.fmod(num, denom)
        if op == "==":
            return js_equals_loose(left, right)
        if op == "!=":
            return not js_equals_loose(left, right)
        if op == "===":
            return js_equals_strict(left, right)
        if op == "!==":
            return not js_equals_strict(left, right)
        if op in ("<", ">", "<=", ">="):
            return _compare(left, right, op)
        if op == "&":
            return float(_to_int32(js_to_number(left)) & _to_int32(js_to_number(right)))
        if op == "|":
            return float(_to_int32(js_to_number(left)) | _to_int32(js_to_number(right)))
        if op == "^":
            return float(_to_int32(js_to_number(left)) ^ _to_int32(js_to_number(right)))
        if op == "<<":
            return float(_wrap_int32(_to_int32(js_to_number(left)) << (_to_uint32(js_to_number(right)) & 31)))
        if op == ">>":
            return float(_to_int32(js_to_number(left)) >> (_to_uint32(js_to_number(right)) & 31))
        if op == ">>>":
            return float(_to_uint32(js_to_number(left)) >> (_to_uint32(js_to_number(right)) & 31))
        if op == "in":
            if isinstance(right, JSObject):
                name = js_to_string(left)
                if isinstance(right, JSArray):
                    idx = name if not name.isdigit() else int(name)
                    if isinstance(idx, int):
                        return 0 <= idx < len(right.elements)
                return right.has(name)
            raise JSRuntimeError("'in' on non-object", node.line, self.current_script, node.col)
        if op == "instanceof":
            return isinstance(left, JSObject)  # approximation; subset has no prototypes
        raise JSRuntimeError(
            f"unknown binary operator {op}", node.line, self.current_script, node.col
        )

    def _eval_LogicalOp(self, node: N.LogicalOp, env: Environment) -> Any:
        left = self.eval(node.left, env)
        if node.op == "&&":
            return self.eval(node.right, env) if js_truthy(left) else left
        return left if js_truthy(left) else self.eval(node.right, env)

    def _eval_ConditionalExpression(self, node: N.ConditionalExpression, env: Environment) -> Any:
        if js_truthy(self.eval(node.test, env)):
            return self.eval(node.consequent, env)
        return self.eval(node.alternate, env)

    def _eval_AssignmentExpression(self, node: N.AssignmentExpression, env: Environment) -> Any:
        if node.op == "=":
            value = self.eval(node.value, env)
        else:
            current = self._eval_reference(node.target, env)
            operand = self.eval(node.value, env)
            binop = node.op[:-1]
            value = self._apply_compound(binop, current, operand, node)
        self._assign_reference(node.target, value, env)
        return value

    def _apply_compound(self, op: str, left: Any, right: Any, node: N.Node) -> Any:
        value = ops.apply_compound(op, left, right)
        if value is None:
            raise JSRuntimeError(
                f"unsupported compound op {op}=", node.line, self.current_script, node.col
            )
        return value

    def _eval_SequenceExpression(self, node: N.SequenceExpression, env: Environment) -> Any:
        result: Any = UNDEFINED
        for expr in node.expressions:
            result = self.eval(expr, env)
        return result

    def _eval_MemberExpression(self, node: N.MemberExpression, env: Environment) -> Any:
        obj = self.eval(node.obj, env)
        name = self._prop_name(node, env)
        return self.get_member(obj, name, node.line, node.col)

    def _eval_CallExpression(self, node: N.CallExpression, env: Environment) -> Any:
        if isinstance(node.callee, N.MemberExpression):
            this = self.eval(node.callee.obj, env)
            name = self._prop_name(node.callee, env)
            fn = self.get_member(this, name, node.line, node.col)
        else:
            this = UNDEFINED
            fn = self.eval(node.callee, env)
        args = [self.eval(a, env) for a in node.args]
        return self._call(fn, this, args, node.line, node.col)

    def _eval_NewExpression(self, node: N.NewExpression, env: Environment) -> Any:
        fn = self.eval(node.callee, env)
        args = [self.eval(a, env) for a in node.args]
        if isinstance(fn, NativeFunction):
            return fn.fn(self, UNDEFINED, args)
        if isinstance(fn, JSFunction):
            this = JSObject()
            result = self._call(fn, this, args, node.line, node.col)
            return result if isinstance(result, JSObject) else this
        raise JSRuntimeError("not a constructor", node.line, self.current_script, node.col)

    # -- helpers -------------------------------------------------------------------

    def _call(self, fn: Any, this: Any, args: List[Any], line: int, col: int = 0) -> Any:
        if not isinstance(fn, JSFunction):
            return super()._call(fn, this, args, line, col)
        call_env = Environment(fn.env)
        if fn.is_arrow:
            call_env.declare("this", fn.lexical_this if fn.lexical_this is not None else UNDEFINED)
        else:
            call_env.declare("this", this)
        for i, param in enumerate(fn.params):
            call_env.declare(param, args[i] if i < len(args) else UNDEFINED)
        call_env.declare("arguments", JSArray(args))
        self._hoist(fn.body.body, call_env)
        try:
            for stmt in fn.body.body:
                self.exec_statement(stmt, call_env)
        except _Return as ret:
            return ret.value
        return UNDEFINED

    def _prop_name(self, node: N.MemberExpression, env: Environment) -> str:
        if node.computed:
            return js_to_string(self.eval(node.prop, env))
        return node.prop  # type: ignore[return-value]

    def _eval_reference(self, target: N.Node, env: Environment) -> Any:
        if isinstance(target, N.Identifier):
            return self._eval_Identifier(target, env)
        if isinstance(target, N.MemberExpression):
            return self._eval_MemberExpression(target, env)
        raise JSRuntimeError("invalid reference", target.line, self.current_script, target.col)

    def _assign_reference(self, target: N.Node, value: Any, env: Environment) -> None:
        if isinstance(target, N.Identifier):
            if not env.assign(target.name, value):
                # Implicit global, like sloppy-mode JS.
                self.global_env.declare(target.name, value)
            return
        if isinstance(target, N.MemberExpression):
            obj = self.eval(target.obj, env)
            name = self._prop_name(target, env)
            if isinstance(obj, JSObject):
                obj.set(name, value)
                return
            raise JSRuntimeError(
                f"cannot set property {name!r} on {js_type_of(obj)}",
                target.line,
                self.current_script,
                target.col,
            )
        raise JSRuntimeError("invalid assignment target", target.line, self.current_script, target.col)

    def _tick(self, node: N.Node) -> None:
        self._steps += 1
        if self._steps > self.step_budget:
            raise JSRuntimeError("step budget exceeded", node.line, self.current_script, node.col)


# Operator arithmetic shared with the compiler (repro.js.ops).
_to_int32 = ops.to_int32
_wrap_int32 = ops.wrap_int32
_to_uint32 = ops.to_uint32
_neg_zero = ops.neg_zero
_compare = ops.compare
