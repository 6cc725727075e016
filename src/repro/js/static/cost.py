"""A sound upper bound on the steps one run of a script charges.

The interpreter charges one step per statement executed and per expression
evaluated (``Interpreter.steps_executed``), and a script whose run would
charge more than its budget fails with ``step budget exceeded``.  Triage may
skip a script only when it *knows* the run stays inside the budget, so this
pass computes a bound that is never below the steps a run charges, or
refuses (``None`` and a reason) when it cannot:

* every statement and expression costs at least its own step, and a node's
  children are added on top — both arms of a branch are bounded by the
  larger one, every case of a ``switch`` and every block of a ``try`` by
  their sum, and the target of an assignment or update twice (a compound
  assignment reads its member target, then evaluates it again to store);
* a ``for`` loop is bounded only when it counts a variable up from a
  literal to a literal bound and nothing that can run inside the loop
  writes that variable; it then charges its test once more than its
  iterations, and every iteration its body and update.  Loops nest by
  multiplication, and ``while``, ``do``-``while`` and ``for``-``of`` loops
  are refused;
* a call charges its callee's body.  Callees resolve by name, whole-script:
  a call of ``f`` may run any function the script ever binds to ``f``, and
  a call of ``o.m`` any function it ever stores under a property ``m``;
  natives that never call back into script code (``Math``, ``JSON``,
  ``performance`` members, a few global functions and string/array methods)
  cost nothing beyond the call's own steps.  Anything else — a callee bound
  to a value that is not a function, a method that may call back
  (``forEach``, ``call``), a computed callee, recursion — is refused.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.js import nodes as N

__all__ = ["step_bound"]

#: Namespaces whose members are natives that never call back into script
#: code (when the script does not rebind the namespace name itself).
_NATIVE_NAMESPACES = frozenset({"Math", "JSON", "performance", "console"})

#: Global functions and constructors that are natives never calling back.
_NATIVE_FUNCTIONS = frozenset({
    "parseInt", "parseFloat", "isNaN", "isFinite", "btoa", "atob",
    "encodeURIComponent", "String", "Number", "Error", "TypeError",
})

#: String, number and array methods that never call back into script code.
_NATIVE_METHODS = frozenset({
    "push", "pop", "join", "indexOf", "lastIndexOf", "slice", "concat",
    "charCodeAt", "charAt", "substring", "substr", "toLowerCase",
    "toUpperCase", "split", "trim", "toString", "toFixed",
})

#: Expressions whose value is never a function (so a computed store of one
#: cannot plant a callee under an unknown property name).
_NON_FUNCTION_VALUES = (
    N.NumberLiteral, N.StringLiteral, N.BooleanLiteral, N.NullLiteral,
    N.UndefinedLiteral, N.BinaryOp, N.UnaryOp, N.UpdateExpression,
    N.ArrayLiteral, N.ObjectLiteral,
)

#: A binding whose value the index cannot name (a parameter, a loop
#: variable, a compound update, a value that is not a function literal).
_UNKNOWN = object()

_FUNCTIONS = (N.FunctionDeclaration, N.FunctionExpression)

#: Expressions that cost their own step and nothing more (a function
#: expression's body runs only when called).
_LEAVES = frozenset({
    N.NumberLiteral, N.StringLiteral, N.BooleanLiteral, N.NullLiteral,
    N.UndefinedLiteral, N.Identifier, N.ThisExpression, N.FunctionExpression,
})


class _Unbounded(Exception):
    """No finite bound could be proven; the message says why."""


#: Node class -> the names of its fields that can hold child nodes.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _walk(node: Optional[N.Node]) -> List[N.Node]:
    """Every node under ``node`` (itself included), function bodies too."""
    out: List[N.Node] = []
    stack = [node] if node is not None else []
    while stack:
        current = stack.pop()
        out.append(current)
        names = _CHILD_FIELDS.get(type(current))
        if names is None:
            names = tuple(f for f in current.__dataclass_fields__ if f not in ("line", "col"))
            _CHILD_FIELDS[type(current)] = names
        for name in names:
            value = getattr(current, name)
            if isinstance(value, N.Node):
                stack.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, N.Node):
                        stack.append(item)
                    elif isinstance(item, tuple):  # object-literal (key, value)
                        stack.append(item[1])
    return out


class _Bound:
    def __init__(self, program: N.Program) -> None:
        #: Identifier name -> every value the script may bind to it.
        self.bindings: Dict[str, List[object]] = {}
        #: Property name -> every value the script may store under it.
        self.properties: Dict[str, List[object]] = {}
        #: A computed store whose value may be a function, under a name
        #: no index can see.
        self.opaque_store = False
        #: Whether the bound read a number literal's value (a loop's
        #: literals); two scripts that differ only in such values may differ.
        self.reads_numbers = False
        self._costs: Dict[int, int] = {}
        self._active: Set[int] = set()
        indexers = _INDEXERS
        for node in _walk(program):
            indexer = indexers.get(type(node))
            if indexer is not None:
                indexer(self, node)

    # -- index -----------------------------------------------------------------

    def _bind(self, name: str, value: object) -> None:
        self.bindings.setdefault(name, []).append(value)

    def _index_function(self, node: N.Node) -> None:
        if node.name:
            self._bind(node.name, node)
        for param in node.params or ():
            self._bind(param, _UNKNOWN)
        self._bind("arguments", _UNKNOWN)

    def _index_declarator(self, node: N.VariableDeclarator) -> None:
        if node.init is not None:
            self._bind(node.name, node.init)

    def _index_for_of(self, node: N.ForOfStatement) -> None:
        self._bind(node.name, _UNKNOWN)

    def _index_try(self, node: N.TryStatement) -> None:
        if node.param:
            self._bind(node.param, _UNKNOWN)

    def _index_object(self, node: N.ObjectLiteral) -> None:
        for key, value in node.properties:
            self.properties.setdefault(key, []).append(value)

    def _index_store(self, node: N.Node) -> None:
        value = node.value if isinstance(node, N.AssignmentExpression) and node.op == "=" else _UNKNOWN
        target = node.target
        if isinstance(target, N.Identifier):
            self._bind(target.name, value)
        elif isinstance(target, N.MemberExpression):
            if not target.computed:
                self.properties.setdefault(target.prop, []).append(value)
            elif not isinstance(value, _NON_FUNCTION_VALUES):
                self.opaque_store = True

    # -- callees ---------------------------------------------------------------

    @staticmethod
    def _functions(values: List[object], what: str) -> List[N.Node]:
        functions = [value for value in values if isinstance(value, _FUNCTIONS)]
        if len(functions) != len(values):
            raise _Unbounded(f"call of {what}, which may be bound to a non-function")
        return functions

    def _callees(self, callee: N.Node) -> List[N.Node]:
        """Every function a call of ``callee`` may run (natives: none)."""
        if isinstance(callee, N.FunctionExpression):
            return [callee]
        if isinstance(callee, N.Identifier):
            name = callee.name
            if name in self.bindings:
                return self._functions(self.bindings[name], f"'{name}'")
            if name in _NATIVE_FUNCTIONS:
                return []
            raise _Unbounded(f"call of unknown '{name}'")
        if isinstance(callee, N.MemberExpression) and not callee.computed:
            prop = callee.prop
            base = callee.obj
            if (
                isinstance(base, N.Identifier)
                and base.name in _NATIVE_NAMESPACES
                and base.name not in self.bindings
            ):
                return []
            if prop in self.properties:
                return self._functions(self.properties[prop], f"method '.{prop}'")
            if prop in _NATIVE_METHODS and not self.opaque_store:
                return []
            raise _Unbounded(f"call of method '.{prop}' that may run script code")
        raise _Unbounded(f"call of a computed callee at line {callee.line}")

    def _invoke(self, fn: N.Node) -> int:
        key = id(fn)
        cached = self._costs.get(key)
        if cached is not None:
            return cached
        if key in self._active:
            raise _Unbounded("recursive call")
        self._active.add(key)
        try:
            cost = self._stmts(fn.body.body if fn.body is not None else ())
        finally:
            self._active.discard(key)
        self._costs[key] = cost
        return cost

    def _call(self, node: N.Node) -> int:
        cost = 1 + self._expr(node.callee) + sum(self._expr(arg) for arg in node.args)
        return cost + max((self._invoke(fn) for fn in self._callees(node.callee)), default=0)

    # -- loops -----------------------------------------------------------------

    def _iterations(self, loop: N.ForStatement) -> int:
        """Iterations of a literal counting loop whose counter nothing else writes."""
        self.reads_numbers = True  # a refused bound counts too
        test, update = loop.test, loop.update
        if not (
            isinstance(test, N.BinaryOp)
            and test.op in ("<", "<=")
            and isinstance(test.left, N.Identifier)
            and isinstance(test.right, N.NumberLiteral)
        ):
            raise _Unbounded(f"unbounded loop at line {loop.line}")
        name = test.left.name
        start = None
        init = loop.init
        if isinstance(init, N.VariableDeclaration):
            for decl in init.declarations:
                if decl.name == name and isinstance(decl.init, N.NumberLiteral):
                    start = decl.init.value
        elif (
            isinstance(init, N.ExpressionStatement)
            and isinstance(init.expression, N.AssignmentExpression)
            and init.expression.op == "="
            and isinstance(init.expression.target, N.Identifier)
            and init.expression.target.name == name
            and isinstance(init.expression.value, N.NumberLiteral)
        ):
            start = init.expression.value.value
        step = None
        if (
            isinstance(update, N.UpdateExpression)
            and update.op == "++"
            and isinstance(update.target, N.Identifier)
            and update.target.name == name
        ):
            step = 1.0
        elif (
            isinstance(update, N.AssignmentExpression)
            and update.op == "+="
            and isinstance(update.target, N.Identifier)
            and update.target.name == name
            and isinstance(update.value, N.NumberLiteral)
            and update.value.value > 0
        ):
            step = update.value.value
        if start is None or step is None:
            raise _Unbounded(f"unbounded loop at line {loop.line}")
        if self._writes_inside(loop.body, name):
            raise _Unbounded(f"loop counter '{name}' written inside the loop at line {loop.line}")
        span = (test.right.value - start) / step
        if not math.isfinite(span):  # a literal past the largest double is infinite
            raise _Unbounded(f"unbounded loop at line {loop.line}")
        # Integers count exactly; with fractions, rounding in the division
        # or in the counter's running sum can add one more iteration.
        exact = all(float(v).is_integer() for v in (start, step, test.right.value))
        return max(0, int(span) + (1 if exact else 2))

    def _writes_inside(self, body: N.Node, name: str) -> bool:
        """Whether anything that can run in ``body`` writes the name ``name``."""
        seen: Set[int] = set()
        pending = [body]
        while pending:
            for node in _walk(pending.pop()):
                if isinstance(node, (N.AssignmentExpression, N.UpdateExpression)):
                    if isinstance(node.target, N.Identifier) and node.target.name == name:
                        return True
                elif isinstance(node, (N.VariableDeclarator, N.FunctionDeclaration)) and node.name == name:
                    return True
                elif isinstance(node, (N.CallExpression, N.NewExpression)):
                    for fn in self._callees(node.callee):
                        if id(fn) not in seen:
                            seen.add(id(fn))
                            pending.append(fn.body)
        return False

    # -- statements ------------------------------------------------------------

    def _stmts(self, body) -> int:
        return sum(self._stmt(stmt) for stmt in body)

    def _stmt(self, node: Optional[N.Node]) -> int:
        if node is None:
            return 0
        if isinstance(node, N.ExpressionStatement):
            return 1 + self._expr(node.expression)
        if isinstance(node, N.VariableDeclaration):
            return 1 + sum(self._expr(d.init) for d in node.declarations if d.init is not None)
        if isinstance(node, (N.FunctionDeclaration, N.BreakStatement, N.ContinueStatement, N.EmptyStatement)):
            return 1
        if isinstance(node, (N.ReturnStatement, N.ThrowStatement)):
            return 1 + (self._expr(node.argument) if node.argument is not None else 0)
        if isinstance(node, N.Block):
            return 1 + self._stmts(node.body)
        if isinstance(node, N.IfStatement):
            return 1 + self._expr(node.test) + max(self._stmt(node.consequent), self._stmt(node.alternate))
        if isinstance(node, N.ForStatement):
            iterations = self._iterations(node)
            test = self._expr(node.test)
            per_iteration = self._stmt(node.body) + (self._expr(node.update) if node.update is not None else 0)
            return 1 + self._stmt(node.init) + (iterations + 1) * test + iterations * per_iteration
        if isinstance(node, N.TryStatement):
            blocks = [node.block, node.handler, node.finalizer]
            return 1 + sum(self._stmts(block.body) for block in blocks if block is not None)
        if isinstance(node, N.SwitchStatement):
            return 1 + self._expr(node.discriminant) + sum(
                (self._expr(case.test) if case.test is not None else 0) + self._stmts(case.body)
                for case in node.cases
            )
        if isinstance(node, (N.WhileStatement, N.DoWhileStatement, N.ForOfStatement)):
            raise _Unbounded(f"unbounded loop at line {node.line}")
        raise _Unbounded(f"unmodelled {type(node).__name__} at line {node.line}")

    # -- expressions -----------------------------------------------------------

    def _expr(self, node: Optional[N.Node]) -> int:
        if node is None:
            return 0
        if type(node) in _LEAVES:
            return 1
        if isinstance(node, (N.ArrayLiteral, N.SequenceExpression)):
            items = node.elements if isinstance(node, N.ArrayLiteral) else node.expressions
            return 1 + sum(self._expr(item) for item in items)
        if isinstance(node, N.ObjectLiteral):
            return 1 + sum(self._expr(value) for _key, value in node.properties)
        if isinstance(node, N.UnaryOp):
            return 1 + self._expr(node.operand)
        if isinstance(node, N.UpdateExpression):
            return 1 + 2 * self._expr(node.target)
        if isinstance(node, (N.BinaryOp, N.LogicalOp)):
            return 1 + self._expr(node.left) + self._expr(node.right)
        if isinstance(node, N.ConditionalExpression):
            return 1 + self._expr(node.test) + max(self._expr(node.consequent), self._expr(node.alternate))
        if isinstance(node, N.AssignmentExpression):
            return 1 + self._expr(node.value) + 2 * self._expr(node.target)
        if isinstance(node, N.MemberExpression):
            return 1 + self._expr(node.obj) + (self._expr(node.prop) if node.computed else 0)
        if isinstance(node, (N.CallExpression, N.NewExpression)):
            return self._call(node)
        raise _Unbounded(f"unmodelled {type(node).__name__} at line {node.line}")


#: Node type -> the :class:`_Bound` method that indexes what it binds.
_INDEXERS = {
    N.FunctionDeclaration: _Bound._index_function,
    N.FunctionExpression: _Bound._index_function,
    N.VariableDeclarator: _Bound._index_declarator,
    N.ForOfStatement: _Bound._index_for_of,
    N.TryStatement: _Bound._index_try,
    N.ObjectLiteral: _Bound._index_object,
    N.AssignmentExpression: _Bound._index_store,
    N.UpdateExpression: _Bound._index_store,
}


def step_bound(program: N.Program) -> Tuple[Optional[int], str, bool]:
    """``(bound, "", reads_numbers)`` with ``bound`` at least the steps any
    run of ``program`` charges, or ``(None, reason, reads_numbers)`` when
    none can be proven; ``reads_numbers`` says whether the pass read a
    number literal's value."""
    bound = _Bound(program)
    try:
        return bound._stmts(program.body), "", bound.reads_numbers
    except _Unbounded as exc:
        return None, str(exc), bound.reads_numbers
    except RecursionError:
        return None, "nesting too deep to bound", bound.reads_numbers
