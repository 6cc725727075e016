"""The JavaScript realm: globals, script attribution and the step budget.

An :class:`Interpreter` owns one page's global namespace, into which the
browser injects host objects (``document``, ``window``, ``navigator`` …).
:meth:`Interpreter.run` executes a script through the closure compiler of
:mod:`repro.js.compiler`, parsing and compiling it only when the
process-wide compiled-script cache misses.  The interpreter tracks the URL
of the script currently executing so host hooks (canvas instrumentation)
can attribute API calls to scripts, and enforces a step budget so a buggy
synthetic script cannot hang a crawl.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro import perf
from repro.js import compiler as _compiler
from repro.js.errors import JSRuntimeError
from repro.js.parser import parse  # noqa: F401 -- re-export; perfbench's trace test checks this alias
from repro.js.values import (
    NULL,
    UNDEFINED,
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    js_to_string,
)

__all__ = ["Interpreter"]


class Interpreter:
    """Runs compiled programs against a shared global namespace."""

    #: Default maximum number of AST nodes evaluated per `run` call.
    DEFAULT_STEP_BUDGET = 5_000_000

    def __init__(self, step_budget: int = DEFAULT_STEP_BUDGET) -> None:
        #: Global bindings; compiled code reads and writes this dict directly.
        self.globals: Dict[str, Any] = {}
        self.step_budget = step_budget
        #: Stack of script URLs; the top is the script currently executing.
        self._script_stack: List[str] = []
        self.console_log: List[str] = []
        #: Mutable state threaded through compiled closures.
        self._rt = _compiler.Runtime(self)
        from repro.js.builtins import install_globals

        install_globals(self)

    # -- public API ------------------------------------------------------------

    @property
    def current_script(self) -> Optional[str]:
        """URL of the script currently executing (for attribution hooks)."""
        return self._script_stack[-1] if self._script_stack else None

    @property
    def steps_executed(self) -> int:
        """AST-node steps charged by the last `run`."""
        return self._rt.steps

    def define_global(self, name: str, value: Any) -> None:
        self.globals[name] = value

    def native(self, name: str, fn) -> NativeFunction:
        """Wrap a Python callable ``fn(interp, this, args)`` as a global."""
        nf = NativeFunction(fn, name)
        self.define_global(name, nf)
        return nf

    def run(self, source: str, script_url: str = "<inline>") -> Any:
        """Compile (on a cache miss) and execute ``source`` attributed to ``script_url``.

        Parse and compile failures propagate unchanged: a ``JSSyntaxError``,
        or a ``RecursionError`` on pathologically nested source.  Overflowing
        the Python stack while the program runs is the script's own runtime
        error, like a JavaScript stack overflow.
        """
        compiled = _compiler.get_or_compile(source, script_url)
        started = time.perf_counter()
        try:
            return _compiler.run_compiled(self, compiled, script_url)
        except RecursionError:
            raise JSRuntimeError("maximum call stack size exceeded", None, script_url) from None
        finally:
            perf.PERF.add_time("js.exec", time.perf_counter() - started)

    def close(self) -> None:
        """Release the realm once its page is done; nothing runs on it after.

        The runtime points back at the interpreter, and builtins such as
        ``console.log`` close over it from inside :attr:`globals`, so an open
        realm is a reference cycle.  Emptying the globals and unlinking the
        runtime leave every host object and function of the realm to die by
        reference count.
        """
        self.globals.clear()
        self._rt.interp = None

    def call_function(self, fn: Any, this: Any = None, args: Optional[List[Any]] = None) -> Any:
        """Invoke a JS or native function from host code."""
        return self._call(fn, this if this is not None else UNDEFINED, list(args or []), line=0)

    def get_member(self, obj: Any, name: str, line: int = 0, col: int = 0) -> Any:
        """Property access including primitive method dispatch."""
        from repro.js import builtins

        if obj is UNDEFINED or obj is NULL:
            raise JSRuntimeError(
                f"cannot read property {name!r} of {js_to_string(obj)}", line, self.current_script, col
            )
        if isinstance(obj, str):
            return builtins.string_member(self, obj, name)
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return builtins.number_member(self, float(obj), name)
        if isinstance(obj, JSArray):
            method = builtins.array_member(self, obj, name)
            if method is not None:
                return method
            return obj.get(name)
        if isinstance(obj, JSObject):
            if isinstance(obj, (JSFunction, NativeFunction)):
                fn_member = builtins.function_member(self, obj, name)
                if fn_member is not None:
                    return fn_member
            return obj.get(name)
        if isinstance(obj, bool):
            return UNDEFINED
        raise JSRuntimeError(f"cannot read property {name!r}", line, self.current_script, col)

    # -- helpers -------------------------------------------------------------------

    def _call(self, fn: Any, this: Any, args: List[Any], line: int, col: int = 0) -> Any:
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        if isinstance(fn, _compiler.CompiledFunction):
            # Compiled functions handed back to host code (callbacks, timers,
            # call/apply/bind) execute on their own frames.
            return fn.invoke(self._rt, this, args)
        raise JSRuntimeError(f"{js_to_string(fn)} is not a function", line, self.current_script, col)
