#!/usr/bin/env python
"""Repo-specific AST lint: guard the exactly-once worker-metrics channel.

Every crawl worker ships its telemetry to the parent process exactly once,
as one explicit payload delta: ``obs.worker_payload`` carries the metrics
delta (cache and timer layers included), histograms and profiler samples,
and the parent folds it back with ``obs.ingest_worker``.  That channel
only stays exactly-once if all counters live in the process-wide
singletons — a second registry instantiated at module scope would
accumulate counts that no payload ever carries, silently losing telemetry
for every sharded run.

Two rules, both enforced purely on the AST (nothing is imported):

``detached-registry``
    Module-level instantiation of ``MetricsRegistry`` / ``SampleTable``
    anywhere but the blessed singleton homes (``obs.METRICS``,
    ``obs.profiler.TABLE``).  Local instantiations inside functions are
    fine — tests and snapshot helpers build throwaway registries — but a
    module-level one is shared state that dodges the payload channel.

``dynamic-cache-layer``
    ``ByteBudgetLRU(...)`` whose layer name is not a string literal.  The
    layer name labels the cache's counters (``perf.hits[<layer>]``) in
    every worker payload and report; a computed name cannot be merged
    deterministically across workers or compared across runs.

That every worker ships its delta needs no rule: the one worker body,
``repro.crawler.shards.shard_worker``, returns a ``WorkerResult`` whose
fields require it, and ``tests/obs`` fails if it stops arriving.

Usage::

    python tools/lint_repro.py            # lints src/repro
    python tools/lint_repro.py PATH ...   # lints the given files/trees

Exit status 1 when any finding is reported, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Registry classes that must only be instantiated at module level in their
#: blessed singleton homes (file suffix -> class names allowed there).
REGISTRY_CLASSES = ("MetricsRegistry", "SampleTable")
SINGLETON_HOMES = {
    "repro/obs/__init__.py": {"MetricsRegistry"},
    "repro/obs/profiler.py": {"SampleTable"},
}

Finding = Tuple[Path, int, str, str]


def _call_name(node: ast.Call) -> str:
    """Rightmost name of the called expression (``perf.ByteBudgetLRU`` ->
    ``ByteBudgetLRU``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _module_level_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """Every Call that executes at import time (module scope, including
    inside module-level conditionals, but not inside def/class bodies)."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node


def lint_file(path: Path, root: Path) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [(path, error.lineno or 0, "syntax-error", str(error))]

    rel = path.as_posix()
    findings: List[Finding] = []

    allowed_here = set()
    for suffix, names in SINGLETON_HOMES.items():
        if rel.endswith(suffix):
            allowed_here = names
            break

    for call in _module_level_calls(tree):
        name = _call_name(call)
        if name in REGISTRY_CLASSES and name not in allowed_here:
            findings.append(
                (
                    path,
                    call.lineno,
                    "detached-registry",
                    f"module-level {name}() outside its singleton home: its "
                    "counters never ship in a worker payload (use "
                    "obs.METRICS / obs.profiler.TABLE)",
                )
            )

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "ByteBudgetLRU"):
            continue
        layer = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "layer":
                layer = keyword.value
        if not (isinstance(layer, ast.Constant) and isinstance(layer.value, str)):
            findings.append(
                (
                    path,
                    node.lineno,
                    "dynamic-cache-layer",
                    "ByteBudgetLRU layer name must be a string literal: it "
                    "labels the cache's counters in every worker payload",
                )
            )

    return findings


def iter_python_files(paths: List[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(__file__).resolve().parent.parent
    targets = [Path(arg) for arg in argv] or [root / "src" / "repro"]

    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(targets):
        checked += 1
        findings.extend(lint_file(path, root))

    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: {rule}: {message}")
    print(
        f"lint_repro: {checked} file(s) checked, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
