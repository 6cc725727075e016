"""Zero-dependency wall-clock sampling profiler with span-context attribution.

A background daemon thread wakes ``profile_hz`` times a second (a prime,
so it never locks step with periodic work), snapshots every thread's stack
via ``sys._current_frames``, and folds each observation into a process-local
:class:`SampleTable` keyed by ``(context, stack)``:

* **stack** — ``module:function`` frames, root first, capped at
  :data:`MAX_STACK_DEPTH`;
* **context** — the innermost active obs spans, translated to tags by
  :func:`span_context` (``stage.detect`` → ``("stage", "detect")``,
  ``crawl.page`` → ``("site", domain)``, …) plus explicit pushes like the
  browser's per-vendor-script tag — so a sample attributes all the way down
  stage → shard → page → site-domain → executing vendor script.

Design constraints, in order:

1. **Exactly transparent.**  Sampling only ever *reads* interpreter state;
   datasets and analyses are byte-identical with profiling on or off
   (pinned by test).  Hot paths pay one module-attribute load and one
   branch when the profiler is off (:data:`ACTIVE`).
2. **Exactly-once across processes.**  Workers drain their table per task
   (:func:`drain`) and ship the picklable snapshot home over the existing
   ``worker_payload``/``ingest_worker`` channel, so a process that runs
   several tasks never re-ships earlier samples.  Forked children (the
   supervisor forks on Linux) inherit the parent's table but not its
   sampler thread — :func:`maybe_start` detects the new pid and resets, so
   parent samples are never double-counted.
3. **Readable output.**  :func:`collapsed_stacks` emits flamegraph.pl
   lines (context tags become synthetic root frames), :func:`chrome_trace`
   a Perfetto-loadable trace, :func:`rollup` the "top self-time by site /
   vendor script / subsystem / stage" report tables.

GIL note: the sampler mutates the table from its own thread while the
owning thread may :func:`drain` it.  Both sides swap or update whole dict
references (atomic under the GIL), so no locks are needed and a drain can
at worst miss the one sample currently being folded — it lands in the next
window instead.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.config import ObsConfig

__all__ = [
    "ACTIVE",
    "SampleTable",
    "TABLE",
    "maybe_start",
    "stop",
    "drain",
    "merge",
    "context",
    "tagged",
    "span_context",
    "rollup",
    "collapsed_stacks",
    "chrome_trace",
    "reset",
]

#: Fast hot-path flag: is a sampler thread running in this process?
ACTIVE = False

#: Frames kept per sample, root-first (deeper tails are truncated).
MAX_STACK_DEPTH = 64

#: Distinct (context, stack) keys per table before samples are dropped
#: (drops are counted, never silent).
MAX_TABLE_KEYS = 50_000

#: The static analyzer's package: JS frames below it analyse, not compile.
_STATIC = "repro.js.static"

#: Leaf-ward path fragments -> subsystem labels for the rollup.  First
#: match walking leaf -> root wins, so a render helper called from the JS
#: interpreter still counts as render time, and a standard-library frame
#: counts for the subsystem that called it.  A ``repro.js.compiler`` frame
#: is compilation only under one of :data:`_COMPILING`; elsewhere it is a
#: closure running a compiled script, which is ``js.exec``.  Any JS frame
#: under a :data:`_STATIC` frame (the lexer and parser the analyzer calls,
#: its source digest) is ``js.static``.  A stack with no frame of the
#: program's own subsystems below is ``other``: the residual.
_SUBSYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("repro.crawler.supervisor", "supervisor"),
    ("repro.crawler", "crawler"),
    ("repro.core.reducers", "reducers"),
    (_STATIC, "js.static"),
    ("repro.js.compiler", "js.compile"),
    ("repro.js.parser", "js.compile"),
    ("repro.js.lexer", "js.compile"),
    ("repro.js.nodes", "js.compile"),
    ("repro.js.tokens", "js.compile"),
    ("repro.js.", "js.exec"),
    ("repro.canvas", "render"),
    ("repro.dom", "render"),
    ("repro.browser", "browser"),
    ("repro.net", "net"),
    ("repro.blocklists", "blocklists"),
    ("repro.webgen", "webgen"),
)

#: The compiler's entry points: frames below them compile, not execute.
_COMPILING = frozenset(
    f"repro.js.compiler:{name}" for name in ("compile_program", "get_or_compile")
)


class SampleTable:
    """Aggregated samples: ``(context, stack) -> [count, seconds]``."""

    def __init__(self) -> None:
        self.entries: Dict[Tuple[tuple, tuple], List[float]] = {}
        self.dropped = 0

    def record(self, ctx: tuple, stack: tuple, weight: float) -> None:
        key = (ctx, stack)
        row = self.entries.get(key)
        if row is not None:
            row[0] += 1
            row[1] += weight
        elif len(self.entries) < MAX_TABLE_KEYS:
            self.entries[key] = [1, weight]
        else:
            self.dropped += 1

    def snapshot(self) -> Dict[str, Any]:
        """Picklable/JSON-able copy (ships over the worker channel)."""
        return {
            "entries": [
                [list(ctx), list(stack), int(row[0]), float(row[1])]
                for (ctx, stack), row in self.entries.items()
            ],
            "dropped": self.dropped,
        }

    def merge(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a drained snapshot in (associative, like metric deltas)."""
        if not snapshot:
            return
        for ctx, stack, count, seconds in snapshot.get("entries", ()):
            key = (tuple(tuple(tag) for tag in ctx), tuple(stack))
            row = self.entries.get(key)
            if row is not None:
                row[0] += count
                row[1] += seconds
            elif len(self.entries) < MAX_TABLE_KEYS:
                self.entries[key] = [count, seconds]
            else:
                self.dropped += count
        self.dropped += int(snapshot.get("dropped", 0))

    def clear(self) -> None:
        self.entries = {}
        self.dropped = 0


#: Process-global sample table (workers drain it per task; the study
#: process drains it once at the end of the run).
TABLE = SampleTable()

#: Per-thread context-tag stacks, keyed by ``threading.get_ident()`` —
#: the same keys ``sys._current_frames`` reports, so the sampler can pair
#: a thread's stack with its tags without any cross-thread bookkeeping.
_CONTEXTS: Dict[int, List[Tuple[str, str]]] = {}

_SAMPLER: Optional["_Sampler"] = None
_PID = os.getpid()
_FILE_LABELS: Dict[str, str] = {}


# -- context tags --------------------------------------------------------------


def push_context(kind: str, label: str) -> None:
    """Tag the calling thread's subsequent samples with ``(kind, label)``."""
    ident = threading.get_ident()
    stack = _CONTEXTS.get(ident)
    if stack is None:
        # Replace, don't mutate-in-place on first use: the sampler thread
        # iterates _CONTEXTS without a lock.
        _CONTEXTS[ident] = [(kind, label)]
    else:
        stack.append((kind, label))


def pop_context() -> None:
    stack = _CONTEXTS.get(threading.get_ident())
    if stack:
        stack.pop()


class _Context:
    """``with profiler.context("script", url):`` — push/pop one tag."""

    __slots__ = ("kind", "label")

    def __init__(self, kind: str, label: str) -> None:
        self.kind = kind
        self.label = label

    def __enter__(self) -> "_Context":
        push_context(self.kind, self.label)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pop_context()


def context(kind: str, label: str) -> _Context:
    return _Context(kind, str(label))


class _TaggedSpan:
    """Span wrapper that brackets the span with a profiler context tag."""

    __slots__ = ("inner", "tag")

    def __init__(self, inner: Any, tag: Tuple[str, str]) -> None:
        self.inner = inner
        self.tag = tag

    @property
    def recording(self) -> bool:
        return self.inner.recording

    def set_attr(self, key: str, value: Any) -> None:
        self.inner.set_attr(key, value)

    def set_status(self, status: str, detail: Optional[str] = None) -> None:
        self.inner.set_status(status, detail)

    def __enter__(self) -> "_TaggedSpan":
        push_context(*self.tag)
        self.inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        result = self.inner.__exit__(exc_type, exc, tb)
        pop_context()
        return result


def tagged(inner: Any, tag: Tuple[str, str]) -> _TaggedSpan:
    return _TaggedSpan(inner, tag)


def span_context(name: str, attrs: Dict[str, Any]) -> Optional[Tuple[str, str]]:
    """Map an obs span to a sample tag (None for spans with no cost identity)."""
    if name.startswith("stage."):
        return ("stage", name[len("stage."):])
    if name == "crawl.page":
        return ("site", str(attrs.get("domain", "?")))
    if name == "crawl.shard":
        return ("shard", str(attrs.get("shard", "?")))
    if name == "study.run":
        return ("study", "run")
    return None


# -- the sampler thread --------------------------------------------------------


def _frame_label(frame) -> str:
    filename = frame.f_code.co_filename
    label = _FILE_LABELS.get(filename)
    if label is None:
        normalized = filename.replace("\\", "/")
        marker = normalized.rfind("/repro/")
        if marker >= 0:
            label = normalized[marker + 1 : -3] if normalized.endswith(".py") else normalized[marker + 1 :]
            label = label.replace("/", ".")
        else:
            base = normalized.rsplit("/", 1)[-1]
            label = base[:-3] if base.endswith(".py") else base
        _FILE_LABELS[filename] = label
    return f"{label}:{frame.f_code.co_name}"


class _Sampler(threading.Thread):
    def __init__(self, hz: float) -> None:
        super().__init__(name="repro-obs-sampler", daemon=True)
        self.hz = hz
        # Not named ``_stop``: threading._after_fork calls Thread._stop()
        # on every surviving thread object, and shadowing it with an Event
        # raises (noisily, on stderr) in every forked worker.
        self._halt_event = threading.Event()

    def halt(self) -> None:
        self._halt_event.set()

    def run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        # Jitter start phase off the epoch so hz never aliases caller clocks.
        self._halt_event.wait(interval * (time.time() % 1.0))
        last = time.perf_counter()
        while not self._halt_event.wait(interval):
            # A sample stands for the wall time since the last one, not the
            # nominal interval: waking and taking the GIL back run late, by
            # a quarter of the interval or more on a busy machine.
            now = time.perf_counter()
            elapsed, last = now - last, now
            try:
                frames = sys._current_frames()
            except Exception:
                continue
            for ident, frame in frames.items():
                if ident == own:
                    continue
                stack: List[str] = []
                depth = 0
                while frame is not None and depth < MAX_STACK_DEPTH:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                stack.reverse()
                ctx = tuple(_CONTEXTS.get(ident, ()))
                TABLE.record(ctx, tuple(stack), elapsed)


# -- lifecycle -----------------------------------------------------------------


def maybe_start(config: ObsConfig) -> bool:
    """Start (or stop) the sampler to match ``config``; fork-safe.

    Called from the study process and from every shard/supervised worker's
    task entry point.  A forked child inherits the parent's table and
    context dict but not the sampler thread; starting here after a pid
    check resets both, so parent samples are never shipped twice.
    """
    global _SAMPLER, _PID, ACTIVE
    if _PID != os.getpid():
        _PID = os.getpid()
        _SAMPLER = None  # thread objects don't survive fork
        ACTIVE = False
        TABLE.clear()
        _CONTEXTS.clear()
    if not config.profile:
        stop()
        return False
    if _SAMPLER is not None and _SAMPLER.is_alive() and _SAMPLER.hz == config.profile_hz:
        return True
    stop()
    _SAMPLER = _Sampler(config.profile_hz)
    _SAMPLER.start()
    ACTIVE = True
    return True


def stop() -> None:
    """Stop the sampler thread (the table keeps its samples).

    Joins the thread: one halted mid-sample would otherwise record after
    this returns, into a table the caller may already have cleared.
    """
    global _SAMPLER, ACTIVE
    ACTIVE = False
    if _SAMPLER is not None:
        _SAMPLER.halt()
        if _SAMPLER.is_alive():
            _SAMPLER.join()
        _SAMPLER = None


def drain() -> Optional[Dict[str, Any]]:
    """Take-and-clear the table as a picklable snapshot (None when empty)."""
    global TABLE
    if not TABLE.entries and not TABLE.dropped:
        return None
    table, TABLE = TABLE, SampleTable()
    return table.snapshot()


def merge(snapshot: Optional[Dict[str, Any]]) -> None:
    """Fold a worker's drained snapshot into this process's table."""
    TABLE.merge(snapshot)


def reset() -> None:
    """Test isolation: stop sampling and forget everything."""
    stop()
    TABLE.clear()
    _CONTEXTS.clear()


# -- analyses / exports --------------------------------------------------------


def _innermost(ctx: Iterable[Tuple[str, str]], kind: str) -> Optional[str]:
    label = None
    for tag_kind, tag_label in ctx:
        if tag_kind == kind:
            label = tag_label
    return label


def _subsystem(stack: Tuple[str, ...]) -> str:
    for index in range(len(stack) - 1, -1, -1):
        module = stack[index].split(":", 1)[0]
        for fragment, label in _SUBSYSTEMS:
            if module.startswith(fragment):
                if label.startswith("js.") and any(
                    frame.startswith(_STATIC) for frame in stack[:index]
                ):
                    return "js.static"
                if module == "repro.js.compiler" and _COMPILING.isdisjoint(stack):
                    return "js.exec"
                return label
    return "other"


def _entries(snapshot: Optional[Dict[str, Any]]):
    for ctx, stack, count, seconds in (snapshot or {}).get("entries", ()):
        yield tuple(tuple(tag) for tag in ctx), tuple(stack), int(count), float(seconds)


def rollup(snapshot: Optional[Dict[str, Any]], top: int = 10) -> Dict[str, Any]:
    """Self-time tables: by site, by vendor script, by subsystem, by stage.

    Picklable and JSON-able — this is what lands in ``StudyResult.profile``,
    the trace summary line, and the run-history ledger.
    """
    samples = 0
    seconds = 0.0
    unattributed = 0
    by: Dict[str, Dict[str, List[float]]] = {
        "site": {}, "script": {}, "stage": {}, "shard": {}, "subsystem": {}
    }
    for ctx, stack, count, secs in _entries(snapshot):
        samples += count
        seconds += secs
        if not ctx:
            unattributed += count
        for kind in ("site", "script", "stage", "shard"):
            label = _innermost(ctx, kind)
            if label is not None:
                row = by[kind].setdefault(label, [0, 0.0])
                row[0] += count
                row[1] += secs
        sub = _subsystem(stack)
        row = by["subsystem"].setdefault(sub, [0, 0.0])
        row[0] += count
        row[1] += secs

    def table(kind: str) -> List[Dict[str, Any]]:
        rows = sorted(by[kind].items(), key=lambda kv: (-kv[1][1], kv[0]))[:top]
        return [
            {"name": name, "samples": int(count), "seconds": round(secs, 4)}
            for name, (count, secs) in rows
        ]

    return {
        "samples": samples,
        "seconds": round(seconds, 4),
        "dropped": int((snapshot or {}).get("dropped", 0)),
        "unattributed_samples": unattributed,
        "by_site": table("site"),
        "by_script": table("script"),
        "by_stage": table("stage"),
        "by_shard": table("shard"),
        "by_subsystem": table("subsystem"),
    }


def _safe(label: str) -> str:
    return label.replace(";", ",").replace(" ", "_") or "?"


def collapsed_stacks(snapshot: Optional[Dict[str, Any]]) -> List[str]:
    """flamegraph.pl-compatible lines: ``frame;frame;... count``.

    Context tags become synthetic root frames (``stage:detect``,
    ``site:news4.example`` …); samples with no context root at
    ``<unattributed>`` so the attribution rate is visible in the graph.
    """
    merged: Dict[str, int] = {}
    for ctx, stack, count, _ in _entries(snapshot):
        frames = [f"{kind}:{_safe(label)}" for kind, label in ctx]
        if not frames:
            frames = ["<unattributed>"]
        frames.extend(_safe(frame) for frame in stack)
        key = ";".join(frames)
        merged[key] = merged.get(key, 0) + count
    return [f"{key} {count}" for key, count in sorted(merged.items())]


def chrome_trace(snapshot: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregated samples as a Chrome ``trace_event`` flame chart.

    The timeline is synthetic (samples have no wall-clock order once
    aggregated): entries are laid end to end, each as a nested set of
    complete events — context tags outermost, then the frames.  Loads in
    Perfetto/about:tracing and passes
    :func:`repro.obs.export.validate_chrome_trace`.
    """
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1,
         "args": {"name": "profile (aggregated)"}}
    ]
    cursor = 0.0
    rows = sorted(_entries(snapshot), key=lambda row: (row[0], row[1]))
    for ctx, stack, count, seconds in rows:
        duration_us = max(1.0, seconds * 1e6)
        names = [f"{kind}:{label}" for kind, label in ctx] or ["<unattributed>"]
        names.extend(stack)
        for depth, name in enumerate(names):
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": "profile",
                    "ts": cursor + depth * 0.001,
                    "dur": duration_us - depth * 0.002,
                    "pid": 0,
                    "tid": 1,
                    "args": {"samples": count} if depth == len(names) - 1 else {},
                }
            )
        cursor += duration_us + 1.0
    return {"traceEvents": events, "displayTimeUnit": "ms"}
