"""Structured tracing: nestable spans and point events with bounded buffers.

A :class:`Tracer` records *span* records (name, monotonic duration, status,
attributes, parent linkage) and *event* records (a timestamped point with
attributes).  Records are plain dicts — the exact lines the run's
``trace.jsonl`` stores and the Chrome ``trace_event`` exporter consumes —
and accumulate in an in-memory ring capped by
:attr:`~repro.obs.config.ObsConfig.max_events` (drops are counted, never
silent).

Design constraints, in order:

1. **Disabled ≈ free.**  With ``trace`` off, :meth:`Tracer.span` returns a
   shared no-op span and :meth:`Tracer.event` returns before touching its
   arguments' dict — the instrumented hot paths (page loads, stage
   boundaries, checkpoint writes) pay one attribute load and one branch.
2. **Deterministic sampling.**  ``sample < 1`` keeps a stable
   pseudo-random fraction of page-granularity records, keyed by the
   record's ``sample key`` (e.g. the domain) — two runs of the same crawl
   keep the same records, and a sampled log still names the same slow
   pages.  Structural spans (runs, stages, shards) are never sampled away.
3. **Cross-process mergeable.**  Records carry ``pid`` and a logical
   ``tid`` label (e.g. ``shard-03``); :meth:`Tracer.drain` hands a worker's
   records to the parent, :meth:`Tracer.ingest` folds them in exactly once.
"""

from __future__ import annotations

import os
import time
import zlib
from typing import Any, Dict, List, Optional

from repro.obs.config import ObsConfig

__all__ = ["Span", "Tracer", "NOOP_SPAN"]

#: Span names that sampling may drop (page-granularity volume); everything
#: else — run/stage/shard structure — is always kept.
SAMPLED_NAMES = frozenset({"crawl.page", "crawl.retry", "net.fault"})


def _keep(sample: float, key: str) -> bool:
    """Deterministic keep-decision: stable per key, uniform across keys."""
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    return (zlib.crc32(key.encode("utf-8", "replace")) % 10_000) < sample * 10_000


class Span:
    """One live span; becomes a plain record dict when it closes."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "_ts", "_t0", "status")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[str] = None
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self.status = "ok"

    @property
    def recording(self) -> bool:
        return True

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_status(self, status: str, detail: Optional[str] = None) -> None:
        self.status = status
        if detail is not None:
            self.attrs["status_detail"] = detail

    def __enter__(self) -> "Span":
        self.parent_id = self.tracer._push(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._pop()
        if exc_type is not None:
            self.set_status("error", f"{exc_type.__name__}: {exc}")
        self.tracer._finish(self, time.perf_counter() - self._t0)


class _NoopSpan:
    """Shared do-nothing span returned whenever tracing is off."""

    __slots__ = ()

    @property
    def recording(self) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_status(self, status: str, detail: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Per-process span/event recorder (the obs layer owns one global)."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.enabled = self.config.trace
        #: Logical thread/worker label stamped on records (e.g. ``shard-03``).
        self.tid = "main"
        self.dropped = 0
        self._records: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._seq = 0

    # -- configuration ---------------------------------------------------------

    def configure(self, config: ObsConfig) -> None:
        self.config = config
        self.enabled = config.trace

    # -- span/event API --------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a nestable span; a context manager either way.

        When tracing is off (the default) the shared :data:`NOOP_SPAN` comes
        back before ``attrs`` is even built into a record — callers on hot
        paths should pass only cheap attribute values.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, sample_key: str = "", **attrs: Any) -> None:
        """Record a point-in-time event (no duration)."""
        if not self.enabled:
            return
        if name in SAMPLED_NAMES and not _keep(self.config.sample, sample_key or name):
            return
        self._append(
            {
                "t": "event",
                "name": name,
                "ts": time.time(),
                "pid": os.getpid(),
                "tid": self.tid,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": attrs,
            }
        )

    # -- record plumbing -------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"{os.getpid():x}.{self._seq:x}"

    def _push(self, span_id: str) -> Optional[str]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return parent

    def _pop(self) -> None:
        if self._stack:
            self._stack.pop()

    def _finish(self, span: Span, duration: float) -> None:
        name = span.name
        if name in SAMPLED_NAMES and not _keep(
            self.config.sample, str(span.attrs.get("domain", span.span_id))
        ):
            return
        self._append(
            {
                "t": "span",
                "name": name,
                "ts": span._ts,
                "dur": duration,
                "pid": os.getpid(),
                "tid": self.tid,
                "id": span.span_id,
                "parent": span.parent_id,
                "status": span.status,
                "attrs": span.attrs,
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        if len(self._records) >= self.config.max_events:
            self.dropped += 1
            return
        self._records.append(record)

    # -- buffer management (cross-process propagation) -------------------------

    def records(self) -> List[Dict[str, Any]]:
        """The buffered records (read-only view for tests/summaries)."""
        return list(self._records)

    def drain(self) -> List[Dict[str, Any]]:
        """Hand off and clear the buffer (worker -> parent shipping)."""
        records, self._records = self._records, []
        return records

    def ingest(self, records: List[Dict[str, Any]]) -> None:
        """Fold records drained from another process into this buffer."""
        for record in records:
            self._append(record)

    def forget_inherited(self) -> None:
        """Drop the records and drop count a forked child copied from its parent.

        The open-span stack stays, so the child's spans still nest under
        the parent span that was open at the fork.
        """
        self._records = []
        self.dropped = 0

    def reset(self) -> None:
        self._records.clear()
        self._stack.clear()
        self.dropped = 0
        self.tid = "main"
