"""Study-wide observability: structured tracing, unified metrics, run artifacts.

Three pillars, one import (``from repro import obs``):

* **Tracing** — ``obs.span("crawl.page", domain=...)`` opens a nestable
  span; ``obs.event("crawl.retry", ...)`` records a point event.  Off by
  default (``REPRO_OBS_TRACE=1`` enables): a disabled call is one branch
  and a shared no-op object, so instrumentation lives permanently in the
  crawler, stage graph and storage layers at no measurable cost.
* **Metrics** — ``obs.METRICS`` is the process-global
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms).  Always on, and the only place counters live:
  the cache and timer layers of :mod:`repro.perf` count into it too.
  Shard workers ship one *delta* back to the parent
  (:func:`worker_payload` / :func:`ingest_worker`), so a sharded crawl's
  numbers aggregate with no loss and no double-count.
* **Run artifacts** — :class:`~repro.obs.recorder.RunRecorder` writes a
  ``manifest.json`` + ``trace.jsonl`` per run (and appends every run to
  the ``runs.jsonl`` history ledger); ``python -m repro.obs`` inspects
  them (``summary``, ``slow``, ``export-trace``, ``history``, ``diff``,
  ``regress``).
* **Profiling** — :mod:`repro.obs.profiler` is a wall-clock sampling
  profiler (``REPRO_OBS_PROFILE=1``) whose samples are tagged with the
  innermost active span, so self-time attributes to stages, sites and
  vendor scripts.  Sample tables ride the same worker payload channel as
  metrics, with the same exactly-once guarantee.

Span taxonomy and metric names are catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.obs import profiler
from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import diff_snapshots as diff_metric_snapshots
from repro.obs.trace import NOOP_SPAN, Tracer

__all__ = [
    "ObsConfig",
    "MetricsRegistry",
    "Tracer",
    "NOOP_SPAN",
    "METRICS",
    "TRACE",
    "diff_metric_snapshots",
    "config",
    "configure",
    "enabled",
    "span",
    "event",
    "inc",
    "gauge",
    "observe",
    "set_worker_label",
    "worker_payload",
    "ingest_worker",
    "reset",
    "profiler",
]

_CONFIG = ObsConfig.from_env()

#: Process-global tracer and metrics registry (workers get their own copies
#: of these module globals and ship deltas back to the parent).
TRACE = Tracer(_CONFIG)
METRICS = MetricsRegistry()

# A forked worker starts with a copy of its parent's trace buffer.  Those
# records are the parent's to ship, so the child forgets them: its
# worker_payload then carries only what the child itself recorded.
os.register_at_fork(after_in_child=TRACE.forget_inherited)


def config() -> ObsConfig:
    """The active observability configuration."""
    return _CONFIG


def configure(cfg: ObsConfig) -> None:
    """Install ``cfg`` (e.g. a shard worker adopting its parent's knobs)."""
    global _CONFIG
    _CONFIG = cfg
    TRACE.configure(cfg)


def enabled() -> bool:
    """Whether span/event recording is on (metrics are always on)."""
    return TRACE.enabled


# -- thin hot-path wrappers ---------------------------------------------------


def span(name: str, **attrs: Any):
    """Open a span (a context manager; no-op when tracing is off).

    When the sampling profiler is running, spans that carry a cost
    identity (stages, shards, pages) also push a profiler context tag for
    their duration — even with tracing off, so profiling works standalone.
    """
    if profiler.ACTIVE:
        inner = TRACE.span(name, **attrs) if TRACE.enabled else NOOP_SPAN
        tag = profiler.span_context(name, attrs)
        return profiler.tagged(inner, tag) if tag is not None else inner
    if not TRACE.enabled:
        return NOOP_SPAN
    return TRACE.span(name, **attrs)


def event(name: str, sample_key: str = "", **attrs: Any) -> None:
    """Record a point event (no-op when tracing is off)."""
    if TRACE.enabled:
        TRACE.event(name, sample_key=sample_key, **attrs)


def inc(name: str, value: float = 1.0) -> None:
    METRICS.inc(name, value)


def gauge(name: str, value: float) -> None:
    METRICS.gauge(name, value)


def observe(name: str, value: float) -> None:
    METRICS.observe(name, value)


# -- cross-process propagation ------------------------------------------------


def set_worker_label(tid: str) -> None:
    """Stamp this process's records with a logical worker label."""
    TRACE.tid = tid


def worker_payload(metrics_before: Dict[str, Any]) -> Dict[str, Any]:
    """Everything a worker ships back for one task: span records + metric delta.

    ``metrics_before`` must be the ``METRICS.snapshot()`` taken when the
    task *started*: a worker forked after its parent took in other workers'
    deltas inherits those counts, and shipping a cumulative snapshot would
    double-count them on merge.  Spans are drained (handed off exactly
    once) for the same reason, and a forked child never holds its parent's
    records (see :meth:`Tracer.forget_inherited`).
    """
    return {
        "spans": TRACE.drain(),
        "metrics": diff_metric_snapshots(metrics_before, METRICS.snapshot()),
        "dropped": TRACE.dropped,
        # Profiler samples drain per task for the same exactly-once reason
        # (None when the profiler is off or saw nothing this window).
        "profile": profiler.drain(),
    }


def ingest_worker(payload: Optional[Dict[str, Any]]) -> None:
    """Fold one worker task's payload into this process exactly once."""
    if not payload:
        return
    TRACE.ingest(payload.get("spans", ()))
    METRICS.merge(payload.get("metrics", {}))
    TRACE.dropped += int(payload.get("dropped", 0))
    profiler.merge(payload.get("profile"))


def reset() -> None:
    """Test isolation: clear buffered records and zero every metric."""
    TRACE.reset()
    METRICS.reset()
    profiler.reset()


def _labeled(name: str, label: str) -> str:
    """Per-crawl variant of a metric name (``crawler.pages[control]``)."""
    return f"{name}[{label}]" if label else name
