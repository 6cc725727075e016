"""Run-log loading and the analyses behind ``python -m repro.obs``.

A *run* is a directory holding ``manifest.json`` + ``trace.jsonl`` (written
by :class:`~repro.obs.recorder.RunRecorder`).  :func:`load_run` accepts the
directory or the trace file itself and returns a :class:`RunLog`; the
``summary`` / ``slow`` renderers turn it into the operator views the ISSUE
describes: totals that agree with :class:`~repro.crawler.crawl.CrawlHealth`
exactly (they come from the never-sampled metrics delta), retry hot spots,
top slow pages, stage timings and the cache and timer layers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.manifest import MANIFEST_NAME
from repro.obs.metrics import Histogram, layer_rows
from repro.obs.recorder import TRACE_NAME

__all__ = [
    "RunLog",
    "load_run",
    "crawl_totals",
    "summary_text",
    "slow_text",
    "histogram_rows",
    "layer_table",
    "quarantine_rows",
    "profile_text",
]

#: ``crawler.failures[label|reason]`` / ``crawler.attempts[label|n]`` parser.
_BRACKET = re.compile(r"^(?P<base>[^\[]+)\[(?P<inner>[^\]]*)\]$")


@dataclass
class RunLog:
    """One parsed run: manifest, span/event records, final summary line."""

    path: Path
    manifest: Dict[str, Any] = field(default_factory=dict)
    header: Dict[str, Any] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self.summary.get("metrics", {}).get("counters", {}))

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self.summary.get("metrics", {}).get("gauges", {}))

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            r
            for r in self.records
            if r.get("t") == "span" and (name is None or r.get("name") == name)
        ]

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [
            r
            for r in self.records
            if r.get("t") == "event" and (name is None or r.get("name") == name)
        ]

    @property
    def is_empty(self) -> bool:
        """True when the trace file held nothing usable (empty file, or a
        run killed before the header line landed) — callers should explain
        rather than render an all-zero summary."""
        return not self.header and not self.summary and not self.records


def load_run(path: Union[str, Path]) -> RunLog:
    """Load a run directory (or a bare ``trace.jsonl``) into a :class:`RunLog`."""
    path = Path(path)
    trace_path = path / TRACE_NAME if path.is_dir() else path
    run_dir = trace_path.parent
    if not trace_path.exists():
        raise FileNotFoundError(f"{trace_path}: no trace log (expected {TRACE_NAME})")

    log = RunLog(path=run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    if manifest_path.exists():
        try:
            log.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            log.manifest = {}
    with open(trace_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed run: keep what parses
            kind = record.get("t")
            if kind == "run":
                log.header = record
            elif kind == "summary":
                log.summary = record
            else:
                log.records.append(record)
    return log


# -- analyses -----------------------------------------------------------------


def _bracketed(counters: Dict[str, float], base: str) -> Dict[str, float]:
    """All ``base[inner]`` counters, keyed by the bracket contents."""
    out: Dict[str, float] = {}
    for name, value in counters.items():
        match = _BRACKET.match(name)
        if match and match.group("base") == base:
            out[match.group("inner")] = value
    return out


def crawl_totals(log: RunLog, label: str) -> Dict[str, Any]:
    """Health-equivalent totals for one crawl label, from the metrics delta.

    The returned dict mirrors :class:`~repro.crawler.crawl.CrawlHealth`
    field for field (total/successes/recovered/attempts histogram/failure
    rows/inner-page failures), computed purely from the run log — the
    agreement the tests assert observation-for-observation.
    """
    from repro.crawler.resilience import is_transient

    counters = log.counters
    attempts_histogram = {
        int(inner.split("|", 1)[1]): int(count)
        for inner, count in _bracketed(counters, "crawler.attempts").items()
        if inner.startswith(f"{label}|")
    }
    failures: Dict[str, int] = {
        inner.split("|", 1)[1]: int(count)
        for inner, count in _bracketed(counters, "crawler.failures").items()
        if inner.startswith(f"{label}|")
    }
    failure_rows: Tuple[Tuple[str, int, bool], ...] = tuple(
        (reason, count, is_transient(reason))
        for reason, count in sorted(failures.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    return {
        "label": label,
        "total": int(counters.get(f"crawler.pages[{label}]", 0)),
        "successes": int(counters.get(f"crawler.pages_ok[{label}]", 0)),
        "recovered": int(counters.get(f"crawler.recovered[{label}]", 0)),
        "attempts_histogram": attempts_histogram,
        "failure_rows": failure_rows,
        "inner_page_failures": int(counters.get(f"crawler.inner_page_failures[{label}]", 0)),
        "total_attempts": int(counters.get(f"crawler.attempts_total[{label}]", 0)),
        "retries": int(counters.get(f"crawler.retries[{label}]", 0)),
    }


def crawl_labels(log: RunLog) -> List[str]:
    """Every crawl label the run's metrics saw, stable order."""
    return sorted(_bracketed(log.counters, "crawler.pages"))


def _stage_rows(log: RunLog) -> List[Tuple[str, float, bool]]:
    """(stage, seconds, cached) rows from the stage gauges/counters."""
    seconds = _bracketed(log.gauges, "stage.seconds")
    cached = _bracketed(log.counters, "stage.cached")
    return [(name, seconds[name], bool(cached.get(name))) for name in seconds]


def layer_table(rows: Dict[str, Dict[str, float]]) -> List[str]:
    """Table lines for per-layer rows (:func:`~repro.obs.metrics.layer_rows`).

    One row per cache layer with lookups (hit rate, hits, misses and the
    seconds its hits are estimated to have saved), then one per timer
    layer with the wall seconds it recorded (``gc`` is the collector's
    pauses).  No lines when no layer recorded anything.
    """
    caches = sorted(name for name, row in rows.items() if row["hits"] or row["misses"])
    timers = sorted(
        name for name, row in rows.items() if name not in caches and row["miss_seconds"]
    )
    if not caches and not timers:
        return []
    lines = [f"{'layer':18s} {'hit rate':>9s} {'hits':>9s} {'misses':>9s} {'saved':>9s}"]
    for name in caches:
        row = rows[name]
        lines.append(
            f"{name:18s} {row['hit_rate']:8.1%} {int(row['hits']):9d} "
            f"{int(row['misses']):9d} {row['saved_seconds']:8.2f}s"
        )
    for name in timers:
        seconds = rows[name]["miss_seconds"]
        lines.append(f"{name:18s} {'-':>9s} {'-':>9s} {'-':>9s} {seconds:8.2f}s wall")
    return lines


def histogram_rows(log: RunLog) -> List[Tuple[str, int, float, float, float, float]]:
    """(name, count, mean, p50, p95, p99) for every histogram in the delta.

    Quantiles are derived from the fixed bucket counts
    (:meth:`~repro.obs.metrics.Histogram.quantile`), so they are estimates
    — good to a bucket width — but computed from the exact, never-sampled
    metrics delta.
    """
    rows = []
    for name, data in sorted(log.summary.get("metrics", {}).get("histograms", {}).items()):
        hist = Histogram.from_json(data)
        if not hist.count:
            continue
        rows.append(
            (name, hist.count, hist.mean, hist.quantile(0.5), hist.quantile(0.95),
             hist.quantile(0.99))
        )
    return rows


def quarantine_rows(log: RunLog) -> Tuple[int, List[Tuple[str, int]]]:
    """(quarantined site count, top (reason, count) rows) for the run.

    The count comes from the supervisor's own counter and equals
    ``CrawlDataset.health().quarantined`` (asserted by test); the reasons
    are the ``quarantined:<signal>`` failure classes the supervisor stamps
    on salvaged observations.
    """
    counters = log.counters
    quarantined = int(counters.get("supervisor.quarantined", 0))
    reasons: Dict[str, int] = {}
    for inner, count in _bracketed(counters, "crawler.failures").items():
        reason = inner.split("|", 1)[1] if "|" in inner else inner
        if reason.startswith("quarantined"):
            reasons[reason] = reasons.get(reason, 0) + int(count)
    rows = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    return quarantined, rows


def profile_text(rollup: Optional[Dict[str, Any]], top: int = 5) -> List[str]:
    """Render a profiler rollup (from the summary line or the ledger)."""
    if not rollup or not rollup.get("samples"):
        return []
    samples = int(rollup["samples"])
    attributed = samples - int(rollup.get("unattributed_samples", 0))
    lines = [
        f"profile: {samples} samples / {float(rollup.get('seconds', 0.0)):.2f}s sampled, "
        f"{attributed / samples:.0%} attributed"
        + (
            f", {int(rollup.get('dropped', 0))} dropped at the table cap"
            if rollup.get("dropped")
            else ""
        )
    ]
    for kind, title in (
        ("by_subsystem", "self-time by subsystem"),
        ("by_stage", "self-time by stage"),
        ("by_site", "self-time by site"),
        ("by_script", "self-time by vendor script"),
    ):
        rows = rollup.get(kind) or []
        if not rows:
            continue
        lines.append(f"  {title}:")
        for row in rows[:top]:
            lines.append(
                f"    {str(row.get('name', '?'))[:48]:48s} "
                f"{float(row.get('seconds', 0.0)):8.2f}s "
                f"({int(row.get('samples', 0))} samples)"
            )
    return lines


def page_spans(log: RunLog) -> List[Dict[str, Any]]:
    return log.spans("crawl.page")


def slow_pages(log: RunLog, top: int = 10) -> List[Dict[str, Any]]:
    """The ``top`` slowest page spans (by recorded wall duration)."""
    pages = sorted(page_spans(log), key=lambda r: -float(r.get("dur", 0.0)))
    return pages[:top]


def retry_hot_spots(log: RunLog, top: int = 10) -> List[Tuple[str, int]]:
    """Domains by retry volume — from span attempts, falling back to events."""
    by_domain: Dict[str, int] = {}
    for record in page_spans(log):
        attempts = int(record.get("attrs", {}).get("attempts", 1))
        if attempts > 1:
            domain = str(record.get("attrs", {}).get("domain", "?"))
            by_domain[domain] = by_domain.get(domain, 0) + attempts - 1
    if not by_domain:
        for record in log.events("crawl.retry"):
            domain = str(record.get("attrs", {}).get("domain", "?"))
            by_domain[domain] = by_domain.get(domain, 0) + 1
    return sorted(by_domain.items(), key=lambda kv: (-kv[1], kv[0]))[:top]


# -- renderers ----------------------------------------------------------------


def summary_text(log: RunLog, top: int = 5) -> str:
    """The ``repro.obs summary`` view."""
    manifest = log.manifest
    counters = log.counters
    lines = [
        f"run '{log.header.get('label', manifest.get('label', '?'))}'"
        f"  created {manifest.get('created', '?')}"
        f"  git {manifest.get('git') or '?'}",
    ]
    if manifest.get("config_digest"):
        lines.append(f"config digest: {manifest['config_digest']}")
    if manifest.get("seed") is not None:
        lines.append(f"seed: {manifest['seed']}")
    if manifest.get("shard_plan"):
        plan = manifest["shard_plan"]
        lines.append(
            f"shard plan: {plan.get('shards')} shard(s) x jobs={plan.get('jobs')} "
            f"sizes={plan.get('sizes')}"
        )

    for label in crawl_labels(log):
        totals = crawl_totals(log, label)
        lines.append(
            f"crawl '{label}': {totals['successes']}/{totals['total']} sites ok, "
            f"{totals['recovered']} recovered by retry, "
            f"{totals['total_attempts']} page-load attempts "
            f"({totals['retries']} retries)"
        )
        if totals["inner_page_failures"]:
            lines.append(f"  inner-page load failures: {totals['inner_page_failures']}")
        for reason, count, transient in totals["failure_rows"]:
            kind = "transient" if transient else "permanent"
            lines.append(f"  failure {reason:28s} {count:6d}  ({kind})")

    quarantined, quarantine_reasons = quarantine_rows(log)
    if quarantined or quarantine_reasons:
        lines.append(f"quarantined sites: {quarantined}")
        for reason, count in quarantine_reasons[:top]:
            lines.append(f"  {reason:28s} {count:6d}")

    watchdog = sum(_bracketed(counters, "crawler.watchdog").values())
    if watchdog:
        lines.append(f"watchdog fires: {int(watchdog)}")
    checkpoint_writes = counters.get("crawler.checkpoint_writes", 0)
    if checkpoint_writes:
        lines.append(
            f"checkpoint: {int(checkpoint_writes)} writes, "
            f"{int(counters.get('crawler.checkpoint_finalized', 0))} finalized"
        )
    requests = counters.get("net.requests", 0)
    if requests:
        lines.append(
            f"network: {int(requests)} requests, "
            f"{int(counters.get('net.bytes_fetched', 0)):,} bytes, "
            f"{int(counters.get('net.requests_failed', 0))} failed"
        )
    faults = {
        name.split(".", 2)[2]: value
        for name, value in counters.items()
        if name.startswith("net.faults.")
    }
    if faults:
        lines.append(
            "injected faults: "
            + ", ".join(f"{kind}={int(n)}" for kind, n in sorted(faults.items()))
        )

    stage_rows = _stage_rows(log)
    if stage_rows:
        lines.append(f"{'stage':18s} {'wall':>9s}  outcome")
        for name, seconds, cached in stage_rows:
            lines.append(
                f"{name:18s} {seconds:8.2f}s  {'cache-hit' if cached else 'ran'}"
            )
        hits = int(counters.get("stage.cache.hits", 0))
        misses = int(counters.get("stage.cache.misses", 0))
        if hits + misses:
            lines.append(f"stage cache: {hits} hit(s), {misses} miss(es)")

    lines.extend(layer_table(layer_rows(log.summary.get("metrics", {}))))

    hist_rows = histogram_rows(log)
    if hist_rows:
        lines.append(
            f"{'histogram':28s} {'count':>7s} {'mean':>9s} {'p50':>9s} {'p95':>9s} {'p99':>9s}"
        )
        for name, count, mean, p50, p95, p99 in hist_rows:
            lines.append(
                f"{name:28s} {count:7d} {mean * 1000:8.1f}ms {p50 * 1000:8.1f}ms "
                f"{p95 * 1000:8.1f}ms {p99 * 1000:8.1f}ms"
            )

    lines.extend(profile_text(log.summary.get("profile"), top=top))

    hot = retry_hot_spots(log, top)
    if hot:
        lines.append("retry hot spots:")
        for domain, retries in hot:
            lines.append(f"  {domain:32s} {retries:4d} retr{'y' if retries == 1 else 'ies'}")

    slow = slow_pages(log, top)
    if slow:
        lines.append(f"top {len(slow)} slow pages:")
        for record in slow:
            attrs = record.get("attrs", {})
            lines.append(
                f"  {str(attrs.get('domain', '?')):32s} {float(record.get('dur', 0)) * 1000:8.1f}ms"
                f"  attempts={attrs.get('attempts', 1)}"
                f"  {'ok' if attrs.get('success', True) else attrs.get('failure_reason', 'failed')}"
            )

    dropped = int(log.summary.get("dropped", 0))
    lines.append(
        f"trace: {len(log.records)} record(s)"
        + (f", {dropped} dropped at the event cap" if dropped else "")
    )
    return "\n".join(lines)


def slow_text(log: RunLog, top: int = 10) -> str:
    """The ``repro.obs slow --top N`` view."""
    rows = slow_pages(log, top)
    if not rows:
        return "(no page spans in this run log — was tracing enabled?)"
    lines = [f"{'domain':32s} {'wall':>10s} {'attempts':>8s}  outcome"]
    for record in rows:
        attrs = record.get("attrs", {})
        outcome = "ok" if attrs.get("success", True) else str(attrs.get("failure_reason", "failed"))
        lines.append(
            f"{str(attrs.get('domain', '?')):32s} {float(record.get('dur', 0)) * 1000:8.1f}ms"
            f" {int(attrs.get('attempts', 1)):8d}  {outcome}"
        )
    return "\n".join(lines)
