"""Unified metrics: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` absorbs every producer in the study — the
crawler (pages, retries, failure classes), the network (requests, bytes,
injected faults), the stage graph (cache hits, per-stage wall time) and the
render-acceleration layer (:mod:`repro.perf` counters, folded in via
:func:`absorb_perf`) — under one dotted namespace, so ``repro.obs summary``
and the report's observability section read a single source of truth.

Snapshots are plain picklable dicts and merge associatively, exactly like
:class:`repro.perf.PerfCounters` snapshots: shard workers snapshot a
*delta* (``diff_snapshots(before, after)``) for each task they run and the
parent merges the deltas, so metrics cross the multiprocessing boundary
with no loss and no double-counting even when a worker is forked after its
parent has merged other workers' deltas.

Merge semantics per instrument:

* counters — summed (monotonic within a process; deltas clamp at zero);
* gauges — last-write-wins within a process, ``max`` across merges (a
  gauge that crosses processes is a residency-style "largest seen");
* histograms — bucket counts, sum and count are summed; min/max combine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BOUNDARIES",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "absorb_perf",
]

#: Default histogram buckets: wall-time seconds from sub-millisecond to a
#: minute-plus overflow bucket — the range one page load or stage occupies.
DEFAULT_BOUNDARIES: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0
)

_INF = float("inf")


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max sidecars."""

    __slots__ = ("boundaries", "counts", "total", "count", "min", "max")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_BOUNDARIES) -> None:
        self.boundaries: Tuple[float, ...] = tuple(boundaries)
        #: counts[i] observes values <= boundaries[i]; the final slot is the
        #: overflow bucket (> the largest boundary).
        self.counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.total = 0.0
        self.count = 0
        self.min = _INF
        self.max = -_INF

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.boundaries)
        while lo < hi:  # bisect over the (sorted) boundaries
            mid = (lo + hi) // 2
            if value <= self.boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.total += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (0..1) from the bucket counts.

        Linear interpolation inside the bucket that crosses the target
        rank, clamped to the observed ``min``/``max`` so the estimate
        never leaves the data's range.  Edge cases (pinned by unit test):
        an empty histogram returns 0.0; a single occupied bucket
        interpolates between its bounds; samples in the overflow bucket
        interpolate up to the observed ``max`` (the only honest upper
        bound a fixed-bucket histogram has).
        """
        if not self.count:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count < target:
                cumulative += bucket_count
                continue
            lo = self.boundaries[index - 1] if index > 0 else min(self.min, self.boundaries[0])
            hi = self.boundaries[index] if index < len(self.boundaries) else self.max
            lo = max(lo, self.min) if self.min != _INF else lo
            hi = min(hi, self.max) if self.max != -_INF else hi
            if hi <= lo:
                return hi
            fraction = (target - cumulative) / bucket_count
            return lo + (hi - lo) * min(1.0, max(0.0, fraction))
        return self.max if self.max != -_INF else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Histogram":
        hist = cls(tuple(data.get("boundaries", DEFAULT_BOUNDARIES)))
        counts = list(data.get("counts", ()))
        if len(counts) == len(hist.counts):
            hist.counts = [int(c) for c in counts]
        hist.total = float(data.get("sum", 0.0))
        hist.count = int(data.get("count", 0))
        if hist.count:
            hist.min = float(data.get("min", 0.0))
            hist.max = float(data.get("max", 0.0))
        return hist


class MetricsRegistry:
    """Counters, gauges and histograms under one dotted-name namespace."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording (hot paths: keep these a couple of dict ops) ---------------

    def inc(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, boundaries: Sequence[float] = DEFAULT_BOUNDARIES
    ) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(boundaries)
            self._histograms[name] = hist
        hist.observe(value)

    # -- reading ---------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    # -- snapshot / merge / reset ---------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Picklable, JSON-able copy of every instrument."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {n: h.to_json() for n, h in self._histograms.items()},
        }

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a snapshot (typically a worker's delta) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self._gauges[name] = max(self._gauges.get(name, float(value)), float(value))
        for name, data in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_json(data)
            mine = self._histograms.get(name)
            if mine is None or mine.boundaries != incoming.boundaries:
                # Unknown or re-bucketed histogram: adopt (or, on a boundary
                # mismatch, fold sum/count so totals at least stay exact).
                if mine is None:
                    self._histograms[name] = incoming
                else:
                    mine.total += incoming.total
                    mine.count += incoming.count
                    mine.min = min(mine.min, incoming.min)
                    mine.max = max(mine.max, incoming.max)
                continue
            mine.counts = [a + b for a, b in zip(mine.counts, incoming.counts)]
            mine.total += incoming.total
            mine.count += incoming.count
            mine.min = min(mine.min, incoming.min)
            mine.max = max(mine.max, incoming.max)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def diff_snapshots(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Delta of two registry snapshots, suitable for :meth:`~MetricsRegistry.merge`.

    Counters and histogram bucket counts subtract and clamp at zero (a
    mid-window ``reset()`` must never produce negative activity); counters
    and histograms with no activity in the window are dropped; gauges carry
    the ``after`` value (they are levels, not flows).  A name present only
    in ``after`` — first activity inside the window — is kept whole.
    """
    out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        delta = float(value) - float(before_counters.get(name, 0.0))
        if delta > 0:
            out["counters"][name] = delta
    out["gauges"] = dict(after.get("gauges", {}))
    before_hists = before.get("histograms", {})
    for name, data in after.get("histograms", {}).items():
        base = before_hists.get(name)
        if base is None or list(base.get("boundaries", ())) != list(data.get("boundaries", ())):
            if int(data.get("count", 0)):
                out["histograms"][name] = dict(data)
            continue
        counts = [
            max(0, int(a) - int(b))
            for a, b in zip(data.get("counts", ()), base.get("counts", ()))
        ]
        count = max(0, int(data.get("count", 0)) - int(base.get("count", 0)))
        if not count:
            continue
        out["histograms"][name] = {
            "boundaries": list(data.get("boundaries", ())),
            "counts": counts,
            "sum": max(0.0, float(data.get("sum", 0.0)) - float(base.get("sum", 0.0))),
            "count": count,
            # Window-local extremes are unknowable from cumulative snapshots;
            # report the cumulative ones (documented approximation).
            "min": data.get("min", 0.0),
            "max": data.get("max", 0.0),
        }
    return out


def absorb_perf(
    registry: MetricsRegistry,
    perf_snapshot: Dict[str, Dict[str, float]],
    prefix: str = "render_cache",
) -> None:
    """Fold a :class:`repro.perf.PerfCounters` snapshot into the registry.

    Each render-cache layer becomes ``<prefix>.<layer>.{hits,misses,...}``
    counters plus ``entries``/``bytes`` residency gauges — so the unified
    metrics view covers the acceleration layer without that layer having to
    know about :mod:`repro.obs` (perf stays the producer, obs the consumer).
    """
    for layer, row in perf_snapshot.items():
        for field in ("hits", "misses", "evictions", "hit_seconds", "miss_seconds"):
            value = float(row.get(field, 0.0))
            if value:
                registry.inc(f"{prefix}.{layer}.{field}", value)
        for field in ("entries", "bytes"):
            value = float(row.get(field, 0.0))
            if value:
                registry.gauge(f"{prefix}.{layer}.{field}", value)
