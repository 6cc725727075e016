"""Perf counters and bounded caches for the render hot path.

The render-acceleration subsystem (whole-canvas render cache, glyph atlas,
path coverage-mask cache, encode memoization) shares three pieces of
machinery that live here so every layer reports wins the same way:

* :class:`PerfCounters` — cheap per-layer hit/miss/eviction counters and
  timers.  A process-global instance (:data:`PERF`) accumulates across every
  canvas in the process; shard workers snapshot it and the parent merges the
  snapshots, so counters survive the multiprocessing boundary.
* :class:`RenderCacheConfig` — the tuning knobs (per-layer byte budgets and
  a global enable switch), picklable so shard workers inherit the parent's
  configuration.
* :class:`ByteBudgetLRU` — an exact-key LRU bounded by a byte budget rather
  than an entry count, instrumented against :data:`PERF`.

One ``gc.callbacks`` hook, registered at import, books every pause of the
cyclic garbage collector to the ``gc`` timer layer of :data:`PERF`, so
collector time travels with the other layers (per stage, and home from
every forked crawl worker in its perf delta).

Caches register themselves at import time so :func:`configure` can resize
them and tests can :func:`reset_caches` for a cold start.  All caches are
*exactly transparent*: keys are full tuples of the inputs (no lossy
digests of semantic state), so a hit can only ever return what a cold
render would have produced.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional

__all__ = [
    "layer_seconds",
    "PerfCounters",
    "RenderCacheConfig",
    "ByteBudgetLRU",
    "PERF",
    "config",
    "configure",
    "current_config",
    "reset_caches",
    "reset_all",
    "diff_snapshots",
    "peak_rss_mb",
]

_MB = 1024 * 1024

#: Counter field names tracked per layer, in snapshot order.
_FIELDS = ("hits", "misses", "evictions", "hit_seconds", "miss_seconds", "entries", "bytes")


@dataclass(frozen=True)
class RenderCacheConfig:
    """Tuning knobs for the render-acceleration caches.

    ``enabled`` gates every layer at once (the transparency tests compare
    enabled vs disabled runs byte-for-byte).  Budgets are per cache, in
    bytes; a cache evicts least-recently-used entries once its resident
    values exceed the budget.
    """

    enabled: bool = True
    #: Whole-canvas rasters (float64 RGBA — the costliest values).
    render_cache_bytes: int = 256 * _MB
    #: Glyph masks (the glyph atlas).
    glyph_cache_bytes: int = 64 * _MB
    #: Winding-rule coverage masks for filled/stroked paths.
    path_cache_bytes: int = 64 * _MB
    #: Encoded PNG/JPEG/WebP payloads keyed by pixel digest.
    encode_cache_bytes: int = 64 * _MB
    #: Compiled JS programs keyed by source digest + engine version
    #: (:mod:`repro.js.compiler`).  Every script runs compiled whatever this
    #: budget; it bounds only the cross-page cache, which ``enabled`` does
    #: not switch off.
    js_cache_bytes: int = 64 * _MB
    #: Static-analysis verdicts keyed by source digest + analyzer version
    #: (:mod:`repro.js.static`), computed by every page load's triage and
    #: read again by the ``static`` stage.  Triage runs whatever this budget
    #: and ``enabled``; an evicted verdict is computed again.
    static_cache_bytes: int = 16 * _MB

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None) -> "RenderCacheConfig":
        """Build a config from ``REPRO_RENDER_CACHE*`` environment variables.

        ``REPRO_RENDER_CACHE=0`` disables every layer;
        ``REPRO_RENDER_CACHE_<LAYER>_MB`` overrides a budget (e.g.
        ``REPRO_RENDER_CACHE_RENDER_MB=512``).
        """
        env = os.environ if env is None else env
        kwargs: Dict[str, Any] = {}
        toggle = env.get("REPRO_RENDER_CACHE")
        if toggle is not None:
            kwargs["enabled"] = toggle.strip().lower() not in ("0", "false", "off", "no")
        for name in ("render", "glyph", "path", "encode", "js", "static"):
            raw = env.get(f"REPRO_RENDER_CACHE_{name.upper()}_MB")
            if raw is not None:
                try:
                    kwargs[f"{name}_cache_bytes"] = max(0, int(float(raw) * _MB))
                except ValueError:
                    pass
        return cls(**kwargs)

    def budget(self, attr: str) -> int:
        return int(getattr(self, attr))


class PerfCounters:
    """Per-layer hit/miss/eviction counters and timers.

    Layers are created lazily; recording a hit or miss is a couple of dict
    operations, cheap enough for the per-draw-op hot path.
    """

    def __init__(self) -> None:
        self._layers: Dict[str, Dict[str, float]] = {}

    def layer(self, name: str) -> Dict[str, float]:
        bucket = self._layers.get(name)
        if bucket is None:
            bucket = {f: 0.0 for f in _FIELDS}
            self._layers[name] = bucket
        return bucket

    def hit(self, name: str, seconds: float = 0.0) -> None:
        bucket = self.layer(name)
        bucket["hits"] += 1
        bucket["hit_seconds"] += seconds

    def miss(self, name: str, seconds: float = 0.0) -> None:
        bucket = self.layer(name)
        bucket["misses"] += 1
        bucket["miss_seconds"] += seconds

    def evict(self, name: str, n: int = 1) -> None:
        self.layer(name)["evictions"] += n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate wall time for a pure timer layer (no hit/miss)."""
        self.layer(name)["miss_seconds"] += seconds

    def set_residency(self, name: str, entries: int, nbytes: int) -> None:
        bucket = self.layer(name)
        bucket["entries"] = float(entries)
        bucket["bytes"] = float(nbytes)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Picklable copy of every layer, with derived rates included.

        ``hit_rate`` is hits over lookups; ``saved_seconds`` estimates the
        rasterization time hits avoided (hits x mean observed miss cost,
        minus the time the hits themselves took).
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, bucket in self._layers.items():
            row = dict(bucket)
            lookups = row["hits"] + row["misses"]
            row["hit_rate"] = row["hits"] / lookups if lookups else 0.0
            mean_miss = row["miss_seconds"] / row["misses"] if row["misses"] else 0.0
            row["saved_seconds"] = max(0.0, row["hits"] * mean_miss - row["hit_seconds"])
            out[name] = row
        return out

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold a snapshot (e.g. from a shard worker) into this instance."""
        for name, row in snapshot.items():
            bucket = self.layer(name)
            for field in _FIELDS:
                if field in ("entries", "bytes"):
                    # Residency is a gauge, not a counter: workers each hold
                    # their own cache, so take the max as "largest resident".
                    bucket[field] = max(bucket[field], row.get(field, 0.0))
                else:
                    bucket[field] += row.get(field, 0.0)

    def reset(self) -> None:
        self._layers.clear()


def diff_snapshots(
    before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Per-layer delta between two snapshots (monotonic counters only).

    Layers with no activity in the window are dropped, so the diff of a
    stage that never touched a canvas is ``{}``.  A layer present only in
    ``after`` — its first activity happened inside the window — is kept
    whole, and counter deltas clamp at zero so a mid-window ``reset()``
    (which makes ``after`` smaller than ``before``) can never produce
    negative activity.  Residency fields (``entries``/``bytes``) are
    gauges, not flows: the ``after`` level is reported as-is.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, row in after.items():
        base = before.get(name, {})
        delta = {}
        for field in ("hits", "misses", "evictions", "hit_seconds", "miss_seconds"):
            delta[field] = max(0.0, row.get(field, 0.0) - base.get(field, 0.0))
        if not any(delta[f] for f in ("hits", "misses", "evictions", "miss_seconds")):
            continue
        for field in ("entries", "bytes"):
            if field in row:
                delta[field] = row[field]
        lookups = delta["hits"] + delta["misses"]
        delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
        mean_miss = delta["miss_seconds"] / delta["misses"] if delta["misses"] else 0.0
        delta["saved_seconds"] = max(0.0, delta["hits"] * mean_miss - delta["hit_seconds"])
        out[name] = delta
    return out


def layer_seconds(snapshot: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Measured wall seconds spent inside each cache layer (hit + miss).

    The timed-path complement to the sampling profiler's *statistical*
    subsystem self-time: the report prints both, and large disagreement on
    the render layers means the sampler is under-observing (hz too low for
    the run length) — a cross-check neither side can make alone.
    """
    return {
        layer: float(row.get("hit_seconds", 0.0)) + float(row.get("miss_seconds", 0.0))
        for layer, row in snapshot.items()
    }


#: Process-global counters every cache layer reports into.
PERF = PerfCounters()

_gc_started = 0.0


def _book_collection(phase: str, info: Dict[str, Any]) -> None:
    """``gc.callbacks`` hook: charge each collector pause to the ``gc`` layer."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
    else:
        PERF.add_time("gc", time.perf_counter() - _gc_started)


gc.callbacks.append(_book_collection)


def peak_rss_mb() -> float:
    """Largest resident set, in MB, of this process or any child it reaped.

    ``ru_maxrss`` of ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` (KiB on Linux):
    after a sharded crawl the children are its reaped workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


_CONFIG = RenderCacheConfig.from_env()
_CACHES: List["ByteBudgetLRU"] = []


def config() -> RenderCacheConfig:
    """The active render-cache configuration."""
    return _CONFIG


def current_config() -> RenderCacheConfig:
    return _CONFIG


def configure(cfg: RenderCacheConfig) -> None:
    """Install ``cfg`` and resize every registered cache to its budget.

    Disabling drops all cached state so a later re-enable starts cold.
    """
    global _CONFIG
    _CONFIG = cfg
    for cache in _CACHES:
        cache.set_max_bytes(cfg.budget(cache.budget_attr))
        if not cfg.enabled:
            cache.clear()


def reset_caches() -> None:
    """Drop every cached value (counters are left alone)."""
    for cache in _CACHES:
        cache.clear()


def reset_all() -> None:
    """Cold start: drop caches and zero counters (test isolation)."""
    reset_caches()
    PERF.reset()


class ByteBudgetLRU:
    """Exact-key LRU bounded by the total byte size of its values.

    Keys are plain hashable tuples of the complete inputs — equality, not a
    digest, decides hits, so a hit is always byte-correct.  Each entry
    carries its resident size; inserting past the budget evicts from the
    least-recently-used end.  Lookups and inserts report to :data:`PERF`
    under the cache's layer name.
    """

    def __init__(self, layer: str, budget_attr: str, counters: PerfCounters = PERF) -> None:
        self.layer = layer
        self.budget_attr = budget_attr
        self._counters = counters
        self._max_bytes = _CONFIG.budget(budget_attr)
        self._bytes = 0
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        _CACHES.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def set_max_bytes(self, max_bytes: int) -> None:
        self._max_bytes = int(max_bytes)
        self._evict_to_budget()

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self._counters.set_residency(self.layer, 0, 0)

    def items(self) -> List[tuple]:
        """Every ``(key, value)`` held, recording nothing."""
        return [(key, entry[0]) for key, entry in self._entries.items()]

    def adopt(self, key: Hashable, value: Any, nbytes: int) -> None:
        """Insert a value whose lookup was counted elsewhere, recording no hit or miss.

        That is a value another process computed (it counted its miss), or
        one derived from a counted hit on another key (a static verdict
        served by its script's shape).  A key already held is left as it is.
        """
        nbytes = int(nbytes)
        if key in self._entries or nbytes > self._max_bytes:
            return
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        self._evict_to_budget()
        self._counters.set_residency(self.layer, len(self._entries), self._bytes)

    def contains(self, key: Hashable) -> bool:
        """Membership check that records nothing and leaves LRU order alone.

        Used by cache pre-warmers: re-warming an already-warm process must
        not inflate the hit rate.
        """
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (counted as a hit) or None (not counted).

        The miss is counted by the matching :meth:`put` so its recorded
        seconds cover the recompute the miss actually cost.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self._counters.hit(self.layer)
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int, seconds: float = 0.0) -> None:
        """Insert a freshly computed value, recording the miss that built it."""
        self._counters.miss(self.layer, seconds)
        nbytes = int(nbytes)
        if nbytes > self._max_bytes:
            return  # larger than the whole budget: never resident
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        self._evict_to_budget()
        self._counters.set_residency(self.layer, len(self._entries), self._bytes)

    def _evict_to_budget(self) -> None:
        evicted = 0
        while self._bytes > self._max_bytes and self._entries:
            _, (_, nbytes) = self._entries.popitem(last=False)
            self._bytes -= nbytes
            evicted += 1
        if evicted:
            self._counters.evict(self.layer, evicted)
            self._counters.set_residency(self.layer, len(self._entries), self._bytes)


def timed(layer: str, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` and charge its wall time to ``layer``."""
    started = time.perf_counter()
    try:
        return fn()
    finally:
        PERF.add_time(layer, time.perf_counter() - started)
