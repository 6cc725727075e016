"""Bounded caches for the render and JS hot paths, counted in ``obs.METRICS``.

The render-acceleration subsystem (whole-canvas render cache, glyph atlas,
path coverage-mask cache, encode memoization) and the JS caches (compiled
scripts, static verdicts) share two pieces of machinery that live here:

* :class:`RenderCacheConfig` — the one switch (``enabled``) that turns the
  render caches on or off, picklable so shard workers inherit the parent's
  setting;
* :class:`ByteBudgetLRU` — an exact-key LRU bounded by a byte budget rather
  than an entry count.

Every cache and timer layer counts into :data:`repro.obs.METRICS`, as
counters labelled by layer: ``perf.hits[<layer>]``,
``perf.misses[<layer>]``, ``perf.evictions[<layer>]`` and
``perf.miss_seconds[<layer>]`` (a timer layer such as ``js.exec`` fills only
the last).  The counters travel home from every crawl worker in its one
metrics delta, and :func:`repro.obs.metrics.layer_rows` reads any snapshot
or delta back as per-layer rows.

One ``gc.callbacks`` hook, registered at import, books every pause of the
cyclic garbage collector to the ``gc`` timer layer, so collector time
travels with the other layers (per stage, and home from every forked crawl
worker).

Caches register themselves at import time so :func:`configure` can empty
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
from typing import Any, Dict, Hashable, List, Optional

from repro import obs
from repro.obs.metrics import layer_rows

__all__ = [
    "MB",
    "RenderCacheConfig",
    "ByteBudgetLRU",
    "PERF",
    "config",
    "configure",
    "reset_caches",
    "reset_all",
    "diff_snapshots",
    "peak_rss_mb",
]

MB = 1024 * 1024


@dataclass(frozen=True)
class RenderCacheConfig:
    """The render-acceleration switch.

    ``enabled`` gates every render-cache layer at once (the transparency
    tests compare enabled vs disabled runs byte-for-byte).  The JS caches
    are not switched: every script runs compiled and every page load
    triages, whatever this says.
    """

    enabled: bool = True

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None) -> "RenderCacheConfig":
        """``REPRO_RENDER_CACHE=0`` (or ``false``/``off``/``no``) disables every layer."""
        env = os.environ if env is None else env
        toggle = env.get("REPRO_RENDER_CACHE")
        if toggle is None:
            return cls()
        return cls(enabled=toggle.strip().lower() not in ("0", "false", "off", "no"))


#: The registry every layer counts into.  The name survives because the
#: benchmark harness reads ``perf.PERF.snapshot()`` and
#: :func:`diff_snapshots`; it is :data:`repro.obs.METRICS` itself.
PERF = obs.METRICS


def diff_snapshots(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-layer rows of the registry delta between two snapshots.

    :func:`~repro.obs.metrics.layer_rows` of
    :func:`~repro.obs.metrics.diff_snapshots`: layers idle in the window
    are dropped, a layer first seen inside it is kept whole, and a
    mid-window reset clamps at zero.
    """
    return layer_rows(obs.diff_metric_snapshots(before, after))


_gc_started = 0.0


def _book_collection(phase: str, info: Dict[str, Any]) -> None:
    """``gc.callbacks`` hook: charge each collector pause to the ``gc`` layer."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
    else:
        obs.METRICS.inc("perf.miss_seconds[gc]", time.perf_counter() - _gc_started)


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


def configure(cfg: RenderCacheConfig) -> None:
    """Install ``cfg``; disabling drops all cached state so a later re-enable starts cold."""
    global _CONFIG
    _CONFIG = cfg
    if not cfg.enabled:
        reset_caches()


def reset_caches() -> None:
    """Drop every cached value (counters are left alone)."""
    for cache in _CACHES:
        cache.clear()


def reset_all() -> None:
    """Cold start: drop caches and zero every metric (test isolation)."""
    reset_caches()
    obs.METRICS.reset()


class ByteBudgetLRU:
    """Exact-key LRU bounded by the total byte size of its values.

    Keys are plain hashable tuples of the complete inputs — equality, not a
    digest, decides hits, so a hit is always byte-correct.  Each entry
    carries its resident size; inserting past ``max_bytes`` evicts from the
    least-recently-used end.  Lookups, inserts and evictions count into
    :data:`repro.obs.METRICS` under the cache's layer name.
    """

    def __init__(self, layer: str, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        self._hits = f"perf.hits[{layer}]"
        self._misses = f"perf.misses[{layer}]"
        self._miss_seconds = f"perf.miss_seconds[{layer}]"
        self._evictions = f"perf.evictions[{layer}]"
        self._bytes = 0
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        _CACHES.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

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
        if key in self._entries or nbytes > self.max_bytes:
            return
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        self._evict_to_budget()

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
        obs.METRICS.inc(self._hits)
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int, seconds: float = 0.0) -> None:
        """Insert a freshly computed value, recording the miss that built it."""
        obs.METRICS.inc(self._misses)
        if seconds:
            obs.METRICS.inc(self._miss_seconds, seconds)
        nbytes = int(nbytes)
        if nbytes > self.max_bytes:
            return  # larger than the whole budget: never resident
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        self._evict_to_budget()

    def _evict_to_budget(self) -> None:
        evicted = 0
        while self._bytes > self.max_bytes and self._entries:
            _, (_, nbytes) = self._entries.popitem(last=False)
            self._bytes -= nbytes
            evicted += 1
        if evicted:
            obs.METRICS.inc(self._evictions, evicted)
