"""Benchmark: the static script analyzer and its verdict cache.

Two benchmarks, one contract each:

``static_analyze_vendors``
    Wall time to produce a :class:`StaticVerdict` for the full 13-script
    vendor corpus — a cold verdict cache (CFG + dataflow + taint for every
    script) vs a warm one (digest lookup in the ``js.static`` byte-budget
    LRU).  Every page that ships a known vendor script re-asks the same
    question, so the warm path is the steady-state crawl cost.  Like the
    JS script cache, the raw ratio is far past the contract, so the gated
    ``speedup`` is capped and ``raw_speedup`` keeps the uncapped number.

``static_verdict_cache``
    Hit rate of the ``js.static`` verdict cache across page loads (every
    load triages its scripts) where every page ships the same scripts —
    deterministic for a fixed page set, so the committed baseline gates it.

What triage saves end to end is measured by perfbench's ``study``
workload (``wall_s``), not here: every page load triages, so there is no
triage-off side left to compare with.

All gated metrics are ratios of same-session runs on the same machine,
capped at their contract values; raw wall seconds are recorded for
inspection but never gated.
"""

import time

from repro import obs, perf
from repro.browser.browser import Browser
from repro.js.static import verdict_for_source
from repro.js.static.verdict import _VERDICT_CACHE
from repro.net.server import Network
from repro.webgen.vendors import VENDOR_SPECS

ROUNDS = 3

#: Compute-heavy inert script: big enough that skipping it pays, small
#: enough that the analyzer's termination proof still covers it.
HEAVY_INERT = """
var __acc = 0;
for (var i = 0; i < 4000; i++) { __acc = (__acc * 31 + i) % 1000003; }
for (var j = 0; j < 4000; j++) { __acc = (__acc + j * 7) % 1000003; }
var __digest = JSON.stringify({acc: __acc});
"""

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 220; c.height = 40;
var g = c.getContext('2d');
g.font = '13px Arial';
g.fillText('bench probe', 3, 20);
window.__fp = c.toDataURL();
"""

PAGES = 30


def _best(fn, rounds=ROUNDS):
    return min(fn() for _ in range(rounds))


def _vendor_sources():
    return [
        spec.source("customer.example") if spec.per_site else spec.source()
        for spec in VENDOR_SPECS
    ]


def _triage_network(pages=PAGES):
    net = Network()
    html = (
        f"<html><title>b</title><script>{HEAVY_INERT}</script>"
        f"<script>{FP_SCRIPT}</script></html>"
    )
    for i in range(pages):
        net.server_for(f"bench-{i}.example").add_resource("/", html)
    return net


def test_bench_static_analyze_vendors(bench_json):
    sources = _vendor_sources()
    reps = 10

    def analyze_seconds(warm):
        def once():
            started = time.perf_counter()
            for _ in range(reps):
                if not warm:
                    _VERDICT_CACHE.clear()
                for i, source in enumerate(sources):
                    verdict_for_source(source, f"https://vendor{i}.example/fp.js")
            return (time.perf_counter() - started) / reps

        return _best(once)

    warm = analyze_seconds(True)
    cold = analyze_seconds(False)
    speedup = cold / warm

    classes = {
        verdict_for_source(s).classification for s in sources
    }
    assert classes == {"fingerprinting-likely"}, classes

    print(f"\nstatic analysis, {len(sources)}-script vendor corpus:")
    print(f"  cold (CFG+dataflow+taint): {cold * 1000:8.3f} ms")
    print(f"  warm (verdict cache hit):  {warm * 1000:8.3f} ms")
    print(f"  warm-cache speedup:        {speedup:8.1f}x")
    bench_json(
        "static",
        "static_analyze_vendors",
        speedup=min(speedup, 50.0),
        raw_speedup=speedup,
        cold_ms=cold * 1000,
        warm_ms=warm * 1000,
        scripts=len(sources),
    )
    assert speedup >= 3.0, f"warm verdict cache only {speedup:.1f}x faster than cold"


def test_bench_static_verdict_cache(bench_json):
    net = _triage_network()
    urls = [f"https://bench-{i}.example/" for i in range(PAGES)]
    verdict_for_source(HEAVY_INERT)
    verdict_for_source(FP_SCRIPT)

    before = obs.METRICS.snapshot()
    for url in urls:
        Browser(net).load(url)
    delta = perf.diff_snapshots(before, obs.METRICS.snapshot())

    row = delta.get("js.static", {})
    lookups = row.get("hits", 0.0) + row.get("misses", 0.0)
    hit_rate = row.get("hits", 0.0) / lookups if lookups else 0.0
    triage = delta.get("js.static.triage", {})

    print(f"\nverdict cache over {PAGES} page loads:")
    print(f"  lookups: {int(lookups)}, hit rate: {hit_rate:.1%}")
    print(
        f"  triage: {int(triage.get('hits', 0))} deferred, "
        f"{int(triage.get('misses', 0))} executed, "
        f"{int(triage.get('evictions', 0))} flushed"
    )
    bench_json(
        "static",
        "static_verdict_cache",
        hit_rates={"js.static": {"hit_rate": hit_rate}},
        lookups=lookups,
        deferred=triage.get("hits", 0.0),
        executed=triage.get("misses", 0.0),
    )
    assert hit_rate >= 0.9, f"verdict cache hit rate only {hit_rate:.1%}"
