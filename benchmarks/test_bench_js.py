"""Benchmark: the compiled-script cache, alone and in page loads.

Two benchmarks, one contract each:

``js_script_cache``
    Cost of producing an executable program for the shared vendor corpus —
    a cold cache (parse + compile every script) vs a warm one (digest
    lookup).  This is the per-site win of the cross-shard compiled-script
    cache: every crawled page re-prepares the same vendor scripts, and the
    warm path skips the whole front end.  The raw ratio is three orders of
    magnitude — far enough past the contract that its exact value is
    timing noise — so the gated ``speedup`` is capped at 100x (dropping
    below the gate means the cache stopped short-circuiting parse+compile,
    the only failure mode that matters) and ``raw_speedup`` records the
    uncapped number.

``js_crawl``
    Full ``Browser.load`` page loads over vendor-script pages with a cold
    cache per page and with a warm one, plus the ``js.cache`` / ``js.ic``
    hit rates of the warm run (deterministic for a fixed world, so the
    committed baseline gates them).

Gated metrics are the capped cache ``speedup`` and the hit rates, never raw
wall seconds: uncapped ratios drift ~20% run to run from scheduler noise
alone, which a 25% regression gate cannot tell apart from a real
regression.
"""

import hashlib
import time

from repro import obs, perf
from repro.browser.browser import Browser
from repro.js import compiler
from repro.webgen.vendors import prewarm_sources

ROUNDS = 3


def _best(fn, rounds=ROUNDS):
    return min(fn() for _ in range(rounds))


def test_bench_js_script_cache(bench_json):
    sources = prewarm_sources()
    cache = compiler.script_cache()
    reps = 20

    def prep_seconds(warm):
        def once():
            started = time.perf_counter()
            for _ in range(reps):
                if not warm:
                    cache.clear()
                for i, source in enumerate(sources):
                    compiler.get_or_compile(source, f"vendor{i}.js")
            return (time.perf_counter() - started) / reps

        return _best(once)

    compiler.prewarm(sources)
    warm = prep_seconds(True)
    cold = prep_seconds(False)
    compiler.prewarm(sources)  # leave the process cache warm for later benches
    speedup = cold / warm

    print(f"\nscript preparation, {len(sources)}-script vendor corpus:")
    print(f"  cold (parse+compile): {cold * 1000:8.3f} ms")
    print(f"  warm (cache hit):     {warm * 1000:8.3f} ms")
    print(f"  warm-cache speedup:   {speedup:8.1f}x")
    bench_json(
        "js",
        "js_script_cache",
        speedup=min(speedup, 100.0),
        raw_speedup=speedup,
        cold_ms=cold * 1000,
        warm_ms=warm * 1000,
        scripts=len(sources),
    )
    assert speedup >= 3.0, f"warm script cache only {speedup:.1f}x faster than cold"


def _vendor_page_urls(world, limit=30):
    """Targets whose pages execute at least one shared vendor script."""
    cache = compiler.script_cache()
    compiler.prewarm(prewarm_sources())
    urls = []
    for target in world.all_targets:
        if len(urls) >= limit:
            break
        url = f"https://{target.domain}/"
        page = Browser(world.network).load(url)
        for source in page.script_sources.values():
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            if cache.contains((digest, compiler.ENGINE_VERSION)):
                urls.append(url)
                break
    return urls


def test_bench_js_crawl(world, bench_json):
    urls = _vendor_page_urls(world)
    cache = compiler.script_cache()

    def crawl_seconds(warm):
        def once():
            started = time.perf_counter()
            for url in urls:
                if not warm:
                    cache.clear()
                Browser(world.network).load(url)
            return time.perf_counter() - started

        return _best(once)

    compiler.prewarm(prewarm_sources())
    warm = crawl_seconds(True)

    before = obs.METRICS.snapshot()
    crawl_seconds(True)  # one more warm round, bracketed for hit rates
    delta = perf.diff_snapshots(before, obs.METRICS.snapshot())
    hit_rates = {}
    for layer in ("js.cache", "js.ic"):
        row = delta.get(layer, {})
        lookups = row.get("hits", 0.0) + row.get("misses", 0.0)
        hit_rates[layer] = {"hit_rate": row.get("hits", 0.0) / lookups if lookups else 0.0}

    cold = crawl_seconds(False)
    compiler.prewarm(prewarm_sources())  # leave the process cache warm for later benches

    print(f"\nend-to-end page loads, {len(urls)} vendor-script pages:")
    print(f"  cold cache: {cold * 1000:8.1f} ms")
    print(f"  warm cache: {warm * 1000:8.1f} ms")
    for layer, row in sorted(hit_rates.items()):
        print(f"  {layer} hit rate: {row['hit_rate']:8.3f}")
    bench_json(
        "js",
        "js_crawl",
        cold_seconds=cold,
        warm_seconds=warm,
        pages=len(urls),
        hit_rates=hit_rates,
    )
