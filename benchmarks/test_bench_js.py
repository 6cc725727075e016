"""Benchmark: the compiled-script cache, alone and in page loads.

Two benchmarks:

``js_script_cache``
    Cost of producing an executable program for the shared vendor corpus,
    in reference seconds (``perfbench.speed.SpeedMeter``).  ``cold_ref_s``
    parses and compiles every script on an empty cache: the median of
    :data:`ROUNDS` rounds, each the mean of :data:`COLD_PASSES` passes.
    ``warm_ref_s`` serves every script from the cache (a digest lookup):
    the median of :data:`ROUNDS` rounds of :data:`WARM_PASSES` passes.
    This is the per-site win of the compiled-script cache: every crawled
    page re-prepares the same vendor scripts, and the warm path skips the
    whole front end.  Their ratio, ``cold_over_warm``, is informational:
    a ratio of a 70 ms pass to a 40 µs one read anywhere from 386 to 1,940,
    so no gate can read it.

``js_crawl``
    Full ``Browser.load`` page loads over vendor-script pages with a cold
    cache per page and with a warm one, plus the ``js.cache`` / ``js.ic``
    hit rates of the warm run (deterministic for a fixed world, so the
    committed baseline gates them).

``cold_ref_s``, ``warm_ref_s`` and the hit rates feed the CI regression
gate (``check_regression.py``); the rounds, the ratio and ``js_crawl``'s raw
seconds are recorded for inspection.
"""

import hashlib
import statistics
import time

from perfbench.speed import SpeedMeter
from repro import obs, perf
from repro.browser.browser import Browser
from repro.js import compiler
from repro.webgen.vendors import VENDOR_SPECS, VENDORS_BY_NAME

ROUNDS = 5
#: Passes over the corpus per timed round: enough that each round lasts
#: long enough for the speed meter to sample it several times.
COLD_PASSES = 5
WARM_PASSES = 3000


def _best(fn, rounds=3):
    return min(fn() for _ in range(rounds))


def _ref_seconds(fn):
    """``fn()``'s seconds times the machine's speed while it ran."""
    with SpeedMeter() as meter:
        seconds = fn()
    return seconds * meter.speed()


def _vendor_corpus():
    """Every vendor script whose bytes do not vary per site (a per-site
    vendor's script names its customer), plus FingerprintJS's commercial
    build."""
    sources = [spec.source() for spec in VENDOR_SPECS if not spec.per_site]
    sources.append(VENDORS_BY_NAME["FingerprintJS"].source(commercial=True))
    return sources


def _warm(sources):
    """Compile ``sources`` into the process cache (hits where they are in it)."""
    for i, source in enumerate(sources):
        compiler.get_or_compile(source, f"vendor{i}.js")


def test_bench_js_script_cache(bench_json):
    sources = _vendor_corpus()
    cache = compiler.script_cache()

    def prep_seconds(warm, passes):
        started = time.perf_counter()
        for _ in range(passes):
            if not warm:
                cache.clear()
            _warm(sources)
        return (time.perf_counter() - started) / passes

    _warm(sources)
    warm_rounds = [_ref_seconds(lambda: prep_seconds(True, WARM_PASSES)) for _ in range(ROUNDS)]
    cold_rounds = [_ref_seconds(lambda: prep_seconds(False, COLD_PASSES)) for _ in range(ROUNDS)]
    warm_ref_s = statistics.median(warm_rounds)
    cold_ref_s = statistics.median(cold_rounds)
    _warm(sources)  # leave the process cache warm for later benches

    print(f"\nscript preparation, {len(sources)}-script vendor corpus (ref s):")
    print(f"  cold (parse+compile): {cold_ref_s * 1000:8.3f} ms "
          f"(median of {', '.join(f'{r * 1000:.3f}' for r in cold_rounds)})")
    print(f"  warm (cache hit):     {warm_ref_s * 1000:8.4f} ms "
          f"(median of {', '.join(f'{r * 1000:.4f}' for r in warm_rounds)})")
    print(f"  cold over warm:       {cold_ref_s / warm_ref_s:8.1f}x")
    bench_json(
        "js",
        "js_script_cache",
        cold_ref_s=cold_ref_s,
        cold_rounds=cold_rounds,
        warm_ref_s=warm_ref_s,
        warm_rounds=warm_rounds,
        cold_over_warm=cold_ref_s / warm_ref_s,
        scripts=len(sources),
    )
    assert cold_ref_s / warm_ref_s >= 3.0, (
        f"warm script cache only {cold_ref_s / warm_ref_s:.1f}x faster than cold"
    )


def _vendor_page_urls(world, limit=30):
    """Targets whose pages execute at least one shared vendor script."""
    cache = compiler.script_cache()
    _warm(_vendor_corpus())
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

    _warm(_vendor_corpus())
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
    _warm(_vendor_corpus())  # leave the process cache warm for later benches

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
