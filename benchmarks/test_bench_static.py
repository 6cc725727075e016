"""Benchmark: the static script analyzer and its verdict cache.

Three benchmarks:

``static_analyze_vendors``
    One cold analysis of the full 13-script vendor corpus (CFG, dataflow
    and taint for every script, on an empty verdict cache), in reference
    seconds (``perfbench.speed.SpeedMeter``): the median of :data:`ROUNDS`
    rounds, each the mean of :data:`PASSES` passes.  The warm pass (a
    digest lookup per script) is timed beside it; the ratio of the two,
    ``cold_over_warm``, is informational.

``static_shape_lookup``
    :data:`SHAPE_SCRIPTS` analytics scripts of one shape, each a digest
    miss served by the shape of the one analysed before them, in reference
    seconds: the median of :data:`ROUNDS` rounds.  This is what a page
    load's triage pays for a site's own script, unique to the site.

``static_verdict_cache``
    Hit rate of the ``js.static`` verdict cache across page loads (every
    load triages its scripts) where every page ships the same scripts —
    deterministic for a fixed page set, so the committed baseline gates it.

What triage saves end to end is measured by perfbench's ``study``
workload (``wall_s``), not here: every page load triages, so there is no
triage-off side left to compare with.

``cold_ref_s``, ``shape_ref_s`` and the hit rate feed the CI regression
gate (``check_regression.py``); raw seconds and the ratio are recorded
for inspection.  The ratio of a 40 ms pass to a 30 µs one read between
544 and 1,411 on one machine, so it is not gated.
"""

import statistics
import time

from perfbench.speed import SpeedMeter
from repro import obs, perf
from repro.browser.browser import Browser
from repro.js.static import verdict_for_source
from repro.js.static.verdict import _VERDICT_CACHE
from repro.net.server import Network
from repro.webgen.scripts import analytics_filler_script
from repro.webgen.vendors import VENDOR_SPECS

#: Timed rounds of each gated measurement; the gate reads their median.
ROUNDS = 5
#: Cold passes per round, so that each round lasts long enough for the
#: speed meter to sample it several times.
PASSES = 5
#: Shape-served lookups per round.
SHAPE_SCRIPTS = 3000

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


def _best(fn, rounds=3):
    return min(fn() for _ in range(rounds))


def _ref_seconds(fn):
    """``fn()``'s seconds times the machine's speed while it ran."""
    with SpeedMeter() as meter:
        seconds = fn()
    return seconds * meter.speed()


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

    def analyze_seconds(warm, passes):
        started = time.perf_counter()
        for _ in range(passes):
            if not warm:
                _VERDICT_CACHE.clear()
            for i, source in enumerate(sources):
                verdict_for_source(source, f"https://vendor{i}.example/fp.js")
        return (time.perf_counter() - started) / passes

    warm = _best(lambda: analyze_seconds(True, 10))
    cold = _best(lambda: analyze_seconds(False, 10))
    cold_rounds = [_ref_seconds(lambda: analyze_seconds(False, PASSES)) for _ in range(ROUNDS)]
    cold_ref_s = statistics.median(cold_rounds)

    classes = {
        verdict_for_source(s).classification for s in sources
    }
    assert classes == {"fingerprinting-likely"}, classes

    print(f"\nstatic analysis, {len(sources)}-script vendor corpus:")
    print(f"  cold (CFG+dataflow+taint): {cold * 1000:8.3f} ms, {cold_ref_s:.4f} ref s "
          f"(median of {', '.join(f'{r:.4f}' for r in cold_rounds)})")
    print(f"  warm (verdict cache hit):  {warm * 1000:8.3f} ms")
    print(f"  cold over warm:            {cold / warm:8.1f}x")
    bench_json(
        "static",
        "static_analyze_vendors",
        cold_ref_s=cold_ref_s,
        cold_rounds=cold_rounds,
        cold_over_warm=cold / warm,
        cold_ms=cold * 1000,
        warm_ms=warm * 1000,
        scripts=len(sources),
    )
    assert cold / warm >= 3.0, f"warm verdict cache only {cold / warm:.1f}x faster than cold"


def test_bench_static_shape_lookup(bench_json):
    template = analytics_filler_script(0)
    scripts = [analytics_filler_script(seed) for seed in range(1, SHAPE_SCRIPTS + 1)]

    def lookup_seconds():
        _VERDICT_CACHE.clear()
        verdict_for_source(template)
        before = obs.METRICS.snapshot()
        started = time.perf_counter()
        for script in scripts:
            verdict_for_source(script)
        seconds = time.perf_counter() - started
        row = perf.diff_snapshots(before, obs.METRICS.snapshot()).get("js.static", {})
        # Every lookup misses the digest and hits the shape.
        assert (row.get("hits", 0), row.get("misses", 0)) == (SHAPE_SCRIPTS, 0)
        return seconds

    shape_rounds = [_ref_seconds(lookup_seconds) for _ in range(ROUNDS)]
    shape_ref_s = statistics.median(shape_rounds)
    print(f"\n{SHAPE_SCRIPTS} analytics scripts served by shape: {shape_ref_s:.4f} ref s "
          f"(median of {', '.join(f'{r:.4f}' for r in shape_rounds)})")
    bench_json(
        "static",
        "static_shape_lookup",
        shape_ref_s=shape_ref_s,
        shape_rounds=shape_rounds,
        scripts=SHAPE_SCRIPTS,
    )


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
