"""Benchmark: the render-acceleration caches on a repeated-cluster workload.

The paper's core measurement artifact is the canvas *cluster*: the same
vendor script rendering the byte-identical canvas on hundreds of customer
sites.  That repetition is exactly what the render cache exploits — the
first site rasterizes, every later site in the cluster replays from the
whole-canvas cache (and the glyph atlas / path masks / encode memo absorb
partial overlap across clusters).

Two benchmarks:

* ``test_bench_render_repeated_cluster`` — drives the canvas API directly
  with a FingerprintJS-style workload repeated across N simulated sites,
  cold (caches disabled) vs warm (enabled).  Asserts byte-identical data
  URLs and the >= 3x warm speedup the acceleration is expected to deliver.
* ``test_bench_render_crawl_cluster`` — the same cluster behind the full
  browser stack (HTML + JS interpreter + bindings), measuring how much of
  the page wall time the caches recover on a crawl.

Both record op counts, wall times and per-layer hit rates into
``BENCH_render.json`` via the ``bench_json`` fixture.
"""

import math
import time

import pytest

from repro import obs, perf
from repro.browser import Browser
from repro.canvas import HTMLCanvasElement, INTEL_UBUNTU
from repro.net import Network
from repro.webgen import scripts as S

#: Simulated sites per cluster: one cold rasterization + N-1 cache hits.
CLUSTER_SITES = 24

PANGRAM = "Cwm fjordbank glyphs vext quiz"


@pytest.fixture
def cache_sandbox():
    """Run a benchmark against pristine caches, restoring the session after."""
    saved = perf.config()
    perf.reset_all()
    yield
    perf.configure(saved)
    perf.reset_all()


def _render_fingerprint_canvas(device=INTEL_UBUNTU):
    """The canonical FingerprintJS-style canvas: text pass + geometry pass."""
    c = HTMLCanvasElement(240, 140, device=device)
    ctx = c.getContext("2d")
    ops = 0
    # Text pass (double-drawn, offset, translucent second layer).
    ctx.textBaseline = "top"
    ctx.font = "11pt Arial"
    ctx.fillStyle = "#f60"
    ctx.fillRect(125, 1, 62, 20)
    ctx.fillStyle = "#069"
    ctx.fillText(PANGRAM, 2, 15)
    ctx.fillStyle = "rgba(102, 204, 0, 0.7)"
    ctx.fillText(PANGRAM, 4, 17)
    ops += 3
    # Geometry pass: overlapping composited circles (the winding workload).
    ctx.globalCompositeOperation = "multiply"
    for i, color in enumerate(("#f2f", "#2ff", "#ff2")):
        ctx.fillStyle = color
        ctx.beginPath()
        ctx.arc(50 + i * 60, 80, 40, 0, math.pi * 2, True)
        ctx.closePath()
        ctx.fill()
        ops += 1
    ctx.globalCompositeOperation = "source-over"
    ctx.shadowBlur = 4
    ctx.shadowColor = "#222"
    ctx.strokeStyle = "#a0a"
    ctx.strokeRect(10, 100, 200, 30)
    ops += 1
    return c, ops


def _run_cluster(sites):
    """Render the cluster canvas once per site; return (seconds, outputs, ops)."""
    outputs = []
    ops = 0
    started = time.perf_counter()
    for _ in range(sites):
        canvas, n = _render_fingerprint_canvas()
        ops += n
        outputs.append(canvas.toDataURL())
        outputs.append(canvas.toDataURL("image/jpeg", 0.8))
    return time.perf_counter() - started, outputs, ops


def _hit_rates(snapshot):
    return {
        layer: {
            "hits": int(row.get("hits", 0)),
            "misses": int(row.get("misses", 0)),
            "hit_rate": row.get("hit_rate", 0.0),
            "saved_seconds": row.get("saved_seconds", 0.0),
        }
        for layer, row in snapshot.items()
        if row.get("hits", 0) or row.get("misses", 0)
    }


def test_bench_render_repeated_cluster(cache_sandbox, bench_json):
    # Cold: every site rasterizes from scratch.
    perf.configure(perf.RenderCacheConfig(enabled=False))
    cold_seconds, cold_outputs, ops = _run_cluster(CLUSTER_SITES)

    # Warm: first site populates the caches, the rest of the cluster hits.
    perf.configure(perf.RenderCacheConfig())
    perf.reset_all()
    before = obs.METRICS.snapshot()
    warm_seconds, warm_outputs, _ = _run_cluster(CLUSTER_SITES)
    counters = perf.diff_snapshots(before, obs.METRICS.snapshot())

    assert warm_outputs == cold_outputs, "caches must be exactly transparent"
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    render = counters.get("render_cache", {})
    assert render.get("hits", 0) >= CLUSTER_SITES - 1
    assert speedup >= 3, (
        f"warm cluster should be >= 3x faster than cold (got {speedup:.1f}x)"
    )

    bench_json(
        "render",
        "repeated_cluster",
        sites=CLUSTER_SITES,
        draw_ops=ops,
        extractions=len(cold_outputs),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=speedup,
        hit_rates=_hit_rates(counters),
    )

    print()
    print(
        f"{CLUSTER_SITES} sites x {ops // CLUSTER_SITES} ops: "
        f"cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s ({speedup:.1f}x)"
    )
    for layer, row in sorted(_hit_rates(counters).items()):
        print(
            f"  {layer:14s} {row['hit_rate']:6.1%} hit rate "
            f"({row['hits']} hits / {row['misses']} misses)"
        )


def _crawl_cluster(sites):
    """Load ``sites`` pages that each run the same fingerprinting script."""
    source = S.combined_fingerprint_script(
        PANGRAM, "#f60", "#069", font="11pt Arial", hue_offset=0,
        double_render=True, vendor="bench",
    )
    outputs = []
    started = time.perf_counter()
    for index in range(sites):
        net = Network()
        host = f"site-{index:03d}.example"
        site = net.server_for(host)
        site.add_resource("/", "<script src='/fp.js'></script>")
        site.add_resource("/fp.js", source, content_type="application/javascript")
        page = Browser(net).load(f"https://{host}/")
        outputs.append(tuple(e.data_url for e in page.instrument.extractions))
    return time.perf_counter() - started, outputs


def test_bench_render_crawl_cluster(cache_sandbox, bench_json):
    perf.configure(perf.RenderCacheConfig(enabled=False))
    cold_seconds, cold_outputs = _crawl_cluster(CLUSTER_SITES)

    perf.configure(perf.RenderCacheConfig())
    perf.reset_all()
    before = obs.METRICS.snapshot()
    warm_seconds, warm_outputs = _crawl_cluster(CLUSTER_SITES)
    counters = perf.diff_snapshots(before, obs.METRICS.snapshot())

    assert warm_outputs == cold_outputs, "caches must be exactly transparent"
    assert counters.get("render_cache", {}).get("hits", 0) > 0
    speedup = cold_seconds / max(warm_seconds, 1e-9)

    bench_json(
        "render",
        "crawl_cluster",
        sites=CLUSTER_SITES,
        extractions=sum(len(urls) for urls in cold_outputs),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=speedup,
        hit_rates=_hit_rates(counters),
    )

    print()
    print(
        f"crawl of {CLUSTER_SITES} cluster sites: cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s ({speedup:.1f}x end-to-end)"
    )
