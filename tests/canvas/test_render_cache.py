"""The render-acceleration caches must be exactly transparent and bounded.

Every test compares cached renders against the ground truth of a run with
the caches disabled: transparency means byte-identical ``toDataURL`` output
(including lossy formats), not "close enough".  Boundedness means the LRU
byte budgets hold under adversarial workloads and eviction keeps outputs
correct.
"""

import math

import numpy as np
import pytest

from repro import obs, perf
from repro.browser.privacy import CanvasRandomization, RandomizationState, make_extraction_filter
from repro.canvas import HTMLCanvasElement, INTEL_UBUNTU, context2d
from repro.obs.metrics import MetricsRegistry, layer_rows


@pytest.fixture(autouse=True)
def cache_sandbox():
    """Every test starts cold and leaves the session config untouched."""
    saved = perf.config()
    perf.configure(perf.RenderCacheConfig())
    perf.reset_all()
    yield
    perf.configure(saved)
    perf.reset_all()


def make_canvas(w=120, h=80, device=INTEL_UBUNTU):
    c = HTMLCanvasElement(w, h, device=device)
    return c, c.getContext("2d")


def draw_fingerprint(ctx):
    ctx.textBaseline = "top"
    ctx.font = "11pt Arial"
    ctx.fillStyle = "#f60"
    ctx.fillRect(10, 1, 62, 20)
    ctx.fillStyle = "#069"
    ctx.fillText("Cwm fjordbank", 2, 15)
    ctx.globalCompositeOperation = "multiply"
    ctx.fillStyle = "#2ff"
    ctx.beginPath()
    ctx.arc(60, 50, 25, 0, math.pi * 2, True)
    ctx.fill()


def render_outputs(draw, mimes=(("image/png", None), ("image/jpeg", 0.6), ("image/webp", 0.6))):
    """Read out the canvas ``draw`` returns, else the one it drew on."""
    c, ctx = make_canvas()
    target = draw(ctx) or c
    return tuple(target.toDataURL(mime, q) for mime, q in mimes)


def restored_fingerprint():
    """A fingerprint canvas read out twice over; with the caches on, the
    second canvas's raster is the render cache's, shared copy-on-write."""
    for _ in range(2):
        c, ctx = make_canvas()
        draw_fingerprint(ctx)
        c.toDataURL()
    return c, ctx


def transparent(draw):
    """Disabled / cold / warm renders of ``draw`` must be byte-identical."""
    perf.configure(perf.RenderCacheConfig(enabled=False))
    disabled = render_outputs(draw)
    perf.configure(perf.RenderCacheConfig())
    perf.reset_all()
    cold = render_outputs(draw)
    warm = render_outputs(draw)
    assert disabled == cold == warm
    return disabled


class TestTransparency:
    def test_fingerprint_workload_all_formats(self):
        outputs = transparent(draw_fingerprint)
        assert layer_rows(obs.METRICS.snapshot())["render_cache"]["hits"] >= 1
        assert outputs[0].startswith("data:image/png")
        assert outputs[1].startswith("data:image/jpeg")

    def test_gradient_and_shadow_workload(self):
        def draw(ctx):
            grad = ctx.createLinearGradient(0, 0, 120, 0)
            grad.add_color_stop(0, "#000")
            grad.add_color_stop(1, "#fff")
            ctx.fillStyle = grad
            ctx.shadowBlur = 3
            ctx.shadowColor = "#345"
            ctx.fillRect(5, 5, 100, 60)

        transparent(draw)

    def test_transform_and_clip_workload(self):
        def draw(ctx):
            ctx.translate(10, 10)
            ctx.rotate(0.3)
            ctx.beginPath()
            ctx.rect(0, 0, 60, 40)
            ctx.clip()
            ctx.fillStyle = "#d33"
            ctx.fillRect(-5, -5, 120, 80)

        transparent(draw)

    def test_put_image_data_workload(self):
        def draw(ctx):
            ctx.fillStyle = "#0aa"
            ctx.fillRect(0, 0, 40, 40)
            block = ctx.getImageData(0, 0, 20, 20)
            ctx.putImageData(block, 50, 30)

        transparent(draw)

    def test_clear_rect_workload(self):
        def draw(ctx):
            ctx.fillStyle = "#333"
            ctx.fillRect(0, 0, 120, 80)
            ctx.clearRect(20, 20, 40, 30)
            ctx.fillStyle = "#f60"
            ctx.fillRect(25, 25, 10, 10)

        transparent(draw)

    def test_draw_image_workload(self):
        def draw(ctx):
            src = HTMLCanvasElement(30, 30, device=INTEL_UBUNTU)
            sctx = src.getContext("2d")
            sctx.fillStyle = "#909"
            sctx.fillRect(0, 0, 30, 30)
            ctx.drawImage(src, 10, 10)
            ctx.drawImage(src, 40, 20, 60, 40)

        transparent(draw)


    def test_draw_after_reading_out_a_cache_hit(self):
        def draw(ctx):
            original = restored_fingerprint()[0].read_pixels()
            c, g = restored_fingerprint()
            g.fillStyle = "#123"
            g.fillRect(0, 0, 30, 30)
            c.toDataURL()
            third, _ = restored_fingerprint()
            assert np.array_equal(third.read_pixels(), original)
            return c

        transparent(draw)

    def test_resize_after_reading_out_a_cache_hit(self):
        def draw(ctx):
            c, _ = restored_fingerprint()
            c.width = 60
            g = c.getContext("2d")
            g.fillStyle = "#0a0"
            g.fillRect(5, 5, 20, 20)
            return c

        transparent(draw)

    def test_context_with_no_ops(self):
        transparent(lambda ctx: None)

    def test_canvas_with_no_context(self):
        transparent(lambda ctx: HTMLCanvasElement(40, 30, device=INTEL_UBUNTU))

    def test_image_data_and_draw_image_with_restored_canvases(self):
        def draw(ctx):
            original = restored_fingerprint()[0].read_pixels()
            src, sctx = restored_fingerprint()
            ctx.putImageData(sctx.getImageData(10, 10, 40, 30), 5, 5)
            ctx.drawImage(src, 50, 20)
            dst, dctx = restored_fingerprint()
            dctx.putImageData(ctx.getImageData(0, 0, 30, 30), 60, 40)
            dctx.drawImage(ctx.canvas, 0, 0, 40, 30)
            dctx.getImageData(0, 0, 120, 80)
            assert np.array_equal(restored_fingerprint()[0].read_pixels(), original)
            return dst

        transparent(draw)


class TestCopyOnWrite:
    def test_cached_raster_is_read_only(self):
        c, _ = restored_fingerprint()
        ((_key, raster),) = context2d._RENDER_CACHE.items()
        assert c.surface._px is raster
        with pytest.raises(ValueError):
            raster[0, 0, 0] = 1.0

    def test_per_render_noise_on_a_restored_canvas(self):
        """A randomizing filter sees fresh pixels on every readout, cache hit or not."""

        def readouts(enabled):
            perf.configure(perf.RenderCacheConfig(enabled=enabled))
            perf.reset_all()
            state = RandomizationState(7)
            urls = []
            for _ in range(2):
                c, ctx = make_canvas()
                c.extraction_filter = make_extraction_filter(CanvasRandomization.PER_RENDER, state)
                draw_fingerprint(ctx)
                urls.append((c.toDataURL(), c.toDataURL()))
            return urls, layer_rows(obs.METRICS.snapshot()).get("render_cache", {}).get("hits", 0)

        (on, hits), (off, _) = readouts(True), readouts(False)
        assert hits == 1
        assert on == off
        first, second = on[1]
        assert first != second


class TestContentKeying:
    def test_put_image_data_content_changes_key(self):
        """Two canvases differing only in pasted pixel *content* never share
        a cache entry (the op key carries a content digest, not an id)."""

        def render(fill):
            c, ctx = make_canvas()
            src = HTMLCanvasElement(20, 20, device=INTEL_UBUNTU)
            sctx = src.getContext("2d")
            sctx.fillStyle = fill
            sctx.fillRect(0, 0, 20, 20)
            ctx.putImageData(sctx.getImageData(0, 0, 20, 20), 5, 5)
            return c.toDataURL()

        assert render("#111") != render("#999")
        assert render("#111") == render("#111")

    def test_clear_rect_coords_change_key(self):
        def render(x):
            c, ctx = make_canvas()
            ctx.fillStyle = "#333"
            ctx.fillRect(0, 0, 120, 80)
            ctx.clearRect(x, 10, 30, 30)
            return c.toDataURL()

        assert render(10) != render(50)

    def test_mutating_path_after_fill_does_not_corrupt(self):
        """fill() snapshots the path: later path edits must not leak into
        the deferred op."""
        c, ctx = make_canvas()
        ctx.beginPath()
        ctx.rect(10, 10, 30, 30)
        ctx.fill()
        ctx.lineTo(200, 200)  # mutates the live path, not the queued op
        cached = c.toDataURL()

        perf.configure(perf.RenderCacheConfig(enabled=False))
        c2, ctx2 = make_canvas()
        ctx2.beginPath()
        ctx2.rect(10, 10, 30, 30)
        ctx2.fill()
        ctx2.lineTo(200, 200)
        assert cached == c2.toDataURL()

    def test_mutating_gradient_after_fill_does_not_corrupt(self):
        """A draw captures the gradient's stops at call time."""

        def render(enabled):
            perf.configure(perf.RenderCacheConfig(enabled=enabled))
            c, ctx = make_canvas()
            grad = ctx.createLinearGradient(0, 0, 120, 0)
            grad.add_color_stop(0, "#000")
            ctx.fillStyle = grad
            ctx.fillRect(0, 0, 120, 40)
            grad.add_color_stop(1, "#fff")  # after the draw: second rect only
            ctx.fillRect(0, 40, 120, 40)
            return c.toDataURL()

        assert render(True) == render(False)

    def test_device_profile_partitions_cache(self):
        from repro.canvas import APPLE_M1

        def render(device):
            c = HTMLCanvasElement(120, 80, device=device)
            draw_fingerprint(c.getContext("2d"))
            return c.toDataURL()

        assert render(INTEL_UBUNTU) != render(APPLE_M1)


class TestBoundedness:
    def test_render_cache_respects_byte_budget(self, monkeypatch):
        # ~120x80 float64 RGBA snapshot is ~300 KB; budget two of them.
        budget = 2 * 120 * 80 * 4 * 8
        monkeypatch.setattr(context2d._RENDER_CACHE, "max_bytes", budget)
        for i in range(8):
            c, ctx = make_canvas()
            ctx.fillStyle = "#3%d%d" % (i, i)
            ctx.fillRect(0, 0, 100 + i, 60)
            c.toDataURL()
        cache = context2d._RENDER_CACHE
        assert cache.resident_bytes <= budget
        assert layer_rows(obs.METRICS.snapshot())["render_cache"]["evictions"] >= 1

    def test_oversized_value_never_resident(self, monkeypatch):
        monkeypatch.setattr(context2d._RENDER_CACHE, "max_bytes", 1024)
        c, ctx = make_canvas()
        ctx.fillRect(0, 0, 50, 50)
        c.toDataURL()
        assert context2d._RENDER_CACHE.resident_bytes == 0

    def test_eviction_keeps_outputs_correct(self, monkeypatch):
        monkeypatch.setattr(context2d._RENDER_CACHE, "max_bytes", 1)

        def render(i):
            c, ctx = make_canvas()
            ctx.fillStyle = "#456"
            ctx.fillRect(0, 0, 20 + i, 20)
            return c.toDataURL()

        thrashed = [render(i % 3) for i in range(9)]
        perf.configure(perf.RenderCacheConfig(enabled=False))
        truth = [render(i % 3) for i in range(9)]
        assert thrashed == truth


class TestConfig:
    def test_from_env_disable(self):
        cfg = perf.RenderCacheConfig.from_env({"REPRO_RENDER_CACHE": "0"})
        assert not cfg.enabled
        assert perf.RenderCacheConfig.from_env({}).enabled

    def test_disable_mid_canvas_stays_correct(self):
        """Ops queued while caching was on replay correctly after disable."""
        c, ctx = make_canvas()
        ctx.fillStyle = "#269"
        ctx.fillRect(0, 0, 60, 40)
        perf.configure(perf.RenderCacheConfig(enabled=False))
        ctx.fillStyle = "#900"
        ctx.fillRect(30, 20, 60, 40)
        mixed = c.toDataURL()

        c2, ctx2 = make_canvas()
        ctx2.fillStyle = "#269"
        ctx2.fillRect(0, 0, 60, 40)
        ctx2.fillStyle = "#900"
        ctx2.fillRect(30, 20, 60, 40)
        assert mixed == c2.toDataURL()

    def test_counters_report_through_snapshot(self):
        draw = draw_fingerprint
        render_outputs(draw)
        render_outputs(draw)
        snap = obs.METRICS.snapshot()
        row = layer_rows(snap)["render_cache"]
        assert row["hits"] >= 1 and row["misses"] >= 1
        assert 0.0 < row["hit_rate"] < 1.0
        merged = MetricsRegistry()
        merged.merge(snap)
        merged.merge(snap)
        assert layer_rows(merged.snapshot())["render_cache"]["hits"] == 2 * row["hits"]

    def test_pixel_identity_cold_vs_warm(self):
        """Beyond the encoded URL: raw pixels of a cache hit are identical."""
        c1, ctx1 = make_canvas()
        draw_fingerprint(ctx1)
        cold = c1.read_pixels().copy()
        c2, ctx2 = make_canvas()
        draw_fingerprint(ctx2)
        warm = c2.read_pixels()
        assert np.array_equal(cold, warm)
