"""The lazy path and the whole-box kernel against their eager oracles.

``eager_geometry`` keeps the path that flattened every arc as it was added
and the kernel that filled one supersampled row at a time.  Coverage must
be bit-equal (compared as ``uint64`` views, so even the sign of a zero
counts), and paths built by any call sequence must flatten to the same
subpaths and read out the same pixels.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import perf
from repro.browser import Browser
from repro.browser.profile import BrowserProfile
from repro.canvas.device import APPLE_M1, INTEL_UBUNTU
from repro.canvas.element import HTMLCanvasElement
from repro.canvas.path import _coverage_uncached
from repro.net import Network
from repro.webgen import scripts as S
from repro.webgen.vendors import VENDOR_SPECS
from tests.canvas.eager_geometry import EagerPath, coverage_rows, eager


def assert_bit_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- the kernel ---------------------------------------------------------------------

#: Coordinates on a half-pixel grid hit sample rows and pixel borders exactly
#: and make horizontal edges; free floats make everything else.
coordinate = st.one_of(
    st.integers(-16, 80).map(lambda v: v / 2),
    st.floats(-12, 45, allow_nan=False, width=64),
)
point = st.tuples(coordinate, coordinate)
polygon = st.lists(point, min_size=2, max_size=9)


def polygon_edges(polygons):
    rows = []
    for pts in polygons:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            rows.append((a[0], a[1], b[0], b[1]))
    return np.asarray(rows, dtype=np.float64)


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        polygons=st.lists(polygon, min_size=1, max_size=3),
        x0=st.integers(-4, 20),
        y0=st.integers(-4, 20),
        w=st.integers(1, 32),
        h=st.integers(1, 24),
        rule=st.sampled_from(["nonzero", "evenodd"]),
    )
    def test_bit_equal_to_the_row_loop(self, polygons, x0, y0, w, h, rule):
        # The box is drawn apart from the polygons: edges may lie outside
        # it, and spans are clipped at column 0 and at w.
        edges = polygon_edges(polygons)
        assert_bit_equal(
            _coverage_uncached(edges, x0, y0, x0 + w, y0 + h, rule),
            coverage_rows(edges, x0, y0, x0 + w, y0 + h, rule),
        )

    @pytest.mark.parametrize("rule", ["nonzero", "evenodd"])
    def test_star_with_many_spans_per_row(self, rule):
        pts = [
            (40 + (38 if k % 2 else 9) * math.cos(k * math.pi / 23), 40 + (38 if k % 2 else 9) * math.sin(k * math.pi / 23))
            for k in range(46)
        ]
        edges = polygon_edges([pts, pts[::-1], [(p[0] * 0.5 + 3, p[1]) for p in pts]])
        assert_bit_equal(_coverage_uncached(edges, 0, 0, 80, 80, rule), coverage_rows(edges, 0, 0, 80, 80, rule))

    def test_box_taller_than_one_block(self, monkeypatch):
        from repro.canvas import path as path_module

        monkeypatch.setattr(path_module, "_BLOCK_CELLS", 64)
        edges = polygon_edges([[(1.3, 0.2), (30.7, 4.1), (12.2, 58.9)], [(5, 5), (25, 5), (25, 50), (5, 50)]])
        for rule in ("nonzero", "evenodd"):
            assert_bit_equal(_coverage_uncached(edges, 0, 0, 32, 60, rule), coverage_rows(edges, 0, 0, 32, 60, rule))

    @pytest.mark.parametrize("rule", ["nonzero", "evenodd"])
    def test_crossings_that_are_nan(self, rule):
        # An edge too steep for floats (dx/dy overflows) crossed exactly at
        # its start gives 0 * inf: a NaN crossing, which sorts last.
        y = 0.5 / 3
        edges = np.array(
            [
                [-1e300, y, 1e300, y + 1e-9],
                [1e300, y + 1e-9, 5.0, 9.0],
                [5.0, 9.0, -1e300, y],
                [2.0, 1.0, 8.0, 3.0],
                [8.0, 3.0, 3.0, 6.0],
                [3.0, 6.0, 2.0, 1.0],
            ]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert_bit_equal(_coverage_uncached(edges, 0, 0, 12, 10, rule), coverage_rows(edges, 0, 0, 12, 10, rule))


# -- the path -------------------------------------------------------------------------

xy = st.floats(-20, 80, allow_nan=False, width=64)
angle = st.floats(-7, 7, allow_nan=False, width=64)
radius = st.floats(0, 40, allow_nan=False, width=64)
call = st.one_of(
    st.tuples(st.just("moveTo"), xy, xy),
    st.tuples(st.just("lineTo"), xy, xy),
    st.tuples(st.just("rect"), xy, xy, xy, xy),
    st.tuples(st.just("arc"), xy, xy, radius, angle, angle, st.booleans()),
    st.tuples(st.just("ellipse"), xy, xy, radius, radius, angle, angle, angle, st.booleans()),
    st.tuples(st.just("closePath")),
    st.tuples(st.just("quadraticCurveTo"), xy, xy, xy, xy),
    st.tuples(st.just("bezierCurveTo"), xy, xy, xy, xy, xy, xy),
    st.tuples(st.just("arcTo"), xy, xy, xy, xy, radius),
    st.tuples(st.just("beginPath")),
    st.tuples(st.just("translate"), xy, xy),
    st.tuples(st.just("rotate"), angle),
    st.tuples(st.just("scale"), st.floats(-2.5, 2.5, allow_nan=False), st.floats(-2.5, 2.5, allow_nan=False)),
    st.tuples(st.just("resetTransform")),
)


def build(calls, rule, enabled):
    """Run the calls on a fresh canvas; return what its path and pixels read."""
    saved = perf.current_config()
    perf.configure(perf.RenderCacheConfig(enabled=enabled))
    perf.reset_caches()
    try:
        canvas = HTMLCanvasElement(64, 40, INTEL_UBUNTU)
        ctx = canvas.getContext("2d")
        for name, *args in calls:
            getattr(ctx, name)(*args)
        path = ctx._path
        copy = path.copy()
        built = (path.subpaths, path._closed, path.is_empty(), path.current_point, copy.current_point)
        hits = [ctx.isPointInPath(x, y, rule) for x, y in ((12, 20), (40, 30), (55, 8))]
        ctx.fillStyle = "rgba(200, 40, 90, 0.8)"
        ctx.fill(rule)
        ctx.strokeStyle = "#1060c0"
        ctx.stroke()
        pixels = ctx.getImageData(0, 0, 64, 40).pixels.tobytes()
        return built, hits, pixels
    finally:
        perf.configure(saved)


class TestLazyPath:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        calls=st.lists(call, min_size=1, max_size=10),
        rule=st.sampled_from(["nonzero", "evenodd"]),
        enabled=st.booleans(),
    )
    def test_same_subpaths_and_pixels_as_the_eager_path(self, calls, rule, enabled):
        lazy = build(calls, rule, enabled)
        with eager():
            oracle = build(calls, rule, enabled)
        assert lazy == oracle

    def test_digest_names_every_argument_of_the_log(self):
        from repro.canvas.geometry import Transform
        from repro.canvas.path import Path

        def digest(*calls):
            path = Path()
            for name, *args in calls:
                getattr(path, name)(*args)
            return path.canonical_digest()

        arc = ("arc", 5.0, 5.0, 3.0, 0.0, 6.0, False, Transform())
        assert digest(arc) == digest(arc)
        assert digest(arc) != digest(arc[:7] + (Transform().rotate(0.5),))
        assert digest(arc) != digest(arc[:6] + (True, Transform()))
        assert digest(arc) != digest(arc + (2.0, 1.0))
        assert digest(("move_to", 1.0, 2.0)) != digest(("line_to", 1.0, 2.0))
        assert digest(("move_to", 0.0, 2.0)) != digest(("move_to", -0.0, 2.0))
        square = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
        assert digest(("add_polyline", square, True)) != digest(("add_polyline", square, False))
        assert digest(("move_to", 1.0, 2.0), ("close",)) != digest(("move_to", 1.0, 2.0))

    def test_oracle_is_in_place(self):
        with eager():
            canvas = HTMLCanvasElement(10, 10, INTEL_UBUNTU)
            assert isinstance(canvas.getContext("2d")._path, EagerPath)

    def test_arcs_flatten_only_when_points_are_needed(self, monkeypatch):
        from repro.canvas import path as path_module

        flattened = []
        real = path_module.flatten_arc
        monkeypatch.setattr(path_module, "flatten_arc", lambda *args: flattened.append(args) or real(*args))
        saved = perf.current_config()
        perf.configure(perf.RenderCacheConfig(enabled=True))
        perf.reset_caches()
        try:
            for before, after in ((0, 2), (2, 2)):  # a miss flattens both arcs; a hit none
                canvas = HTMLCanvasElement(60, 60, INTEL_UBUNTU)
                ctx = canvas.getContext("2d")
                ctx.arc(30, 30, 20, 0, 6.3, True)
                ctx.closePath()
                ctx.arc(30, 30, 10, 0, 6.3, True)
                ctx.fill("evenodd")
                assert not ctx._path.is_empty() and len(flattened) == before
                canvas.toDataURL()
                assert len(flattened) == after
            ctx.beginPath()
            ctx.arc(30, 30, 20, 0, 1)
            assert len(flattened) == 2
            ctx.quadraticCurveTo(10, 20, 30, 40)  # starts where the arc ends
            assert len(flattened) == 3
        finally:
            perf.configure(saved)


# -- the templates ---------------------------------------------------------------------

TEMPLATES = {
    "text": S.text_fingerprint_script("Cwm fjordbank glyphs vext quiz", emoji="\\ud83d\\ude03"),
    "text-double": S.text_fingerprint_script("BrowserLeaks,com <canvas> 1.0", double_render=True),
    "geometry": S.geometry_fingerprint_script(0),
    "geometry-hue": S.geometry_fingerprint_script(137, size=96),
    "combined": S.combined_fingerprint_script("Soft Ugly quartz", "#f60", "#069", hue_offset=42),
    "imperva": S.imperva_script("shop.example"),
    "font-prober": S.font_prober_script(3, 7),
    "webp": S.webp_check_script(),
    "emoji": S.emoji_check_script(),
    "small": S.small_canvas_script(16, "#abc"),
    "animation": S.animation_tool_script(5),
    "thumbnail": S.thumbnail_generator_script(9),
    **{f"vendor-{spec.name}": spec.source() for spec in VENDOR_SPECS if not spec.per_site},
}


def render(source, device):
    perf.reset_caches()
    network = Network()
    site = network.server_for("host.example")
    site.add_script("/s.js", source)
    site.add_resource("/", '<html><script src="/s.js"></script></html>')
    page = Browser(network, BrowserProfile(device=device)).load("https://host.example/")
    return [(e.canvas_id, e.data_url) for e in page.instrument.extractions], page.script_errors


class TestTemplates:
    @pytest.mark.parametrize("device", [INTEL_UBUNTU, APPLE_M1], ids=lambda d: d.name)
    @pytest.mark.parametrize("source", TEMPLATES.values(), ids=list(TEMPLATES))
    def test_renders_equal_the_oracle(self, source, device):
        lazy = render(source, device)
        with eager():
            oracle = render(source, device)
        assert lazy == oracle
        assert lazy[0] and not lazy[1]
