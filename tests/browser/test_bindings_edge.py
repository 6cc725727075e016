"""Edge-case tests for the JS canvas bindings."""

import pytest

from repro import perf
from repro.browser import Browser
from repro.net import Network


def load(script, host="edge.example"):
    net = Network()
    net.server_for(host).add_resource("/", f"<script>{script}</script>")
    return Browser(net).load(f"https://{host}/")


class TestBindingEdges:
    def test_to_data_url_with_quality_recorded(self):
        page = load(
            "var c = document.createElement('canvas');"
            "c.getContext('2d').fillRect(0,0,50,50);"
            "c.toDataURL('image/jpeg', 0.4);"
        )
        call = next(c for c in page.instrument.calls if c.method == "toDataURL")
        assert call.args == ("image/jpeg", 0.4)
        (extraction,) = page.instrument.extractions
        assert extraction.mime == "image/jpeg"

    def test_unknown_context_type_null(self):
        page = load(
            "var c = document.createElement('canvas');"
            "console.log(c.getContext('webgl2') === null);"
        )
        assert page.console == ["true"]

    def test_invalid_canvas_size_uses_default(self):
        page = load(
            "var c = document.createElement('canvas');"
            "c.width = -5; c.height = 0/0;"
            "console.log(c.width, c.height);"
        )
        assert page.console == ["300 150"]

    def test_canvas_resize_resets_pixels(self):
        page = load(
            "var c = document.createElement('canvas');"
            "var g = c.getContext('2d');"
            "g.fillRect(0, 0, 50, 50);"
            "c.width = 100;"
            "var g2 = c.getContext('2d');"
            "console.log(g2.getImageData(0, 0, 1, 1).data[3]);"
        )
        assert page.console == ["0"]

    def test_gradient_through_js(self):
        page = load(
            "var c = document.createElement('canvas');"
            "c.width = 40; c.height = 10;"
            "var g = c.getContext('2d');"
            "var grad = g.createLinearGradient(0, 0, 40, 0);"
            "grad.addColorStop(0, '#000000');"
            "grad.addColorStop(1, '#ffffff');"
            "g.fillStyle = grad;"
            "g.fillRect(0, 0, 40, 10);"
            "var d = g.getImageData(0, 5, 40, 1);"
            "console.log(d.data[0] < d.data[4 * 39]);"
        )
        assert page.console == ["true"]

    def test_gradient_bad_stop_throws_catchable(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "var grad = g.createLinearGradient(0, 0, 1, 1);"
            "var r = 'ok';"
            "try { grad.addColorStop(2, 'red'); } catch (e) { r = 'threw'; }"
            "console.log(r);"
        )
        assert page.console == ["threw"]

    def test_negative_arc_radius_throws_catchable(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "var r = 'ok';"
            "try { g.arc(0, 0, -2, 0, 1); } catch (e) { r = 'threw'; }"
            "console.log(r);"
        )
        assert page.console == ["threw"]

    def test_pixel_array_write(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "var img = g.createImageData(2, 2);"
            "img.data[0] = 999;"   # clamped to 255
            "img.data[1] = 128;"
            "g.putImageData(img, 0, 0);"
            "var out = g.getImageData(0, 0, 1, 1);"
            "console.log(out.data[0], out.data[1]);"
        )
        assert page.console == ["255 128"]

    def test_context_canvas_backreference(self):
        page = load(
            "var c = document.createElement('canvas');"
            "c.width = 77;"
            "var g = c.getContext('2d');"
            "console.log(g.canvas.width);"
        )
        assert page.console == ["77"]

    def test_property_read_returns_current_value(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "g.fillStyle = '#abcdef';"
            "console.log(g.fillStyle);"
            "g.globalAlpha = 0.5;"
            "console.log(g.globalAlpha);"
        )
        assert page.console == ["#abcdef", "0.5"]

    def test_draw_image_canvas_to_canvas_via_js(self):
        page = load(
            "var src = document.createElement('canvas');"
            "src.width = 10; src.height = 10;"
            "src.getContext('2d').fillRect(0, 0, 10, 10);"
            "var dst = document.createElement('canvas');"
            "dst.width = 30; dst.height = 30;"
            "var g = dst.getContext('2d');"
            "g.drawImage(src, 5, 5);"
            "console.log(g.getImageData(8, 8, 1, 1).data[3]);"
        )
        assert page.console == ["255"]


#: A canvas call or write with a NaN or infinite argument, in a script that
#: draws on a 20x20 canvas and reads it out; a sibling script then extracts
#: its own canvas.
NON_FINITE = {
    "nan-fill-rect": "g.fillRect(0, 0, 0/0, 10);",
    "infinite-width": "c.width = 1/0;",
    "infinite-fill-rect": "g.fillRect(0, 0, 1/0, 10);",
    "infinite-arc-radius": "g.beginPath(); g.arc(5, 5, 1/0, 0, 1); g.fill();",
    "infinite-translate": "g.translate(1/0, 0); g.fillRect(0, 0, 5, 5);",
    "infinite-get-image-data": "g.getImageData(0, 0, 1/0, 1);",
    "infinite-create-image-data": "g.createImageData(1/0, 1);",
    "infinite-draw-image": "g.drawImage(c, 1/0, 0);",
}


def load_with_sibling(body, enabled):
    """Load the two-script page with the render caches on or off."""
    saved = perf.current_config()
    perf.configure(perf.RenderCacheConfig(enabled=enabled))
    try:
        net = Network()
        site = net.server_for("edge.example")
        site.add_script(
            "/a.js",
            "var c = document.createElement('canvas'); c.width = 20; c.height = 20;"
            "var g = c.getContext('2d'); g.fillStyle = '#f60'; g.fillRect(1, 1, 8, 8);"
            + body
            + "c.toDataURL();",
        )
        site.add_script(
            "/b.js",
            "var d = document.createElement('canvas'); var h = d.getContext('2d');"
            "h.fillStyle = '#069'; h.fillText('Cwm', 2, 15); d.toDataURL();",
        )
        site.add_resource("/", "<script src='/a.js'></script><script src='/b.js'></script>")
        return Browser(net).load("https://edge.example/")
    finally:
        perf.configure(saved)


def observed(page):
    """What the instrument and the page recorded (repr: NaN equals itself)."""
    instrument = page.instrument
    return repr(
        (instrument.calls, instrument.property_accesses, instrument.extractions, page.script_errors)
    )


class TestNonFiniteArguments:
    @pytest.mark.parametrize("body", NON_FINITE.values(), ids=list(NON_FINITE))
    def test_same_page_with_caches_on_and_off(self, body):
        on = load_with_sibling(body, enabled=True)
        off = load_with_sibling(body, enabled=False)
        assert observed(on) == observed(off)
        assert "https://edge.example/b.js" in [e.script_url for e in on.instrument.extractions]

    def test_ignored_call_leaves_the_canvas_alone(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "g.fillRect(0, 0, 1/0, 10); g.translate(0/0, 0); g.fillRect(0, 0, 2, 2);"
            "console.log(g.getImageData(0, 0, 1, 1).data[3], g.getImageData(5, 5, 1, 1).data[3],"
            " g.isPointInPath(1/0, 0));"
        )
        assert page.console == ["255 0 false"]

    def test_sizes_convert_to_long_before_the_index_check(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "var r = [];"
            "try { g.getImageData(0, 0, 0/0, 1); } catch (e) { r.push('threw'); }"
            "r.push(g.getImageData(1/0, 0, 2.9, 1).width);"
            "console.log(r.join(' '));"
        )
        assert page.console == ["threw 2"]
