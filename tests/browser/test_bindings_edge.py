"""Edge-case tests for the JS canvas bindings."""

import os
import subprocess
import sys

import pytest

import repro
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


#: Finite arguments whose device-space geometry overflows to infinity or NaN
#: (a transform composed past the float range, an arc too large for floats),
#: or whose resampled text box is larger than any canvas.
OVERFLOWING = {
    "translate-fill-rect": "g.translate(1e308, 0); g.translate(1e308, 0); g.fillRect(0, 0, 5, 5);",
    "translate-fill-text": "g.translate(1e308, 0); g.translate(1e308, 0); g.fillText('Cwm', 0, 5);",
    "translate-arc": (
        "g.translate(1e308, 0); g.translate(1e308, 0);"
        " g.beginPath(); g.arc(5, 5, 3, 0, 6); g.fill();"
    ),
    "translate-clear-rect": "g.translate(1e308, 0); g.translate(1e308, 0); g.clearRect(0, 0, 5, 5);",
    "translate-draw-image": "g.translate(1e308, 0); g.translate(1e308, 0); g.drawImage(c, 0, 0);",
    "scale-fill-rect": "g.scale(1e308, 1e308); g.scale(1e308, 1e308); g.fillRect(0, 0, 5, 5);",
    "scale-stroke": (
        "g.beginPath(); g.moveTo(1, 1); g.lineTo(5, 5);"
        " g.scale(1e308, 1e308); g.scale(1e308, 1e308); g.stroke();"
    ),
    "scale-fill-text": "g.rotate(0.3); g.scale(1e200, 1e200); g.fillText('Cwm', 1, 10);",
    "huge-arc": "g.beginPath(); g.arc(5, 5, 1e308, 0, 6); g.fill();",
    "huge-rect": "g.fillRect(0, 0, 1e308, 1e308);",
    "huge-curve": "g.beginPath(); g.moveTo(1, 1); g.bezierCurveTo(1e308, 0, -1e308, 9, 5, 5); g.stroke();",
}


class TestOverflowingGeometry:
    @pytest.mark.parametrize("body", OVERFLOWING.values(), ids=list(OVERFLOWING))
    def test_same_page_with_caches_on_and_off(self, body):
        on = load_with_sibling(body, enabled=True)
        off = load_with_sibling(body, enabled=False)
        assert observed(on) == observed(off)
        assert on.script_errors == []
        assert "https://edge.example/b.js" in [e.script_url for e in on.instrument.extractions]

    def test_overflowing_draws_leave_the_canvas_alone(self):
        page = load(
            "var c = document.createElement('canvas'); var g = c.getContext('2d');"
            "g.fillRect(0, 0, 2, 2); g.save();"
            "g.translate(1e308, 0); g.translate(1e308, 0);"
            "g.fillRect(0, 0, 9, 9); g.fillText('Cwm', 0, 9); g.drawImage(c, 0, 0);"
            "g.beginPath(); g.arc(5, 5, 3, 0, 6); g.fill(); g.stroke(); g.clearRect(0, 0, 9, 9);"
            "g.restore();"
            "console.log(g.getImageData(0, 0, 1, 1).data[3], g.getImageData(5, 5, 1, 1).data[3]);"
        )
        assert page.console == ["255 0"]

    def test_a_path_through_an_infinite_point_covers_nothing(self):
        page = load(
            "var g = document.createElement('canvas').getContext('2d');"
            "g.beginPath(); g.moveTo(0, 0); g.lineTo(9, 0); g.lineTo(9, 9);"
            "g.scale(1e308, 1e308); g.scale(1e308, 1e308); g.lineTo(1, 1);"
            "var inside = g.isPointInPath(0, 0);"
            "g.resetTransform(); g.fill();"
            "console.log(inside, g.isPointInPath(8, 2), g.getImageData(8, 2, 1, 1).data[3]);"
            "g.clip(); g.fillRect(0, 0, 9, 9);"
            "console.log(g.getImageData(8, 2, 1, 1).data[3]);"
        )
        assert page.console == ["false false 0", "0"]


#: Number literals past the largest double: JavaScript reads the first as
#: Infinity and the second as the key "Infinity".
HUGE_LITERALS = {
    "hex": "var n = 0x" + "F" * 300 + "; console.log(n === 1/0);",
    "key": "var o = {1e999: 'inf'}; console.log(o[1/0] === 'inf');",
}


class TestHugeNumberLiterals:
    @pytest.mark.parametrize("body", HUGE_LITERALS.values(), ids=list(HUGE_LITERALS))
    def test_the_page_loads_and_keeps_the_sibling_extraction(self, body):
        # Both literals raised OverflowError out of the page load, and the
        # collector turned the whole page into a failure row.
        page = load_with_sibling(body, enabled=True)
        assert page.script_errors == []
        assert page.console == ["true"]
        assert [e.script_url for e in page.instrument.extractions] == [
            "https://edge.example/a.js", "https://edge.example/b.js"
        ]


def load_limited(script):
    """Load a one-script page in a child process limited to 1 GiB of address space.

    A page that asks for an allocation the size of its arguments fails in
    the child (or is killed there) instead of exhausting this process.
    """
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from repro.browser import Browser\n"
        "from repro.net import Network\n"
        "net = Network()\n"
        "net.server_for('edge.example').add_resource('/', '<script>' + sys.argv[1] + '</script>')\n"
        "page = Browser(net).load('https://edge.example/')\n"
        "print(page.console, page.script_errors)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code, script], capture_output=True, text=True, timeout=120, env=env
    )


class TestScriptSizedAllocations:
    def test_regions_larger_than_the_largest_canvas_throw_and_draws_stay_bounded(self):
        proc = load_limited(
            "var c = document.createElement('canvas'); c.width = 20; c.height = 20;"
            "var g = c.getContext('2d');"
            "var src = document.createElement('canvas'); src.width = 4; src.height = 4;"
            "src.getContext('2d').fillRect(0, 0, 4, 4);"
            "var r = [];"
            "try { g.createImageData(1e9, 1e9); r.push('created'); } catch (e) { r.push('threw'); }"
            "try { g.getImageData(0, 0, 1e9, 1e9); r.push('read'); } catch (e) { r.push('threw'); }"
            "try { g.createImageData(4097, 4096); r.push('created'); } catch (e) { r.push('threw'); }"
            "g.drawImage(src, 0, 0, 1e9, 1e9);"
            "g.drawImage(src, -1e300, -1e300, 1e300, 1e300);"
            "r.push(g.getImageData(19, 19, 1, 1).data[3]);"
            "r.push(g.getImageData(0, 0, 5000, 10).data.length);"
            "r.push(g.createImageData(4096, 4096).width);"
            "console.log(r.join(' '));"
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "['threw threw threw 255 200000 4096'] []"

    def test_a_resized_draw_reads_the_same_source_pixels_wherever_it_lands(self):
        page = load(
            "var src = document.createElement('canvas'); src.width = 4; src.height = 2;"
            "var s = src.getContext('2d'); s.fillStyle = '#f00'; s.fillRect(0, 0, 2, 2);"
            "s.fillStyle = '#00f'; s.fillRect(2, 0, 2, 2);"
            "var c = document.createElement('canvas'); c.width = 10; c.height = 10;"
            "var g = c.getContext('2d');"
            "g.drawImage(src, -6, 0, 12, 6);"  # columns 6..11 of the 12 land on the canvas
            "var d = g.getImageData(0, 0, 10, 1).data; var r = [];"
            "for (var x = 0; x < 10; x++) { r.push(d[4 * x] > 0 ? 'r' : d[4 * x + 2] > 0 ? 'b' : '.'); }"
            "console.log(r.join(''));"
        )
        assert page.console == ["bbbbbb...."]
