"""Unit tests for privacy filters, instrumentation, profiles and extensions."""

import numpy as np

from repro.browser.browser import Browser
from repro.browser.extensions import AdBlockerExtension
from repro.browser.instrumentation import CanvasInstrument, VirtualClock
from repro.browser.privacy import CanvasRandomization, RandomizationState, make_extraction_filter
from repro.browser.profile import BrowserProfile
from repro.blocklists.matcher import RuleMatcher
from repro.net.http import Request, ResourceType
from repro.net.server import Network
from repro.net.url import URL


def drawn_pixels(h=20, w=20, value=180):
    px = np.zeros((h, w, 4), dtype=np.uint8)
    px[5:15, 5:15] = value
    px[5:15, 5:15, 3] = 255
    return px


class TestPrivacyFilters:
    def test_none_mode_no_filter(self):
        assert make_extraction_filter(CanvasRandomization.NONE, RandomizationState(1)) is None

    def test_per_render_changes_each_readout(self):
        state = RandomizationState(42)
        f = make_extraction_filter(CanvasRandomization.PER_RENDER, state)
        px = drawn_pixels()
        a, b = f(px), f(px)
        assert not np.array_equal(a, b)
        assert state.readout_counter == 2

    def test_per_session_stable_within_session(self):
        f = make_extraction_filter(CanvasRandomization.PER_SESSION, RandomizationState(42))
        px = drawn_pixels()
        assert np.array_equal(f(px), f(px))

    def test_per_session_differs_across_sessions(self):
        px = drawn_pixels()
        f1 = make_extraction_filter(CanvasRandomization.PER_SESSION, RandomizationState(1))
        f2 = make_extraction_filter(CanvasRandomization.PER_SESSION, RandomizationState(2))
        assert not np.array_equal(f1(px), f2(px))

    def test_noise_only_touches_drawn_pixels(self):
        f = make_extraction_filter(CanvasRandomization.PER_RENDER, RandomizationState(7))
        px = drawn_pixels()
        out = f(px)
        transparent = px[..., 3] == 0
        assert np.array_equal(out[transparent], px[transparent])

    def test_noise_is_subtle(self):
        f = make_extraction_filter(CanvasRandomization.PER_SESSION, RandomizationState(7))
        px = drawn_pixels()
        out = f(px)
        delta = np.abs(out.astype(int) - px.astype(int))
        assert delta.max() <= 1  # low-bit flips only

    def test_input_not_mutated(self):
        f = make_extraction_filter(CanvasRandomization.PER_RENDER, RandomizationState(7))
        px = drawn_pixels()
        original = px.copy()
        f(px)
        assert np.array_equal(px, original)


class TestVirtualClock:
    def test_monotone_ticks(self):
        clock = VirtualClock()
        times = [clock.advance() for _ in range(10)]
        assert times == sorted(times)
        assert len(set(times)) == 10

    def test_explicit_advance(self):
        clock = VirtualClock()
        clock.advance(5000.0)
        assert clock.now_ms() == 5000.0


class TestInstrument:
    def test_records_have_increasing_timestamps(self):
        inst = CanvasInstrument()
        inst.record_call("CanvasRenderingContext2D", "fillRect", (1, 2, 3, 4), None, "s.js", 1)
        inst.record_property("CanvasRenderingContext2D", "fillStyle", "#f60", "s.js", 1)
        inst.record_extraction("data:x", "image/png", 10, 10, "s.js", 1)
        times = [inst.calls[0].t_ms, inst.property_accesses[0].t_ms, inst.extractions[0].t_ms]
        assert times == sorted(times)

    def test_long_arguments_truncated(self):
        inst = CanvasInstrument()
        inst.record_call("I", "m", ("x" * 500,), None, None, 1)
        preview = inst.calls[0].args[0]
        assert len(preview) < 200
        assert "chars>" in preview

    def test_scalar_args_passed_through(self):
        inst = CanvasInstrument()
        inst.record_call("I", "m", (1.5, True, None), 7, None, 1)
        assert inst.calls[0].args == (1.5, True, None)

    def test_scripts_calling(self):
        inst = CanvasInstrument()
        inst.record_call("I", "save", (), None, "a.js", 1)
        inst.record_call("I", "fillRect", (), None, "b.js", 1)
        assert inst.scripts_calling("save") == {"a.js"}


class TestProfile:
    def test_with_extensions_copies(self):
        base = BrowserProfile()
        ext = AdBlockerExtension("x", [])
        derived = base.with_extensions(ext)
        assert derived.extensions == (ext,)
        assert base.extensions == ()
        assert derived.device is base.device


class TestAdBlockerExtension:
    def make_request(self, url, doc="https://site.example/"):
        return Request(
            URL.parse(url), ResourceType.SCRIPT, document_url=URL.parse(doc)
        )

    def test_blocks_matching_third_party(self):
        ext = AdBlockerExtension("abp", [RuleMatcher.from_text("||tracker.net^$script")])
        assert ext.on_request(self.make_request("https://tracker.net/fp.js"))
        network = Network()
        network.server_for("site.example").add_resource(
            "/", '<html><script src="https://tracker.net/fp.js"></script></html>'
        )
        page = Browser(network, BrowserProfile(extensions=(ext,))).load("https://site.example/")
        assert page.blocked_urls == ["https://tracker.net/fp.js"]

    def test_first_party_exception(self):
        ext = AdBlockerExtension("abp", [RuleMatcher.from_text("/fp.js$script")])
        req = self.make_request("https://site.example/fp.js")
        assert not ext.on_request(req)

    def test_first_party_exception_can_be_disabled(self):
        ext = AdBlockerExtension(
            "strict",
            [RuleMatcher.from_text("/fp.js$script")],
            honor_first_party_exception=False,
        )
        assert ext.on_request(self.make_request("https://site.example/fp.js"))

    def test_extra_matchers_add_coverage(self):
        ext = AdBlockerExtension(
            "ubo",
            [RuleMatcher.from_text("||a.net^$script")],
            extra_matchers=[RuleMatcher.from_text("||b.net^$script")],
        )
        assert ext.on_request(self.make_request("https://b.net/x.js"))

    def test_unlisted_allowed(self):
        ext = AdBlockerExtension("abp", [RuleMatcher.from_text("||tracker.net^$script")])
        assert not ext.on_request(self.make_request("https://benign.org/x.js"))
