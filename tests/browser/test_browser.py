"""Integration tests: page loading, script execution, canvas instrumentation."""

import pytest

from repro.browser import AdBlockerExtension, Browser, BrowserProfile, CanvasRandomization
from repro.browser import browser as browser_module
from repro.blocklists.matcher import RuleMatcher
from repro.canvas.device import APPLE_M1
from repro.js.interpreter import Interpreter
from repro.net.server import Network

FP_SCRIPT = """
var canvas = document.createElement('canvas');
canvas.width = 240;
canvas.height = 60;
var ctx = canvas.getContext('2d');
ctx.textBaseline = 'top';
ctx.font = "14px 'Arial'";
ctx.fillStyle = '#f60';
ctx.fillRect(125, 1, 62, 20);
ctx.fillStyle = '#069';
ctx.fillText('Cwm fjordbank glyphs vext quiz', 2, 15);
var result = canvas.toDataURL();
"""

PAGE_HTML = """
<html><head><title>Test Shop</title></head>
<body>
<script src="/fp.js"></script>
<script>var inlineRan = true;</script>
</body></html>
"""


@pytest.fixture
def network():
    net = Network()
    site = net.server_for("shop.example")
    site.add_resource("/", PAGE_HTML)
    site.add_script("/fp.js", FP_SCRIPT)
    return net


class TestPageLoad:
    def test_loads_and_titles(self, network):
        page = Browser(network).load("https://shop.example/")
        assert page.ok
        assert page.title == "Test Shop"

    def test_failed_load(self, network):
        page = Browser(network).load("https://missing.example/")
        assert not page.ok
        assert page.status == 0

    def test_scripts_execute_in_order(self, network):
        page = Browser(network).load("https://shop.example/")
        assert page.executed_scripts == [
            "https://shop.example/fp.js",
            "https://shop.example/#inline",
        ]
        assert not page.script_errors

    def test_script_sources_captured(self, network):
        page = Browser(network).load("https://shop.example/")
        assert "fjordbank" in page.script_sources["https://shop.example/fp.js"]

    def test_script_error_contained(self, network):
        site = network.server_for("broken.example")
        site.add_resource(
            "/", "<script>totally.bogus();</script><script>var after = 1;</script>"
        )
        page = Browser(network).load("https://broken.example/")
        assert page.ok
        assert len(page.script_errors) == 1
        assert len(page.executed_scripts) == 2  # the second script still ran


class TestInstrumentation:
    def test_extraction_recorded_with_script_url(self, network):
        page = Browser(network).load("https://shop.example/")
        assert len(page.instrument.extractions) == 1
        ext = page.instrument.extractions[0]
        assert ext.script_url == "https://shop.example/fp.js"
        assert ext.mime == "image/png"
        assert (ext.width, ext.height) == (240, 60)
        assert ext.data_url.startswith("data:image/png;base64,")

    def test_api_calls_recorded(self, network):
        page = Browser(network).load("https://shop.example/")
        methods = [c.method for c in page.instrument.calls]
        assert "fillText" in methods
        assert "fillRect" in methods
        assert "toDataURL" in methods
        fill_text = next(c for c in page.instrument.calls if c.method == "fillText")
        assert fill_text.args[0] == "Cwm fjordbank glyphs vext quiz"
        assert fill_text.interface == "CanvasRenderingContext2D"

    def test_property_writes_recorded(self, network):
        page = Browser(network).load("https://shop.example/")
        props = {(p.prop, p.value) for p in page.instrument.property_accesses}
        assert ("fillStyle", "#f60") in props
        assert ("textBaseline", "top") in props
        assert ("width", 240) in props  # HTMLCanvasElement property

    def test_timestamps_monotone(self, network):
        page = Browser(network).load("https://shop.example/")
        times = [c.t_ms for c in page.instrument.calls]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_deterministic_across_loads(self, network):
        url1 = Browser(network).load("https://shop.example/").instrument.extractions[0].data_url
        url2 = Browser(network).load("https://shop.example/").instrument.extractions[0].data_url
        assert url1 == url2

    def test_device_changes_fingerprint(self, network):
        base = Browser(network).load("https://shop.example/").instrument.extractions[0].data_url
        m1 = Browser(network, BrowserProfile(device=APPLE_M1)).load("https://shop.example/")
        assert m1.instrument.extractions[0].data_url != base


class TestDeferredScripts:
    HTML = """
    <html><body>
    <div class="consent-banner">We use cookies</div>
    <script data-consent="required">var consentScript = 1;</script>
    <script data-trigger="scroll">var scrollScript = 1;</script>
    <script>var eager = 1;</script>
    </body></html>
    """

    @pytest.fixture
    def page(self, network):
        site = network.server_for("banner.example")
        site.add_resource("/", self.HTML)
        return Browser(network).load("https://banner.example/")

    def test_banner_detected(self, page):
        assert page.has_consent_banner

    def test_gated_scripts_deferred(self, page):
        assert len(page.executed_scripts) == 1
        assert page.pending_count("consent") == 1
        assert page.pending_count("scroll") == 1

    def test_trigger_runs_pending(self, page):
        assert page.trigger("consent") == 1
        assert page.trigger("scroll") == 1
        assert len(page.executed_scripts) == 3
        assert page.trigger("consent") == 0  # drained


class TestAdBlocking:
    def test_third_party_script_blocked(self, network):
        tracker = network.server_for("tracker.net")
        tracker.add_script("/fp.js", FP_SCRIPT)
        site = network.server_for("victim.example")
        site.add_resource("/", '<script src="https://tracker.net/fp.js"></script>')

        blocker = AdBlockerExtension("abp", [RuleMatcher.from_text("||tracker.net^$script")])
        profile = BrowserProfile(extensions=(blocker,))
        page = Browser(network, profile).load("https://victim.example/")
        assert page.blocked_urls == ["https://tracker.net/fp.js"]
        assert not page.instrument.extractions

    def test_first_party_exception_lets_script_run(self, network):
        site = network.server_for("bundler.example")
        site.add_resource("/", '<script src="/fp.js"></script>')
        site.add_script("/fp.js", FP_SCRIPT)

        # The rule would match, but the request is first-party.
        blocker = AdBlockerExtension("abp", [RuleMatcher.from_text("/fp.js$script")])
        page = Browser(network, BrowserProfile(extensions=(blocker,))).load("https://bundler.example/")
        assert not page.blocked_urls
        assert len(page.instrument.extractions) == 1

    def test_document_rule_fails_to_block_script(self, network):
        """Appendix A.6's mgid.com failure mode, end to end."""
        vendor = network.server_for("mgid-like.com")
        vendor.add_script("/fp.js", FP_SCRIPT)
        site = network.server_for("news.example")
        site.add_resource("/", '<script src="https://mgid-like.com/fp.js"></script>')

        blocker = AdBlockerExtension("abp", [RuleMatcher.from_text("||mgid-like.com^$document")])
        page = Browser(network, BrowserProfile(extensions=(blocker,))).load("https://news.example/")
        assert not page.blocked_urls
        assert len(page.instrument.extractions) == 1

    def test_cname_cloaking_defeats_url_rules(self, network):
        vendor = network.server_for("collector.fpvendor.net")
        vendor.add_script("/fp.js", FP_SCRIPT)
        site = network.server_for("cloaked.example")
        site.add_resource("/", '<script src="https://metrics.cloaked.example/fp.js"></script>')
        network.alias("metrics.cloaked.example", "collector.fpvendor.net")

        blocker = AdBlockerExtension("abp", [RuleMatcher.from_text("||fpvendor.net^$script")])
        page = Browser(network, BrowserProfile(extensions=(blocker,))).load("https://cloaked.example/")
        # The URL is first-party (subdomain), so the blocker passes it and
        # DNS routes it to the vendor anyway.
        assert not page.blocked_urls
        assert len(page.instrument.extractions) == 1


class TestCanvasRandomization:
    RENDER_TWICE = """
    var c = document.createElement('canvas');
    c.width = 60; c.height = 30;
    var ctx = c.getContext('2d');
    ctx.fillStyle = '#336699';
    ctx.fillRect(3, 3, 50, 20);
    ctx.fillText('stable?', 5, 15);
    var first = c.toDataURL();
    var second = c.toDataURL();
    var consistent = first === second;
    """

    def make_page(self, mode):
        net = Network()
        site = net.server_for("rand.example")
        site.add_resource("/", f"<script>{self.RENDER_TWICE}</script>")
        profile = BrowserProfile(privacy_mode=mode)
        return Browser(net, profile).load("https://rand.example/")

    def test_no_defense_is_consistent(self, network):
        page = self.make_page(CanvasRandomization.NONE)
        a, b = page.instrument.extractions
        assert a.data_url == b.data_url

    def test_per_render_noise_detected_by_double_extraction(self, network):
        page = self.make_page(CanvasRandomization.PER_RENDER)
        a, b = page.instrument.extractions
        assert a.data_url != b.data_url

    def test_per_session_noise_survives_double_extraction(self, network):
        """Footnote 7: persistent noise defeats the render-twice check."""
        page = self.make_page(CanvasRandomization.PER_SESSION)
        a, b = page.instrument.extractions
        assert a.data_url == b.data_url

    def test_per_session_noise_still_changes_fingerprint(self, network):
        clean = self.make_page(CanvasRandomization.NONE)
        noised = self.make_page(CanvasRandomization.PER_SESSION)
        assert (
            clean.instrument.extractions[0].data_url
            != noised.instrument.extractions[0].data_url
        )


class TestImageDataBinding:
    def test_script_reads_pixels(self, network):
        site = network.server_for("pixels.example")
        site.add_resource(
            "/",
            """<script>
            var c = document.createElement('canvas');
            c.width = 4; c.height = 4;
            var ctx = c.getContext('2d');
            ctx.fillStyle = 'rgb(10, 20, 30)';
            ctx.fillRect(0, 0, 4, 4);
            var d = ctx.getImageData(0, 0, 2, 2);
            var first = [d.data[0], d.data[1], d.data[2], d.data[3]].join(',');
            console.log(first, d.data.length);
            </script>""",
        )
        page = Browser(network).load("https://pixels.example/")
        assert page.console == ["10,20,30,255 16"]


class TestLazyRealm:
    """A page builds its JS realm only when one of its scripts runs."""

    #: Inert and effect-free: triage defers it.
    INERT = "var __total = 0; for (var i = 0; i < 40; i++) { __total += i; }"
    #: Reads the inert script's global, so the deferred script runs first.
    READER = "console.log(__total);"

    @pytest.fixture
    def realms(self, monkeypatch):
        """Every interpreter built through the name the browser looks up."""
        built = []

        class CountingInterpreter(Interpreter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(browser_module, "Interpreter", CountingInterpreter)
        return built

    def load(self, network, html):
        network.server_for("lazy.example").add_resource("/", html)
        return Browser(network).load("https://lazy.example/")

    def test_deferred_page_builds_no_realm(self, network, realms):
        page = self.load(network, f"<script>{self.INERT}</script><script>{self.INERT}</script>")
        assert len(page.skipped_scripts) == 2
        assert realms == []
        assert page.console == []
        page.close()
        page.close()
        assert page.console == [] and page.executed_scripts

    def test_flush_builds_one_realm(self, network, realms):
        page = self.load(network, f"<script>{self.INERT}</script><script>{self.READER}</script>")
        assert page.skipped_scripts == []
        assert len(realms) == 1
        assert page.console == ["780"]
        page.close()
        assert page.console == ["780"]

    @pytest.mark.parametrize("group", ["consent", "scroll"])
    def test_triggered_group_builds_one_realm(self, network, realms, group):
        attr = "data-consent='required'" if group == "consent" else "data-trigger='scroll'"
        page = self.load(
            network,
            f"<script>{self.INERT}</script>"
            f"<script {attr}>console.log('{group}');</script>"
            f"<script {attr}>console.log('again');</script>",
        )
        assert realms == [] and page.console == []
        assert page.trigger(group) == 2
        assert len(realms) == 1
        assert page.console == [group, "again"]
        page.close()
        assert page.console == [group, "again"]
