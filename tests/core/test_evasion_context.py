"""Tests for context (§5.1) and evasion (§5.2-5.3) analyses."""

import pytest

from repro.blocklists.disconnect import DisconnectList
from repro.blocklists.matcher import RuleMatcher
from repro.core.context import analyze_blocklist_context
from repro.core.detection import DetectionOutcome, FingerprintDetector
from repro.core.evasion import (
    AdblockImpact,
    analyze_serving_context,
    compare_adblock_crawls,
    render_twice_fraction,
)
from repro.core.records import CanvasExtraction, SiteObservation
from repro.crawler.crawl import CrawlDataset
from repro.net.dns import DNSZone


def extraction(data, script):
    return CanvasExtraction(
        data_url=data, mime="image/png", width=200, height=50, script_url=script, canvas_id=1, t_ms=1.0
    )


def outcome(domain, *extractions):
    o = DetectionOutcome(domain=domain)
    o.fingerprintable.extend(extractions)
    return o


class TestBlocklistContext:
    @pytest.fixture
    def lists(self):
        easylist = RuleMatcher.from_text("||listed-ads.net^$script\n", "el")
        easyprivacy = RuleMatcher.from_text("||listed-ads.net^$script\n||tracker.io^$script\n", "ep")
        disconnect = DisconnectList()
        disconnect.add("listed-ads.net")
        return easylist, easyprivacy, disconnect

    def test_coverage_counting(self, lists):
        el, ep, dc = lists
        outcomes = {
            "a.com": outcome("a.com", extraction("data:1", "https://listed-ads.net/fp.js")),
            "b.com": outcome("b.com", extraction("data:2", "https://tracker.io/fp.js")),
            "c.com": outcome("c.com", extraction("data:3", "https://clean.org/fp.js")),
        }
        pops = {"a.com": "top", "b.com": "top", "c.com": "tail"}
        ctx = analyze_blocklist_context(outcomes, pops, el, ep, dc)
        assert ctx.totals.top == 2 and ctx.totals.tail == 1
        assert ctx.easylist.top == 1
        assert ctx.easyprivacy.top == 2
        assert ctx.disconnect.top == 1
        assert ctx.any_list.top == 2
        assert ctx.all_lists.top == 1  # only listed-ads.net is in all three
        assert ctx.any_list.tail == 0

    def test_inline_scripts_never_match(self, lists):
        el, ep, dc = lists
        outcomes = {
            "a.com": outcome("a.com", extraction("data:1", "https://a.com/#inline")),
        }
        ctx = analyze_blocklist_context(outcomes, {"a.com": "top"}, el, ep, dc)
        assert ctx.any_list.top == 0


class TestServingContext:
    def test_first_party_and_subdomain(self):
        outcomes = {
            "a.com": outcome(
                "a.com",
                extraction("data:1", "https://fp.a.com/collect.js"),
            ),
            "b.com": outcome("b.com", extraction("data:2", "https://vendor.net/fp.js")),
        }
        pops = {"a.com": "top", "b.com": "top"}
        ctx = analyze_serving_context(outcomes, pops)
        assert ctx.fp_sites["top"] == 2
        assert ctx.first_party_sites["top"] == 1
        assert ctx.subdomain_sites["top"] == 1
        assert ctx.first_party_fraction("top") == 0.5

    def test_bundled_inline_counts_first_party(self):
        outcomes = {"a.com": outcome("a.com", extraction("data:1", "https://a.com/#inline"))}
        ctx = analyze_serving_context(outcomes, {"a.com": "top"})
        assert ctx.first_party_sites["top"] == 1
        assert ctx.subdomain_sites["top"] == 0

    def test_cdn_detection(self):
        outcomes = {
            "a.com": outcome(
                "a.com", extraction("data:1", "https://cdn.jsdelivr.net/npm/fp@1/fp.min.js")
            )
        }
        ctx = analyze_serving_context(outcomes, {"a.com": "top"})
        assert ctx.cdn_sites["top"] == 1
        assert ctx.first_party_sites["top"] == 0

    def test_cname_cloak_detection(self):
        dns = DNSZone()
        dns.add_cname("metrics.a.com", "collector.vendor.net")
        dns.add_a("collector.vendor.net", "203.0.113.9")
        outcomes = {"a.com": outcome("a.com", extraction("data:1", "https://metrics.a.com/fp.js"))}
        ctx = analyze_serving_context(outcomes, {"a.com": "top"}, dns=dns)
        assert ctx.cname_cloaked_sites["top"] == 1
        # Cloaking still looks first-party from the URL.
        assert ctx.first_party_sites["top"] == 1
        # But it is not counted as genuine subdomain delegation.
        assert ctx.subdomain_sites["top"] == 0

    def test_non_fp_sites_ignored(self):
        ctx = analyze_serving_context({"a.com": DetectionOutcome(domain="a.com")}, {"a.com": "top"})
        assert ctx.fp_sites["top"] == 0


class TestAdblockRows:
    def test_control_row_counts_the_given_outcomes(self):
        outcomes = {
            "a.com": outcome(
                "a.com",
                extraction("data:1", "https://a.com/fp.js"),
                extraction("data:2", "https://a.com/fp.js"),
            ),
            "b.com": outcome("b.com"),
            "c.com": outcome("c.com", extraction("data:3", "https://vendor.net/fp.js")),
        }
        pops = {"a.com": "top", "b.com": "top", "c.com": "tail"}
        assert compare_adblock_crawls(outcomes, pops, {}) == (
            AdblockImpact("Control", canvases={"top": 2, "tail": 1}, sites={"top": 1, "tail": 1}),
        )

    def test_only_the_ad_blocker_crawls_are_detected(self, monkeypatch):
        """The control row reads outcomes already detected; each successful
        ad-blocker page is detected once and a failed one never."""
        def page(domain, population, *extractions):
            return SiteObservation(domain, 0, population, True, extractions=list(extractions))

        blocked = CrawlDataset(
            "abp",
            [
                page("a.com", "top", extraction("data:1", "https://a.com/fp.js")),
                SiteObservation("b.com", 0, "top", False, failure_reason="timeout"),
                page("c.com", "tail", extraction("data:2", "https://vendor.net/fp.js")),
            ],
        )
        detected = []
        detect = FingerprintDetector.detect

        def spy(self, observation):
            detected.append(id(observation))
            return detect(self, observation)

        monkeypatch.setattr(FingerprintDetector, "detect", spy)
        control = {"a.com": outcome("a.com", extraction("data:1", "https://a.com/fp.js"))}
        rows = compare_adblock_crawls(control, {"a.com": "top"}, {"Adblock Plus": blocked})
        assert sorted(detected) == sorted(id(o) for o in blocked.successful())
        assert [row.label for row in rows] == ["Control", "Adblock Plus"]
        assert rows[1] == AdblockImpact(
            "Adblock Plus", canvases={"top": 1, "tail": 1}, sites={"top": 1, "tail": 1}
        )


class TestRenderTwice:
    def test_double_extraction_detected(self):
        outcomes = {
            "a.com": outcome("a.com", extraction("data:X", "s"), extraction("data:X", "s")),
            "b.com": outcome("b.com", extraction("data:Y", "s")),
        }
        assert render_twice_fraction(outcomes) == 0.5

    def test_two_different_canvases_not_double(self):
        outcomes = {
            "a.com": outcome("a.com", extraction("data:X", "s"), extraction("data:Y", "s")),
        }
        assert render_twice_fraction(outcomes) == 0.0

    def test_empty(self):
        assert render_twice_fraction({}) == 0.0
