"""Tests for the crawler: collection, consent, behavior, storage."""

import pytest

from repro.browser import Browser
from repro.crawler import (
    CanvasCollector,
    CrawlTarget,
    load_dataset,
    run_crawl,
    save_dataset,
)
from repro.net.server import Network

FP_SCRIPT = """
var c = document.createElement('canvas');
c.width = 200; c.height = 40;
var g = c.getContext('2d');
g.font = '13px Arial';
g.fillText('collector probe text', 3, 20);
window.__fp = c.toDataURL();
"""


@pytest.fixture
def network():
    net = Network()
    plain = net.server_for("plain.example")
    plain.add_resource("/", f"<html><title>P</title><script>{FP_SCRIPT}</script></html>")

    gated = net.server_for("gated.example")
    gated.add_resource(
        "/",
        '<html><div class="consent-banner"><button class="consent-accept">OK</button></div>'
        f'<script data-consent="required">{FP_SCRIPT}</script></html>',
    )

    lazy = net.server_for("lazy.example")
    lazy.add_resource("/", f'<html><script data-trigger="scroll">{FP_SCRIPT}</script></html>')

    blocked = net.server_for("blocked.example")
    blocked.add_resource("/", "denied", status=403)
    return net


class TestCollector:
    def test_collect_success(self, network):
        collector = CanvasCollector(Browser(network))
        obs = collector.collect("plain.example", rank=5, population="top")
        assert obs.success
        assert obs.domain == "plain.example"
        assert obs.rank == 5
        assert len(obs.extractions) == 1
        assert obs.extractions[0].mime == "image/png"

    def test_collect_bot_blocked(self, network):
        collector = CanvasCollector(Browser(network))
        obs = collector.collect("blocked.example", rank=1, population="top")
        assert not obs.success
        assert obs.failure_reason == "bot-blocked"
        assert obs.extractions == []

    def test_collect_network_error(self, network):
        collector = CanvasCollector(Browser(network))
        obs = collector.collect("nxdomain.example", rank=1, population="top")
        assert not obs.success
        assert obs.failure_reason == "network-error"

    def test_autoconsent_runs_gated_fingerprinting(self, network):
        collector = CanvasCollector(Browser(network))
        obs = collector.collect("gated.example", rank=1, population="top")
        assert obs.success
        assert len(obs.extractions) == 1  # ran only because autoconsent opted in
        assert list(obs.script_sources) == ["https://gated.example/#inline"]

    def test_scroll_behavior_runs_lazy_fingerprinting(self, network):
        collector = CanvasCollector(Browser(network))
        obs = collector.collect("lazy.example", rank=1, population="top")
        assert len(obs.extractions) == 1
        # The settle wait pushes the clock forward 5s after the scroll.
        assert obs.extractions[-1].t_ms < 5000.0

    def test_script_sources_recorded(self, network):
        collector = CanvasCollector(Browser(network))
        obs = collector.collect("plain.example", rank=1, population="top")
        assert any("collector probe text" in src for src in obs.script_sources.values())


class TestRunCrawl:
    def test_crawl_over_targets(self, network):
        targets = [
            CrawlTarget("plain.example", 1, "top"),
            CrawlTarget("blocked.example", 2, "top"),
            CrawlTarget("gated.example", 20025, "tail"),
        ]
        dataset = run_crawl(network, targets, label="test")
        assert dataset.label == "test"
        assert len(dataset.observations) == 3
        assert dataset.success_count("top") == 1
        assert dataset.success_count("tail") == 1
        assert dataset.failure_reasons() == {"bot-blocked": 1}

    def test_progress_callback(self, network):
        seen = []
        run_crawl(
            network,
            [CrawlTarget("plain.example", 1, "top")],
            progress=lambda i, obs: seen.append((i, obs.domain)),
        )
        assert seen == [(0, "plain.example")]

    def test_populations_mapping(self, network):
        targets = [CrawlTarget("plain.example", 1, "top"), CrawlTarget("gated.example", 2, "tail")]
        dataset = run_crawl(network, targets)
        assert dataset.populations() == {"plain.example": "top", "gated.example": "tail"}


class TestStorage:
    def test_roundtrip(self, network, tmp_path):
        targets = [CrawlTarget("plain.example", 1, "top"), CrawlTarget("blocked.example", 2, "top")]
        dataset = run_crawl(network, targets, label="persist")
        path = tmp_path / "crawl.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.label == "persist"
        assert len(loaded.observations) == 2
        original = dataset.by_domain()["plain.example"]
        restored = loaded.by_domain()["plain.example"]
        assert restored.extractions[0].data_url == original.extractions[0].data_url
        assert restored.extractions[0].canvas_hash == original.extractions[0].canvas_hash
        assert [c.method for c in restored.calls] == [c.method for c in original.calls]

    def test_gzip_roundtrip(self, network, tmp_path):
        dataset = run_crawl(network, [CrawlTarget("plain.example", 1, "top")], label="gz")
        path = tmp_path / "crawl.jsonl.gz"
        save_dataset(dataset, path)
        assert load_dataset(path).observations[0].domain == "plain.example"

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            list(__import__("repro.crawler.storage", fromlist=["iter_observations"]).iter_observations(path))
