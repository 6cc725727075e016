"""Each (site, profile) page loads once per study.

The cross-machine check takes the control device's rows from the control
crawl, and the vendor harvest reads known customers from its detection
outcomes.  What they read must equal loading those pages again: record for
record against a fresh crawl of the sample, and signature for signature
against the visiting harvest of ``tests/core/visiting_harvest.py``.
"""

from dataclasses import replace

import pytest

import repro.core.pipeline as pipeline
import repro.core.stages.study as study
from repro.browser.profile import BrowserProfile
from repro.canvas.device import APPLE_M1, INTEL_UBUNTU
from repro.config import StudyScale
from repro.core.detection import DetectionOutcome, FingerprintDetector
from repro.core.pipeline import (
    StudyConfig,
    VendorKnowledge,
    harvest_targets,
    harvest_vendor_signatures,
    run_study,
)
from repro.core.records import CanvasExtraction, SiteObservation
from repro.crawler.collector import CanvasCollector
from repro.crawler.crawl import CrawlDataset, CrawlTarget
from repro.crawler.resilience import RetryPolicy
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.net.url import URL
from repro.webgen import build_world
from tests.core.visiting_harvest import visiting_harvest

SEED = 909
TARGETS = 48
SAMPLE = 24


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.01, seed=SEED))


def network_for(world, faulted):
    if not faulted:
        return world.network
    return FaultyNetwork(world.network, FaultConfig(fault_rate=0.2), seed=SEED)


def records(dataset):
    return [observation.to_json() for observation in dataset.observations]


def recording(seen):
    """``run_sharded_crawl``, appending each call's profile labels to ``seen``."""

    def spy(*args, **kwargs):
        seen.append([label for label, _ in kwargs["profiles"]])
        return run_sharded_crawl(*args, **kwargs)

    return spy


class TestCrossMachineReadsTheControlCrawl:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("faulted", [False, True], ids=["unfaulted", "faulted"])
    def test_control_device_rows_equal_a_fresh_crawl(self, world, monkeypatch, jobs, faulted):
        compared = []
        agree = pipeline.groupings_agree

        def spy(datasets, detector=None, outcomes=None):
            compared.append((list(datasets), outcomes))
            return agree(datasets, detector, outcomes)

        monkeypatch.setattr(pipeline, "groupings_agree", spy)
        monkeypatch.setattr(study, "CROSS_MACHINE_SAMPLE", SAMPLE)
        targets = world.all_targets[:TARGETS]
        retry = RetryPolicy(max_attempts=3) if faulted else None
        execution = ExecutionConfig(jobs=jobs)
        config = StudyConfig(
            network_for(world, faulted),
            targets,
            [],
            include_adblock_crawls=False,
            include_cross_machine=True,
            retry_policy=retry,
        )
        result = run_study(config, execution, stages=["cross_machine"])
        fresh = run_sharded_crawl(
            network_for(world, faulted),
            targets[:SAMPLE],
            profile=BrowserProfile(device=INTEL_UBUNTU),
            label=INTEL_UBUNTU.name,
            retry_policy=retry,
            execution=execution,
        )
        [([control_rows, apple_rows], [control_outcomes, apple_outcomes])] = compared
        assert records(control_rows) == records(fresh)
        # The control rows' outcomes are the detect stage's; Apple's are detected.
        assert control_outcomes == FingerprintDetector().detect_all(fresh.successful())
        assert apple_outcomes is None
        assert len(apple_rows.observations) == SAMPLE
        assert result.cross_machine_consistent is True
        if faulted:
            assert any(observation.attempts > 1 for observation in fresh.observations)

    def test_validate_cross_machine_crawls_every_device(self, world, monkeypatch):
        seen = []
        monkeypatch.setattr(pipeline, "run_sharded_crawl", recording(seen))
        assert pipeline.validate_cross_machine(world.network, world.all_targets[:SAMPLE])
        assert seen == [[INTEL_UBUNTU.name, APPLE_M1.name]]


class TestHarvestReadsTheControlCrawl:
    @pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["no-retry", "retry"])
    def test_harvest_equals_the_visiting_harvest(self, world, retry):
        knowledge = world.vendor_knowledge()
        assert any(vendor.known_customers for vendor in knowledge)
        config = replace(world.study_config(), include_adblock_crawls=False, retry_policy=retry)
        result = run_study(config, stages=["signatures"])
        harvested = result.signatures
        assert harvested == visiting_harvest(world.network, knowledge, result.control)
        assert any(signature.canvas_hashes for signature in harvested)

    def test_no_page_load_for_a_customer_the_crawl_holds(self, world, monkeypatch):
        knowledge = world.vendor_knowledge()
        customers = {c for vendor in knowledge for c in vendor.known_customers}
        demo_hosts = {URL.parse(v.demo_url).host for v in knowledge if v.demo_url}
        outside = sorted(customers)[0]
        held = [t for t in world.all_targets if t.domain in customers and t.domain != outside]
        loaded = []
        collect = CanvasCollector.collect

        def spy(self, domain, rank, population):
            loaded.append(domain)
            return collect(self, domain, rank, population)

        monkeypatch.setattr(CanvasCollector, "collect", spy)
        vendor = VendorKnowledge(
            name="V", known_customers=tuple(sorted(customers)), script_pattern="x"
        )
        config = replace(
            world.study_config(),
            targets=held,
            vendor_knowledge=[*knowledge, vendor],
            include_adblock_crawls=False,
        )
        run_study(config, stages=["signatures"])
        held_domains = {t.domain for t in held}
        harvested = demo_hosts | (customers - held_domains)
        assert held and outside in harvested
        # The control crawl loads each held customer once; the harvest loads
        # only the demo pages and the customers outside the crawl.
        assert sorted(loaded) == sorted([*held_domains, *harvested])

    def test_a_failed_demo_page_falls_back_to_the_script_pattern(self):
        """A demo page that the harvest crawl failed to load (say, one the
        supervisor quarantined) gives no outcome; the vendor's canvases then
        come from its script pattern over the control crawl."""

        def canvas(data, script):
            return CanvasExtraction(data, "image/png", 200, 50, script, 1, 1.0)

        vendor = VendorKnowledge(
            name="V", demo_url="https://demo.v-vendor.example/", script_pattern="v-vendor"
        )
        crawled = canvas("data:crawled", "https://cdn.v-vendor.example/fp.js")
        outcomes = {"site.com": DetectionOutcome("site.com", fingerprintable=[crawled])}
        demo = canvas("data:demo", "https://demo.v-vendor.example/fp.js")
        loaded = SiteObservation("demo.v-vendor.example", 0, "top", True, extractions=[demo])
        failed = SiteObservation(
            "demo.v-vendor.example", 0, "top", False, failure_reason="quarantined:exit:137"
        )

        [signature] = harvest_vendor_signatures([vendor], outcomes, CrawlDataset("h", [loaded]))
        assert signature.canvas_hashes == {demo.canvas_hash}
        [signature] = harvest_vendor_signatures([vendor], outcomes, CrawlDataset("h", [failed]))
        assert signature.canvas_hashes == {crawled.canvas_hash}


class TestHarvestTargets:
    def test_demo_pages_and_customers_outside_the_crawl(self):
        knowledge = [
            VendorKnowledge(
                name="A",
                demo_url="https://demo.vendors.example/a",
                known_customers=("held.com", "outside.com"),
                script_pattern="a-vendor",
            ),
            VendorKnowledge(
                name="B",
                demo_url="https://demo.vendors.example/b",
                known_customers=("outside.com",),
                script_pattern="b-vendor",
            ),
        ]
        control = CrawlDataset("control", [SiteObservation("held.com", 1, "top", True)])
        # Each page once: the demo host the two vendors share and the
        # customer the control crawl did not visit.
        assert harvest_targets(knowledge, control) == [
            CrawlTarget("demo.vendors.example", 0, "top"),
            CrawlTarget("outside.com", 0, "top"),
        ]

    def test_customers_of_a_vendor_without_a_pattern_are_not_loaded(self):
        """A.3 confirms a known customer's canvases by the vendor's script
        pattern, so without one its customers have nothing to give."""
        knowledge = [VendorKnowledge(name="C", known_customers=("outside.com",))]
        assert harvest_targets(knowledge, CrawlDataset("control")) == []
