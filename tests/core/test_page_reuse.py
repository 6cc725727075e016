"""Each (site, profile) page loads once per study.

The cross-machine check takes the control device's rows from the control
crawl, and the vendor harvest reads known customers from it.  What they read
must equal loading those pages again: record for record against a fresh
crawl of the sample, and signature for signature against the visiting
harvest of ``tests/core/visiting_harvest.py``.
"""

import pytest

import repro.core.pipeline as pipeline
import repro.core.stages.study as study
from repro.browser.profile import BrowserProfile
from repro.canvas.device import APPLE_M1, INTEL_UBUNTU, device_fleet
from repro.config import StudyScale
from repro.core.pipeline import VendorKnowledge, harvest_vendor_signatures, run_study
from repro.core.stages import StudyContext, build_study_graph
from repro.crawler.collector import CanvasCollector
from repro.crawler.crawl import run_crawl
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

        def spy(datasets, detector=None):
            compared.append(list(datasets))
            return agree(datasets, detector)

        monkeypatch.setattr(pipeline, "groupings_agree", spy)
        targets = world.all_targets[:TARGETS]
        retry = RetryPolicy(max_attempts=3) if faulted else None
        execution = ExecutionConfig(jobs=jobs)
        result = run_study(
            network_for(world, faulted),
            targets,
            [],
            include_adblock_crawls=False,
            include_cross_machine=True,
            cross_machine_sample=SAMPLE,
            retry_policy=retry,
            execution=execution,
            stages=["cross_machine"],
        )
        fresh = run_sharded_crawl(
            network_for(world, faulted),
            targets[:SAMPLE],
            profile=BrowserProfile(device=INTEL_UBUNTU),
            label=INTEL_UBUNTU.name,
            retry_policy=retry,
            execution=execution,
        )
        [(control_rows, apple_rows)] = compared
        assert records(control_rows) == records(fresh)
        assert len(apple_rows.observations) == SAMPLE
        assert result.cross_machine_consistent is True
        if faulted:
            assert any(observation.attempts > 1 for observation in fresh.observations)

    def test_devices_without_the_control_device_are_all_crawled(self, world, monkeypatch):
        seen = []
        monkeypatch.setattr(study, "run_sharded_crawl", recording(seen))
        devices = (APPLE_M1, device_fleet(1)[0])
        ctx = StudyContext(
            network=world.network,
            targets=world.all_targets[:TARGETS],
            vendor_knowledge=[],
            include_adblock_crawls=False,
            include_cross_machine=True,
            cross_machine_sample=SAMPLE,
            cross_machine_devices=devices,
        )
        run = build_study_graph(ctx).execute(ctx, only=["cross_machine"])
        assert seen == [["control"], [device.name for device in devices]]
        assert run.artifacts["cross_machine"] is True

    def test_validate_cross_machine_crawls_every_device(self, world, monkeypatch):
        seen = []
        monkeypatch.setattr(pipeline, "run_sharded_crawl", recording(seen))
        assert pipeline.validate_cross_machine(world.network, world.all_targets[:SAMPLE])
        assert seen == [[INTEL_UBUNTU.name, APPLE_M1.name]]


class TestHarvestReadsTheControlCrawl:
    @pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["no-retry", "retry"])
    def test_harvest_equals_the_visiting_harvest(self, world, retry):
        control = run_crawl(world.network, world.all_targets, retry_policy=retry)
        knowledge = world.vendor_knowledge()
        assert any(vendor.known_customers for vendor in knowledge)
        harvested = harvest_vendor_signatures(world.network, knowledge, control)
        assert harvested == visiting_harvest(world.network, knowledge, control)
        assert any(signature.canvas_hashes for signature in harvested)

    def test_no_page_load_for_a_customer_the_crawl_holds(self, world, monkeypatch):
        knowledge = world.vendor_knowledge()
        customers = {c for vendor in knowledge for c in vendor.known_customers}
        demo_hosts = {URL.parse(v.demo_url).host for v in knowledge if v.demo_url}
        outside = sorted(customers)[0]
        held = [t for t in world.all_targets if t.domain in customers and t.domain != outside]
        control = run_crawl(world.network, held)
        loaded = []
        collect = CanvasCollector.collect

        def spy(self, domain, rank, population):
            loaded.append(domain)
            return collect(self, domain, rank, population)

        monkeypatch.setattr(CanvasCollector, "collect", spy)
        vendor = VendorKnowledge(
            name="V", known_customers=tuple(sorted(customers)), script_pattern="x"
        )
        harvest_vendor_signatures(world.network, [*knowledge, vendor], control)
        assert held
        assert not set(loaded) & {t.domain for t in held}
        assert outside in loaded
        assert demo_hosts <= set(loaded)
