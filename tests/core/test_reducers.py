"""Streaming reducers == batch analyses, on real crawled data.

The hard invariant of the streaming engine: folding a dataset through the
reducers in one pass must produce *exactly* the same report objects as the
batch entry points — which are themselves thin drivers over a single
reducer, so these tests pin that the two drivers stay one code path.
"""

import pytest

from repro.blocklists.matcher import RuleMatcher
from repro.config import StudyScale
from repro.core.attribution import VendorAttributor, VendorSignature
from repro.core.clustering import cluster_canvases
from repro.core.context import analyze_blocklist_context
from repro.core.detection import FingerprintDetector
from repro.core.evasion import analyze_serving_context, render_twice_fraction
from repro.core.fpjs import fpjs_breakdown
from repro.core.prevalence import compute_prevalence
from repro.core.reach import compute_reach
from repro.core.reducers import (
    AttributionReducer,
    BlocklistContextReducer,
    BundleSpec,
    FpjsReducer,
    ServingContextReducer,
)
from repro.crawler.crawl import run_crawl
from repro.webgen import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.02, seed=4242))


@pytest.fixture(scope="module")
def dataset(world):
    return run_crawl(world.network, world.all_targets, label="control")


@pytest.fixture(scope="module")
def outcomes(dataset):
    return FingerprintDetector().detect_all(dataset.successful())


def fold(reducer, dataset):
    """Ingest every observation of the dataset into ``reducer``, in one pass."""
    for observation in dataset.observations:
        reducer.ingest(observation)
    return reducer


class TestBundleEqualsBatch:
    """Every bundle member, folded in one pass, equals its batch analysis."""

    @pytest.fixture(scope="class")
    def bundle(self, dataset):
        return fold(BundleSpec(include_serving=True).build(), dataset)

    def test_detection(self, bundle, outcomes):
        assert bundle.finalize_member("detection") == outcomes

    def test_cluster(self, bundle, dataset, outcomes):
        assert bundle.finalize_member("cluster") == cluster_canvases(
            outcomes, dataset.populations()
        )

    def test_prevalence(self, bundle, dataset, outcomes):
        assert bundle.finalize_member("prevalence") == compute_prevalence(dataset, outcomes)

    def test_reach(self, bundle, dataset, outcomes):
        populations = dataset.populations()
        fp = {
            pop: {
                d
                for d, o in outcomes.items()
                if o.is_fingerprinting_site and populations[d] == pop
            }
            for pop in ("top", "tail")
        }
        prevalence = compute_prevalence(dataset, outcomes)
        clusters = cluster_canvases(outcomes, populations)
        expected = compute_reach(
            clusters, fp["top"], fp["tail"], prevalence.top.sites_successful
        )
        assert bundle.finalize_member("reach") == expected

    def test_render_twice(self, bundle, outcomes):
        assert bundle.finalize_member("render_twice") == render_twice_fraction(outcomes)

    def test_serving(self, bundle, dataset, outcomes):
        assert bundle.finalize_member("serving") == analyze_serving_context(
            outcomes, dataset.populations(), dns=None
        )

    def test_stats(self, bundle, outcomes):
        stats = bundle.finalize_member("stats")
        assert stats.fraction == FingerprintDetector.fingerprintable_fraction(
            outcomes.values()
        )


class TestWrapperReducers:
    """Reducers outside the study bundle (blocklist, serving, fpjs, attribution)."""

    def test_blocklist_context(self, world, dataset, outcomes):
        easylist = RuleMatcher.from_text(world.easylist_text, "easylist")
        easyprivacy = RuleMatcher.from_text(world.easyprivacy_text, "easyprivacy")
        batch = analyze_blocklist_context(
            outcomes, dataset.populations(), easylist, easyprivacy, world.disconnect
        )
        reducer = BlocklistContextReducer(easylist, easyprivacy, world.disconnect)
        assert fold(reducer, dataset).finalize() == batch

    def test_serving_context_with_dns(self, world, dataset, outcomes):
        dns = world.network.dns
        batch = analyze_serving_context(outcomes, dataset.populations(), dns=dns)
        assert fold(ServingContextReducer(dns), dataset).finalize() == batch

    def test_fpjs(self, dataset, outcomes):
        hashes = set()
        for outcome in outcomes.values():
            hashes.update(e.canvas_hash for e in outcome.fingerprintable[:1])
        batch = fpjs_breakdown(
            dataset.by_domain(), outcomes, dataset.populations(), hashes
        )
        assert fold(FpjsReducer(hashes), dataset).finalize().counts == batch.counts

    def test_attribution(self, dataset, outcomes):
        signature = VendorSignature(name="probe", script_pattern="fp.min.js")
        attributor = VendorAttributor([signature])
        batch = attributor.attribute_all(dataset.by_domain(), outcomes)
        reducer = AttributionReducer(attributor)
        assert fold(reducer, dataset).finalize()["attributions"] == batch

