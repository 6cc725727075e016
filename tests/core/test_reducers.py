"""Streaming reducers == batch analyses, on real crawled data.

The hard invariant of the streaming engine: folding a dataset through the
analysis CLI's bundle in one pass must produce *exactly* the same report
objects as the batch entry points — which are themselves thin drivers over
the same reducers, so these tests pin that the two drivers stay one code
path.
"""

import pytest

from repro.analysis.__main__ import streaming_bundle_spec
from repro.config import StudyScale
from repro.core.clustering import cluster_canvases
from repro.core.detection import FingerprintDetector
from repro.core.evasion import analyze_serving_context, render_twice_fraction
from repro.core.prevalence import compute_prevalence
from repro.core.reducers import ServingContextReducer
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


class TestBundleEqualsBatch:
    """Every bundle member, folded in one pass, equals its batch analysis."""

    @pytest.fixture(scope="class")
    def bundle(self, dataset):
        bundle = streaming_bundle_spec().build()
        for observation in dataset.observations:
            bundle.ingest(observation)
        return bundle

    def test_cluster(self, bundle, dataset, outcomes):
        assert bundle.finalize_member("cluster") == cluster_canvases(
            outcomes, dataset.populations()
        )

    def test_prevalence(self, bundle, dataset, outcomes):
        assert bundle.count == len(dataset.observations)
        assert bundle.finalize_member("prevalence") == compute_prevalence(dataset, outcomes)

    def test_render_twice(self, bundle, outcomes):
        assert bundle.finalize_member("render_twice") == render_twice_fraction(outcomes)

    def test_serving(self, bundle, dataset, outcomes):
        assert bundle.finalize_member("serving") == analyze_serving_context(
            outcomes, dataset.populations(), dns=None
        )

    def test_stats(self, bundle, outcomes):
        # The stats member completes the CLI's fixed member set.
        assert sorted(bundle.members) == [
            "cluster", "prevalence", "render_twice", "serving", "stats"
        ]
        stats = bundle.finalize_member("stats")
        assert stats.fraction == FingerprintDetector.fingerprintable_fraction(
            outcomes.values()
        )


class TestWrapperReducers:
    """A reducer driven outside the CLI bundle: serving context with DNS."""

    def test_serving_context_with_dns(self, world, dataset, outcomes):
        dns = world.network.dns
        batch = analyze_serving_context(outcomes, dataset.populations(), dns=dns)
        reducer = ServingContextReducer(dns)
        for observation in dataset.observations:
            reducer.ingest_site(observation, outcomes.get(observation.domain))
        assert reducer.finalize() == batch
