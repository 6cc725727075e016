"""Property test for the one-pass fold.

The streaming engine's correctness rests on one contract: a single pass of
the analysis CLI's :class:`~repro.core.reducers.AnalysisBundle` over any
observation stream equals the batch analyses over the same stream.  Hypothesis searches
for counterexamples over randomized observation streams (failures, lossy
and tiny canvases, animation scripts, inline scripts — every exclusion
path).
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.__main__ import streaming_bundle_spec
from repro.core.clustering import cluster_canvases
from repro.core.detection import FingerprintDetector
from repro.core.evasion import analyze_serving_context, render_twice_fraction
from repro.core.prevalence import compute_prevalence
from repro.core.records import CanvasApiCall, CanvasExtraction, SiteObservation
from repro.core.reducers import ExtractionStats
from repro.crawler.crawl import CrawlDataset

#: A small canvas-content alphabet so distinct sites share canvases (the
#: whole point of clustering/reach).
DATA_URLS = [f"data:image/png;base64,CANVAS{i}" for i in range(6)]

SCRIPT_URLS = [
    None,
    "#inline",
    "https://fp.example/fp.min.js",
    "https://cdn.jsdelivr.net/npm/fp-kit@1/dist/fp.js",
    "https://fp.site-0.example/collect.js",
]


def _dims(data_url: str) -> int:
    """Width/height as a pure function of content, like a real renderer:
    the same drawing always extracts at the same size."""
    return 8 + (int(hashlib.sha256(data_url.encode()).hexdigest(), 16) % 3) * 40


@st.composite
def extraction(draw):
    data_url = draw(st.sampled_from(DATA_URLS))
    size = _dims(data_url)
    return CanvasExtraction(
        data_url=data_url,
        mime=draw(st.sampled_from(["image/png", "image/jpeg"])),
        width=size,
        height=size,
        script_url=draw(st.sampled_from(SCRIPT_URLS)),
        canvas_id=draw(st.integers(0, 2)),
        t_ms=0.0,
    )


@st.composite
def observation(draw, index: int):
    success = draw(st.booleans())
    site = SiteObservation(
        domain=f"site-{index}.example",
        rank=index + 1,
        population=draw(st.sampled_from(["top", "tail"])),
        success=success,
        failure_reason=None if success else "network-error",
    )
    if success:
        site.extractions = draw(st.lists(extraction(), max_size=4))
        if draw(st.booleans()):
            site.calls.append(
                CanvasApiCall(
                    interface="CanvasRenderingContext2D",
                    method="save",
                    args=(),
                    retval=None,
                    script_url=draw(st.sampled_from(SCRIPT_URLS)),
                    canvas_id=0,
                    t_ms=0.0,
                )
            )
    return site


@st.composite
def stream(draw, max_sites: int = 12):
    count = draw(st.integers(0, max_sites))
    return [draw(observation(index)) for index in range(count)]


@settings(max_examples=40, deadline=None)
@given(stream())
def test_single_pass_equals_batch_analyses(observations):
    bundle = streaming_bundle_spec().build()
    for site in observations:
        bundle.ingest(site)

    dataset = CrawlDataset(label="control", observations=list(observations))
    populations = dataset.populations()
    outcomes = FingerprintDetector().detect_all(dataset.successful())
    assert bundle.count == len(observations)
    assert bundle.finalize_member("stats") == ExtractionStats(
        kept=sum(len(o.fingerprintable) for o in outcomes.values()),
        total=sum(o.total_extractions for o in outcomes.values()),
    )
    assert bundle.finalize_member("cluster") == cluster_canvases(outcomes, populations)
    assert bundle.finalize_member("prevalence") == compute_prevalence(dataset, outcomes)
    assert bundle.finalize_member("render_twice") == render_twice_fraction(outcomes)
    assert bundle.finalize_member("serving") == analyze_serving_context(
        outcomes, populations, dns=None
    )
