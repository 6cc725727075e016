"""Analyze a saved crawl dataset (produced by ``python -m repro.crawler``).

Runs the observation-only parts of the pipeline — detection statistics,
clustering, prevalence, render-twice, serving context — exactly as
they would run over a real crawl (no access to the generator or ground
truth).

The dataset is *streamed*: observations are folded one at a time into the
reducers of :mod:`repro.core.reducers`, so peak memory is bounded by the
number of distinct canvases and fingerprinting sites, never by the size of
the crawl file.  A multi-GB dataset analyzes in constant memory
(``tests/test_offline_analysis.py`` pins this with an RSS regression test).

Usage::

    python -m repro.analysis crawl.jsonl.gz
"""

from __future__ import annotations

import argparse
import sys

from repro.core.clustering import rank_clusters
from repro.core.reducers import BundleSpec
from repro.crawler.storage import dataset_label, iter_observations


def streaming_bundle_spec() -> BundleSpec:
    """The CLI's bounded-memory bundle recipe: stats, cluster, prevalence,
    render-twice and serving context, each O(distinct canvases + FP sites)."""
    return BundleSpec()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dataset", help="JSONL(.gz) crawl dataset")
    parser.add_argument("--top-clusters", type=int, default=15)
    args = parser.parse_args(argv)

    label = dataset_label(args.dataset)
    bundle = streaming_bundle_spec().build()
    for observation in iter_observations(args.dataset):
        bundle.ingest(observation)

    prevalence = bundle.finalize_member("prevalence")
    print(f"dataset: {label} ({bundle.count} sites)")
    for pop in ("top", "tail"):
        p = prevalence.population(pop)
        if p.sites_crawled == 0:
            continue
        print(
            f"  {pop}: {p.sites_successful}/{p.sites_crawled} ok, "
            f"{p.fp_sites} fingerprinting ({p.prevalence:.1%}), "
            f"canvases/site mean {p.mean_canvases:.2f} median {p.median_canvases:.0f} "
            f"max {p.max_canvases}"
        )

    stats = bundle.finalize_member("stats")
    print(f"fingerprintable fraction of extractions: {stats.fraction:.1%}")
    print(f"render-twice sites: {bundle.finalize_member('render_twice'):.1%}")

    clusters = bundle.finalize_member("cluster")
    print(f"\ndistinct test canvases: {len(clusters)}")
    print(f"{'rank':>4s} {'top':>6s} {'tail':>6s}  sample script URL")
    for i, cluster in enumerate(rank_clusters(clusters, "top")[: args.top_clusters]):
        sample = sorted(cluster.script_urls)[0] if cluster.script_urls else "(inline)"
        print(f"{i:>4d} {cluster.site_count('top'):>6d} {cluster.site_count('tail'):>6d}  {sample}")

    serving = bundle.finalize_member("serving")
    print(
        f"\nfirst-party-served FP sites: top {serving.first_party_fraction('top'):.1%}, "
        f"tail {serving.first_party_fraction('tail'):.1%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
