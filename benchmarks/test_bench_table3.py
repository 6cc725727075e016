"""Benchmark: Table 3 — vendor ground-truth harvesting (A.3)."""

from repro.core.pipeline import harvest_targets, harvest_vendor_signatures
from repro.crawler.crawl import run_crawl
from repro.experiments import run_experiment


def test_bench_table3(benchmark, world, study):
    knowledge = world.vendor_knowledge()

    def regenerate():
        pages = run_crawl(world.network, harvest_targets(knowledge, study.control))
        return harvest_vendor_signatures(knowledge, study.outcomes, pages)

    signatures = benchmark(regenerate)
    assert signatures == study.signatures
    print()
    print(run_experiment("table3", study))

    by_name = {s.name: s for s in signatures}
    # Demo-equipped vendors must harvest at least one canvas.
    assert by_name["FingerprintJS"].canvas_hashes
    assert by_name["Sift Science"].canvas_hashes
    # Imperva is regex-only: no shared canvases to harvest.
    assert not by_name["Imperva"].canvas_hashes
    assert by_name["Imperva"].url_regex is not None
