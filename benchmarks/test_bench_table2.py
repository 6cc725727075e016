"""Benchmark: Table 2 — ad-blocker impact comparison.

The three crawls (control, AdblockPlus, uBlock Origin) run once in the
session fixture; the benchmark times the comparison that builds the table
and prints the regenerated rows.
"""

from repro.core.detection import FingerprintDetector
from repro.core.evasion import compare_adblock_crawls
from repro.experiments import run_experiment


def test_bench_table2(benchmark, study):
    control = study.control
    rows = study.adblock_rows
    assert len(rows) == 3, "fixture must have run the ad-blocker crawls"

    detector = FingerprintDetector()

    def regenerate():
        outcomes = detector.detect_all(control.successful())
        return compare_adblock_crawls(outcomes, control.populations(), {}, detector)

    assert benchmark(regenerate) == rows[:1]
    print()
    print(run_experiment("table2", study))

    control_row, abp, ubo = rows
    for blocked in (abp, ubo):
        for pop in ("top", "tail"):
            kept = blocked.canvases[pop] / max(1, control_row.canvases[pop])
            # Paper's headline: blockers remove only ~5% of test canvases.
            assert kept > 0.8, (blocked.label, pop, kept)
