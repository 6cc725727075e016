"""The correctness gate accepts true outputs and rejects doctored ones."""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.gate import DigestLedger, check_crawl, check_study, science_digest

ROOT = Path(__file__).resolve().parents[2]
TINY_SCALE = 0.005  # 200 sites


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "STUDY_SCALE", TINY_SCALE)
        workload = workloads.WORKLOADS["study"]
        state = workload.setup(workloads.DEFAULT_SEED, tmp_path_factory.mktemp("study"))
        output = workload.body(state)
    return state, output


@pytest.fixture(scope="module")
def crawl(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "CRAWL_SCALE", TINY_SCALE)
        workload = workloads.WORKLOADS["crawl-faults"]
        state = workload.setup(workloads.DEFAULT_SEED, tmp_path_factory.mktemp("crawl"))
        output = workload.body(state)
    return state, output, workload


def test_gate_accepts_the_true_study(study):
    state, output = study
    report = workloads.WORKLOADS["study"].check(state, output)
    assert report.correct, report.errors
    assert report.attempted == len(state["world"].all_targets)
    assert report.plan_differs == 0


def test_gate_rejects_a_study_missing_one_fingerprinting_site(study):
    state, output = study
    result = copy.copy(output["result"])
    result.outcomes = dict(result.outcomes)
    victim = sorted(result.fp_sites["top"] | result.fp_sites["tail"])[0]
    del result.outcomes[victim]
    report = check_study(state["world"], result)
    assert not report.correct
    assert report.failed == 1
    assert victim in report.errors[0]


def test_gate_rejects_a_failed_cross_machine_check(study):
    state, output = study
    result = dataclasses.replace(output["result"], cross_machine_consistent=False)
    assert not check_study(state["world"], result).correct


def test_science_digest_ignores_telemetry_but_not_science(study):
    _state, output = study
    result = output["result"]
    digest = science_digest(result)
    assert science_digest(dataclasses.replace(result, stage_timings=(), perf_counters={})) == digest
    doctored = dataclasses.replace(result, render_twice=result.render_twice + 1)
    assert science_digest(doctored) != digest


def test_gate_accepts_the_faulty_crawl_and_its_streamed_reanalysis(crawl):
    state, output, workload = crawl
    report = workload.check(state, output)
    assert report.correct, report.errors
    assert report.attempted == len(state["world"].all_targets)


def test_gate_rejects_a_site_lost_without_exhausting_its_retries(crawl):
    from repro.core.detection import FingerprintDetector
    from repro.core.records import SiteObservation
    from repro.crawler.crawl import CrawlDataset

    state, output, _workload = crawl
    dataset = output["dataset"]
    reachable = next(o for o in dataset.observations if o.success)
    lost = SiteObservation(
        domain=reachable.domain, rank=reachable.rank, population=reachable.population,
        success=False, failure_reason="http-5xx", attempts=1,
    )
    doctored = CrawlDataset(
        label=dataset.label,
        observations=[lost if o is reachable else o for o in dataset.observations],
    )
    report = check_crawl(state["world"], doctored, workloads.MAX_ATTEMPTS, FingerprintDetector())
    assert not report.correct
    assert reachable.domain in report.errors[0]


def test_gate_rejects_a_stale_saved_file(crawl, tmp_path):
    from repro.crawler.storage import load_dataset, save_dataset

    state, output, workload = crawl
    saved = load_dataset(state["crawl_file"])
    saved.observations = saved.observations[:-1]
    stale = dict(state, crawl_file=tmp_path / "stale.jsonl.gz")
    save_dataset(saved, stale["crawl_file"])
    report = workload.check(stale, output)
    assert not report.correct
    assert any("streamed" in error for error in report.errors)


def test_digest_ledger_flags_disagreeing_workloads(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "module.py").write_text("x = 1\n")
    ledger = DigestLedger(tmp_path / "digests.json", source)
    assert ledger.check(7, 0.02, "aaa", "study") == []
    assert ledger.check(7, 0.02, "aaa", "study-jobs2") == []
    assert ledger.check(8, 0.02, "bbb", "study-jobs2") == []
    assert ledger.check(7, 0.02, "ccc", "study-jobs2") != []
    (source / "module.py").write_text("x = 2\n")  # a new program starts fresh
    assert DigestLedger(tmp_path / "digests.json", source).check(7, 0.02, "ccc", "study") == []


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_run_prints():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
