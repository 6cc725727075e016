"""CLI entry-point tests (run in-process at tiny scale)."""

import pytest

from repro.config import PAPER, FULL_SCALE, StudyScale


class TestConfig:
    def test_prevalence_derivations(self):
        assert PAPER.top_prevalence == pytest.approx(0.127, abs=0.001)
        assert PAPER.tail_prevalence == pytest.approx(0.099, abs=0.001)

    def test_vendor_lookup(self):
        assert PAPER.vendor("Akamai").top == 485
        assert PAPER.vendor("Shopify").tail == 457
        with pytest.raises(KeyError):
            PAPER.vendor("NotAVendor")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            StudyScale(fraction=0.0)
        with pytest.raises(ValueError):
            StudyScale(fraction=1.5)

    def test_scale_site_counts(self):
        assert FULL_SCALE.top_sites == 20_000
        assert StudyScale(fraction=0.05).top_sites == 1_000
        assert StudyScale(fraction=0.0001).top_sites >= 1

    def test_table1_has_13_vendors(self):
        assert len(PAPER.vendors) == 13
        assert sum(1 for v in PAPER.vendors if v.security) == 8


class TestExperimentsCLI:
    def test_main_runs_selected_experiments(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["--scale", "0.01", "--only", "prevalence", "table3", "--no-adblock"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Prevalence of canvas fingerprinting" in out
        assert "Table 3" in out
        assert "Paper vs measured" in out


class TestCrawlAnalyzeCLI:
    def test_crawl_then_analyze(self, tmp_path, capsys):
        from repro.analysis.__main__ import main as analyze_main
        from repro.crawler.__main__ import main as crawl_main

        out_path = tmp_path / "crawl.jsonl.gz"
        assert crawl_main(["--scale", "0.01", "--out", str(out_path)]) == 0
        assert out_path.exists()
        capsys.readouterr()

        assert analyze_main([str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "fingerprinting" in out
        assert "distinct test canvases" in out

    def test_crawl_with_adblock(self, tmp_path, capsys):
        from repro.crawler.__main__ import main as crawl_main

        out_path = tmp_path / "abp.jsonl.gz"
        assert crawl_main(["--scale", "0.005", "--adblock", "abp", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "crawled" in out

    def test_resume_over_finished_crawl(self, tmp_path, capsys):
        from repro.crawler.__main__ import main as crawl_main
        from repro.crawler.storage import load_dataset

        out_path = tmp_path / "crawl.jsonl.gz"
        assert crawl_main(["--scale", "0.005", "--out", str(out_path)]) == 0
        n = len(load_dataset(out_path).observations)
        capsys.readouterr()

        assert crawl_main(
            ["--scale", "0.005", "--out", str(out_path), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert len(load_dataset(out_path).observations) == n  # not doubled
        assert "crawled" in out

    def test_crawl_with_fault_injection(self, tmp_path, capsys):
        from repro.crawler.__main__ import main as crawl_main
        from repro.crawler.storage import load_dataset

        out_path = tmp_path / "faulty.jsonl.gz"
        rc = crawl_main(
            ["--scale", "0.005", "--fault-rate", "0.2", "--max-attempts", "5",
             "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "attempts" in out  # health summary printed
        dataset = load_dataset(out_path)
        assert any(o.attempts > 1 for o in dataset.observations)

    def test_crawl_on_m1_device(self, tmp_path, capsys):
        from repro.crawler.__main__ import main as crawl_main

        out_path = tmp_path / "m1.jsonl.gz"
        rc = crawl_main(
            ["--scale", "0.005", "--device", "apple-m1", "--out", str(out_path)]
        )
        assert rc == 0
        from repro.crawler.storage import load_dataset

        assert load_dataset(out_path).label == "apple-m1"

    def test_parallel_crawl_runs_supervised_with_the_liveness_deadline(
        self, tmp_path, capsys, monkeypatch
    ):
        """--jobs N>1 is always supervised, and --liveness-deadline reaches it."""
        import repro.crawler.__main__ as crawl_cli

        seen = []
        crawl = crawl_cli.run_sharded_crawl

        def spy(*args, **kwargs):
            seen.append(kwargs["execution"])
            return crawl(*args, **kwargs)

        monkeypatch.setattr(crawl_cli, "run_sharded_crawl", spy)
        out_path = tmp_path / "parallel.jsonl.gz"
        rc = crawl_cli.main(
            ["--scale", "0.005", "--jobs", "2", "--liveness-deadline", "45",
             "--out", str(out_path)]
        )
        assert rc == 0
        (execution,) = seen
        assert execution.jobs == 2
        assert execution.supervisor.liveness_deadline_s == 45.0


class TestSupervisedCrawlAnalyzeSmoke:
    """The CI smoke pipeline: a supervised parallel crawl persisted to gzip
    and streamed through ``python -m repro.analysis`` must report the same
    numbers as an in-process ``run_study`` over the same world.

    The crawler CLI defaults (``--max-attempts 3``, ``--page-budget-ms
    90000``) are mirrored explicitly on the ``run_study`` side; with no
    injected faults the retries never fire, so the two datasets — one
    crossing a process boundary per shard plus a gzip round-trip, one fully
    in-process — are observation-for-observation identical.
    """

    def test_supervised_parallel_crawl_matches_run_study(self, tmp_path, capsys):
        from dataclasses import replace

        from repro.analysis.__main__ import main as analyze_main
        from repro.core.pipeline import run_study
        from repro.crawler.__main__ import main as crawl_main
        from repro.crawler.resilience import PageBudget, RetryPolicy
        from repro.webgen import build_world

        scale, seed = 0.01, 99
        out_path = tmp_path / "crawl.jsonl.gz"
        rc = crawl_main(
            ["--scale", str(scale), "--seed", str(seed), "--jobs", "4",
             "--supervised", "--out", str(out_path)]
        )
        assert rc == 0
        capsys.readouterr()
        assert analyze_main([str(out_path)]) == 0
        out = capsys.readouterr().out

        world = build_world(StudyScale(fraction=scale, seed=seed))
        study = run_study(
            replace(
                world.study_config(),
                include_adblock_crawls=False,
                retry_policy=RetryPolicy(max_attempts=3),
                page_budget=PageBudget(max_page_ms=90_000.0),
            )
        )
        assert f"({len(study.control.observations)} sites)" in out
        for pop in ("top", "tail"):
            p = study.prevalence.population(pop)
            if p.sites_crawled == 0:
                continue
            assert (
                f"{pop}: {p.sites_successful}/{p.sites_crawled} ok, "
                f"{p.fp_sites} fingerprinting ({p.prevalence:.1%})"
            ) in out
        assert f"distinct test canvases: {len(study.clusters)}" in out


class TestArtifactsFlag:
    def test_artifacts_written(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "artifacts"
        rc = main(
            ["--scale", "0.01", "--only", "prevalence", "figure1", "pipeline",
             "--no-adblock", "--artifacts", str(out)]
        )
        assert rc == 0
        assert (out / "prevalence.txt").exists()
        assert (out / "figure1.txt").exists()
        # Wall-clock stage timings differ on every run: printed, never written.
        assert not (out / "pipeline.txt").exists()
        assert (out / "paper_vs_measured.txt").read_text().count("paper") > 10
        csv = (out / "figure1.csv").read_text().splitlines()
        assert csv[0] == "rank,top_sites,tail_sites"
        assert len(csv) > 1
        # The PNG is drawn by our own canvas substrate.
        from repro.canvas.encode import png_decode

        pixels = png_decode((out / "figure1.png").read_bytes())
        assert pixels.shape[2] == 4

    def test_committed_figure1_png_decodes(self):
        from pathlib import Path

        from repro.canvas.encode import png_decode

        committed = Path(__file__).resolve().parents[1] / "artifacts" / "figure1.png"
        pixels = png_decode(committed.read_bytes())
        assert pixels.shape == (360, 640, 4)
