"""Tests for the run-history ledger (repro.obs.ledger) and its CLI verbs.

Synthetic entries drive the diff/regress logic (threshold crossings, the
config-digest gate, the 0/1/2 exit contract); a real recorder round-trip
pins that every finished run lands in ``runs.jsonl`` torn-line tolerant.
"""

import json

import pytest

from repro import obs
from repro.obs import ledger
from repro.obs.__main__ import main as obs_main
from repro.obs.recorder import RunRecorder


def entry(run_id="aaaabbbbcccc", digest="cfg1", label="study", stages=(),
          counters=None, profile=None, created="2026-08-08T00:00:00"):
    """A synthetic ledger line; ``stages`` is ((name, seconds, cached), ...)."""
    return {
        "t": "ledger-run",
        "run_id": run_id,
        "label": label,
        "created": created,
        "git": None,
        "config_digest": digest,
        "seed": 1,
        "shard_plan": None,
        "stages": [
            {"name": n, "seconds": s, "cached": c} for n, s, c in stages
        ],
        "metrics": {"counters": counters or {}},
        "profile": profile,
        "health": None,
    }


def rates(hits, misses, layer="glyph"):
    return {
        f"perf.hits[{layer}]": hits,
        f"perf.misses[{layer}]": misses,
    }


class TestEntryAndStorage:
    def test_make_entry_accepts_timing_objects_and_dicts(self):
        class Timing:
            name = "crawl.control"
            seconds = 1.5
            cached = False

        made = ledger.make_entry(
            "study",
            {"created": "t", "git": "abc", "config_digest": "d", "seed": 3},
            stage_timings=[Timing(), {"name": "detect", "seconds": 0.2, "cached": True}],
        )
        assert made["t"] == "ledger-run"
        assert made["config_digest"] == "d"
        assert made["stages"] == [
            {"name": "crawl.control", "seconds": 1.5, "cached": False},
            {"name": "detect", "seconds": 0.2, "cached": True},
        ]
        assert len(made["run_id"]) == 12

    def test_run_ids_are_unique(self):
        manifest = {"created": "t"}
        ids = {ledger.make_entry("x", manifest)["run_id"] for _ in range(20)}
        assert len(ids) == 20

    def test_append_and_load_roundtrip(self, tmp_path):
        for i in range(3):
            ledger.append_run(tmp_path, entry(run_id=f"run{i:09d}aaa"))
        loaded = ledger.load_ledger(tmp_path)
        assert [e["run_id"] for e in loaded] == [f"run{i:09d}aaa" for i in range(3)]
        # The path helper accepts the file itself too.
        assert ledger.load_ledger(tmp_path / ledger.LEDGER_NAME) == loaded

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = ledger.append_run(tmp_path, entry(run_id="intact000000"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": "ledger-run", "run_id": "torn')  # killed mid-append
        loaded = ledger.load_ledger(tmp_path)
        assert [e["run_id"] for e in loaded] == ["intact000000"]

    def test_foreign_lines_are_ignored(self, tmp_path):
        path = ledger.ledger_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"t": "event", "name": "not-a-run"}) + "\n"
            + json.dumps(entry(run_id="realrun00000")) + "\n"
            + "\n",
            encoding="utf-8",
        )
        assert [e["run_id"] for e in ledger.load_ledger(tmp_path)] == ["realrun00000"]

    def test_missing_ledger_is_empty(self, tmp_path):
        assert ledger.load_ledger(tmp_path / "nope") == []

    def test_recorder_finish_appends_a_ledger_run(self, traced, tmp_path):
        recorder = RunRecorder(tmp_path / "run", label="crawl", seed=9).start()
        obs.inc("crawler.pages[control]", 4)
        recorder.finish(health={"total": 4})
        (e,) = ledger.load_ledger(tmp_path / "run")
        assert e["run_id"] == recorder.run_id
        assert e["label"] == "crawl"
        assert e["seed"] == 9
        assert "config_digest" in e  # None here: no stage graph ran
        assert e["metrics"]["counters"]["crawler.pages[control]"] == 4
        assert e["health"] == {"total": 4}
        # A second run appends (the trace log is per-run, the ledger is not).
        RunRecorder(tmp_path / "run", label="crawl", seed=9).start().finish()
        assert len(ledger.load_ledger(tmp_path / "run")) == 2


class TestResolveRun:
    ENTRIES = [
        entry(run_id="aaa111111111"),
        entry(run_id="aab222222222"),
        entry(run_id="bbb333333333"),
    ]

    def test_selectors(self):
        assert ledger.resolve_run(self.ENTRIES, "latest")["run_id"] == "bbb333333333"
        assert ledger.resolve_run(self.ENTRIES, "last")["run_id"] == "bbb333333333"
        assert ledger.resolve_run(self.ENTRIES, "prev")["run_id"] == "aab222222222"
        assert ledger.resolve_run(self.ENTRIES, "-1")["run_id"] == "bbb333333333"
        assert ledger.resolve_run(self.ENTRIES, "-3")["run_id"] == "aaa111111111"
        assert ledger.resolve_run(self.ENTRIES, "0")["run_id"] == "aaa111111111"
        assert ledger.resolve_run(self.ENTRIES, "bbb")["run_id"] == "bbb333333333"

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            ledger.resolve_run([], "latest")
        with pytest.raises(ValueError, match="out of range"):
            ledger.resolve_run(self.ENTRIES, "-4")
        with pytest.raises(ValueError, match="no run with id prefix"):
            ledger.resolve_run(self.ENTRIES, "zzz")
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.resolve_run(self.ENTRIES, "aa")


class TestHistoryText:
    def test_empty(self):
        assert "empty run ledger" in ledger.history_text([])

    def test_table_rows(self):
        entries = [
            entry(run_id="aaa111111111", stages=(("crawl.control", 2.0, False),),
                  counters={"crawler.pages[control]": 40},
                  profile={"samples": 170, "seconds": 1.7}),
            entry(run_id="bbb222222222"),
        ]
        text = ledger.history_text(entries)
        lines = text.splitlines()
        assert len(lines) == 3  # header + 2 runs
        assert lines[1].lstrip().startswith("-2 ")
        assert "aaa111111111" in lines[1]
        assert "170" in lines[1]  # profile samples column
        assert "40" in lines[1]  # pages column
        assert lines[2].lstrip().startswith("-1 ")

    def test_top_truncates_to_newest(self):
        entries = [entry(run_id=f"run{i:09d}aaa") for i in range(5)]
        text = ledger.history_text(entries, top=2)
        assert "run000000003" in text and "run000000004" in text
        assert "run000000000" not in text


class TestDiffText:
    def test_identical_runs_have_no_regressions(self):
        a = entry(stages=(("crawl.control", 2.0, False),), counters=rates(80, 20))
        b = entry(run_id="bbbbbbbbbbbb", stages=(("crawl.control", 2.05, False),),
                  counters=rates(81, 20))
        text, regressions = ledger.diff_text(a, b)
        assert regressions == 0
        assert "no regressions" in text

    def test_stage_slowdown_past_threshold_regresses(self):
        a = entry(stages=(("crawl.control", 2.0, False),))
        b = entry(run_id="bbbbbbbbbbbb", stages=(("crawl.control", 3.0, False),))
        text, regressions = ledger.diff_text(a, b, threshold=0.25)
        assert regressions == 1
        assert "REGRESSED" in text
        assert "1 regression(s)" in text

    def test_speedup_is_labelled_improved_not_regressed(self):
        a = entry(stages=(("crawl.control", 3.0, False),))
        b = entry(run_id="bbbbbbbbbbbb", stages=(("crawl.control", 1.0, False),))
        text, regressions = ledger.diff_text(a, b)
        assert regressions == 0
        assert "improved" in text

    def test_micro_stage_jitter_is_not_a_regression(self):
        a = entry(stages=(("manifest", 0.001, False),))
        b = entry(run_id="bbbbbbbbbbbb", stages=(("manifest", 0.004, False),))
        _, regressions = ledger.diff_text(a, b)
        assert regressions == 0  # 4x but under TIMING_FLOOR_S

    def test_different_config_digests_never_regress(self):
        a = entry(digest="cfg1", stages=(("crawl.control", 2.0, False),))
        b = entry(run_id="bbbbbbbbbbbb", digest="cfg2",
                  stages=(("crawl.control", 9.0, False),))
        text, regressions = ledger.diff_text(a, b)
        assert regressions == 0
        assert "informational" in text
        assert "no regressions" not in text  # no verdict line across configs

    def test_cache_transition_is_reported_not_regressed(self):
        a = entry(stages=(("detect", 0.8, False),))
        b = entry(run_id="bbbbbbbbbbbb", stages=(("detect", 0.01, True),))
        text, regressions = ledger.diff_text(a, b)
        assert regressions == 0
        assert "cache: ran -> hit" in text

    def test_hit_rate_drop_regresses(self):
        for layer in ("glyph", "js.static.triage"):  # a layer name may be dotted
            a = entry(counters=rates(90, 10, layer))
            b = entry(run_id="bbbbbbbbbbbb", counters=rates(30, 70, layer))
            text, regressions = ledger.diff_text(a, b)
            assert regressions == 1
            assert f"{layer} " in text
            assert "hit rate 90.0% -> 30.0%" in text

    def test_hit_rate_needs_minimum_lookups(self):
        a = entry(counters=rates(9, 1))
        b = entry(run_id="bbbbbbbbbbbb", counters=rates(3, 7))
        _, regressions = ledger.diff_text(a, b)
        assert regressions == 0  # 10 lookups < HIT_RATE_MIN_LOOKUPS

    def test_dataset_shape_drift_counts_under_same_config(self):
        a = entry(counters={"crawler.pages[control]": 40, "crawler.pages_ok[control]": 33})
        b = entry(run_id="bbbbbbbbbbbb",
                  counters={"crawler.pages[control]": 40, "crawler.pages_ok[control]": 32})
        text, regressions = ledger.diff_text(a, b)
        assert regressions == 1
        assert "dataset-shape drift" in text
        assert "crawler.pages_ok[control]" in text


class TestRegressText:
    def good(self, run_id="aaa000000000"):
        return entry(
            run_id=run_id,
            stages=(("crawl.control", 2.0, False), ("detect", 0.5, False)),
            counters=rates(80, 20),
        )

    def test_empty_ledger_exits_2(self):
        text, code = ledger.regress_text([])
        assert code == 2
        assert "empty" in text

    def test_no_prior_same_config_exits_2(self):
        text, code = ledger.regress_text([self.good()])
        assert code == 2
        assert "no prior run" in text
        # A prior run under a different config or label doesn't count either.
        other = entry(run_id="ddd000000000", digest="cfg2")
        _, code = ledger.regress_text([other, self.good()])
        assert code == 2
        _, code = ledger.regress_text(
            [entry(run_id="eee000000000", label="crawl"), self.good()]
        )
        assert code == 2

    def test_min_runs_is_enforced(self):
        entries = [self.good("aaa000000000"), self.good("bbb000000000")]
        _, code = ledger.regress_text(entries, min_runs=2)
        assert code == 2
        _, code = ledger.regress_text(entries, min_runs=1)
        assert code == 0

    def test_steady_run_exits_0(self):
        entries = [self.good("aaa000000000"), self.good("bbb000000000"),
                   self.good("ccc000000000")]
        text, code = ledger.regress_text(entries)
        assert code == 0
        assert "no regressions" in text
        assert "median of 2 prior run(s)" in text

    def test_slowdown_past_threshold_exits_1(self):
        slow = entry(
            run_id="fff000000000",
            stages=(("crawl.control", 4.0, False), ("detect", 0.5, False)),
            counters=rates(80, 20),
        )
        entries = [self.good("aaa000000000"), self.good("bbb000000000"), slow]
        text, code = ledger.regress_text(entries, threshold=0.25)
        assert code == 1
        assert "stage.crawl.control.seconds" in text
        assert "REGRESSED" in text
        assert "1 metric(s) regressed" in text

    def test_hit_rate_drop_exits_1(self):
        for layer in ("glyph", "js.static"):  # a layer name may be dotted
            good = self.good("aaa000000000")
            good["metrics"]["counters"].update(rates(80, 20, layer))
            bad = entry(
                run_id="fff000000000",
                stages=(("crawl.control", 2.0, False),),
                counters={**rates(80, 20), **rates(20, 80, layer)},
            )
            text, code = ledger.regress_text([good, bad])
            assert code == 1
            assert f"{layer}.hit_rate" in text
            assert "1 metric(s) regressed" in text

    def test_missing_cache_layer_is_a_failure(self):
        gone = entry(run_id="fff000000000", stages=(("crawl.control", 2.0, False),))
        entries = [self.good("aaa000000000"), gone]
        text, code = ledger.regress_text(entries)
        assert code == 1
        assert "MISSING" in text

    def test_cached_stages_are_skipped(self):
        cached = entry(
            run_id="fff000000000",
            stages=(("crawl.control", 0.01, True), ("detect", 0.5, False)),
            counters=rates(80, 20),
        )
        entries = [self.good("aaa000000000"), cached]
        text, code = ledger.regress_text(entries)
        assert code == 0
        assert "stage.crawl.control.seconds" not in text

    def test_median_resists_one_outlier_baseline(self):
        """One anomalously fast prior run must not fail a normal run."""
        fast = entry(
            run_id="bbb000000000",
            stages=(("crawl.control", 0.5, False), ("detect", 0.5, False)),
            counters=rates(80, 20),
        )
        entries = [
            self.good("aaa000000000"), fast, self.good("ccc000000000"),
            self.good("ddd000000000"),
        ]
        _, code = ledger.regress_text(entries)
        assert code == 0


class TestHistoryCli:
    def populate(self, tmp_path, *entries):
        for e in entries:
            ledger.append_run(tmp_path, e)

    def test_empty_ledger_message_and_exit_2(self, tmp_path, capsys):
        for verb in ("history", "diff", "regress"):
            argv = [verb, str(tmp_path)] + (["-2", "-1"] if verb == "diff" else [])
            assert obs_main(argv) == 2
            err = capsys.readouterr().err
            assert "no run ledger" in err
            assert "REPRO_OBS_TRACE=1" in err  # actionable, not a traceback

    def test_history_lists_runs(self, tmp_path, capsys):
        self.populate(tmp_path, entry(run_id="aaa000000000"),
                      entry(run_id="bbb000000000"))
        assert obs_main(["history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aaa000000000" in out and "bbb000000000" in out

    def test_diff_exit_codes(self, tmp_path, capsys):
        self.populate(
            tmp_path,
            entry(run_id="aaa000000000", stages=(("crawl.control", 2.0, False),)),
            entry(run_id="bbb000000000", stages=(("crawl.control", 2.0, False),)),
            entry(run_id="ccc000000000", stages=(("crawl.control", 9.0, False),)),
        )
        assert obs_main(["diff", str(tmp_path), "-3", "-2"]) == 0
        assert "no regressions" in capsys.readouterr().out
        assert obs_main(["diff", str(tmp_path), "prev", "latest"]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # Bad selectors are a usage error (2), not a verdict.
        assert obs_main(["diff", str(tmp_path), "-9", "-1"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_regress_exit_codes(self, tmp_path, capsys):
        self.populate(tmp_path, entry(run_id="aaa000000000",
                                      stages=(("crawl.control", 2.0, False),)))
        assert obs_main(["regress", str(tmp_path)]) == 2
        capsys.readouterr()
        self.populate(tmp_path, entry(run_id="bbb000000000",
                                      stages=(("crawl.control", 2.1, False),)))
        assert obs_main(["regress", str(tmp_path)]) == 0
        capsys.readouterr()
        self.populate(tmp_path, entry(run_id="ccc000000000",
                                      stages=(("crawl.control", 9.0, False),)))
        assert obs_main(["regress", str(tmp_path)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert obs_main(["regress", str(tmp_path), "--threshold", "5.0"]) == 0
