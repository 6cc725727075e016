"""The CI regression gate (benchmarks/check_regression.py).

The script is deliberately standalone (CI invokes it before installing the
package), so the tests load it by path and drive ``main`` directly.

Exit-code contract: 0 ok, 1 regression, 2 missing baseline/current file —
a missing baseline is a setup problem with its own distinct code so a CI
job can tell "commit a baseline" apart from "performance regressed".
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def check_regression():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(**results):
    return {"suite": "t", "results": results}


def write(path, data):
    path.write_text(json.dumps(data))
    return path


class TestExitCodes:
    def test_ok(self, check_regression, tmp_path, capsys):
        current = write(tmp_path / "cur.json", payload(b={"speedup": 2.0}))
        baseline = write(tmp_path / "base.json", payload(b={"speedup": 2.0}))
        assert check_regression.main([str(current), str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_1(self, check_regression, tmp_path, capsys):
        current = write(tmp_path / "cur.json", payload(b={"speedup": 1.0}))
        baseline = write(tmp_path / "base.json", payload(b={"speedup": 2.0}))
        assert check_regression.main([str(current), str(baseline)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_baseline_exits_2_with_instructions(
        self, check_regression, tmp_path, capsys
    ):
        current = write(tmp_path / "cur.json", payload(b={"speedup": 2.0}))
        missing = tmp_path / "baselines" / "BENCH_t.json"
        assert check_regression.main([str(current), str(missing)]) == 2
        out = capsys.readouterr().out
        assert "baseline not found" in out
        assert "commit it" in out
        assert str(missing) in out  # the copy-paste command names the real path

    def test_missing_current_exits_2(self, check_regression, tmp_path, capsys):
        baseline = write(tmp_path / "base.json", payload(b={"speedup": 2.0}))
        assert check_regression.main([str(tmp_path / "cur.json"), str(baseline)]) == 2
        assert "not found" in capsys.readouterr().out


class TestComparisons:
    def test_improvement_and_new_benchmarks_pass(self, check_regression, tmp_path):
        current = write(
            tmp_path / "cur.json",
            payload(b={"speedup": 9.0}, brand_new={"speedup": 1.0}),
        )
        baseline = write(tmp_path / "base.json", payload(b={"speedup": 2.0}))
        assert check_regression.main([str(current), str(baseline)]) == 0

    def test_metric_missing_from_current_fails(self, check_regression, tmp_path, capsys):
        current = write(tmp_path / "cur.json", payload())
        baseline = write(tmp_path / "base.json", payload(b={"speedup": 2.0}))
        assert check_regression.main([str(current), str(baseline)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_drop_within_tolerance_passes(self, check_regression, tmp_path):
        current = write(tmp_path / "cur.json", payload(b={"speedup": 1.6}))
        baseline = write(tmp_path / "base.json", payload(b={"speedup": 2.0}))
        assert check_regression.main([str(current), str(baseline)]) == 0

    def test_hit_rates_are_gated(self, check_regression, tmp_path):
        current = write(
            tmp_path / "cur.json",
            payload(b={"hit_rates": {"js.cache": {"hit_rate": 0.2}}}),
        )
        baseline = write(
            tmp_path / "base.json",
            payload(b={"hit_rates": {"js.cache": {"hit_rate": 0.9}}}),
        )
        assert check_regression.main([str(current), str(baseline)]) == 1

    def test_reference_seconds_are_better_lower(self, check_regression, tmp_path, capsys):
        baseline = write(tmp_path / "base.json", payload(b={"warm_ref_s": 1.0}))
        faster = write(tmp_path / "faster.json", payload(b={"warm_ref_s": 0.5}))
        within = write(tmp_path / "within.json", payload(b={"warm_ref_s": 1.2}))
        slower = write(tmp_path / "slower.json", payload(b={"warm_ref_s": 1.3}))
        assert check_regression.main([str(faster), str(baseline)]) == 0
        assert check_regression.main([str(within), str(baseline)]) == 0
        assert check_regression.main([str(slower), str(baseline)]) == 1
        assert "REGRESSED (ceiling 1.250)" in capsys.readouterr().out

