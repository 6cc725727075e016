"""Tests for tools/lint_repro.py, the worker-metrics-channel AST lint."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from lint_repro import lint_file, main  # noqa: E402


def _lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_file(path, tmp_path)


class TestDetachedRegistry:
    def test_module_level_registry_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "from repro.obs.metrics import MetricsRegistry\n"
            "MY_METRICS = MetricsRegistry()\n",
        )
        assert [f[2] for f in findings] == ["detached-registry"]
        assert findings[0][1] == 2

    def test_each_registry_class_is_flagged(self, tmp_path):
        for cls in ("MetricsRegistry", "SampleTable"):
            findings = _lint_source(tmp_path, f"X = {cls}()\n")
            assert [f[2] for f in findings] == ["detached-registry"], cls

    def test_function_local_registry_is_allowed(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "def make():\n"
            "    return MetricsRegistry()\n",
        )
        assert findings == []

    def test_singleton_homes_are_allowed(self, tmp_path):
        home = tmp_path / "repro" / "obs"
        home.mkdir(parents=True)
        path = home / "__init__.py"
        path.write_text("METRICS = MetricsRegistry()\n")
        assert lint_file(path, tmp_path) == []

    def test_conditional_module_level_registry_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "if True:\n"
            "    FALLBACK = SampleTable()\n",
        )
        assert [f[2] for f in findings] == ["detached-registry"]


class TestDynamicCacheLayer:
    def test_literal_layer_is_allowed(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "CACHE = perf.ByteBudgetLRU('render_cache', 64 * perf.MB)\n",
        )
        assert findings == []

    def test_computed_layer_is_flagged(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            "name = 'render'\n"
            "CACHE = perf.ByteBudgetLRU(name + '_cache', 64 * perf.MB)\n",
        )
        assert [f[2] for f in findings] == ["dynamic-cache-layer"]

    def test_keyword_layer_is_checked(self, tmp_path):
        good = _lint_source(
            tmp_path, "C = ByteBudgetLRU(layer='glyph', max_bytes=1)\n"
        )
        assert good == []
        bad = _lint_source(
            tmp_path, "C = ByteBudgetLRU(layer=f'{kind}', max_bytes=1)\n"
        )
        assert [f[2] for f in bad] == ["dynamic-cache-layer"]


class TestCLI:
    def test_src_repro_is_clean(self):
        # The gate CI runs: the real tree must satisfy its own lint.
        assert main([]) == 0

    def test_exit_one_and_report_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("REGISTRY = MetricsRegistry()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "detached-registry" in out
        assert "bad.py:1" in out

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def (:\n")
        findings = lint_file(path, tmp_path)
        assert [f[2] for f in findings] == ["syntax-error"]

    def test_runs_as_a_script(self):
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "lint_repro.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stderr
