"""End-to-end stage pipeline: stage keys, selection and partial caches.

That serial, parallel, supervised and cached runs produce the same
``StudyResult`` is the invariance matrix, ``tests/test_invariance_matrix.py``.
"""

from dataclasses import replace

import pytest

from repro.config import StudyScale
from repro.core.pipeline import run_study
from repro.core.stages import build_study_graph
from repro.crawler.resilience import PageBudget, RetryPolicy
from repro.crawler.shards import ExecutionConfig
from repro.webgen import build_world

SCALE = StudyScale(fraction=0.01, seed=909)


def fresh_world():
    return build_world(SCALE)


@pytest.fixture(scope="module")
def serial_result():
    return fresh_world().run_full_study()


class TestSerialParallelCachedEquivalence:
    def test_stage_timings_are_recorded_but_not_compared(self, serial_result):
        timings = serial_result.stage_timings
        assert timings, "a graph run must record per-stage timings"
        names = [t.name for t in timings]
        for expected in ("crawl", "detect", "cluster", "prevalence",
                         "reach", "signatures", "attribution", "serving_context"):
            assert expected in names
        assert all(t.seconds >= 0 for t in timings)

    def test_stage_keys_are_pinned(self, serial_result):
        """A study's cache keys, as the stage cache on disk knows them."""
        assert {t.name: t.key[:16] for t in serial_result.stage_timings} == {
            "crawl": "3b26a79cb751ebf4",
            "detect": "e5467dc63b9f73cc",
            "cluster": "2d0d05af2ae268f9",
            "prevalence": "5173a15d84297222",
            "signatures": "4c8c7747fc1fb40a",
            "serving_context": "fbfbba95c6a4054e",
            "static": "6cc9e3a92f6b29cc",
            "blocklist_context": "67e648c859c3865d",
            "adblock_rows": "2803062462c0b362",
            "reach": "685ee857bc8519d7",
            "attribution": "a56223f9caf92f7f",
        }

    def test_optional_stages_follow_monolith_conditionals(self):
        result = fresh_world().run_full_study(include_adblock_crawls=False)
        names = {t.name for t in result.stage_timings}
        assert "adblock_rows" not in names
        crawl = next(t for t in result.stage_timings if t.name == "crawl")
        assert crawl.details["ran"] == ["crawl.control"]
        assert result.adblock_rows == ()
        assert result.blocklist_context is not None  # world ships all lists


class TestStageSelection:
    def test_stage_subset_runs_only_dependency_closure(self):
        result = run_study(fresh_world().study_config(), stages=["prevalence"])
        names = {t.name for t in result.stage_timings}
        assert names == {"crawl", "detect", "prevalence"}
        assert result.prevalence is not None
        assert result.reach is None
        assert result.signatures == []


class TestExecutionReachesEveryCrawl:
    def test_every_study_crawl_receives_the_study_execution(self, monkeypatch):
        """Control, both ad-blocker crawls and the cross-machine crawl get
        the study's one ExecutionConfig.  They arrive as two site-major
        crawls: the study's three profiles, then the one device that is not
        the control device (the cross-machine check reads the control
        device's rows from the control crawl)."""
        import repro.core.pipeline as pipeline
        import repro.core.stages.study as study
        from repro.canvas.device import APPLE_M1
        from repro.crawler.shards import run_sharded_crawl

        seen = []

        def spy(*args, **kwargs):
            seen.append(([label for label, _ in kwargs["profiles"]], kwargs.get("execution")))
            return run_sharded_crawl(*args, **kwargs)

        monkeypatch.setattr(study, "run_sharded_crawl", spy)
        monkeypatch.setattr(pipeline, "run_sharded_crawl", spy)
        world = fresh_world()
        config = replace(
            world.study_config(), targets=world.all_targets[:24], include_cross_machine=True
        )
        execution = ExecutionConfig()
        pipeline.run_study(
            config,
            execution,
            stages=["crawl.control", "crawl.abp", "crawl.ubo", "cross_machine"],
        )
        assert sorted(labels for labels, _ in seen) == sorted(
            [["control", "abp", "ubo"], [APPLE_M1.name]]
        )
        assert all(received is execution for _, received in seen)


class TestBlocklistsParsedOnce:
    def test_a_study_parses_each_list_once(self, monkeypatch):
        """The stage keys, both ad-blocker profiles and the blocklist
        context share one parse of EasyList, EasyPrivacy and the uBlock
        Origin extra list."""
        import repro.core.pipeline as pipeline
        from repro.blocklists.matcher import RuleMatcher

        parsed = []
        from_text = RuleMatcher.from_text.__func__

        def spy(cls, text, name=""):
            parsed.append(name)
            return from_text(cls, text, name)

        monkeypatch.setattr(RuleMatcher, "from_text", classmethod(spy))
        world = fresh_world()
        result = pipeline.run_study(
            replace(world.study_config(), targets=world.all_targets[:24]),
            stages=["crawl.abp", "crawl.ubo", "blocklist_context"],
        )
        assert result.blocklist_context is not None
        assert sorted(parsed) == ["easylist", "easyprivacy", "ubo-extra"]


class TestPartialCrawlCache:
    """The crawl stage crawls only the profiles whose outputs are missing."""

    def test_cache_without_abp_crawls_only_abp(self, serial_result, tmp_path):
        cache_dir = tmp_path / "cache"
        fresh_world().run_full_study(cache_dir=cache_dir)
        for path in cache_dir.glob("crawl.abp.*"):
            path.unlink()
        world = fresh_world()
        result = world.run_full_study(cache_dir=cache_dir)
        pages = result.metrics["counters"]
        assert pages["crawler.pages[abp]"] == len(world.all_targets)
        assert "crawler.pages[control]" not in pages
        assert "crawler.pages[ubo]" not in pages
        crawl = next(t for t in result.stage_timings if t.name == "crawl")
        assert not crawl.cached and crawl.details["ran"] == ["crawl.abp"]
        assert all(t.cached for t in result.stage_timings if t.name != "crawl")
        assert result == serial_result

    def test_stage_selection_crawls_only_the_named_profile(self):
        world = fresh_world()
        result = run_study(world.study_config(), stages=["crawl.ubo"])
        pages = result.metrics["counters"]
        assert pages["crawler.pages[ubo]"] == len(world.all_targets)
        assert "crawler.pages[control]" not in pages
        assert [t.name for t in result.stage_timings] == ["crawl"]


class TestCacheInvalidation:
    def _ctx(self, world, **overrides):
        return replace(world.study_config(), **overrides)

    def _keys(self, ctx):
        keys = {}
        for stage in build_study_graph(ctx).order:
            for output in stage.produces:
                keys[output] = stage.cache_key(ctx, keys, output)
        return keys

    def test_blocklist_change_invalidates_only_dependent_stages(self):
        world = build_world(SCALE)
        base = self._keys(self._ctx(world))
        changed = self._keys(
            self._ctx(world, easylist_text=world.easylist_text + "\n||extra-rule.example^")
        )
        # The control crawl never sees the blocklists...
        assert base["crawl.control"] == changed["crawl.control"]
        assert base["detect"] == changed["detect"]
        assert base["cluster"] == changed["cluster"]
        # ...but the ad-blocker crawls and their comparison do.
        assert base["crawl.abp"] != changed["crawl.abp"]
        assert base["crawl.ubo"] != changed["crawl.ubo"]
        assert base["adblock_rows"] != changed["adblock_rows"]

    def test_retry_and_page_budget_change_the_harvest_fingerprint(self):
        """The signatures stage crawls the demo pages itself, so its own
        fingerprint names the crawl's retry policy and page budget."""
        world = build_world(SCALE)

        def fingerprint(**overrides):
            ctx = self._ctx(world, **overrides)
            [stage] = [s for s in build_study_graph(ctx).order if s.name == "signatures"]
            return stage.config_fingerprint(ctx)

        base = fingerprint()
        assert fingerprint(retry_policy=RetryPolicy(max_attempts=3)) != base
        assert fingerprint(page_budget=PageBudget(max_page_ms=1_000.0)) != base

    def test_network_content_change_invalidates_crawls(self):
        world = build_world(SCALE)
        base = self._keys(self._ctx(world))
        any_host = next(iter(world.network.servers()))
        world.network.server_for(any_host).add_resource("/new", "<html>changed</html>")
        changed = self._keys(self._ctx(world))
        assert base["crawl.control"] != changed["crawl.control"]
        assert base["detect"] != changed["detect"]  # chained invalidation


class TestSurrogatePreviews:
    def test_emoji_surrogate_pairs_normalized_at_recording(self):
        """UTF-16 surrogate pairs in JS strings must survive JSON round-trips,
        or cached/checkpointed datasets would differ from in-memory ones."""
        import json

        from repro.crawler.crawl import CrawlTarget, run_crawl
        from repro.core.records import SiteObservation
        from repro.net.server import Network

        network = Network()
        network.server_for("emoji.example").add_resource(
            "/",
            "<html><script>"
            "var c = document.createElement('canvas');"
            "c.width = 200; c.height = 40;"
            "var g = c.getContext('2d');"
            "g.fillText('\\ud83d\\ude03 probe', 2, 20);"
            "window.__x = c.toDataURL();"
            "</script></html>",
        )
        dataset = run_crawl(network, [CrawlTarget("emoji.example", 1, "top")])
        obs = dataset.observations[0]
        roundtripped = SiteObservation.from_json(json.loads(json.dumps(obs.to_json())))
        assert roundtripped == obs
        texts = [
            a
            for call in obs.calls
            if call.method == "fillText"
            for a in call.args
            if isinstance(a, str)
        ]
        assert any("\N{SMILING FACE WITH OPEN MOUTH}" in t for t in texts)

    def test_truncated_preview_counts_the_paired_text(self):
        """The ``...<N chars>`` count is taken after pairing, even when the
        pair sits past the 120-character cut."""
        from repro.browser.instrumentation import CanvasInstrument

        pair = "\ud83d\ude03"
        preview = CanvasInstrument()._preview("a" * 130 + pair + "\ud83d" + "b" * 10)
        assert preview == "a" * 120 + "...<142 chars>"
        preview = CanvasInstrument()._preview(pair + "x" * 130)
        assert preview == "\N{SMILING FACE WITH OPEN MOUTH}" + "x" * 119 + "...<131 chars>"

    def test_pairing_matches_the_code_unit_loop(self):
        from repro.browser.instrumentation import _pair_surrogates

        def reference(text):
            out, i = [], 0
            while i < len(text):
                ch = text[i]
                if "\ud800" <= ch <= "\udbff" and i + 1 < len(text):
                    low = text[i + 1]
                    if "\udc00" <= low <= "\udfff":
                        out.append(chr(0x10000 + ((ord(ch) - 0xD800) << 10) + (ord(low) - 0xDC00)))
                        i += 2
                        continue
                out.append(ch)
                i += 1
            return "".join(out)

        high, low, astral = "\ud83d", "\ude03", "\U0001F603"
        cases = ["", "plain", "é", astral, high, low, high + low, low + high, high + high + low,
                 high + low + low, "x" + high, "é" + high + low + "é" + low + high,
                 astral + high + low]
        for text in cases:
            assert _pair_surrogates(text) == reference(text), repr(text)
