"""Stage protocol, cache-key chaining, topological execution, caching."""

import pytest

from repro.core.stages.cache import StageCache
from repro.core.stages.fingerprint import stable_hash
from repro.core.stages.graph import StageGraph, StageGraphError
from repro.core.stages.stage import Stage


class Source(Stage):
    name = "source"

    def __init__(self, value=1, salt="s"):
        self.value = value
        self.salt = salt
        self.runs = 0

    def config_fingerprint(self, ctx):
        return {"salt": self.salt}

    def run(self, ctx, inputs):
        self.runs += 1
        return self.value


class Double(Stage):
    name = "double"
    inputs = ("source",)

    def __init__(self):
        self.runs = 0

    def run(self, ctx, inputs):
        self.runs += 1
        return inputs["source"] * 2


class Sum(Stage):
    name = "sum"
    inputs = ("source", "double")

    def run(self, ctx, inputs):
        return inputs["source"] + inputs["double"]


class Pair(Stage):
    """A multi-output stage: one artifact per side."""

    name = "pair"
    outputs = ("pair.left", "pair.right")

    def __init__(self):
        self.ran = []

    def output_fingerprint(self, ctx, output):
        return {"side": output}

    def run_outputs(self, ctx, inputs, keys):
        self.ran.append(sorted(keys))
        return {output: output.upper() for output in keys}


class Left(Stage):
    name = "left"
    inputs = ("pair.left",)

    def run(self, ctx, inputs):
        return inputs["pair.left"] + "!"


class TestStableHash:
    def test_deterministic_across_orderings(self):
        assert stable_hash({"a": 1, "b": [2, 3]}) == stable_hash({"b": [2, 3], "a": 1})

    def test_distinguishes_values(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_rejects_unfingerprittable(self):
        with pytest.raises(TypeError):
            stable_hash(object())


class TestGraphValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(StageGraphError, match="duplicate"):
            StageGraph([Source(), Source()])

    def test_unknown_input_rejected(self):
        with pytest.raises(StageGraphError, match="unknown artifact"):
            StageGraph([Double()])

    def test_cycle_rejected(self):
        class A(Stage):
            name = "a"
            inputs = ("b",)

        class B(Stage):
            name = "b"
            inputs = ("a",)

        with pytest.raises(StageGraphError, match="cycle"):
            StageGraph([A(), B()])

    def test_topological_order_respects_dependencies(self):
        graph = StageGraph([Sum(), Double(), Source()])
        order = [s.name for s in graph.order]
        assert order.index("source") < order.index("double") < order.index("sum")


class TestExecution:
    def test_artifacts_flow_through_inputs(self):
        graph = StageGraph([Source(value=3), Double(), Sum()])
        run = graph.execute(ctx=None)
        assert run.artifacts == {"source": 3, "double": 6, "sum": 9}
        assert [t.name for t in run.timings] == ["source", "double", "sum"]
        assert all(not t.cached for t in run.timings)

    def test_only_executes_dependency_closure(self):
        source, double, total = Source(), Double(), Sum()
        graph = StageGraph([source, double, total])
        run = graph.execute(ctx=None, only=["double"])
        assert set(run.artifacts) == {"source", "double"}
        assert total.name not in run.artifacts

    def test_only_unknown_stage_raises(self):
        graph = StageGraph([Source()])
        with pytest.raises(StageGraphError, match="unknown stage"):
            graph.execute(ctx=None, only=["nope"])


class TestCacheKeys:
    def test_keys_chain_through_inputs(self):
        """Changing an upstream config invalidates every downstream key."""
        g1 = StageGraph([Source(salt="one"), Double(), Sum()])
        g2 = StageGraph([Source(salt="two"), Double(), Sum()])
        k1 = g1.execute(ctx=None).keys
        k2 = g2.execute(ctx=None).keys
        assert k1["source"] != k2["source"]
        assert k1["double"] != k2["double"]
        assert k1["sum"] != k2["sum"]

    def test_same_config_same_keys(self):
        k1 = StageGraph([Source(), Double()]).execute(ctx=None).keys
        k2 = StageGraph([Source(), Double()]).execute(ctx=None).keys
        assert k1 == k2

    def test_version_bump_changes_key(self):
        class SourceV2(Source):
            version = "2"

        k1 = StageGraph([Source()]).execute(ctx=None).keys
        k2 = StageGraph([SourceV2()]).execute(ctx=None).keys
        assert k1["source"] != k2["source"]


class TestStageCache:
    def test_hit_skips_run(self, tmp_path):
        cache = StageCache(tmp_path)
        source = Source(value=7)
        graph = StageGraph([source, Double()], cache=cache)
        first = graph.execute(ctx=None)
        assert first.cache_hits == 0 and source.runs == 1

        source2 = Source(value=7)
        graph2 = StageGraph([source2, Double()], cache=cache)
        second = graph2.execute(ctx=None)
        assert second.cache_hits == 2
        assert source2.runs == 0
        assert second.artifacts == first.artifacts
        assert second.keys == first.keys

    def test_config_change_misses(self, tmp_path):
        cache = StageCache(tmp_path)
        StageGraph([Source(salt="a")], cache=cache).execute(ctx=None)
        run = StageGraph([Source(salt="b")], cache=cache).execute(ctx=None)
        assert run.cache_hits == 0

    def test_corrupt_entry_is_evicted_not_fatal(self, tmp_path):
        cache = StageCache(tmp_path)
        graph = StageGraph([Source(value=5)], cache=cache)
        run = graph.execute(ctx=None)
        path = cache.path_for("source", run.keys["source"])
        path.write_bytes(b"\x00garbage")

        fresh = Source(value=5)
        rerun = StageGraph([fresh], cache=cache).execute(ctx=None)
        assert rerun.cache_hits == 0
        assert fresh.runs == 1
        assert rerun.artifacts["source"] == 5

    def test_dataset_artifacts_roundtrip_as_jsonl(self, tmp_path):
        from repro.crawler.crawl import CrawlDataset
        from repro.core.records import SiteObservation

        class CrawlLike(Stage):
            name = "crawl"
            artifact = "dataset"

            def run(self, ctx, inputs):
                ds = CrawlDataset(label="x")
                ds.observations.append(
                    SiteObservation(domain="a.example", rank=1, population="top", success=True)
                )
                return ds

        cache = StageCache(tmp_path)
        first = StageGraph([CrawlLike()], cache=cache).execute(ctx=None)
        assert cache.path_for("crawl", first.keys["crawl"], "dataset").name.endswith(".jsonl.gz")
        second = StageGraph([CrawlLike()], cache=cache).execute(ctx=None)
        assert second.cache_hits == 1
        assert second.artifacts["crawl"].observations == first.artifacts["crawl"].observations


class TestMultiOutputStage:
    def test_each_output_has_its_own_key(self):
        keys = StageGraph([Pair(), Left()]).execute(ctx=None).keys
        assert set(keys) == {"pair.left", "pair.right", "left"}
        assert keys["pair.left"] != keys["pair.right"]
        assert keys["pair.left"] == Pair().cache_key(None, {}, "pair.left")

    def test_runs_once_for_every_output(self):
        pair = Pair()
        run = StageGraph([pair, Left()]).execute(ctx=None)
        assert pair.ran == [["pair.left", "pair.right"]]
        assert run.artifacts == {"pair.left": "PAIR.LEFT", "pair.right": "PAIR.RIGHT", "left": "PAIR.LEFT!"}
        assert [t.name for t in run.timings] == ["pair", "left"]

    def test_only_one_output_runs_that_output(self):
        pair = Pair()
        run = StageGraph([pair, Left()]).execute(ctx=None, only=["left"])
        assert pair.ran == [["pair.left"]]
        assert set(run.artifacts) == {"pair.left", "left"}

    def test_stage_name_selects_every_output(self):
        pair = Pair()
        StageGraph([pair, Left()]).execute(ctx=None, only=["pair"])
        assert pair.ran == [["pair.left", "pair.right"]]

    def test_partial_cache_runs_only_the_missing_output(self, tmp_path):
        cache = StageCache(tmp_path)
        first = StageGraph([Pair(), Left()], cache=cache).execute(ctx=None)
        cache.path_for("pair.right", first.keys["pair.right"]).unlink()
        pair = Pair()
        second = StageGraph([pair, Left()], cache=cache).execute(ctx=None)
        assert pair.ran == [["pair.right"]]
        assert second.artifacts == first.artifacts
        timing = second.timings[0]
        assert not timing.cached and timing.details["ran"] == ["pair.right"]
        assert second.timings[1].cached

    def test_duplicate_artifact_rejected(self):
        class Clash(Stage):
            name = "pair.left"

        with pytest.raises(StageGraphError, match="duplicate artifact"):
            StageGraph([Pair(), Clash()])
