"""Cross-process propagation: spans and metrics from shard workers must
appear exactly once in the merged run log under ``jobs=4`` with fault
injection.

The run log holds two crawls of more shards than jobs, so most workers are
forked after the parent already took in other workers' spans and metrics;
none of those may ship home twice.  Also pins the per-task delta semantics
of the worker body: running it twice in one process must not re-ship the
first task's metric activity, cache counters included (cumulative
snapshots would double-count on merge).
"""

from dataclasses import asdict

import pytest

from repro import obs, perf
from repro.config import StudyScale
from repro.crawler.resilience import RetryPolicy
from repro.crawler.shards import (
    ExecutionConfig,
    WorkerTask,
    run_sharded_crawl,
    shard_worker,
)
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.obs.config import ObsConfig
from repro.obs.inspect import crawl_totals, load_run
from repro.obs.metrics import layer_rows
from repro.obs.recorder import RunRecorder
from repro.webgen import build_world

RETRIES = RetryPolicy(max_attempts=3)


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.01))


def faulty(world, seed=7):
    return FaultyNetwork(world.network, FaultConfig(fault_rate=0.15), seed=seed)


class TestShardedRunLog:
    LABELS = ("control", "recrawl")

    @pytest.fixture(scope="class")
    def sharded(self, world, tmp_path_factory):
        previous = obs.config()
        obs.configure(ObsConfig(trace=True))
        obs.reset()
        run_dir = tmp_path_factory.mktemp("sharded") / "obs"
        try:
            recorder = RunRecorder(run_dir, label="crawl", seed=7).start()
            # More shards than jobs, and two crawls in one log: workers forked
            # after the parent took in earlier shards' spans must not ship
            # them again.
            datasets = {
                label: run_sharded_crawl(
                    faulty(world),
                    world.all_targets,
                    label=label,
                    shards=8,
                    retry_policy=RETRIES,
                    execution=ExecutionConfig(jobs=4),
                )
                for label in self.LABELS
            }
            recorder.finish(health=asdict(datasets["control"].health()))
        finally:
            obs.configure(previous)
        return datasets, run_dir

    @staticmethod
    def crawl_label(log, record):
        """The label of the ``crawl.shard`` span a record nests under."""
        by_id = {r.get("id"): r for r in log.spans()}
        parent = by_id.get(record.get("parent"))
        while parent is not None and parent["name"] != "crawl.shard":
            parent = by_id.get(parent.get("parent"))
        return parent["attrs"]["label"] if parent is not None else None

    def test_metrics_totals_exactly_once(self, sharded):
        datasets, run_dir = sharded
        log = load_run(run_dir)
        for label, dataset in datasets.items():
            health = dataset.health()
            totals = crawl_totals(log, label)
            assert totals["total"] == health.total
            assert totals["successes"] == health.successes
            assert totals["recovered"] == health.recovered
            assert totals["attempts_histogram"] == health.attempts_histogram
            assert totals["failure_rows"] == tuple(health.failure_rows)
            assert totals["total_attempts"] == health.total_attempts

    def test_page_spans_exactly_once(self, sharded):
        datasets, run_dir = sharded
        log = load_run(run_dir)
        pages = log.spans("crawl.page")
        assert len(pages) == sum(len(d.observations) for d in datasets.values())
        for label, dataset in datasets.items():
            domains = [
                r["attrs"]["domain"] for r in pages if self.crawl_label(log, r) == label
            ]
            assert len(domains) == len(set(domains)), "a worker span was merged twice"
            assert sorted(domains) == sorted(o.domain for o in dataset.observations)

    def test_worker_lanes_are_labelled(self, sharded):
        _, run_dir = sharded
        log = load_run(run_dir)
        shard_spans = log.spans("crawl.shard")
        assert len(shard_spans) == 8 * len(self.LABELS)
        for label in self.LABELS:
            tids = [r["tid"] for r in shard_spans if r["attrs"]["label"] == label]
            assert sorted(tids) == [f"shard-{i:04d}" for i in range(8)]
        # Page spans carry their worker's lane, not the parent's.
        page_tids = {r["tid"] for r in log.spans("crawl.page")}
        assert page_tids <= {r["tid"] for r in shard_spans}

    def test_serial_counters_match_serial_health(self, world):
        """The counter path agrees with health() regardless of jobs.

        (Serial and sharded crawls see slightly different fault schedules —
        the injector's per-URL attempt clocks are per-process — so the two
        runs are compared against their own health, not each other.)
        """
        previous = obs.config()
        obs.configure(ObsConfig(trace=False))
        obs.reset()
        try:
            serial = run_sharded_crawl(
                faulty(world),
                world.all_targets,
                label="control",
                retry_policy=RETRIES,
            )
            counters = obs.METRICS.snapshot()["counters"]
        finally:
            obs.configure(previous)
        health = serial.health()
        assert counters["crawler.pages[control]"] == health.total
        assert counters["crawler.pages_ok[control]"] == health.successes
        assert counters.get("crawler.recovered[control]", 0) == health.recovered
        histogram = {
            int(name[: -len("]")].rsplit("|", 1)[1]): value
            for name, value in counters.items()
            if name.startswith("crawler.attempts[control|")
        }
        assert histogram == health.attempts_histogram


def worker_task(world, **changes):
    """A shard task over four fingerprinting sites (they draw canvases)."""
    fp_sites = set(world.ground_truth_fp_sites("top")) | set(
        world.ground_truth_fp_sites("tail")
    )
    fields = dict(
        network=faulty(world),
        targets=tuple(t for t in world.all_targets if t.domain in fp_sites)[:4],
        profiles=(("control", None),),
        retry_policy=RETRIES,
        page_budget=None,
        inner_paths=(),
        resume=False,
        perf_config=perf.config(),
        obs_config=ObsConfig(trace=True),
        lane="shard-0000",
    )
    fields.update(changes)
    return WorkerTask(**fields)


class TestPooledWorkerDeltas:
    def test_worker_ships_per_task_deltas(self, world, untraced):
        """Running the worker body twice in one process must not re-ship the
        first task's cache counters, metrics or spans."""
        # A fresh (identically seeded) faulty network per task, so both see
        # the same fault schedule.
        first = shard_worker(worker_task(world))
        second = shard_worker(worker_task(world))
        shard = worker_task(world).targets
        pages_1 = first.obs_payload["metrics"]["counters"]["crawler.pages[control]"]
        pages_2 = second.obs_payload["metrics"]["counters"]["crawler.pages[control]"]
        assert pages_1 == len(shard)
        assert pages_2 == len(shard), "second task re-shipped the first task's metrics"
        # Span buffers drain per task, too.
        for result in (first, second):
            spans = [r for r in result.obs_payload["spans"] if r["name"] == "crawl.page"]
            assert len(spans) == len(shard)
        # Cache counters ride the same delta: the same pages make the same
        # number of render-cache lookups in each task (hits the second
        # time), never the running total.
        def lookups(result):
            row = layer_rows(result.obs_payload["metrics"])["render_cache"]
            return row["hits"] + row["misses"]

        assert lookups(first) > 0
        assert lookups(second) == lookups(first), "second task re-shipped cache counters"
        assert len(first.records["control"]) == len(second.records["control"]) == len(shard)

    def test_ingest_worker_is_exactly_once_per_payload(self, untraced):
        obs.configure(ObsConfig(trace=True))
        before = obs.METRICS.snapshot()
        obs.inc("crawler.pages[control]", 5)
        with obs.span("crawl.shard"):
            pass
        payload = obs.worker_payload(before)
        obs.reset()
        obs.ingest_worker(payload)
        assert obs.METRICS.counter("crawler.pages[control]") == 5
        assert len(obs.TRACE.records()) == 1
        obs.ingest_worker(None)  # a skipped worker ships nothing
        assert obs.METRICS.counter("crawler.pages[control]") == 5
