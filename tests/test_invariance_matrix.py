"""One invariance matrix: no execution knob changes what the study finds.

A study's result depends on its :class:`~repro.core.stages.study.StudyConfig`
alone.  Every other input — how many workers crawl, whether a supervisor
runs them, the stage cache, the render cache, the profiler, tracing, the
collector, static triage — says how the study runs and must leave the
science where it is.  Each cell below runs one full study (both ad-blocker
crawls and the cross-machine check) of a scale-0.005 world at seed 7 with
one knob turned, with no faults and again with transient faults under
retries, asserts the pinned ``science_digest`` of its fault setting
(:func:`perfbench.gate.science_digest`, every ``compare=True`` field of
:class:`~repro.core.pipeline.StudyResult`), and checks that its knob took
effect.  Two guards keep the matrix whole: no execution value reaches a
stage key, and every execution knob has a cell.

``REPRO_SUPERVISED_JOBS`` sets the workers of the ``jobs`` cell (default
2; CI runs 4).
"""

import contextlib
import dataclasses
import functools
import gc
import inspect
import os

import pytest

from perfbench.gate import science_digest
from repro import obs, perf
from repro.config import StudyScale
from repro.core.pipeline import run_study
from repro.core.stages import StageCache, build_study_graph
from repro.crawler.resilience import RetryPolicy
from repro.crawler.shards import ExecutionConfig
from repro.crawler.supervisor import SupervisorConfig
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.obs.inspect import load_run
from repro.obs.metrics import layer_rows
from repro.webgen import build_world
from tests.crawler.eager_browser import eager

JOBS = int(os.environ.get("REPRO_SUPERVISED_JOBS", "2"))
SCALE = StudyScale(fraction=0.005, seed=7)

#: The science of each fault setting, whatever executed it.
DIGESTS = {
    "no-faults": "691209323aa60f726c4b26f49440773cecce8f72f28763be63bdbf51cd94410f",
    "faults": "edf905d607183f3caa2c4a3d344b0bcec121e6a7c2e2adf7c698ef244fd452d2",
}


@pytest.fixture(scope="module")
def configs():
    world = build_world(SCALE)
    plain = dataclasses.replace(world.study_config(), include_cross_machine=True)
    faulty = dataclasses.replace(
        plain,
        network=FaultyNetwork(world.network, FaultConfig(fault_rate=0.2), seed=SCALE.seed),
        retry_policy=RetryPolicy(max_attempts=3),
    )
    return {"no-faults": plain, "faults": faulty}


@pytest.fixture(scope="module")
def cold_runs(configs, tmp_path_factory):
    """``faults -> (result, cache_dir)`` of one study into an empty stage
    cache, run once per fault setting for the cold and warm cells."""
    runs = {}

    def cold(faults):
        if faults not in runs:
            cache_dir = tmp_path_factory.mktemp(f"cache-{faults}")
            runs[faults] = run_study(configs[faults], cache_dir=cache_dir), cache_dir
        return runs[faults]

    return cold


@contextlib.contextmanager
def obs_settings(**changes):
    previous = obs.config()
    obs.configure(dataclasses.replace(previous, **changes))
    try:
        yield
    finally:
        obs.profiler.reset()
        obs.configure(previous)


def counters(result):
    return result.metrics.get("counters", {})


def page_loads(result):
    return sum(v for k, v in counters(result).items() if k.startswith("crawler.pages["))


# -- the cells: each runs one study with one knob turned ----------------------
# A cell takes the config of its fault setting, ``cold()`` (that setting's
# cold-cache run) and a scratch directory, and returns its StudyResult.


def jobs_cell(config, cold, tmp_path):
    result = run_study(config, ExecutionConfig(jobs=JOBS))
    assert counters(result)["supervisor.workers_spawned"] >= JOBS
    return result


def supervisor_cell(config, cold, tmp_path):
    result = run_study(config, ExecutionConfig(supervisor=SupervisorConfig()))
    assert counters(result)["supervisor.workers_spawned"] >= 1
    return result


def cache_cold_cell(config, cold, tmp_path):
    result, cache_dir = cold()
    assert not any(timing.cached for timing in result.stage_timings)
    assert len(StageCache(cache_dir)) >= len(result.stage_timings)
    return result


def cache_warm_cell(config, cold, tmp_path):
    _, cache_dir = cold()
    network = getattr(config.network, "inner", config.network)
    served = network.requests_served
    result = run_study(config, cache_dir=cache_dir)
    assert all(timing.cached for timing in result.stage_timings)
    assert network.requests_served == served
    assert page_loads(result) == 0
    return result


def render_cache_off_cell(config, cold, tmp_path):
    previous = perf.config()
    perf.configure(perf.RenderCacheConfig(enabled=False))
    try:
        result = run_study(config)
    finally:
        perf.configure(previous)
    row = result.perf_counters.get("render_cache", {})
    assert row.get("hits", 0) + row.get("misses", 0) == 0
    return result


def profiler_cell(config, cold, tmp_path):
    with obs_settings(profile=True, profile_hz=499.0):
        result = run_study(config)
    assert result.profile["samples"] > 0
    return result


def tracing_cell(config, cold, tmp_path):
    with obs_settings(trace=True):
        result = run_study(config, obs_dir=tmp_path / "obs")
    # An untraced run writes the file too, with no span in it.
    assert load_run(tmp_path / "obs").spans("stage.crawl")
    return result


def collector_off_cell(config, cold, tmp_path):
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_study(config)
        assert not gc.isenabled()
    finally:
        if enabled:
            gc.enable()
    assert "perf.miss_seconds[gc]" not in counters(result)
    return result


def deferred_scripts(result):
    return layer_rows(result.metrics).get("js.static.triage", {}).get("hits", 0)


def eager_cell(config, cold, tmp_path):
    with eager():
        result = run_study(config)
    # The eager oracle runs every script that a default run's triage defers.
    assert deferred_scripts(cold()[0]) > 0
    assert deferred_scripts(result) == 0
    return result


CELLS = {
    "jobs": jobs_cell,
    "supervisor": supervisor_cell,
    "cache-cold": cache_cold_cell,
    "cache-warm": cache_warm_cell,
    "render-cache-off": render_cache_off_cell,
    "profiler": profiler_cell,
    "tracing": tracing_cell,
    # Test-only axes: the cyclic collector off, and the triage oracle.
    "collector-off": collector_off_cell,
    "eager": eager_cell,
}

#: The cells that turn each of ``run_study``'s execution arguments.
#: ``stages`` has none: it chooses which artifacts a run produces, not how
#: (``tests/test_pipeline_stages.py::TestStageSelection``).
KNOB_CELLS = {
    "jobs": ("jobs",),
    "supervisor": ("supervisor",),
    "cache_dir": ("cache-cold", "cache-warm"),
    "obs_dir": ("tracing",),
}


@pytest.mark.parametrize("faults", sorted(DIGESTS))
@pytest.mark.parametrize("cell", CELLS)
def test_cell_keeps_the_science(cell, faults, configs, cold_runs, tmp_path):
    result = CELLS[cell](configs[faults], functools.partial(cold_runs, faults), tmp_path)
    assert result.cross_machine_consistent is True
    assert science_digest(result) == DIGESTS[faults]


class TestExecutionGuards:
    #: A changed value for every field of ExecutionConfig.
    CHANGED = {"jobs": 4, "supervisor": SupervisorConfig(liveness_deadline_s=5.0)}

    @staticmethod
    def keys(config, execution=ExecutionConfig(), cache_dir=None):
        keys = {}
        for stage in build_study_graph(config, execution, cache_dir).order:
            for output in stage.produces:
                keys[output] = stage.cache_key(config, keys, output)
        return keys

    def test_no_execution_field_reaches_a_stage_key(self, configs, tmp_path):
        for config in configs.values():
            base = self.keys(config)
            assert {"crawl.control", "crawl.abp", "cross_machine", "static"} <= set(base)
            for field in dataclasses.fields(ExecutionConfig):
                execution = ExecutionConfig(**{field.name: self.CHANGED[field.name]})
                assert self.keys(config, execution) == base, field.name
            assert self.keys(config, cache_dir=tmp_path / "cache") == base

    def test_every_execution_knob_has_a_cell(self):
        knobs = {field.name for field in dataclasses.fields(ExecutionConfig)}
        knobs |= set(inspect.signature(run_study).parameters) - {"config", "execution", "stages"}
        assert knobs == set(KNOB_CELLS)
        assert {cell for cells in KNOB_CELLS.values() for cell in cells} <= set(CELLS)
