"""The traced run: self times add up to the wall, and nothing is counted twice."""

import multiprocessing
import os
import time

import pytest

from perfbench import layers, workloads
from perfbench.trace import Tracer, load_spans, self_times

TINY_SCALE = 0.005  # 200 sites


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _subtree(spans, root):
    """Indices of ``root`` and every span nested under it.

    Spans are recorded in call order, so a subtree is contiguous.
    """
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans.parents[index] not in inside:
            break
        inside.add(index)
    return inside


def test_nested_wrapped_calls_are_counted_once(tmp_path):
    tracer = Tracer(tmp_path)
    parse = tracer.wrap(lambda: _busy(0.002), "js.parse")

    def compile_program():
        _busy(0.001)
        parse()
        parse()

    compile_program = tracer.wrap(compile_program, "js.compile")
    run = tracer.wrap(lambda: (compile_program(), _busy(0.001)), "js.run")
    run()

    spans = tracer.spans()
    own = self_times(spans)
    assert [spans.name(i) for i in range(len(spans))] == [
        "js.run", "js.compile", "js.parse", "js.parse"
    ]
    assert all(t > 0 for t in own)
    assert sum(own) == pytest.approx(spans.ends[0] - spans.starts[0], abs=1e-9)
    assert own[0] == pytest.approx(0.001, abs=0.0005)
    assert own[1] == pytest.approx(0.001, abs=0.0005)


def _call_in_child(fn):
    fn()


def test_forked_worker_ships_its_spans_home(tmp_path):
    tracer = Tracer(tmp_path)
    work = tracer.wrap(lambda: _busy(0.001), "canvas.raster")
    work()
    child = multiprocessing.get_context("fork").Process(target=_call_in_child, args=(work, ))
    child.start()
    child.join(timeout=30)
    assert not child.is_alive()
    assert child.exitcode == 0

    workers = load_spans(tmp_path, exclude_pid=os.getpid())
    assert [w.pid for w in workers] == [child.pid]
    assert len(workers[0]) == 1  # the parent's earlier span stayed home
    assert len(tracer.spans()) == 1


@pytest.fixture(scope="module")
def traced_study(tmp_path_factory):
    """A small serial study, every boundary wrapped."""
    from repro import perf

    out = tmp_path_factory.mktemp("traced")
    perf.reset_caches()  # cold, as in a fresh interpreter
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "STUDY_SCALE", TINY_SCALE)
        workload = workloads.WORKLOADS["study"]
        state = workload.setup(workloads.DEFAULT_SEED, out)
        tracer = Tracer(out)
        layers.install(tracer, layers.BOUNDARIES)
        try:
            started = time.perf_counter()
            output = workload.body(state)
            wall = time.perf_counter() - started
        finally:
            tracer.uninstall()
    spans = tracer.spans()
    return state, output, spans, wall


def test_uninstall_restores_the_program(traced_study):
    from repro.js import compiler, interpreter, parser

    assert interpreter.parse is parser.parse
    assert compiler.compile_program.__module__ == "repro.js.compiler"
    assert "__wrapped__" not in vars(interpreter.Interpreter.run)


def test_layer_self_times_plus_residual_equal_the_traced_wall(traced_study):
    _state, output, spans, wall = traced_study
    metrics = layers.summarize([spans], os.getpid(), wall)
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total + metrics["residual.s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["trace.wall_s"] == wall
    assert 0 <= metrics["residual.s"] < 0.05 * wall
    # Every layer the study exercises shows up.
    for layer in ("net", "dom", "js", "js.static", "canvas", "browser", "blocklists",
                  "crawler", "core", "analysis"):
        assert metrics[f"{layer}.self_s"] > 0, layer


def test_script_runs_count_compile_and_parse_once(traced_study):
    _state, _output, spans, _wall = traced_study
    own = self_times(spans)
    runs = [i for i in range(len(spans)) if spans.name(i) == "js.run"]
    nested = 0
    for run in runs:
        subtree = _subtree(spans, run)
        names = {spans.name(i) for i in subtree}
        if {"js.compile", "js.parse"} <= names:
            nested += 1
        duration = spans.ends[run] - spans.starts[run]
        assert sum(own[i] for i in subtree) == pytest.approx(duration, abs=1e-9)
    assert nested > 0  # cold runs parse and compile inside Interpreter.run


def test_span_counts_match_the_programs_own_counters(traced_study):
    _state, output, spans, _wall = traced_study
    names = [spans.name(i) for i in range(len(spans))]
    counters = output["result"].perf_counters
    assert names.count("js.compile") == counters["js.compile"]["misses"]
    static = counters["js.static"]
    assert names.count("js.static") == static["hits"] + static["misses"]
