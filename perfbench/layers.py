"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public function of one program module, timed from the
outside.  A span's self time is its duration minus its wrapped children, so
``Interpreter.run`` -> ``compile_program`` -> ``parse`` counts each second
once: under ``js.parse``, ``js.compile`` or ``js.exec``.  Layer names follow
the modules (``net``, ``dom``, ``js``, ``js.static``, ``canvas``,
``browser``, ``blocklists``, ``crawler``, ``core``, ``analysis``);
``webgen`` runs in set-up and is not traced.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional

from perfbench.trace import ProcessSpans, Tracer, self_times

__all__ = [
    "BOUNDARIES",
    "LAYERS",
    "PROBE",
    "PER_LAYER",
    "install",
    "layer_of",
    "summarize",
    "site_ms",
]


def _failed_response(response) -> int:
    return int(not 200 <= response.status < 400)


def _failed_observation(observation) -> int:
    return int(not observation.success)


def _settled_ok(observation) -> int:
    return int(observation.success)


#: (module, attribute path, span name, wrap options).  Several boundaries
#: may share a span name: FaultyNetwork.fetch and Network.fetch are both
#: ``net.fetch``, and calls count only the outermost of nested same-name
#: spans.
BOUNDARIES = (
    ("repro.net.server", "Network.fetch", "net.fetch", {"flag": _failed_response}),
    ("repro.net.faults", "FaultyNetwork.fetch", "net.fetch", {"flag": _failed_response}),
    ("repro.dom.html", "parse_html", "dom.parse_html", {}),
    ("repro.js.parser", "parse", "js.parse", {}),
    ("repro.js.compiler", "compile_program", "js.compile", {}),
    ("repro.js.interpreter", "Interpreter.run", "js.run", {}),
    ("repro.js.static.verdict", "verdict_for_source", "js.static", {}),
    ("repro.canvas.context2d", "CanvasRenderingContext2D.flush", "canvas.raster", {}),
    ("repro.canvas.encode", "png_encode", "canvas.encode", {}),
    ("repro.canvas.encode", "jpeg_like_encode", "canvas.encode", {}),
    ("repro.canvas.encode", "webp_like_encode", "canvas.encode", {}),
    ("repro.browser.browser", "Browser.load", "browser.load", {}),
    ("repro.browser.extensions", "AdBlockerExtension.on_request", "blocklists.match", {}),
    ("repro.crawler.collector", "CanvasCollector.collect", "crawler.collect",
     {"flag": _failed_observation}),
    ("repro.crawler.resilience", "collect_with_retries", "crawler.settle",
     {"flag": _settled_ok}),
    ("repro.crawler.storage", "CheckpointWriter.write", "crawler.storage", {}),
    ("repro.crawler.storage", "CheckpointWriter.finalize", "crawler.storage", {}),
    ("repro.crawler.storage", "iter_observations", "crawler.storage", {"iterate": True}),
    ("repro.crawler.shards", "run_sharded_crawl", "crawler.shards", {"cpu": True}),
    ("repro.core.records", "SiteObservation.from_json", "crawler.decode", {}),
    ("repro.core.pipeline", "run_study", "core.study", {}),
    ("repro.core.reducers", "AnalysisBundle.ingest", "core.reduce.ingest", {}),
    ("repro.experiments.registry", "run_experiment", "analysis.report", {}),
    ("repro.analysis.report", "study_comparisons", "analysis.report", {}),
    ("repro.analysis.__main__", "main", "analysis.report", {}),
)

#: The one boundary every run wraps, traced or not: settling one site, all
#: attempts included, gives the ``site_ms`` latency samples.
PROBE = ("repro.crawler.resilience", "collect_with_retries", "crawler.settle", {})

LAYERS = (
    "net", "dom", "js", "js.static", "canvas", "browser",
    "blocklists", "crawler", "core", "analysis",
)

#: Stage timings reported one by one; every other stage is summed into
#: ``core.stage.analysis.s``.
NAMED_STAGES = ("crawl.control", "crawl.abp", "crawl.ubo", "cross_machine", "static", "signatures")

#: Canvas cache layers whose hit rates come from the program's own counters.
CANVAS_CACHES = ("render_cache", "glyph_atlas", "text_run", "path_mask", "encode")

#: Every per-layer metric the traced run prints: name -> unit.
PER_LAYER: Dict[str, str] = {
    "js.parse.calls": "count",
    "js.parse.s": "s",
    "js.compile.calls": "count",
    "js.compile.s": "s",
    "js.cache.hit_rate": "fraction",
    "js.run.calls": "count",
    "js.exec.s": "s",
    "js.static.calls": "count",
    "js.static.s": "s",
    "js.static.hit_rate": "fraction",
    "canvas.raster.calls": "count",
    "canvas.raster.s": "s",
    "canvas.encode.calls": "count",
    "canvas.encode.s": "s",
    **{f"canvas.{cache}.hit_rate": "fraction" for cache in CANVAS_CACHES},
    "browser.load.calls": "count",
    "browser.load.s": "s",
    "blocklists.match.calls": "count",
    "blocklists.match.s": "s",
    "crawler.collect.calls": "count",
    "crawler.collect.s": "s",
    "crawler.collect.failed": "count",
    "crawler.retry.useful_frac": "fraction",
    "crawler.storage.s": "s",
    "crawler.storage.bytes": "bytes",
    "crawler.shards.s": "s",
    "crawler.shards.wait_s": "s",
    "crawler.ipc.decode.s": "s",
    **{f"core.stage.{stage}.s": "s" for stage in NAMED_STAGES},
    "core.stage.analysis.s": "s",
    "core.reduce.ingest.s": "s",
    "net.fetch.calls": "count",
    "net.fetch.s": "s",
    "net.fetch.failed": "count",
    "dom.parse_html.calls": "count",
    "dom.parse_html.s": "s",
    "analysis.report.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "residual.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
    "site_ms_p99": "ms",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def install(tracer: Tracer, boundaries: Iterable[tuple]) -> None:
    """Wrap every boundary.  Import each module first so aliases exist."""
    boundaries = tuple(boundaries)
    for module, _path, _name, _options in boundaries:
        importlib.import_module(module)
    for module, path, name, options in boundaries:
        owner, attr = _resolve(module, path)
        tracer.install(owner, attr, name, **options)


def layer_of(span_name: str) -> str:
    """``js.static`` is a layer of its own; every other name's layer is its prefix."""
    if span_name.startswith("js.static"):
        return "js.static"
    return span_name.split(".", 1)[0]


def site_ms(
    processes: Iterable[ProcessSpans], speed: Callable[[int, float, float], float]
) -> List[float]:
    """Reference milliseconds to settle each site, from every ``crawler.settle`` span.

    ``speed(pid, start, end)`` is the machine's speed while the span ran
    (:meth:`perfbench.speed.LocalSpeed.around`).
    """
    out = []
    for spans in processes:
        for index in range(len(spans)):
            if spans.name(index) == "crawler.settle":
                start, end = spans.starts[index], spans.ends[index]
                out.append((end - start) * 1000.0 * speed(spans.pid, start, end))
    return out


def _metric_bucket(spans: ProcessSpans, index: int) -> str:
    """The per-boundary metric a span's self time is charged to."""
    name = spans.name(index)
    parent = spans.parents[index]
    if name == "crawler.decode":
        # Records decoded from worker results are IPC; records decoded while
        # reading a dataset file are storage.
        if parent >= 0 and spans.name(parent) == "crawler.shards":
            return "crawler.ipc.decode"
        return "crawler.storage"
    if name == "crawler.settle":
        return "crawler.collect"
    if name == "js.run":
        return "js.exec"
    return name


def summarize(
    processes: List[ProcessSpans],
    main_pid: int,
    wall: float,
    perf_delta: Optional[Dict[str, Dict[str, float]]] = None,
    stage_seconds: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics from every process's spans.

    Layer times sum the main process and its workers.  ``residual.s`` is the
    main process's traced wall minus the self time of each of its spans, so on a
    serial workload the ten ``<layer>.self_s`` plus ``residual.s`` equal
    ``trace.wall_s``; with workers the layer times also hold worker time.
    """
    self_s: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    flagged: Counter = Counter()
    runs_without_compile = 0
    static_without_parse = 0
    wait = 0.0
    main_self = 0.0

    for spans in processes:
        own = self_times(spans)
        names = [spans.name(i) for i in range(len(spans))]
        compiled_in = {spans.parents[i] for i, name in enumerate(names) if name == "js.compile"}
        parsed_in = {spans.parents[i] for i, name in enumerate(names) if name == "js.parse"}
        for index, name in enumerate(names):
            bucket = _metric_bucket(spans, index)
            self_s[bucket] += own[index]
            layer_self[layer_of(name)] += own[index]
            if spans.pid == main_pid:
                main_self += own[index]
            parent = spans.parents[index]
            if parent < 0 or names[parent] != name:
                calls[name] += 1
                flagged[name] += spans.flags.get(index, 0)
            if name == "js.run" and index not in compiled_in:
                runs_without_compile += 1
            if name == "js.static" and index not in parsed_in:
                static_without_parse += 1
            if index in spans.cpu:
                wait += (spans.ends[index] - spans.starts[index]) - spans.cpu[index]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {
        "js.parse.calls": calls["js.parse"],
        "js.parse.s": self_s["js.parse"],
        "js.compile.calls": calls["js.compile"],
        "js.compile.s": self_s["js.compile"],
        "js.cache.hit_rate": ratio(runs_without_compile, calls["js.run"]),
        "js.run.calls": calls["js.run"],
        "js.exec.s": self_s["js.exec"],
        "js.static.calls": calls["js.static"],
        "js.static.s": self_s["js.static"],
        "js.static.hit_rate": ratio(static_without_parse, calls["js.static"]),
        "canvas.raster.calls": calls["canvas.raster"],
        "canvas.raster.s": self_s["canvas.raster"],
        "canvas.encode.calls": calls["canvas.encode"],
        "canvas.encode.s": self_s["canvas.encode"],
        "browser.load.calls": calls["browser.load"],
        "browser.load.s": self_s["browser.load"],
        "blocklists.match.calls": calls["blocklists.match"],
        "blocklists.match.s": self_s["blocklists.match"],
        "crawler.collect.calls": calls["crawler.collect"],
        "crawler.collect.s": self_s["crawler.collect"],
        "crawler.collect.failed": flagged["crawler.collect"],
        "crawler.retry.useful_frac": ratio(flagged["crawler.settle"], calls["crawler.collect"]),
        "crawler.storage.s": self_s["crawler.storage"],
        "crawler.shards.s": self_s["crawler.shards"],
        "crawler.shards.wait_s": wait,
        "crawler.ipc.decode.s": self_s["crawler.ipc.decode"],
        "core.reduce.ingest.s": self_s["core.reduce.ingest"],
        "net.fetch.calls": calls["net.fetch"],
        "net.fetch.s": self_s["net.fetch"],
        "net.fetch.failed": flagged["net.fetch"],
        "dom.parse_html.calls": calls["dom.parse_html"],
        "dom.parse_html.s": self_s["dom.parse_html"],
        "analysis.report.s": self_s["analysis.report"],
        "residual.s": wall - main_self,
        "trace.wall_s": wall,
    }
    for cache in CANVAS_CACHES:
        metrics[f"canvas.{cache}.hit_rate"] = (perf_delta or {}).get(cache, {}).get("hit_rate", 0.0)
    stages = dict(stage_seconds or {})
    for stage in NAMED_STAGES:
        metrics[f"core.stage.{stage}.s"] = stages.pop(stage, 0.0)
    metrics["core.stage.analysis.s"] = sum(stages.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
