"""Topological stage-graph runner with content-addressed skipping.

:class:`StageGraph` validates a set of stages (unique stage and artifact
names, declared inputs resolvable, no cycles), derives a deterministic
topological order, and executes stages in that order.  For every stage it:

1. computes the content-addressed cache key of each output the run needs
   (config + chained input keys);
2. if a :class:`~repro.core.stages.cache.StageCache` is attached, loads
   every output whose key resolves; a stage whose outputs all resolve is
   *skipped entirely*;
3. otherwise runs the stage for the outputs that missed (a multi-output
   stage produces only those), persists each under its key, and records
   wall-clock timing either way.

``execute(only=...)`` restricts the run to the requested artifacts (or
stages) plus their transitive dependencies — the substrate for ``--stage``
CLI flags.  Selection works per artifact: asking for one output of a
multi-output stage runs that stage for that output alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro import obs
from repro.core.stages.cache import StageCache
from repro.core.stages.fingerprint import stable_hash
from repro.core.stages.stage import Stage, StageTiming
from repro.obs.metrics import layer_rows

__all__ = ["StageGraph", "StageGraphError", "GraphRun"]


class StageGraphError(ValueError):
    """The stage set does not form a valid executable DAG."""


@dataclass
class GraphRun:
    """Everything one graph execution produced."""

    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: Cache key per artifact.
    keys: Dict[str, str] = field(default_factory=dict)
    timings: List[StageTiming] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.timings if t.cached)

    @property
    def stages_run(self) -> int:
        return sum(1 for t in self.timings if not t.cached)


class StageGraph:
    """An executable DAG of :class:`Stage` objects."""

    def __init__(self, stages: Sequence[Stage], cache: Optional[StageCache] = None) -> None:
        self.cache = cache
        self.stages: Dict[str, Stage] = {}
        #: artifact name -> the stage producing it.
        self.producers: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise StageGraphError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
            for output in stage.produces:
                if output in self.producers:
                    raise StageGraphError(f"duplicate artifact name {output!r}")
                self.producers[output] = stage
        for stage in stages:
            for dep in stage.inputs:
                if dep not in self.producers:
                    raise StageGraphError(
                        f"stage {stage.name!r} consumes unknown artifact {dep!r}"
                    )
        self.order = self._topological_order()

    def _topological_order(self) -> List[Stage]:
        """Kahn's algorithm, deterministic: ready stages run in insertion order."""
        pending = {
            name: {self.producers[dep].name for dep in stage.inputs}
            for name, stage in self.stages.items()
        }
        order: List[Stage] = []
        while pending:
            ready = [name for name, deps in pending.items() if not deps]
            if not ready:
                cycle = ", ".join(sorted(pending))
                raise StageGraphError(f"stage graph has a cycle among: {cycle}")
            for name in ready:
                order.append(self.stages[name])
                del pending[name]
            for deps in pending.values():
                deps.difference_update(ready)
        return order

    def required(self, wanted: Sequence[str]) -> Set[str]:
        """The artifacts of ``wanted`` (artifact or stage names) plus every
        transitive dependency."""
        needed: Set[str] = set()
        frontier: List[str] = []
        for name in wanted:
            if name in self.producers:
                frontier.append(name)
            elif name in self.stages:
                frontier.extend(self.stages[name].produces)
            else:
                raise StageGraphError(
                    f"unknown stage {name!r}; known: {sorted(self.producers)}"
                )
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            needed.add(name)
            frontier.extend(self.producers[name].inputs)
        return needed

    def execute(self, ctx: Any, only: Optional[Sequence[str]] = None) -> GraphRun:
        """Run the graph (or the closure of ``only``) over a context."""
        selected = self.required(only) if only is not None else set(self.producers)
        run = GraphRun()
        for stage in self.order:
            wanted = [output for output in stage.produces if output in selected]
            if not wanted:
                continue
            started = time.perf_counter()
            metrics_before = obs.METRICS.snapshot()
            keys = {output: stage.cache_key(ctx, run.keys, output) for output in wanted}
            run.keys.update(keys)
            key = stable_hash(keys) if stage.outputs else keys[stage.name]
            values: Dict[str, Any] = {}
            with obs.span(f"stage.{stage.name}", key=key) as stage_span:
                if self.cache is not None:
                    for output, output_key in keys.items():
                        hit, value = self.cache.get(output, output_key, stage.artifact)
                        if hit:
                            values[output] = value
                missing = {output: k for output, k in keys.items() if output not in values}
                if missing:
                    inputs = {name: run.artifacts[name] for name in stage.inputs}
                    produced = stage.run_outputs(ctx, inputs, missing)
                    for output, output_key in missing.items():
                        values[output] = produced[output]
                        if self.cache is not None:
                            self.cache.put(output, output_key, produced[output], stage.artifact)
                cached = not missing
                stage_span.set_attr("cached", cached)
            for output in wanted:
                run.artifacts[output] = values[output]
            seconds = time.perf_counter() - started
            # The gauge carries the same float as StageTiming.seconds, so
            # `repro.obs summary` and StudyResult agree exactly per stage.
            obs.gauge(f"stage.seconds[{stage.name}]", seconds)
            if cached:
                obs.inc(f"stage.cached[{stage.name}]")
                obs.inc("stage.cache.hits")
            elif self.cache is not None:
                obs.inc("stage.cache.misses")
            # Cache and timer layer activity attributable to this stage
            # (sharded crawls merge worker deltas before this point, so
            # parallel stages are covered too).
            layers = layer_rows(
                obs.diff_metric_snapshots(metrics_before, obs.METRICS.snapshot())
            )
            details: Dict[str, Any] = {"perf": layers} if layers else {}
            if stage.outputs:
                details["ran"] = sorted(missing)
            run.timings.append(
                StageTiming(
                    name=stage.name,
                    seconds=seconds,
                    cached=cached,
                    key=key,
                    details=details,
                )
            )
        return run
