"""The typed stage protocol: declared inputs/outputs and cache identity.

A :class:`Stage` is one re-runnable unit of the study pipeline (the crawl,
the detection pass, clustering, attribution, ...).  Each stage declares:

* ``name`` — its identity, and the name of its artifact when it has one;
* ``outputs`` — the artifacts a multi-output stage produces (the crawl
  produces one dataset per browser profile); empty for the usual one;
* ``inputs`` — the artifact names it consumes;
* ``version`` — bumped when the stage's *code* changes semantics, so stale
  cached artifacts are invalidated without clearing the cache;
* ``config_fingerprint(ctx)`` — the stage-relevant slice of the run
  configuration (targets, profiles, blocklists, network content, ...);
  ``output_fingerprint(ctx, output)`` narrows it to one output.

Each output's cache key is a SHA-256 over ``(output name, version, output
config, input keys)``.  Because each input's *key* — not its value — feeds
the hash, keys chain: invalidating a crawl automatically invalidates every
stage downstream of it, while an analysis-parameter change re-runs only the
analysis stages and reuses the cached crawl.  This is the
FP-Inspector-style "re-runnable, independently cached stages"
architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.stages.fingerprint import stable_hash

__all__ = ["Stage", "StageTiming", "PIPELINE_VERSION"]

#: Global schema version: bump to invalidate every cached artifact at once
#: (e.g. when the observation schema or artifact serialization changes).
PIPELINE_VERSION = "1"


class Stage:
    """One node of the study pipeline's stage graph."""

    #: Stage name (unique within a graph); also the name of the artifact a
    #: single-output stage produces.
    name: str = "stage"
    #: Artifacts a multi-output stage produces, each cached under its own
    #: key; empty for a stage whose one artifact is named like the stage.
    outputs: Tuple[str, ...] = ()
    #: Artifact names this stage consumes (edges of the graph).
    inputs: Tuple[str, ...] = ()
    #: Stage code version; bump on semantic changes to ``run``.
    version: str = "1"
    #: How the artifact persists in the cache: "dataset" artifacts are
    #: streamed as JSONL via :mod:`repro.crawler.storage` (and stay readable
    #: by ``python -m repro.analysis``); everything else is pickled.
    artifact: str = "pickle"

    @property
    def produces(self) -> Tuple[str, ...]:
        """Every artifact this stage produces."""
        return self.outputs or (self.name,)

    def config_fingerprint(self, ctx: Any) -> Any:
        """The configuration this stage's output depends on (JSON-able)."""
        return None

    def output_fingerprint(self, ctx: Any, output: str) -> Any:
        """The configuration one output depends on (JSON-able)."""
        return self.config_fingerprint(ctx)

    def run(self, ctx: Any, inputs: Dict[str, Any]) -> Any:
        """Produce the stage artifact from resolved input artifacts."""
        raise NotImplementedError

    def run_outputs(self, ctx: Any, inputs: Dict[str, Any], keys: Dict[str, str]) -> Dict[str, Any]:
        """Produce the outputs named in ``keys`` (output -> cache key).

        The graph passes only the outputs the cache missed.  A
        single-output stage runs :meth:`run`.
        """
        return {self.name: self.run(ctx, inputs)}

    def cache_key(self, ctx: Any, input_keys: Dict[str, str], output: Optional[str] = None) -> str:
        """Deterministic content-addressed key of one output (default: the
        stage's artifact) over its config + chained inputs."""
        output = output or self.name
        return stable_hash(
            {
                "pipeline": PIPELINE_VERSION,
                "stage": output,
                "version": self.version,
                "config": self.output_fingerprint(ctx, output),
                "inputs": {name: input_keys[name] for name in self.inputs},
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} inputs={list(self.inputs)}>"


@dataclass(frozen=True)
class StageTiming:
    """How one stage executed: wall time, cache outcome, cache key.

    ``cached`` holds when every output the run needed came from the cache;
    ``key`` is the artifact's key for a single-output stage, and a hash of
    the needed outputs' keys otherwise.
    """

    name: str
    seconds: float
    cached: bool
    key: Optional[str] = None
    #: Free-form counters the stage reported (e.g. observation counts).
    details: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        return "cache-hit" if self.cached else "ran"
