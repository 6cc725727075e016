"""Typed, content-addressed study pipeline stages.

The study pipeline is a DAG of :class:`~repro.core.stages.stage.Stage`
objects executed by :class:`~repro.core.stages.graph.StageGraph`.  Each
stage declares its inputs, fingerprints its configuration, and persists its
artifact in a :class:`~repro.core.stages.cache.StageCache`; a stage whose
content-addressed key already resolves is skipped entirely.  See
``docs/pipeline-architecture.md`` for the full design.
"""

from repro.core.stages.cache import StageCache
from repro.core.stages.fingerprint import (
    fingerprint_dns,
    fingerprint_network,
    fingerprint_policy,
    fingerprint_profile,
    fingerprint_targets,
    fingerprint_text,
    fingerprint_vendor_knowledge,
    stable_hash,
)
from repro.core.stages.graph import GraphRun, StageGraph, StageGraphError
from repro.core.stages.stage import PIPELINE_VERSION, Stage, StageTiming
from repro.core.stages.study import STAGE_DOCS, StudyConfig, build_study_graph

__all__ = [
    "PIPELINE_VERSION",
    "STAGE_DOCS",
    "GraphRun",
    "Stage",
    "StageCache",
    "StageGraph",
    "StageGraphError",
    "StageTiming",
    "StudyConfig",
    "build_study_graph",
    "fingerprint_dns",
    "fingerprint_network",
    "fingerprint_policy",
    "fingerprint_profile",
    "fingerprint_targets",
    "fingerprint_text",
    "fingerprint_vendor_knowledge",
    "stable_hash",
]
