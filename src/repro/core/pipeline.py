"""End-to-end study orchestration.

``run_study`` reproduces the paper's whole methodology over a synthetic (or
any) :class:`~repro.net.server.Network`:

1. control crawl of the top + tail populations (§3.1),
2. fingerprintability detection (§3.2),
3. canvas clustering and reach (§4.2),
4. vendor ground-truth harvesting (demo pages, known customers, script
   patterns — A.3) and attribution (§4.3),
5. blocklist context (§5.1) and serving-context evasions (§5.2),
6. optional ad-blocker crawls (Table 2) and §5.3 randomization stats,
7. optional cross-machine validation crawl (§3.1).

Each (site, profile) page load happens once per study, and each loaded
page is detected once: the cross-machine check takes the control device's
rows from the control crawl, and the vendor harvest reads known customers
from its detection outcomes.

Since the stage-graph refactor this module is a thin assembly layer: the
steps above are typed stages in :mod:`repro.core.stages.study`, executed by
:class:`~repro.core.stages.graph.StageGraph`.  ``run_study`` takes what the
study measures as one frozen :class:`~repro.core.stages.study.StudyConfig`
and how it runs as its other arguments (parallel crawling via
``execution``, content-addressed caching via ``cache_dir``), executes the
graph and assembles the artifacts into a :class:`StudyResult`.  The result
is identical whatever the worker count or cache temperature
(``tests/test_invariance_matrix.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro import obs as obs_layer
from repro import perf
from repro.browser.profile import BrowserProfile
from repro.canvas.device import APPLE_M1, DeviceProfile, INTEL_UBUNTU
from repro.core.attribution import (
    IMPERVA_URL_REGEX,
    AttributionMethod,
    SiteAttribution,
    VendorSignature,
)
from repro.core.clustering import CanvasCluster, cluster_canvases
from repro.core.context import BlocklistContext
from repro.core.detection import DetectionOutcome, FingerprintDetector
from repro.core.evasion import AdblockImpact, ServingContext, render_twice_fraction
from repro.core.prevalence import PrevalenceReport
from repro.core.reach import ReachReport
from repro.core.reducers import StaticReport
from repro.core.stages.stage import StageTiming
from repro.core.stages.study import StudyConfig, build_study_graph
from repro.crawler.crawl import CrawlDataset, CrawlTarget
from repro.crawler.resilience import PageBudget, RetryPolicy
from repro.crawler.shards import ExecutionConfig, plan_shards, run_sharded_crawl
from repro.net.server import Network
from repro.net.url import URL
from repro.obs.metrics import layer_rows
from repro.obs.recorder import RunRecorder, resolve_run_dir

__all__ = [
    "VendorKnowledge",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "harvest_targets",
    "harvest_vendor_signatures",
]


@dataclass(frozen=True)
class VendorKnowledge:
    """Public knowledge about one vendor, as the authors gathered it (A.3)."""

    name: str
    security: bool = False
    demo_url: Optional[str] = None
    known_customers: Tuple[str, ...] = ()
    script_pattern: Optional[str] = None
    uses_url_regex: bool = False  # Imperva's special case

    @property
    def methods(self) -> Tuple[AttributionMethod, ...]:
        methods: List[AttributionMethod] = []
        if self.demo_url:
            methods.append(AttributionMethod.DEMO)
        if self.known_customers:
            methods.append(AttributionMethod.KNOWN_CUSTOMER)
        if self.script_pattern or self.uses_url_regex:
            methods.append(AttributionMethod.SCRIPT_PATTERN)
        return tuple(methods)


def harvest_targets(
    knowledge: Sequence[VendorKnowledge], control: CrawlDataset
) -> List[CrawlTarget]:
    """The pages the harvest loads: every vendor demo page, plus each known
    customer of a pattern vendor that the control crawl did not visit."""
    crawled = control.by_domain()
    domains: Dict[str, None] = {}
    for vendor in knowledge:
        if vendor.demo_url is not None:
            domains[URL.parse(vendor.demo_url).host] = None
        if vendor.script_pattern:
            for customer in vendor.known_customers:
                if customer not in crawled:
                    domains[customer] = None
    return [CrawlTarget(domain, 0, "top") for domain in domains]


def harvest_vendor_signatures(
    knowledge: Sequence[VendorKnowledge],
    outcomes: Mapping[str, DetectionOutcome],
    pages: CrawlDataset,
) -> List[VendorSignature]:
    """Build vendor signatures exactly as Appendix A.3 describes.

    Precedence: demo page crawl > known-customer crawl (confirmed by script
    pattern) > script pattern over the main crawl's scripts.

    ``outcomes`` is the control crawl's detection (domain -> outcome, for
    its successful pages) and ``pages`` the crawl of
    :func:`harvest_targets`: a known customer the control crawl visited is
    read from ``outcomes``, a demo page or any other customer from ``pages``.
    """
    detector = FingerprintDetector()
    # A loaded page stands in for the control crawl's view of its domain;
    # a failed load leaves no outcome.
    found: Dict[str, Optional[DetectionOutcome]] = dict(outcomes)
    for page in pages.observations:
        found[page.domain] = detector.detect(page) if page.success else None

    def pattern_hashes(outcome: Optional[DetectionOutcome], pattern: str) -> Set[str]:
        # Always confirmed with the script pattern (A.3): a site may run
        # several fingerprinters.
        if outcome is None:
            return set()
        return {
            extraction.canvas_hash
            for extraction in outcome.fingerprintable
            if extraction.script_url and pattern in extraction.script_url
        }

    signatures: List[VendorSignature] = []
    for vendor in knowledge:
        hashes: Set[str] = set()

        if vendor.demo_url is not None:
            outcome = found.get(URL.parse(vendor.demo_url).host)
            if outcome is not None:
                hashes |= {e.canvas_hash for e in outcome.fingerprintable}

        if not hashes and vendor.known_customers and vendor.script_pattern:
            for customer in vendor.known_customers:
                hashes |= pattern_hashes(found.get(customer), vendor.script_pattern)

        if not hashes and vendor.script_pattern and not vendor.uses_url_regex:
            # Pattern-only vendors: associate canvases via the main crawl.
            for outcome in outcomes.values():
                hashes |= pattern_hashes(outcome, vendor.script_pattern)

        signatures.append(
            VendorSignature(
                name=vendor.name,
                security=vendor.security,
                canvas_hashes=hashes,
                script_pattern=vendor.script_pattern,
                url_regex=IMPERVA_URL_REGEX if vendor.uses_url_regex else None,
                methods=vendor.methods,
            )
        )
    return signatures


@dataclass
class StudyResult:
    """Everything the study produces — inputs to every table and figure."""

    control: CrawlDataset
    outcomes: Dict[str, DetectionOutcome]
    populations: Dict[str, str]
    clusters: Dict[str, CanvasCluster]
    prevalence: PrevalenceReport
    reach: ReachReport
    signatures: List[VendorSignature]
    attributions: Dict[str, SiteAttribution]
    vendor_counts: Dict[str, Dict[str, int]]
    vendor_totals: Dict[str, int]
    blocklist_context: Optional[BlocklistContext] = None
    serving_context: Optional[ServingContext] = None
    adblock_rows: Tuple[AdblockImpact, ...] = ()
    render_twice: float = 0.0
    cross_machine_consistent: Optional[bool] = None
    #: Static script verdicts + static/dynamic cross-validation (the
    #: ``static`` stage): per-script classifications, the agreement matrix
    #: against the dynamic detector, and execution-free recoveries on
    #: quarantined sites.
    static_verdicts: Optional[StaticReport] = None
    #: How each pipeline stage executed (wall time, cache hit or ran).
    #: Excluded from equality: a cached run must compare equal to an
    #: uncached one when the science is the same.
    stage_timings: Tuple[StageTiming, ...] = field(default=(), compare=False, repr=False)
    #: Cache and timer layers of this study, read back from ``metrics``
    #: (:func:`repro.obs.metrics.layer_rows`; per layer: hits, misses,
    #: evictions, miss_seconds, hit_rate, saved_seconds).
    #: Excluded from equality for the same reason as ``stage_timings``: the
    #: caches are exactly transparent, so hit counts are not science.
    perf_counters: Dict[str, Dict[str, float]] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: Unified observability metrics delta for this study (the same
    #: counters/gauges/histograms the run's ``trace.jsonl`` summary line
    #: carries — ``repro.obs summary`` totals come from these).  Excluded
    #: from equality: operational telemetry, not science.
    metrics: Dict[str, Any] = field(default_factory=dict, compare=False, repr=False)
    #: Sampling-profiler rollup (``REPRO_OBS_PROFILE=1``): self-time by
    #: site / vendor script / subsystem / stage, merged across every shard
    #: worker.  Empty when the profiler is off.  Excluded from equality —
    #: the profiler is exactly transparent, so samples are not science.
    profile: Dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    @property
    def fp_sites(self) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {"top": set(), "tail": set()}
        for domain, outcome in self.outcomes.items():
            if outcome.is_fingerprinting_site:
                out[self.populations.get(domain, "top")].add(domain)
        return out

    @property
    def quarantined(self) -> Dict[str, str]:
        """domain -> ``quarantined:<signal>`` for supervisor-quarantined sites.

        Non-empty only for supervised runs that hit poison sites; quarantined
        rows live inside ``control`` as failed observations, so every
        prevalence/reach denominator already accounts for them.
        """
        return self.control.quarantined_sites()


def run_study(
    config: StudyConfig,
    execution: ExecutionConfig = ExecutionConfig(),
    cache_dir: Optional[Union[str, Path]] = None,
    stages: Optional[Sequence[str]] = None,
    obs_dir: Optional[Union[str, Path]] = None,
) -> StudyResult:
    """Run the study ``config`` describes; the other arguments say how.

    ``config`` is everything the result depends on, and the only input of
    every stage key.  Its ``retry_policy`` / ``page_budget`` thread the
    resilience layer through every crawl the study performs (control,
    ad-blocker, cross-machine), so the whole methodology holds up under
    transient faults — e.g. a :class:`~repro.net.faults.FaultyNetwork` as
    its ``network``.

    ``execution`` (an :class:`~repro.crawler.shards.ExecutionConfig`) says
    how every crawl the study performs executes.  ``jobs > 1`` shards every
    crawl over that many supervised worker processes
    (:mod:`repro.crawler.supervisor`): a worker that dies or stops making
    progress is re-dispatched from its checkpoint, and a site that keeps
    killing workers is quarantined, so the study completes in degraded mode
    with every skipped site accounted as a ``quarantined:*`` failure row
    (see ``StudyResult.quarantined``).  ``supervisor`` tunes that
    supervisor, or with ``jobs=1`` isolates the crawl in one supervised
    worker.

    ``cache_dir`` enables the content-addressed stage cache (warm re-runs
    load every artifact and perform zero page loads).  ``stages``
    optionally restricts execution to the named stages plus their
    dependencies (see :data:`repro.core.stages.study.STAGE_DOCS`); the
    result then only carries the artifacts that were produced.

    ``obs_dir`` names the directory that receives this run's observability
    artifacts (``manifest.json`` + ``trace.jsonl``, inspectable with
    ``python -m repro.obs``).  Falls back to ``REPRO_OBS_DIR``, then — when
    tracing is on (``REPRO_OBS_TRACE=1``) and a ``cache_dir`` is given — to
    ``<cache_dir>/obs``.  ``StudyResult.metrics`` always carries the same
    metrics delta the trace summary line records, artifacts or not.

    ``execution``, ``cache_dir`` and ``obs_dir`` never change the result
    (``tests/test_invariance_matrix.py``), except that a supervised run
    records the sites it quarantined as failure rows.
    """
    # Sampling profiler (REPRO_OBS_PROFILE=1): start it for the study
    # process and discard any samples taken before this run, so the run's
    # rollup covers exactly this study.  Shard workers start their own
    # sampler from the same ObsConfig carried in their tasks.
    if obs_layer.profiler.maybe_start(obs_layer.config()):
        obs_layer.profiler.drain()
    metrics_before = obs_layer.METRICS.snapshot()
    graph = build_study_graph(config, execution, cache_dir)

    run_dir = resolve_run_dir(
        obs_dir, Path(cache_dir) / "obs" if cache_dir is not None else None
    )
    recorder: Optional[RunRecorder] = None
    if run_dir is not None:
        planned = plan_shards(config.targets, max(1, execution.jobs))
        recorder = RunRecorder(
            run_dir,
            label="study",
            shard_plan={
                "shards": len(planned),
                "jobs": execution.jobs,
                "sizes": [len(shard) for shard in planned],
            },
        ).start()

    with obs_layer.span("study.run", targets=len(config.targets), jobs=execution.jobs):
        run = graph.execute(config, only=stages)
    result = _assemble_result(run)
    obs_layer.gauge("process.peak_rss_mb", perf.peak_rss_mb())
    # StudyResult.metrics is the same delta the trace summary line carries;
    # the cache and timer layers (collector time as perf.miss_seconds[gc])
    # are read back from it.
    result.metrics = obs_layer.diff_metric_snapshots(
        metrics_before, obs_layer.METRICS.snapshot()
    )
    result.perf_counters = layer_rows(result.metrics)
    # Drain this run's samples (the parent's own, plus every worker delta
    # ingested with the shard payloads) whether or not artifacts are being
    # written — a later run must never inherit them.
    profile_snapshot = obs_layer.profiler.drain()
    if profile_snapshot:
        result.profile = obs_layer.profiler.rollup(profile_snapshot)
    if recorder is not None:
        digest = hashlib.sha256(
            json.dumps(run.keys, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        recorder.finish(
            metrics=result.metrics,
            manifest_update={"config_digest": digest, "stage_keys": run.keys},
            health=asdict(result.control.health()),
            stage_timings=tuple(run.timings),
            profile=profile_snapshot,
        )
    return result


def _assemble_result(run) -> StudyResult:
    """Fold graph artifacts into a :class:`StudyResult` (cheap, pure)."""
    artifacts = run.artifacts
    control = artifacts.get("crawl.control", CrawlDataset(label="control"))
    outcomes = artifacts.get("detect", {})
    attribution = artifacts.get(
        "attribution", {"attributions": {}, "vendor_counts": {}, "vendor_totals": {}}
    )
    result = StudyResult(
        control=control,
        outcomes=outcomes,
        populations=control.populations(),
        clusters=artifacts.get("cluster", {}),
        prevalence=artifacts.get("prevalence"),
        reach=artifacts.get("reach"),
        signatures=artifacts.get("signatures", []),
        attributions=attribution["attributions"],
        vendor_counts=attribution["vendor_counts"],
        vendor_totals=attribution["vendor_totals"],
        render_twice=render_twice_fraction(outcomes),
        stage_timings=tuple(run.timings),
    )
    result.blocklist_context = artifacts.get("blocklist_context")
    result.serving_context = artifacts.get("serving_context")
    result.adblock_rows = tuple(artifacts.get("adblock_rows", ()))
    result.cross_machine_consistent = artifacts.get("cross_machine")
    result.static_verdicts = artifacts.get("static")
    return result


def validate_cross_machine(
    network: Network,
    targets: Sequence[CrawlTarget],
    detector: Optional[FingerprintDetector] = None,
    devices: Sequence[DeviceProfile] = (INTEL_UBUNTU, APPLE_M1),
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    execution: ExecutionConfig = ExecutionConfig(),
) -> bool:
    """§3.1's validation, generalized to any device fleet.

    Recrawl the targets on every device profile — one site-major crawl,
    each site loaded on every device back to back — and check with
    :func:`groupings_agree` that the canvas-equality site groupings agree
    across all of them, even though each device renders the canvases to
    different bytes.
    """
    if len(devices) < 2:
        raise ValueError("cross-machine validation needs at least two devices")
    datasets = run_sharded_crawl(
        network,
        targets,
        retry_policy=retry_policy,
        page_budget=page_budget,
        execution=execution,
        profiles=tuple((device.name, BrowserProfile(device=device)) for device in devices),
    )
    return groupings_agree([datasets[device.name] for device in devices], detector)


def groupings_agree(
    datasets: Sequence[CrawlDataset],
    detector: Optional[FingerprintDetector] = None,
    outcomes: Optional[Sequence[Optional[Mapping[str, DetectionOutcome]]]] = None,
) -> bool:
    """Whether every dataset groups its sites by canvas equality alike.

    The comparison half of :func:`validate_cross_machine`, over crawls of
    the same targets on two or more devices, however they were obtained.
    ``outcomes``, one entry per dataset, holds the detection outcomes of a
    dataset's successful sites where they are already known (the study's
    ``detect`` stage has the control device's); a ``None`` entry, or no
    ``outcomes`` at all, detects that dataset here.
    """
    detector = detector or FingerprintDetector()
    known = list(outcomes) if outcomes is not None else [None] * len(datasets)

    def grouping(
        dataset: CrawlDataset, outcomes: Optional[Mapping[str, DetectionOutcome]]
    ) -> Tuple[Tuple[str, ...], ...]:
        if outcomes is None:
            outcomes = detector.detect_all(dataset.successful())
        clusters = cluster_canvases(outcomes, dataset.populations())
        groups = [tuple(sorted(c.all_sites())) for c in clusters.values() if c.all_sites()]
        return tuple(sorted(groups))

    reference = grouping(datasets[0], known[0])
    return all(
        grouping(dataset, outcome) == reference
        for dataset, outcome in zip(datasets[1:], known[1:])
    )
