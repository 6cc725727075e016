"""The paper's methodology decomposed into typed, cacheable stages.

Each monolith step of the old ``run_study`` becomes one :class:`Stage`;
the crawl is one stage with one output per browser profile:

=================  ==========================================  ==========
artifact           produces                                    paper
=================  ==========================================  ==========
crawl.control      control :class:`CrawlDataset` (``crawl``)   §3.1
detect             ``{domain: DetectionOutcome}``              §3.2
cluster            ``{hash: CanvasCluster}``                   §4.2
prevalence         :class:`PrevalenceReport`                   §4.1
reach              :class:`ReachReport`                        §4.2
signatures         vendor :class:`VendorSignature` list        A.3
attribution        attributions + vendor count tables          §4.3
blocklist_context  :class:`BlocklistContext` (conditional)     §5.1
serving_context    :class:`ServingContext`                     §5.2
crawl.abp          Adblock Plus dataset (``crawl``)            Table 2
crawl.ubo          uBlock Origin dataset (``crawl``)           Table 2
adblock_rows       ``(AdblockImpact, ...)``                    Table 2
cross_machine      bool consistency verdict (conditional)      §3.1
=================  ==========================================  ==========

The study's configuration has two parts.  :class:`StudyConfig` says what
the study measures, and every stage key is computed from it alone.  How the
study runs (the :class:`~repro.crawler.shards.ExecutionConfig`, the stage
cache, stage selection, the observability directory) never reaches a key:
:func:`build_study_graph` hands the execution config, and the checkpoint
directory derived from the cache directory, to the three stages that crawl
(``crawl``, ``signatures``, ``cross_machine``), because how a crawl executes
cannot change the artifact.

The ``detect`` stage is the study's one detection pass: it classifies each
successful control page once, in the parent, whatever executed the crawl,
and every later analysis reads its outcomes (see
``docs/analysis-architecture.md``).  Its only cache is the stage graph's
whole-artifact cache, and the analysis stages' keys chain off its key, so a
warm cache re-runs nothing.  Blocklist/serving context deliberately stay
*outside* detection's cache identity: changing a blocklist or the DNS zone
re-runs only those stages, never detection or clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set, Union

from repro import obs as obs_layer
from repro.blocklists.matcher import RuleMatcher
from repro.browser.extensions import AdBlockerExtension
from repro.browser.profile import BrowserProfile
from repro.canvas.device import APPLE_M1, INTEL_UBUNTU
from repro.core.attribution import VendorAttributor
from repro.core.clustering import cluster_canvases
from repro.core.context import analyze_blocklist_context
from repro.core.detection import FingerprintDetector
from repro.core.evasion import analyze_serving_context, compare_adblock_crawls
from repro.core.prevalence import compute_prevalence
from repro.core.reach import compute_reach
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
from repro.core.stages.graph import StageGraph
from repro.core.stages.stage import Stage
from repro.crawler.crawl import CrawlDataset, CrawlTarget
from repro.crawler.resilience import PageBudget, RetryPolicy
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl

__all__ = [
    "StudyConfig",
    "build_study_graph",
    "STAGE_DOCS",
    "CROSS_MACHINE_SAMPLE",
    "DETECTOR",
]

#: One-line description per stage name (the names ``run_study(stages=...)`` takes).
STAGE_DOCS = {
    "crawl.control": "control crawl of the top+tail target list (§3.1)",
    "detect": "fingerprintability detection over successful pages (§3.2)",
    "cluster": "canvas-equality clustering (§4.2)",
    "prevalence": "prevalence per population (§4.1)",
    "reach": "cluster reach / aggregation providers (§4.2)",
    "signatures": "vendor ground-truth harvesting (A.3)",
    "attribution": "vendor attribution + per-population counts (§4.3)",
    "blocklist_context": "blocklist coverage of fingerprinting scripts (§5.1)",
    "serving_context": "first/third-party serving context + evasions (§5.2)",
    "crawl.abp": "recrawl under Adblock Plus (Table 2)",
    "crawl.ubo": "recrawl under uBlock Origin (Table 2)",
    "adblock_rows": "ad-blocker impact comparison (Table 2)",
    "cross_machine": "cross-device consistency validation (§3.1)",
    "static": "static script verdicts + static/dynamic cross-validation",
}


#: How many targets, from the top of the list, the cross-machine check
#: recrawls on the second machine (§3.1).
CROSS_MACHINE_SAMPLE = 200

#: The study's one detector: ``detect``, ``adblock_rows`` and
#: ``cross_machine`` classify with it, and their keys name its ``min_size``.
DETECTOR = FingerprintDetector()


@dataclass(frozen=True)
class StudyConfig:
    """What the study measures: the part of its configuration every stage
    key is computed from.

    How the study runs is not here: the execution config, stage cache,
    stage selection and observability directory are ``run_study``'s other
    arguments, so no execution value can reach a stage key.  Build a
    world's study with :meth:`repro.webgen.ecosystem.World.study_config` and
    vary it with :func:`dataclasses.replace`.
    """

    network: Any
    targets: Sequence[CrawlTarget]
    vendor_knowledge: Sequence[Any]
    easylist_text: str = ""
    easyprivacy_text: str = ""
    disconnect: Any = None
    ubo_extra_text: str = ""
    dns: Any = None
    include_adblock_crawls: bool = True
    include_cross_machine: bool = False
    retry_policy: Optional[RetryPolicy] = None
    page_budget: Optional[PageBudget] = None

    #: Memos of values derived from the fields above (network and target
    #: fingerprints, parsed matchers), so never compared.
    _memo: Dict[str, Any] = field(default_factory=dict, init=False, repr=False, compare=False)

    def network_fingerprint(self) -> str:
        """Content hash of the synthetic network, computed once per config."""
        if "network" not in self._memo:
            self._memo["network"] = fingerprint_network(self.network)
        return self._memo["network"]

    def targets_fingerprint(self) -> str:
        """Hash of the target list, computed once per config (every crawl
        output's key carries it)."""
        if "targets" not in self._memo:
            self._memo["targets"] = fingerprint_targets(self.targets)
        return self._memo["targets"]

    def matcher(self, name: str) -> RuleMatcher:
        """The ``easylist``, ``easyprivacy`` or ``ubo-extra`` list, parsed once
        per config (a matcher keeps no state between calls, so every profile
        and stage of every run shares it)."""
        key = f"matcher:{name}"
        if key not in self._memo:
            text = getattr(self, name.replace("-", "_") + "_text")
            self._memo[key] = RuleMatcher.from_text(text, name)
        return self._memo[key]

    # -- browser profiles, built exactly as the monolithic pipeline did -------

    def control_profile(self) -> BrowserProfile:
        return BrowserProfile(device=INTEL_UBUNTU)

    def abp_profile(self) -> BrowserProfile:
        abp = AdBlockerExtension("Adblock Plus", [self.matcher("easylist")])
        return BrowserProfile(device=INTEL_UBUNTU, extensions=(abp,))

    def ubo_profile(self) -> BrowserProfile:
        extra = [self.matcher("ubo-extra")] if self.ubo_extra_text else []
        ubo = AdBlockerExtension("UBlock Origin", [self.matcher("easylist")], extra_matchers=extra)
        return BrowserProfile(device=INTEL_UBUNTU, extensions=(ubo,))

    # -- which optional stages apply (the monolith's conditionals verbatim) ---

    @property
    def wants_blocklist_context(self) -> bool:
        return bool(
            self.easylist_text and self.easyprivacy_text and self.disconnect is not None
        )

    @property
    def wants_adblock_crawls(self) -> bool:
        return bool(self.include_adblock_crawls and self.easylist_text)


class CrawlStage(Stage):
    """One site-major crawl of the target list under the study's profiles.

    Each output is one profile's :class:`CrawlDataset` — ``crawl.control``,
    then ``crawl.abp`` and ``crawl.ubo`` when the study recrawls under the
    ad blockers — cached under its own key, which names the output and
    fingerprints that profile alone, so one profile's entry serves any
    later run whatever set of profiles it crawls.  The stage crawls only
    the outputs the cache missed, loading each site under each of their
    profiles back to back (control first), so the recrawls find the site's
    scripts compiled and its canvases rendered at any scale and any worker
    count.  The crawl is sharded, optionally parallel and checkpointed.
    """

    name = "crawl"
    artifact = "dataset"

    def __init__(
        self,
        outputs: Sequence[str],
        execution: ExecutionConfig = ExecutionConfig(),
        checkpoint_dir: Optional[Path] = None,
    ) -> None:
        self.outputs = tuple(outputs)
        self.execution = execution
        self.checkpoint_dir = checkpoint_dir

    @staticmethod
    def _label(output: str) -> str:
        return output.split(".", 1)[1]

    def _profile(self, config: StudyConfig, output: str) -> BrowserProfile:
        return getattr(config, f"{self._label(output)}_profile")()

    def output_fingerprint(self, config: StudyConfig, output: str) -> Any:
        return {
            "network": config.network_fingerprint(),
            "targets": config.targets_fingerprint(),
            "profile": fingerprint_profile(self._profile(config, output)),
            "label": self._label(output),
            "retry": fingerprint_policy(config.retry_policy),
            "budget": fingerprint_policy(config.page_budget),
        }

    def run_outputs(
        self, config: StudyConfig, inputs: Dict[str, Any], keys: Dict[str, str]
    ) -> Dict[str, Any]:
        checkpoint_dir = None
        if self.checkpoint_dir is not None:
            # Namespace shard checkpoints by the keys being crawled, so two
            # crawls that share a label but differ in targets, profiles,
            # network or profile set never resume from each other's partials.
            checkpoint_dir = self.checkpoint_dir / stable_hash(keys)[:16]
        outputs = [output for output in self.outputs if output in keys]
        datasets = run_sharded_crawl(
            config.network,
            config.targets,
            checkpoint_dir=checkpoint_dir,
            retry_policy=config.retry_policy,
            page_budget=config.page_budget,
            execution=self.execution,
            profiles=tuple(
                (self._label(output), self._profile(config, output)) for output in outputs
            ),
        )
        return {output: datasets[self._label(output)] for output in outputs}


class DetectStage(Stage):
    """§3.2 detection over every successfully crawled control page.

    The study's one detection pass: each page is classified once, in the
    parent, whether the crawl ran in-process, under the supervisor or came
    from the stage cache.  Deliberately keyed by the detector's
    ``min_size`` *only* (see module docstring).
    """

    name = "detect"
    inputs = ("crawl.control",)
    version = "2"

    def config_fingerprint(self, config: StudyConfig) -> Any:
        return {"min_size": DETECTOR.min_size}

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        return DETECTOR.detect_all(inputs["crawl.control"].successful())


class ClusterStage(Stage):
    """§4.2 canvas-equality clustering."""

    name = "cluster"
    inputs = ("crawl.control", "detect")
    version = "2"

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        return cluster_canvases(inputs["detect"], inputs["crawl.control"].populations())


class PrevalenceStage(Stage):
    """§4.1 prevalence per population."""

    name = "prevalence"
    inputs = ("crawl.control", "detect")
    version = "2"

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        return compute_prevalence(inputs["crawl.control"], inputs["detect"])


class ReachStage(Stage):
    """§4.2 reach of each cluster across populations."""

    name = "reach"
    inputs = ("crawl.control", "detect", "cluster")
    version = "2"

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        control = inputs["crawl.control"]
        populations = control.populations()
        fp_sites: Dict[str, Set[str]] = {"top": set(), "tail": set()}
        for domain, outcome in inputs["detect"].items():
            if outcome.is_fingerprinting_site:
                fp_sites.setdefault(populations[domain], set()).add(domain)
        successful_top = sum(1 for o in control.successful() if o.population == "top")
        return compute_reach(
            inputs["cluster"], fp_sites["top"], fp_sites["tail"], successful_top
        )


class SignaturesStage(Stage):
    """A.3 vendor ground-truth harvesting.

    Known customers are read from the control crawl's detection outcomes;
    only demo pages and customers outside the crawl are loaded, in one crawl
    under the control profile with the study's execution, retries and page
    budget — so a poison demo page is quarantined like any crawled site.
    """

    name = "signatures"
    inputs = ("crawl.control", "detect")

    def __init__(self, execution: ExecutionConfig = ExecutionConfig()) -> None:
        self.execution = execution

    def config_fingerprint(self, config: StudyConfig) -> Any:
        return {
            "network": config.network_fingerprint(),
            "vendors": fingerprint_vendor_knowledge(config.vendor_knowledge),
            "retry": fingerprint_policy(config.retry_policy),
            "budget": fingerprint_policy(config.page_budget),
        }

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        from repro.core.pipeline import harvest_targets, harvest_vendor_signatures

        pages = run_sharded_crawl(
            config.network,
            harvest_targets(config.vendor_knowledge, inputs["crawl.control"]),
            profile=config.control_profile(),
            label="harvest",
            retry_policy=config.retry_policy,
            page_budget=config.page_budget,
            execution=self.execution,
        )
        return harvest_vendor_signatures(config.vendor_knowledge, inputs["detect"], pages)


class AttributionStage(Stage):
    """§4.3 attribution plus the per-population vendor count tables."""

    name = "attribution"
    inputs = ("crawl.control", "detect", "signatures")

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        control = inputs["crawl.control"]
        outcomes = inputs["detect"]
        attributor = VendorAttributor(inputs["signatures"])
        attributions = attributor.attribute_all(control.by_domain(), outcomes)
        populations = control.populations()
        return {
            "attributions": attributions,
            "vendor_counts": attributor.vendor_site_counts(attributions, populations),
            "vendor_totals": attributor.attributed_site_totals(attributions, populations),
        }


class BlocklistContextStage(Stage):
    """§5.1 blocklist coverage (only when all three lists are supplied)."""

    name = "blocklist_context"
    inputs = ("crawl.control", "detect")

    def config_fingerprint(self, config: StudyConfig) -> Any:
        disconnect = config.disconnect
        return {
            "easylist": fingerprint_text(config.easylist_text),
            "easyprivacy": fingerprint_text(config.easyprivacy_text),
            "disconnect": stable_hash(disconnect.to_json()) if disconnect is not None else None,
        }

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        control = inputs["crawl.control"]
        return analyze_blocklist_context(
            inputs["detect"],
            control.populations(),
            config.matcher("easylist"),
            config.matcher("easyprivacy"),
            config.disconnect,
        )


class ServingContextStage(Stage):
    """§5.2 first/third-party serving context and evasive delivery."""

    name = "serving_context"
    inputs = ("crawl.control", "detect")

    def config_fingerprint(self, config: StudyConfig) -> Any:
        return {"dns": fingerprint_dns(config.dns) if config.dns is not None else None}

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        control = inputs["crawl.control"]
        return analyze_serving_context(
            inputs["detect"], control.populations(), dns=config.dns
        )


class AdblockCompareStage(Stage):
    """Table 2: canvas activity under each ad blocker vs the control crawl."""

    name = "adblock_rows"
    inputs = ("crawl.control", "detect", "crawl.abp", "crawl.ubo")

    def config_fingerprint(self, config: StudyConfig) -> Any:
        return {"min_size": DETECTOR.min_size}

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        return compare_adblock_crawls(
            inputs["detect"],
            inputs["crawl.control"].populations(),
            {
                "Adblock Plus": inputs["crawl.abp"],
                "UBlock Origin": inputs["crawl.ubo"],
            },
            DETECTOR,
        )


class StaticStage(Stage):
    """Static script verdicts + static/dynamic cross-validation.

    Looks up the static verdict of every script source the control crawl
    recorded and cross-tabulates the resulting classes against the dynamic
    §3.2 outcomes.  Every page load already analysed its scripts for
    triage, so the verdicts come from this process's ``js.static`` cache:
    a supervised crawl's workers ship theirs home in their results.  For sites the supervisor quarantined — where the
    dynamic pass saw *nothing* — it additionally performs execution-free
    fetch probes: fetch the document and its external scripts over the
    synthetic network, parse, and classify statically.  No JS executes, so
    a probe skips the process faults that stand for a page killing or
    wedging its browser (transient faults still apply), and probing a
    poison site cannot kill this stage the way it killed its crawl workers.
    """

    name = "static"
    inputs = ("crawl.control", "detect")
    version = "1"

    def config_fingerprint(self, config: StudyConfig) -> Any:
        from repro.js.static import ANALYZER_VERSION

        return {
            "analyzer": ANALYZER_VERSION,
            # Fetch probes read the network, so its content is part of the
            # artifact identity (the crawl dataset alone is not enough).
            "network": config.network_fingerprint(),
        }

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        from repro.core.reducers import StaticReducer

        control = inputs["crawl.control"]
        outcomes = inputs["detect"]
        reducer = StaticReducer()
        with obs_layer.span("static.analyze", sites=len(control.observations)):
            for observation in control.observations:
                reducer.ingest_site(observation, outcomes.get(observation.domain))
        for domain, reason in sorted(control.quarantined_sites().items()):
            classification = self._probe(config, domain)
            if classification is not None:
                reducer.add_recovery(domain, reason, classification)
        return reducer.finalize()

    @staticmethod
    def _probe(config: StudyConfig, domain: str) -> Optional[str]:
        """Fetch-only static class for one uncrawlable site (no JS runs)."""
        from repro.core.reducers import _STATIC_SEVERITY
        from repro.dom.html import parse_html
        from repro.js.static import verdict_for_source
        from repro.net.http import Request, ResourceType
        from repro.net.url import URL

        injector = getattr(config.network, "injector", None)
        if injector is not None:
            # A probe is a visit: it starts a fresh fault clock, as a settle does.
            injector.new_visit()
        fetch = getattr(config.network, "probe_fetch", config.network.fetch)
        try:
            url = URL("https", domain)
            response = fetch(
                Request(url=url, resource_type=ResourceType.DOCUMENT)
            )
            if not response.ok:
                return None
            best_rank, best = -1, None
            for ref in parse_html(response.body).scripts:
                if ref.is_inline:
                    source = ref.source
                else:
                    fetched = fetch(
                        Request(
                            url=url.join(ref.src),
                            resource_type=ResourceType.SCRIPT,
                            document_url=url,
                        )
                    )
                    if not fetched.ok:
                        continue
                    source = fetched.body
                verdict = verdict_for_source(source, str(url))
                rank = _STATIC_SEVERITY.get(verdict.classification, 0)
                if rank > best_rank:
                    best_rank, best = rank, verdict.classification
            return best
        except Exception:  # noqa: BLE001 — a probe must never fail the stage
            return None


class CrossMachineStage(Stage):
    """§3.1 cross-device consistency over the first
    :data:`CROSS_MACHINE_SAMPLE` targets, on Intel/Ubuntu and Apple M1.

    Intel/Ubuntu is the control profile's device, so it loads each page
    exactly as the control crawl did: its rows are the control crawl's rows
    for the sample's domains, and their detection outcomes are the
    ``detect`` stage's.  Only Apple M1 is crawled and detected.  The cache
    key chains from ``crawl.control`` and ``detect``.
    """

    name = "cross_machine"
    inputs = ("crawl.control", "detect")

    def __init__(self, execution: ExecutionConfig = ExecutionConfig()) -> None:
        self.execution = execution

    def config_fingerprint(self, config: StudyConfig) -> Any:
        return {
            "network": config.network_fingerprint(),
            "targets": fingerprint_targets(config.targets[:CROSS_MACHINE_SAMPLE]),
            "devices": [INTEL_UBUNTU, APPLE_M1],
            "min_size": DETECTOR.min_size,
            "retry": fingerprint_policy(config.retry_policy),
            "budget": fingerprint_policy(config.page_budget),
        }

    def run(self, config: StudyConfig, inputs: Dict[str, Any]) -> Any:
        from repro.core.pipeline import groupings_agree

        sample = config.targets[:CROSS_MACHINE_SAMPLE]
        control = inputs["crawl.control"].by_domain()
        detected = inputs["detect"]
        rows = [control[target.domain] for target in sample]
        apple = run_sharded_crawl(
            config.network,
            sample,
            retry_policy=config.retry_policy,
            page_budget=config.page_budget,
            execution=self.execution,
            profiles=((APPLE_M1.name, BrowserProfile(device=APPLE_M1)),),
        )[APPLE_M1.name]
        return groupings_agree(
            [CrawlDataset(label=INTEL_UBUNTU.name, observations=rows), apple],
            DETECTOR,
            [{o.domain: detected[o.domain] for o in rows if o.success}, None],
        )


def build_study_graph(
    config: StudyConfig,
    execution: ExecutionConfig = ExecutionConfig(),
    cache_dir: Optional[Union[str, Path]] = None,
) -> StageGraph:
    """Assemble the stage graph of a study.

    Optional stages (blocklist context, ad-blocker recrawls, cross-machine
    validation) are included exactly when the monolithic pipeline would have
    run them, so the graph's artifact set mirrors the old control flow.
    ``execution`` reaches the three stages that crawl; a ``cache_dir`` holds
    the stage cache and, under ``shards/``, the crawl stage's checkpoints.
    """
    cache = StageCache(cache_dir) if cache_dir is not None else None
    checkpoint_dir = Path(cache_dir) / "shards" if cache_dir is not None else None
    crawls = ["crawl.control"]
    if config.wants_adblock_crawls:
        crawls += ["crawl.abp", "crawl.ubo"]
    # cross_machine runs right after detect, where it ran before it read
    # detect: run last, at scale 1.0 with jobs=2 the stage spent 2.7 s in
    # the cyclic collector (its forked workers included), against 0.1 s here.
    stages = [CrawlStage(crawls, execution, checkpoint_dir), DetectStage()]
    if config.include_cross_machine:
        stages.append(CrossMachineStage(execution))
    stages += [
        ClusterStage(),
        PrevalenceStage(),
        ReachStage(),
        SignaturesStage(execution),
        AttributionStage(),
        ServingContextStage(),
        StaticStage(),
    ]
    if config.wants_blocklist_context:
        stages.append(BlocklistContextStage())
    if config.wants_adblock_crawls:
        stages.append(AdblockCompareStage())
    return StageGraph(stages, cache=cache)
