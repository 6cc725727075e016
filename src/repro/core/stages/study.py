"""The paper's methodology decomposed into typed, cacheable stages.

Each monolith step of the old ``run_study`` becomes one :class:`Stage`;
the crawl is one stage with one output per browser profile:

=================  ==========================================  ==========
artifact           produces                                    paper
=================  ==========================================  ==========
crawl.control      control :class:`CrawlDataset` (``crawl``)   §3.1
reduce             :class:`AnalysisBundle` over the control    §3.2-§4.2
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

The ``crawl`` stage runs through
:func:`~repro.crawler.shards.run_sharded_crawl`, site-major over the
profiles whose outputs missed the cache, so the
:class:`~repro.crawler.shards.ExecutionConfig` in the :class:`StudyContext`
parallelizes it — deliberately *outside* every cache key, because how a
crawl executes cannot change the artifact.

The observation-heavy analyses (detection, clustering, prevalence, reach,
render-twice) flow through one :class:`ReduceStage`, which folds the merged
control crawl once, in the parent, into an
:class:`~repro.core.reducers.AnalysisBundle` (see
``docs/analysis-architecture.md``).  Its only cache is the stage graph's
whole-artifact cache.  The downstream analysis stages finalize bundle
members, so their cache keys chain off the reduce key and a warm cache
re-runs nothing.  Blocklist/serving context deliberately stay *outside* the
bundle's cache identity: changing a blocklist or the DNS zone re-runs only
those stages, never detection or clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro import obs as obs_layer
from repro.blocklists.matcher import RuleMatcher
from repro.browser.extensions import AdBlockerExtension
from repro.browser.profile import BrowserProfile
from repro.canvas.device import APPLE_M1, DeviceProfile, INTEL_UBUNTU
from repro.core.attribution import VendorAttributor
from repro.core.context import analyze_blocklist_context
from repro.core.detection import FingerprintDetector
from repro.core.evasion import analyze_serving_context, compare_adblock_crawls
from repro.core.reducers import AnalysisBundle, BundleSpec
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
from repro.crawler.crawl import CrawlTarget
from repro.crawler.resilience import PageBudget, RetryPolicy
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl

__all__ = ["StudyContext", "build_study_graph", "control_bundle_spec", "STAGE_DOCS"]

#: One-line description per stage name (used by ``--stage`` help and docs).
STAGE_DOCS = {
    "crawl.control": "control crawl of the top+tail target list (§3.1)",
    "reduce": "fold the control crawl into the analysis bundle (§3.2-§4.2)",
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


@dataclass
class StudyContext:
    """Everything ``run_study`` was parameterized by, plus execution knobs.

    The execution knobs (``execution``, ``checkpoint_dir``) shape *how*
    stages run, never *what* they produce — they are excluded from every
    ``config_fingerprint`` on purpose.
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
    cross_machine_sample: int = 200
    retry_policy: Optional[RetryPolicy] = None
    page_budget: Optional[PageBudget] = None
    detector: FingerprintDetector = field(default_factory=FingerprintDetector)
    cross_machine_devices: Tuple[DeviceProfile, ...] = (INTEL_UBUNTU, APPLE_M1)
    # -- execution knobs (never fingerprinted) --------------------------------
    #: How every crawl executes (workers, supervisor, JS prewarm).  A
    #: no-fault run produces the identical artifact whatever its
    #: value, and a faulted supervised one degrades the *data* (visible as
    #: ``quarantined:*`` rows), not the cache key.
    execution: ExecutionConfig = ExecutionConfig()
    checkpoint_dir: Optional[Path] = None

    _network_fp: Optional[str] = field(default=None, repr=False, compare=False)

    def network_fingerprint(self) -> str:
        """Content hash of the synthetic network, computed once per run."""
        if self._network_fp is None:
            self._network_fp = fingerprint_network(self.network)
        return self._network_fp

    # -- browser profiles, built exactly as the monolithic pipeline did -------

    def control_profile(self) -> BrowserProfile:
        return BrowserProfile(device=INTEL_UBUNTU)

    def abp_profile(self) -> BrowserProfile:
        easylist = RuleMatcher.from_text(self.easylist_text, "easylist")
        abp = AdBlockerExtension("Adblock Plus", [easylist])
        return BrowserProfile(device=INTEL_UBUNTU, extensions=(abp,))

    def ubo_profile(self) -> BrowserProfile:
        easylist = RuleMatcher.from_text(self.easylist_text, "easylist")
        extra = []
        if self.ubo_extra_text:
            extra.append(RuleMatcher.from_text(self.ubo_extra_text, "ubo-extra"))
        ubo = AdBlockerExtension("UBlock Origin", [easylist], extra_matchers=extra)
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


def control_bundle_spec(ctx: StudyContext) -> BundleSpec:
    """The study's streaming-analysis bundle for the control crawl.

    Deliberately parameterized by the detector's ``min_size`` *only*:
    blocklists and the DNS zone stay out so changing either never touches
    the reduce stage's cache identity (see module docstring).
    """
    return BundleSpec(min_size=ctx.detector.min_size)


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

    def __init__(self, outputs: Sequence[str]) -> None:
        self.outputs = tuple(outputs)

    @staticmethod
    def _label(output: str) -> str:
        return output.split(".", 1)[1]

    def _profile(self, ctx: StudyContext, output: str) -> BrowserProfile:
        return getattr(ctx, f"{self._label(output)}_profile")()

    def output_fingerprint(self, ctx: StudyContext, output: str) -> Any:
        return {
            "network": ctx.network_fingerprint(),
            "targets": fingerprint_targets(ctx.targets),
            "profile": fingerprint_profile(self._profile(ctx, output)),
            "label": self._label(output),
            "retry": fingerprint_policy(ctx.retry_policy),
            "budget": fingerprint_policy(ctx.page_budget),
        }

    def run_outputs(
        self, ctx: StudyContext, inputs: Dict[str, Any], keys: Dict[str, str]
    ) -> Dict[str, Any]:
        checkpoint_dir = None
        if ctx.checkpoint_dir is not None:
            # Namespace shard checkpoints by the keys being crawled, so two
            # crawls that share a label but differ in targets, profiles,
            # network or profile set never resume from each other's partials.
            checkpoint_dir = Path(ctx.checkpoint_dir) / stable_hash(keys)[:16]
        outputs = [output for output in self.outputs if output in keys]
        datasets = run_sharded_crawl(
            ctx.network,
            ctx.targets,
            checkpoint_dir=checkpoint_dir,
            retry_policy=ctx.retry_policy,
            page_budget=ctx.page_budget,
            execution=ctx.execution,
            profiles=tuple(
                (self._label(output), self._profile(ctx, output)) for output in outputs
            ),
        )
        return {output: datasets[self._label(output)] for output in outputs}


class ReduceStage(Stage):
    """Fold the control crawl into one :class:`AnalysisBundle`.

    One pass in the parent: every control observation is ingested exactly
    once, whether the crawl ran in-process, under the supervisor or came
    from the stage cache.  The stage graph's whole-artifact cache is the
    only cache; a warm run never reaches :meth:`run`.
    """

    name = "reduce"
    inputs = ("crawl.control",)

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        return control_bundle_spec(ctx).fingerprint()

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> AnalysisBundle:
        bundle = control_bundle_spec(ctx).build()
        bundle.ingest_many(inputs["crawl.control"].observations)
        return bundle


class DetectStage(Stage):
    """§3.2 detection over every successfully crawled page."""

    name = "detect"
    inputs = ("reduce",)
    version = "2"

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        return inputs["reduce"].finalize_member("detection")


class ClusterStage(Stage):
    """§4.2 canvas-equality clustering."""

    name = "cluster"
    inputs = ("reduce",)
    version = "2"

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        return inputs["reduce"].finalize_member("cluster")


class PrevalenceStage(Stage):
    """§4.1 prevalence per population."""

    name = "prevalence"
    inputs = ("reduce",)
    version = "2"

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        return inputs["reduce"].finalize_member("prevalence")


class ReachStage(Stage):
    """§4.2 reach of each cluster across populations."""

    name = "reach"
    inputs = ("reduce",)
    version = "2"

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        return inputs["reduce"].finalize_member("reach")


class SignaturesStage(Stage):
    """A.3 vendor ground-truth harvesting (crawls demo and customer pages)."""

    name = "signatures"
    inputs = ("crawl.control",)

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        return {
            "network": ctx.network_fingerprint(),
            "vendors": fingerprint_vendor_knowledge(ctx.vendor_knowledge),
            "min_size": ctx.detector.min_size,
        }

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        from repro.core.pipeline import harvest_vendor_signatures

        return harvest_vendor_signatures(
            ctx.network, ctx.vendor_knowledge, inputs["crawl.control"]
        )


class AttributionStage(Stage):
    """§4.3 attribution plus the per-population vendor count tables."""

    name = "attribution"
    inputs = ("crawl.control", "detect", "signatures")

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
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

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        disconnect = ctx.disconnect
        return {
            "easylist": fingerprint_text(ctx.easylist_text),
            "easyprivacy": fingerprint_text(ctx.easyprivacy_text),
            "disconnect": stable_hash(disconnect.to_json()) if disconnect is not None else None,
        }

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        control = inputs["crawl.control"]
        return analyze_blocklist_context(
            inputs["detect"],
            control.populations(),
            RuleMatcher.from_text(ctx.easylist_text, "easylist"),
            RuleMatcher.from_text(ctx.easyprivacy_text, "easyprivacy"),
            ctx.disconnect,
        )


class ServingContextStage(Stage):
    """§5.2 first/third-party serving context and evasive delivery."""

    name = "serving_context"
    inputs = ("crawl.control", "detect")

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        return {"dns": fingerprint_dns(ctx.dns) if ctx.dns is not None else None}

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        control = inputs["crawl.control"]
        return analyze_serving_context(
            inputs["detect"], control.populations(), dns=ctx.dns
        )


class AdblockCompareStage(Stage):
    """Table 2: canvas activity under each ad blocker vs the control crawl."""

    name = "adblock_rows"
    inputs = ("crawl.control", "crawl.abp", "crawl.ubo")

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        return {"min_size": ctx.detector.min_size}

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        return compare_adblock_crawls(
            inputs["crawl.control"],
            {
                "Adblock Plus": inputs["crawl.abp"],
                "UBlock Origin": inputs["crawl.ubo"],
            },
            ctx.detector,
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

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        from repro.js.static import ANALYZER_VERSION

        return {
            "analyzer": ANALYZER_VERSION,
            # Fetch probes read the network, so its content is part of the
            # artifact identity (the crawl dataset alone is not enough).
            "network": ctx.network_fingerprint(),
        }

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        from repro.core.reducers import StaticReducer

        control = inputs["crawl.control"]
        outcomes = inputs["detect"]
        reducer = StaticReducer(ctx.detector)
        with obs_layer.span("static.analyze", sites=len(control.observations)):
            for observation in control.observations:
                reducer.ingest_site(observation, outcomes.get(observation.domain))
        for domain, reason in sorted(control.quarantined_sites().items()):
            classification = self._probe(ctx, domain)
            if classification is not None:
                reducer.add_recovery(domain, reason, classification)
        return reducer.finalize()

    @staticmethod
    def _probe(ctx: StudyContext, domain: str) -> Optional[str]:
        """Fetch-only static class for one uncrawlable site (no JS runs)."""
        from repro.core.reducers import _STATIC_SEVERITY
        from repro.dom.html import parse_html
        from repro.js.static import verdict_for_source
        from repro.net.http import Request, ResourceType
        from repro.net.url import URL

        injector = getattr(ctx.network, "injector", None)
        if injector is not None:
            # A probe is a visit: it starts a fresh fault clock, as a settle does.
            injector.new_visit()
        fetch = getattr(ctx.network, "probe_fetch", ctx.network.fetch)
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
    """§3.1 cross-device consistency over a sample of the target list."""

    name = "cross_machine"

    def config_fingerprint(self, ctx: StudyContext) -> Any:
        sample = ctx.targets[: ctx.cross_machine_sample]
        return {
            "network": ctx.network_fingerprint(),
            "targets": fingerprint_targets(sample),
            "devices": list(ctx.cross_machine_devices),
            "min_size": ctx.detector.min_size,
            "retry": fingerprint_policy(ctx.retry_policy),
            "budget": fingerprint_policy(ctx.page_budget),
        }

    def run(self, ctx: StudyContext, inputs: Dict[str, Any]) -> Any:
        from repro.core.pipeline import validate_cross_machine

        return validate_cross_machine(
            ctx.network,
            ctx.targets[: ctx.cross_machine_sample],
            ctx.detector,
            devices=ctx.cross_machine_devices,
            retry_policy=ctx.retry_policy,
            page_budget=ctx.page_budget,
            execution=ctx.execution,
        )


def build_study_graph(
    ctx: StudyContext, cache: Optional[StageCache] = None
) -> StageGraph:
    """Assemble the stage graph for a context.

    Optional stages (blocklist context, ad-blocker recrawls, cross-machine
    validation) are included exactly when the monolithic pipeline would have
    run them, so the graph's artifact set mirrors the old control flow.
    """
    crawls = ["crawl.control"]
    if ctx.wants_adblock_crawls:
        crawls += ["crawl.abp", "crawl.ubo"]
    stages = [
        CrawlStage(crawls),
        ReduceStage(),
        DetectStage(),
        ClusterStage(),
        PrevalenceStage(),
        ReachStage(),
        SignaturesStage(),
        AttributionStage(),
        ServingContextStage(),
        StaticStage(),
    ]
    if ctx.wants_blocklist_context:
        stages.append(BlocklistContextStage())
    if ctx.wants_adblock_crawls:
        stages.append(AdblockCompareStage())
    if ctx.include_cross_machine:
        stages.append(CrossMachineStage())
    return StageGraph(stages, cache=cache)
