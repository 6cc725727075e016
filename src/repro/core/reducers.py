"""Streaming analysis engine: one-pass reducers.

Every analysis in :mod:`repro.core` (detection, clustering, prevalence,
reach, attribution, blocklist context, serving context, FPJS breakdown,
render-twice, ad-blocker impact) is expressed as a :class:`Reducer` — a
small state object with two operations:

* ``ingest(observation)`` — fold one :class:`SiteObservation` into the
  state (detection runs once per observation and is shared by every
  member of a bundle);
* ``finalize()`` — produce exactly the report dataclass the old batch
  function returned.

The batch entry points (``detect_all``, ``cluster_canvases``,
``compute_prevalence``, ``analyze_blocklist_context``,
``analyze_serving_context``, ``fpjs_breakdown``, ``render_twice_fraction``,
``compare_adblock_crawls``, ``attribute_all``) are thin drivers over these
reducers — one code path, two drivers — so streaming output is *equal* to
batch output by construction, not by coincidence.

Two callers fold a whole crawl: the study's reduce stage
(:class:`repro.core.stages.study.ReduceStage`) ingests the control crawl
once, and the analysis CLI streams a JSONL dataset through a bundle in
bounded memory.  See ``docs/analysis-architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro import obs as obs_layer
from repro.core.clustering import CanvasCluster
from repro.core.context import BlocklistContext, blocklist_flags_for_url
from repro.core.detection import (
    MIN_CANVAS_SIZE,
    DetectionOutcome,
    FingerprintDetector,
)
from repro.core.evasion import AdblockImpact, ServingContext, site_serving_flags
from repro.core.fpjs import FPJSBreakdown, site_fpjs_flavor
from repro.core.prevalence import PopulationPrevalence, PrevalenceReport
from repro.core.reach import ReachReport, compute_reach
from repro.core.records import SiteObservation

__all__ = [
    "Reducer",
    "DetectionReducer",
    "ExtractionStats",
    "ExtractionStatsReducer",
    "ClusterReducer",
    "PrevalenceReducer",
    "ReachReducer",
    "AttributionReducer",
    "BlocklistContextReducer",
    "ServingContextReducer",
    "FpjsReducer",
    "RenderTwiceReducer",
    "AdblockRowReducer",
    "StaticReport",
    "StaticReducer",
    "BundleSpec",
    "AnalysisBundle",
    "REDUCER_VERSION",
]

#: Bump when any reducer's state layout or semantics change — reaches the
#: reduce stage's cache key through :meth:`BundleSpec.fingerprint`.
REDUCER_VERSION = "2"


class Reducer:
    """One streaming analysis: ``ingest`` observations, then ``finalize``
    into the batch report dataclass.

    ``ingest`` detects on demand (via the reducer's own detector); inside an
    :class:`AnalysisBundle` the shared outcome is passed to ``ingest_site``
    directly so detection runs once per observation, not once per member.
    """

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        self.detector = detector or FingerprintDetector()

    def ingest(self, observation: SiteObservation) -> None:
        outcome = self.detector.detect(observation) if observation.success else None
        self.ingest_site(observation, outcome)

    def ingest_site(
        self, observation: SiteObservation, outcome: Optional[DetectionOutcome]
    ) -> None:
        """Fold one observation with its (possibly shared) detection outcome."""
        raise NotImplementedError

    def finalize(self) -> Any:
        raise NotImplementedError


class DetectionReducer(Reducer):
    """§3.2 — streaming ``detect_all(dataset.successful())``."""

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.outcomes: Dict[str, DetectionOutcome] = {}

    def ingest_site(self, observation, outcome) -> None:
        if observation.success and outcome is not None:
            self.outcomes[observation.domain] = outcome

    def finalize(self) -> Dict[str, DetectionOutcome]:
        return self.outcomes


@dataclass
class ExtractionStats:
    """Extraction counts behind §3.2's fingerprintable fraction."""

    kept: int = 0
    total: int = 0

    @property
    def fraction(self) -> float:
        return self.kept / self.total if self.total else 0.0


class ExtractionStatsReducer(Reducer):
    """Counts behind ``fingerprintable_fraction`` without keeping outcomes."""

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.kept = 0
        self.total = 0

    def ingest_site(self, observation, outcome) -> None:
        if outcome is None:
            return
        self.kept += len(outcome.fingerprintable)
        self.total += outcome.total_extractions

    def finalize(self) -> ExtractionStats:
        return ExtractionStats(kept=self.kept, total=self.total)


class ClusterReducer(Reducer):
    """§4.2 — streaming ``cluster_canvases``."""

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.clusters: Dict[str, CanvasCluster] = {}

    def ingest_site(self, observation, outcome) -> None:
        if outcome is not None:
            self.ingest_outcome(observation.domain, observation.population, outcome)

    def ingest_outcome(
        self, domain: str, population: str, outcome: DetectionOutcome
    ) -> None:
        for extraction in outcome.fingerprintable:
            key = extraction.canvas_hash
            cluster = self.clusters.get(key)
            if cluster is None:
                cluster = CanvasCluster(
                    canvas_hash=key, sample_data_url=extraction.data_url
                )
                self.clusters[key] = cluster
            cluster.add(domain, population, extraction)

    def finalize(self) -> Dict[str, CanvasCluster]:
        return self.clusters


class _PopulationState:
    """Mutable per-population accumulator behind :class:`PrevalenceReducer`."""

    __slots__ = ("sites_crawled", "sites_successful", "canvases", "fp_rows")

    def __init__(self) -> None:
        self.sites_crawled = 0
        self.sites_successful = 0
        self.canvases = 0
        #: (rank, domain, fingerprintable count) per FP site.  Finalize
        #: sorts by (rank, domain) — the crawl target order within each
        #: population — so the per-site list is independent of ingest
        #: order yet identical to the batch (dataset-order) list.
        self.fp_rows: List[Tuple[int, str, int]] = []


class PrevalenceReducer(Reducer):
    """§4.1 — streaming ``compute_prevalence``."""

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.populations: Dict[str, _PopulationState] = {
            "top": _PopulationState(),
            "tail": _PopulationState(),
        }

    def ingest_site(self, observation, outcome) -> None:
        state = self.populations.get(observation.population)
        if state is None:
            return
        state.sites_crawled += 1
        if not observation.success:
            return
        state.sites_successful += 1
        if outcome is None or not outcome.is_fingerprinting_site:
            return
        count = len(outcome.fingerprintable)
        state.canvases += count
        state.fp_rows.append((observation.rank, observation.domain, count))

    def finalize(self) -> PrevalenceReport:
        reports = {}
        for population, state in self.populations.items():
            rows = sorted(state.fp_rows)
            reports[population] = PopulationPrevalence(
                population=population,
                sites_crawled=state.sites_crawled,
                sites_successful=state.sites_successful,
                fp_sites=len(rows),
                total_fingerprintable_canvases=state.canvases,
                canvases_per_fp_site=[count for _, _, count in rows],
            )
        return PrevalenceReport(top=reports["top"], tail=reports["tail"])


class ReachReducer(Reducer):
    """§4.2 — streaming ``compute_reach`` inputs (clusters + FP site sets)."""

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.cluster = ClusterReducer(detector)
        self.fp_sites: Dict[str, Set[str]] = {"top": set(), "tail": set()}
        self.successful_top = 0

    def ingest_site(self, observation, outcome) -> None:
        if observation.success and observation.population == "top":
            self.successful_top += 1
        if outcome is None:
            return
        if outcome.is_fingerprinting_site:
            self.fp_sites.setdefault(observation.population, set()).add(
                observation.domain
            )
        self.cluster.ingest_site(observation, outcome)

    def finalize(self) -> ReachReport:
        return compute_reach(
            self.cluster.finalize(),
            self.fp_sites.get("top", set()),
            self.fp_sites.get("tail", set()),
            self.successful_top,
        )


class AttributionReducer(Reducer):
    """§4.3 — streaming ``attribute_all`` plus the Table 1 count tables.

    Takes a built :class:`~repro.core.attribution.VendorAttributor` (vendor
    signatures are an analysis *input*, harvested by the signatures stage).
    """

    def __init__(self, attributor, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.attributor = attributor
        self.attributions: Dict[str, Any] = {}
        self.populations: Dict[str, str] = {}

    def ingest_site(self, observation, outcome) -> None:
        if outcome is None or not outcome.is_fingerprinting_site:
            return
        self.attributions[observation.domain] = self.attributor.attribute_site(
            observation, outcome
        )
        self.populations[observation.domain] = observation.population

    def finalize(self) -> Dict[str, Any]:
        return {
            "attributions": self.attributions,
            "vendor_counts": self.attributor.vendor_site_counts(
                self.attributions, self.populations
            ),
            "vendor_totals": self.attributor.attributed_site_totals(
                self.attributions, self.populations
            ),
        }


class BlocklistContextReducer(Reducer):
    """§5.1 — streaming ``analyze_blocklist_context`` (Table 4)."""

    def __init__(
        self,
        easylist,
        easyprivacy,
        disconnect,
        detector: Optional[FingerprintDetector] = None,
    ) -> None:
        super().__init__(detector)
        self.easylist = easylist
        self.easyprivacy = easyprivacy
        self.disconnect = disconnect
        self.context = BlocklistContext()
        # Per-URL memo: crawls see the same script URLs thousands of times.
        # Pure cache: it never changes a count.
        self._memo: Dict[Optional[str], Tuple[bool, bool, bool]] = {}

    def ingest_site(self, observation, outcome) -> None:
        if outcome is not None:
            self.ingest_outcome(observation.domain, observation.population, outcome)

    def ingest_outcome(
        self, domain: str, population: str, outcome: DetectionOutcome
    ) -> None:
        context = self.context
        for extraction in outcome.fingerprintable:
            url = extraction.script_url
            flags = self._memo.get(url)
            if flags is None:
                flags = blocklist_flags_for_url(
                    url, self.easylist, self.easyprivacy, self.disconnect
                )
                self._memo[url] = flags
            in_el, in_ep, in_dc = flags
            context.totals.add(population)
            if in_el:
                context.easylist.add(population)
            if in_ep:
                context.easyprivacy.add(population)
            if in_dc:
                context.disconnect.add(population)
            if in_el or in_ep or in_dc:
                context.any_list.add(population)
            if in_el and in_ep and in_dc:
                context.all_lists.add(population)

    def finalize(self) -> BlocklistContext:
        return self.context


class ServingContextReducer(Reducer):
    """§5.2 — streaming ``analyze_serving_context``."""

    def __init__(self, dns=None, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.dns = dns
        self.context = ServingContext()

    def ingest_site(self, observation, outcome) -> None:
        if outcome is not None:
            self.ingest_outcome(observation.domain, observation.population, outcome)

    def ingest_outcome(
        self, domain: str, population: str, outcome: DetectionOutcome
    ) -> None:
        if not outcome.is_fingerprinting_site:
            return
        ctx = self.context
        ctx.fp_sites[population] = ctx.fp_sites.get(population, 0) + 1
        first_party, subdomain, cdn, cloaked = site_serving_flags(
            domain, outcome, self.dns
        )
        for flag, counter in (
            (first_party, ctx.first_party_sites),
            (subdomain, ctx.subdomain_sites),
            (cdn, ctx.cdn_sites),
            (cloaked, ctx.cname_cloaked_sites),
        ):
            if flag:
                counter[population] = counter.get(population, 0) + 1

    def finalize(self) -> ServingContext:
        return self.context


class FpjsReducer(Reducer):
    """§4.3.1 — streaming ``fpjs_breakdown``."""

    def __init__(
        self, fpjs_hashes: Set[str], detector: Optional[FingerprintDetector] = None
    ) -> None:
        super().__init__(detector)
        self.fpjs_hashes = set(fpjs_hashes)
        self.breakdown = FPJSBreakdown()

    def ingest_site(self, observation, outcome) -> None:
        if outcome is None:
            return
        flavor = site_fpjs_flavor(observation, outcome, self.fpjs_hashes)
        if flavor is not None:
            self.breakdown.add(flavor, observation.population)

    def finalize(self) -> FPJSBreakdown:
        return self.breakdown


class RenderTwiceReducer(Reducer):
    """§5.3 — streaming ``render_twice_fraction``."""

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.fp_sites = 0
        self.double_sites = 0

    def ingest_site(self, observation, outcome) -> None:
        if outcome is not None:
            self.ingest_outcome(observation.domain, observation.population, outcome)

    def ingest_outcome(
        self, domain: str, population: str, outcome: DetectionOutcome
    ) -> None:
        if not outcome.is_fingerprinting_site:
            return
        self.fp_sites += 1
        seen: Dict[str, int] = {}
        for extraction in outcome.fingerprintable:
            seen[extraction.canvas_hash] = seen.get(extraction.canvas_hash, 0) + 1
        if any(count >= 2 for count in seen.values()):
            self.double_sites += 1

    def finalize(self) -> float:
        return self.double_sites / self.fp_sites if self.fp_sites else 0.0


class AdblockRowReducer(Reducer):
    """Table 2 — streaming ``_crawl_row`` for one crawl configuration."""

    def __init__(self, label: str, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        self.label = label
        self.canvases: Dict[str, int] = {"top": 0, "tail": 0}
        self.sites: Dict[str, int] = {"top": 0, "tail": 0}

    def ingest_site(self, observation, outcome) -> None:
        if outcome is None or not outcome.is_fingerprinting_site:
            return
        self.sites[observation.population] += 1
        self.canvases[observation.population] += len(outcome.fingerprintable)

    def finalize(self) -> AdblockImpact:
        return AdblockImpact(label=self.label, canvases=self.canvases, sites=self.sites)


# -- static/dynamic cross-validation ------------------------------------------------


#: Site-level severity order for the static classes: a site's static class
#: is the most severe class among its scripts.
_STATIC_SEVERITY = {
    "inert": 0,
    "parse-error": 1,
    "canvas-benign": 2,
    "canvas-unknown": 3,
    "fingerprinting-likely": 4,
}


@dataclass(frozen=True)
class StaticReport:
    """The ``static`` stage's artifact: script verdicts + the cross-tab.

    ``agreement`` is the static-vs-dynamic matrix over sites both passes
    saw: static site class (most severe script class) against whether the
    dynamic §3.2 detector flagged the site.  ``static_only`` carries the
    execution-free recoveries: quarantined/failed sites whose scripts the
    static pass still classified (the dynamic pass saw nothing there).
    ``dead_scripts`` is static attribution for scripts whose dynamic run
    died (a per-script error row) yet statically look fingerprinting-likely.
    """

    #: One row per distinct script body, sorted most-severe-class first.
    script_rows: Tuple[Dict[str, Any], ...] = ()
    #: classification -> number of distinct script bodies.
    class_counts: Dict[str, int] = field(default_factory=dict)
    #: static site class -> {"dynamic-fp": n, "dynamic-clean": n}.
    agreement: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: (domain, script_url, classification) for dynamically-dead scripts.
    dead_scripts: Tuple[Tuple[str, str, str], ...] = ()
    #: (domain, failure_reason, classification) recovered without execution.
    static_only: Tuple[Tuple[str, str, str], ...] = ()
    #: Distinct script bodies the triage would skip at crawl time.
    skippable_scripts: int = 0

    @property
    def total_scripts(self) -> int:
        return len(self.script_rows)

    def agreement_rate(self) -> float:
        """Fraction of dynamically-decided sites where the passes agree
        (static fingerprinting-likely <=> dynamic fingerprinting)."""
        agree = 0
        total = 0
        for static_class, row in self.agreement.items():
            fp = row.get("dynamic-fp", 0)
            clean = row.get("dynamic-clean", 0)
            total += fp + clean
            agree += fp if static_class == "fingerprinting-likely" else clean
        return agree / total if total else 0.0


class StaticReducer(Reducer):
    """Static verdicts for every crawled script + static/dynamic cross-tab.

    Runs :func:`repro.js.static.verdict_for_source` over each observation's
    recorded script sources — content-addressed, so the thousands of copies
    of one vendor script cost one analysis — and accumulates per-script and
    per-site state.
    """

    def __init__(self, detector: Optional[FingerprintDetector] = None) -> None:
        super().__init__(detector)
        #: sha -> mutable row: verdict fields + the urls/domains seen with it.
        self.scripts: Dict[str, Dict[str, Any]] = {}
        self.site_class: Dict[str, str] = {}
        #: domain -> dynamic is_fingerprinting_site (decided sites only).
        self.dynamic_fp: Dict[str, bool] = {}
        self.dead: List[Tuple[str, str, str]] = []
        #: Execution-free recoveries, added by the stage's fetch probes.
        self.recovered: List[Tuple[str, str, str]] = []

    def ingest_site(self, observation, outcome) -> None:
        from repro.js.static import verdict_for_source

        site_rank = -1
        site_class = None
        for url in sorted(observation.script_sources):
            source = observation.script_sources[url]
            verdict = verdict_for_source(source, url)
            self._add_script(verdict, url, observation.domain)
            rank = _STATIC_SEVERITY.get(verdict.classification, 0)
            if rank > site_rank:
                site_rank, site_class = rank, verdict.classification
            if verdict.classification == "fingerprinting-likely" and any(
                error.startswith(f"{url}:") for error in observation.script_errors
            ):
                # The dynamic run of this script died; the static verdict is
                # the only attribution signal left for it.
                self.dead.append((observation.domain, url, verdict.classification))
        if site_class is not None:
            self.site_class[observation.domain] = site_class
        if observation.success and outcome is not None:
            self.dynamic_fp[observation.domain] = outcome.is_fingerprinting_site
        obs_layer.inc("static.sites")

    def _add_script(self, verdict, url: str, domain: str) -> None:
        row = self.scripts.get(verdict.sha)
        if row is None:
            row = verdict.to_row()
            row["urls"] = set()
            row["domains"] = set()
            self.scripts[verdict.sha] = row
            obs_layer.inc("static.scripts.distinct")
        row["urls"].add(url)
        row["domains"].add(domain)

    def add_recovery(self, domain: str, reason: str, classification: str) -> None:
        """Record one execution-free (fetch-probe) site recovery."""
        self.recovered.append((domain, reason, classification))

    def finalize(self) -> StaticReport:
        rows = []
        class_counts: Dict[str, int] = {}
        skippable = 0
        for sha in self.scripts:
            row = dict(self.scripts[sha])
            row["urls"] = sorted(row["urls"])
            row["sites"] = len(row.pop("domains"))
            rows.append(row)
            cls = row["classification"]
            class_counts[cls] = class_counts.get(cls, 0) + 1
            if row["skippable"]:
                skippable += 1
        rows.sort(
            key=lambda r: (
                -_STATIC_SEVERITY.get(r["classification"], 0),
                -r["sites"],
                r["sha"],
            )
        )
        agreement: Dict[str, Dict[str, int]] = {}
        for domain, dynamic in self.dynamic_fp.items():
            static_class = self.site_class.get(domain)
            if static_class is None:
                continue
            row = agreement.setdefault(
                static_class, {"dynamic-fp": 0, "dynamic-clean": 0}
            )
            row["dynamic-fp" if dynamic else "dynamic-clean"] += 1
        return StaticReport(
            script_rows=tuple(rows),
            class_counts=class_counts,
            agreement=agreement,
            dead_scripts=tuple(sorted(set(self.dead))),
            static_only=tuple(sorted(set(self.recovered))),
            skippable_scripts=skippable,
        )


# -- bundle: one detection pass feeding every member --------------------------------


@dataclass(frozen=True)
class BundleSpec:
    """Recipe for an :class:`AnalysisBundle`.

    Hashed — via :meth:`fingerprint` — into the reduce stage's cache key.
    ``include_detection=False`` drops the full per-site outcome map so a
    bundle's memory footprint is bounded by the number of *distinct
    canvases and FP sites*, not by dataset bulk — the CLI's streaming mode.
    """

    min_size: int = MIN_CANVAS_SIZE
    include_detection: bool = True
    include_serving: bool = False
    dns: Any = field(default=None, hash=False, compare=False)

    def build(self) -> "AnalysisBundle":
        detector = FingerprintDetector(min_size=self.min_size)
        members: Dict[str, Reducer] = {}
        if self.include_detection:
            members["detection"] = DetectionReducer(detector)
        members["stats"] = ExtractionStatsReducer(detector)
        members["cluster"] = ClusterReducer(detector)
        members["prevalence"] = PrevalenceReducer(detector)
        members["reach"] = ReachReducer(detector)
        members["render_twice"] = RenderTwiceReducer(detector)
        if self.include_serving:
            members["serving"] = ServingContextReducer(self.dns, detector)
        return AnalysisBundle(spec=self, members=members, detector=detector)

    def fingerprint(self) -> Dict[str, Any]:
        """JSON-able identity for cache keys (``dns`` content is hashed by
        the stage separately when serving analysis is bundled)."""
        return {
            "reducers": REDUCER_VERSION,
            "min_size": self.min_size,
            "detection": self.include_detection,
            "serving": self.include_serving,
        }


class AnalysisBundle:
    """A set of reducers sharing one detection pass per observation."""

    def __init__(
        self,
        spec: BundleSpec,
        members: Dict[str, Reducer],
        detector: FingerprintDetector,
    ) -> None:
        self.spec = spec
        self.members = members
        self.detector = detector
        self.count = 0

    def ingest(self, observation: SiteObservation) -> None:
        outcome = self.detector.detect(observation) if observation.success else None
        for member in self.members.values():
            member.ingest_site(observation, outcome)
        self.count += 1
        obs_layer.inc("analysis.ingest.sites")

    def ingest_many(self, observations: Iterable[SiteObservation]) -> None:
        for observation in observations:
            self.ingest(observation)

    def finalize_member(self, name: str) -> Any:
        with obs_layer.span("analysis.finalize", member=name):
            return self.members[name].finalize()

    def finalize(self) -> Dict[str, Any]:
        return {name: self.finalize_member(name) for name in self.members}
