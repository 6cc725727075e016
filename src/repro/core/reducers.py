"""Streaming analysis engine: one-pass reducers.

The analyses the streaming CLI (``python -m repro.analysis``) prints —
extraction statistics, clustering, prevalence, render-twice and serving
context — are each a :class:`Reducer`: a small state object with two
operations:

* ``ingest_site(observation, outcome)`` — fold one :class:`SiteObservation`
  and its detection outcome into the state;
* ``finalize()`` — produce exactly the report the batch function returns.

The batch entry points (``cluster_canvases``, ``compute_prevalence``,
``render_twice_fraction``, ``analyze_serving_context``) are thin drivers
over these reducers — one code path, two drivers — so streaming output is
*equal* to batch output by construction, not by coincidence.

The study detects once, in its ``detect`` stage, and calls the batch
functions on those outcomes; the analysis CLI streams a JSONL dataset
through an :class:`AnalysisBundle` in bounded memory.  See
``docs/analysis-architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs as obs_layer
from repro.core.clustering import CanvasCluster
from repro.core.detection import DetectionOutcome, FingerprintDetector
from repro.core.evasion import ServingContext, site_serving_flags
from repro.core.prevalence import PopulationPrevalence, PrevalenceReport
from repro.core.records import SiteObservation

__all__ = [
    "Reducer",
    "ExtractionStats",
    "ExtractionStatsReducer",
    "ClusterReducer",
    "PrevalenceReducer",
    "ServingContextReducer",
    "RenderTwiceReducer",
    "StaticReport",
    "StaticReducer",
    "BundleSpec",
    "AnalysisBundle",
]


class Reducer:
    """One streaming analysis: ``ingest_site`` observations with their
    detection outcomes, then ``finalize`` into the batch report."""

    def ingest_site(
        self, observation: SiteObservation, outcome: Optional[DetectionOutcome]
    ) -> None:
        """Fold one observation with its detection outcome (None when failed)."""
        raise NotImplementedError

    def finalize(self) -> Any:
        raise NotImplementedError


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

    def __init__(self) -> None:
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

    def __init__(self) -> None:
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

    def __init__(self) -> None:
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


class ServingContextReducer(Reducer):
    """§5.2 — streaming ``analyze_serving_context``."""

    def __init__(self, dns=None) -> None:
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


class RenderTwiceReducer(Reducer):
    """§5.3 — streaming ``render_twice_fraction``."""

    def __init__(self) -> None:
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

    def __init__(self) -> None:
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

    def _add_script(self, verdict, url: str, domain: str) -> None:
        row = self.scripts.get(verdict.sha)
        if row is None:
            row = verdict.to_row()
            row["urls"] = set()
            row["domains"] = set()
            self.scripts[verdict.sha] = row
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


class BundleSpec:
    """Recipe for the analysis CLI's :class:`AnalysisBundle`.

    Every member aggregates — none keeps a per-site outcome map — so a
    bundle's memory is bounded by the number of distinct canvases and FP
    sites, not by dataset bulk.
    """

    def build(self) -> "AnalysisBundle":
        return AnalysisBundle(
            {
                "stats": ExtractionStatsReducer(),
                "cluster": ClusterReducer(),
                "prevalence": PrevalenceReducer(),
                "render_twice": RenderTwiceReducer(),
                "serving": ServingContextReducer(),
            }
        )


class AnalysisBundle:
    """A set of reducers sharing one detection pass per observation."""

    def __init__(self, members: Dict[str, Reducer]) -> None:
        self.members = members
        self.detector = FingerprintDetector()
        self.count = 0

    def ingest(self, observation: SiteObservation) -> None:
        outcome = self.detector.detect(observation) if observation.success else None
        for member in self.members.values():
            member.ingest_site(observation, outcome)
        self.count += 1

    def finalize_member(self, name: str) -> Any:
        with obs_layer.span("analysis.finalize", member=name):
            return self.members[name].finalize()
