"""§5.2-§5.3 — Evasion analyses.

* Serving-context analysis: which fingerprinting sites have canvases
  rendered by first-party-served scripts, subdomain-served scripts, or
  popular-CDN-served scripts (the blocklist-evasion surface).
* CNAME-cloak detection against the DNS zone (first-party URLs whose
  canonical name is another site).
* Ad-blocker impact (Table 2): compare a control crawl against crawls with
  blocking extensions.
* Render-twice inconsistency check prevalence (§5.3): sites where some
  canvas was generated and extracted at least twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.detection import DetectionOutcome, FingerprintDetector
from repro.crawler.crawl import CrawlDataset
from repro.net.cdn import is_cdn_url
from repro.net.dns import DNSZone
from repro.net.url import URL, URLError, same_site

__all__ = [
    "ServingContext",
    "analyze_serving_context",
    "site_serving_flags",
    "AdblockImpact",
    "compare_adblock_crawls",
    "render_twice_fraction",
]


@dataclass
class ServingContext:
    """§5.2's per-population site fractions."""

    fp_sites: Dict[str, int] = field(default_factory=lambda: {"top": 0, "tail": 0})
    first_party_sites: Dict[str, int] = field(default_factory=lambda: {"top": 0, "tail": 0})
    subdomain_sites: Dict[str, int] = field(default_factory=lambda: {"top": 0, "tail": 0})
    cdn_sites: Dict[str, int] = field(default_factory=lambda: {"top": 0, "tail": 0})
    cname_cloaked_sites: Dict[str, int] = field(default_factory=lambda: {"top": 0, "tail": 0})

    def fraction(self, counter: Mapping[str, int], population: str) -> float:
        total = self.fp_sites.get(population, 0)
        return counter.get(population, 0) / total if total else 0.0

    def first_party_fraction(self, population: str) -> float:
        return self.fraction(self.first_party_sites, population)

    def subdomain_fraction(self, population: str) -> float:
        return self.fraction(self.subdomain_sites, population)

    def cdn_fraction(self, population: str) -> float:
        return self.fraction(self.cdn_sites, population)

    def cname_fraction(self, population: str) -> float:
        return self.fraction(self.cname_cloaked_sites, population)


def site_serving_flags(
    domain: str, outcome: DetectionOutcome, dns: Optional[DNSZone] = None
) -> Tuple[bool, bool, bool, bool]:
    """(first_party, subdomain, cdn, cloaked) for one fingerprinting site."""
    site_home = f"https://{domain}/"
    first_party = subdomain = cdn = cloaked = False
    for extraction in outcome.fingerprintable:
        url_text = extraction.script_url
        if url_text is None:
            continue
        if "#inline" in url_text:
            first_party = True
            continue
        try:
            url = URL.parse(url_text)
        except URLError:
            continue
        if same_site(url_text, site_home):
            first_party = True
            if url.host != domain and url.host.endswith("." + domain):
                subdomain = True
            if dns is not None and dns.is_cloaked(url.host):
                cloaked = True
                subdomain = False  # cloaking, not genuine delegation
        if is_cdn_url(url):
            cdn = True
    return first_party, subdomain, cdn, cloaked


def analyze_serving_context(
    outcomes: Mapping[str, DetectionOutcome],
    populations: Mapping[str, str],
    dns: Optional[DNSZone] = None,
) -> ServingContext:
    """Classify each fingerprinting site by how its canvases' scripts are
    served relative to the site (first-party / subdomain / CDN / cloaked).

    Thin batch driver over
    :class:`repro.core.reducers.ServingContextReducer` — the streaming path
    and this one share a single code path.
    """
    from repro.core.reducers import ServingContextReducer

    reducer = ServingContextReducer(dns)
    for domain, outcome in outcomes.items():
        reducer.ingest_outcome(domain, populations.get(domain, "top"), outcome)
    return reducer.finalize()


@dataclass
class AdblockImpact:
    """One Table 2 row: canvases and FP-site counts for a crawl config."""

    label: str
    canvases: Dict[str, int]
    sites: Dict[str, int]


def _impact_row(
    label: str,
    outcomes: Iterable[Tuple[str, DetectionOutcome]],
    populations: Mapping[str, str],
) -> AdblockImpact:
    canvases = {"top": 0, "tail": 0}
    sites = {"top": 0, "tail": 0}
    for domain, outcome in outcomes:
        if outcome.is_fingerprinting_site:
            population = populations[domain]
            sites[population] += 1
            canvases[population] += len(outcome.fingerprintable)
    return AdblockImpact(label=label, canvases=canvases, sites=sites)


def compare_adblock_crawls(
    control_outcomes: Mapping[str, DetectionOutcome],
    populations: Mapping[str, str],
    blocked_crawls: Mapping[str, CrawlDataset],
    detector: Optional[FingerprintDetector] = None,
) -> Tuple[AdblockImpact, ...]:
    """Build Table 2: control row plus one row per ad-blocker crawl.

    The control row reads the control crawl's detection outcomes (domain ->
    outcome, with ``populations`` mapping domain -> "top"/"tail"); only the
    ad-blocker crawls are detected here.
    """
    detector = detector or FingerprintDetector()
    rows = [_impact_row("Control", control_outcomes.items(), populations)]
    for label, dataset in blocked_crawls.items():
        # Streamed: each outcome is dropped once counted, so a crawl's
        # outcomes are never all held at once.
        outcomes = ((obs.domain, detector.detect(obs)) for obs in dataset.successful())
        rows.append(_impact_row(label, outcomes, dataset.populations()))
    return tuple(rows)


def render_twice_fraction(outcomes: Mapping[str, DetectionOutcome]) -> float:
    """§5.3: fraction of FP sites with some canvas generated and extracted
    at least twice (the randomization-detection signature).

    Thin batch driver over :class:`repro.core.reducers.RenderTwiceReducer`.
    """
    from repro.core.reducers import RenderTwiceReducer

    reducer = RenderTwiceReducer()
    for domain, outcome in outcomes.items():
        reducer.ingest_outcome(domain, "top", outcome)
    return reducer.finalize()
