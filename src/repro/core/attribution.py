"""§4.3 / Appendix A.3 — Attributing test canvases to fingerprinting vendors.

Ground truth is harvested exactly the way the paper describes, in order of
precedence:

1. **Demo** — crawl the vendor's public demo page and record the test
   canvases it renders.
2. **Known customer** — crawl known customer sites, always confirmed with
   the script pattern.
3. **Script pattern** — a URL substring/regex associated with the vendor's
   fingerprinting script.

Imperva is the special case: it renders a *unique canvas per customer site*,
so canvas grouping cannot find it; its customers are identified purely by
the script-URL regex of Table 3.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.detection import DetectionOutcome
from repro.core.records import SiteObservation

__all__ = [
    "AttributionMethod",
    "VendorSignature",
    "SiteAttribution",
    "VendorAttributor",
    "IMPERVA_URL_REGEX",
]

#: Table 3's Imperva regex, verbatim: a bare letters-and-dashes path.
IMPERVA_URL_REGEX = re.compile(r"https?://(?:www\.)?[^/]+/([A-Za-z\-]+)$")


class AttributionMethod(str, enum.Enum):
    DEMO = "demo"
    KNOWN_CUSTOMER = "known-customer"
    SCRIPT_PATTERN = "script-pattern"


@dataclass
class VendorSignature:
    """Ground truth for one fingerprinting vendor."""

    name: str
    security: bool = False
    #: Canvas hashes harvested from the vendor's demo / customer sites.
    canvas_hashes: Set[str] = field(default_factory=set)
    #: URL substring identifying the vendor's script (Table 3 column 3).
    script_pattern: Optional[str] = None
    #: Full regex for vendors identified purely by URL shape (Imperva).
    url_regex: Optional["re.Pattern[str]"] = None
    methods: Tuple[AttributionMethod, ...] = ()

    def matches_script_url(self, url: Optional[str]) -> bool:
        if url is None:
            return False
        if self.script_pattern and self.script_pattern in url:
            return True
        if self.url_regex and self.url_regex.match(url):
            return True
        return False


@dataclass
class SiteAttribution:
    """Vendors attributed to one site, with the evidence used."""

    domain: str
    vendors: Set[str] = field(default_factory=set)
    #: vendor -> how it was identified on this site.
    evidence: Dict[str, str] = field(default_factory=dict)


class VendorAttributor:
    """Attributes fingerprinting sites to vendors via canvases + patterns."""

    def __init__(self, signatures: Iterable[VendorSignature]) -> None:
        self.signatures: List[VendorSignature] = list(signatures)
        by_name = {s.name for s in self.signatures}
        if len(by_name) != len(self.signatures):
            raise ValueError("duplicate vendor signatures")

    def signature(self, name: str) -> VendorSignature:
        for sig in self.signatures:
            if sig.name == name:
                return sig
        raise KeyError(name)

    # -- attribution ----------------------------------------------------------------------

    def attribute_site(
        self,
        observation: SiteObservation,
        outcome: DetectionOutcome,
    ) -> SiteAttribution:
        """Attribute one fingerprinting site to vendors.

        Canvas-hash matches take precedence (they survive every serving-mode
        evasion); script-URL patterns add vendors whose canvases cannot be
        grouped (Imperva) or confirm hash matches.
        """
        result = SiteAttribution(domain=observation.domain)
        site_hashes = {e.canvas_hash for e in outcome.fingerprintable}
        script_urls = {e.script_url for e in outcome.fingerprintable if e.script_url}

        for sig in self.signatures:
            if sig.canvas_hashes and site_hashes & sig.canvas_hashes:
                result.vendors.add(sig.name)
                result.evidence[sig.name] = "canvas-match"
                continue
            if (sig.script_pattern or sig.url_regex) and any(
                sig.matches_script_url(u) for u in script_urls
            ):
                result.vendors.add(sig.name)
                result.evidence[sig.name] = "script-pattern"
        return result

    def attribute_all(
        self,
        observations: Mapping[str, SiteObservation],
        outcomes: Mapping[str, DetectionOutcome],
    ) -> Dict[str, SiteAttribution]:
        """Attribute every fingerprinting site in a crawl."""
        attributions: Dict[str, SiteAttribution] = {}
        for domain, outcome in outcomes.items():
            obs = observations.get(domain)
            if obs is not None and outcome.is_fingerprinting_site:
                attributions[domain] = self.attribute_site(obs, outcome)
        return attributions

    def vendor_site_counts(
        self,
        attributions: Mapping[str, SiteAttribution],
        populations: Mapping[str, str],
    ) -> Dict[str, Dict[str, int]]:
        """Table 1's cells: vendor -> population -> site count."""
        counts: Dict[str, Dict[str, int]] = {s.name: {"top": 0, "tail": 0} for s in self.signatures}
        for domain, attribution in attributions.items():
            population = populations.get(domain, "top")
            for vendor in attribution.vendors:
                counts[vendor][population] = counts[vendor].get(population, 0) + 1
        return counts

    def attributed_site_totals(
        self,
        attributions: Mapping[str, SiteAttribution],
        populations: Mapping[str, str],
    ) -> Dict[str, int]:
        """Table 1's "Total Sites" row: sites linked to >= 1 vendor."""
        totals = {"top": 0, "tail": 0}
        for domain, attribution in attributions.items():
            if attribution.vendors:
                population = populations.get(domain, "top")
                totals[population] = totals.get(population, 0) + 1
        return totals
