"""§4.3.1 — Dissecting the FingerprintJS ecosystem.

All FingerprintJS deployments render the same test canvases, so clustering
lumps them together; the paper separates them using the script URL and the
script *content*: the commercial build probes extra surfaces (e.g. mathML)
the OSS build does not, and several ad-tech companies self-host the OSS
build on their own domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.core.detection import DetectionOutcome
from repro.core.records import SiteObservation
from repro.net.url import URL, URLError, registrable_domain

__all__ = ["FPJSBreakdown", "fpjs_breakdown", "site_fpjs_flavor", "ADTECH_HOST_NAMES"]

#: Registrable domains of known ad-tech self-hosters (paper §4.3.1).
ADTECH_HOST_NAMES: Tuple[Tuple[str, str], ...] = (
    ("aldata-media.com", "AIdata"),
    ("adskeeper.com", "adskeeper"),
    ("trafficjunky.net", "trafficjunky"),
    ("mgid.com", "MGID"),
    ("acint.net", "acint.net"),
)

#: Content markers of the commercial build (extra fingerprint surfaces).
_COMMERCIAL_MARKERS = ("__mathmlProbe", "__proVersion", "Fingerprint Pro")
_COMMERCIAL_URL_HINTS = ("fpnpmcdn.net", "fingerprintjs-pro")


@dataclass
class FPJSBreakdown:
    """Per-flavor site counts among FingerprintJS-attributed sites."""

    #: flavor -> {"top": n, "tail": n}; flavors: "commercial", each ad-tech
    #: name, and "oss" (self-hosted / bundled / CDN open-source).
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def add(self, flavor: str, population: str) -> None:
        row = self.counts.setdefault(flavor, {"top": 0, "tail": 0})
        row[population] = row.get(population, 0) + 1

    def get(self, flavor: str) -> Dict[str, int]:
        return self.counts.get(flavor, {"top": 0, "tail": 0})


def _classify_deployment(
    script_url: Optional[str], source: Optional[str]
) -> str:
    """Which FPJS flavor served this canvas?"""
    if source:
        if any(marker in source for marker in _COMMERCIAL_MARKERS):
            return "commercial"
    if script_url and "#inline" not in script_url:
        if any(hint in script_url for hint in _COMMERCIAL_URL_HINTS):
            return "commercial"
        try:
            host_site = registrable_domain(URL.parse(script_url).host)
        except URLError:
            return "oss"
        for domain, name in ADTECH_HOST_NAMES:
            if host_site == domain:
                return name
    if source:
        for _domain, name in ADTECH_HOST_NAMES:
            if name in source:
                return name
    return "oss"


def site_fpjs_flavor(
    observation: Optional[SiteObservation],
    outcome: DetectionOutcome,
    fpjs_hashes: Set[str],
) -> Optional[str]:
    """The FPJS deployment flavor of one site, or None when no FPJS canvas.

    Commercial evidence wins; then a named ad-tech host; else OSS.
    """
    matching = [e for e in outcome.fingerprintable if e.canvas_hash in fpjs_hashes]
    if not matching:
        return None
    flavors = set()
    for extraction in matching:
        source = None
        if observation is not None and extraction.script_url:
            source = observation.script_sources.get(extraction.script_url)
        flavors.add(_classify_deployment(extraction.script_url, source))
    if "commercial" in flavors:
        return "commercial"
    if flavors - {"oss"}:
        return sorted(flavors - {"oss"})[0]
    return "oss"


def fpjs_breakdown(
    observations: Mapping[str, SiteObservation],
    outcomes: Mapping[str, DetectionOutcome],
    populations: Mapping[str, str],
    fpjs_hashes: Set[str],
) -> FPJSBreakdown:
    """Classify every FingerprintJS-canvas site by deployment flavor.

    ``fpjs_hashes`` is the vendor's harvested canvas signature.  For each
    site rendering one of those canvases, the generating script's URL and
    recorded source decide the flavor (commercial markers win; ad-tech hosts
    next; everything else is open-source self-hosting).
    """
    breakdown = FPJSBreakdown()
    for domain, outcome in outcomes.items():
        flavor = site_fpjs_flavor(observations.get(domain), outcome, fpjs_hashes)
        if flavor is not None:
            breakdown.add(flavor, populations.get(domain, "top"))
    return breakdown
