"""§4.2 — Canvas clustering.

Fingerprinting scripts are deterministic and the crawler visits every site
with the same browser and machine, so every site running a given script
produces *byte-identical* ``toDataURL`` output.  Grouping identical canvases
therefore groups sites by fingerprinting script — "fingerprinting the
fingerprinters".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.core.detection import DetectionOutcome
from repro.core.records import CanvasExtraction

__all__ = ["CanvasCluster", "cluster_canvases", "rank_clusters"]


@dataclass
class CanvasCluster:
    """All observations of one distinct test canvas across the crawl."""

    canvas_hash: str
    sample_data_url: str
    width: int = 0
    height: int = 0
    #: population -> set of domains rendering this canvas.
    sites: Dict[str, Set[str]] = field(default_factory=dict)
    #: script URLs observed generating this canvas.
    script_urls: Set[str] = field(default_factory=set)
    extraction_count: int = 0
    #: domain -> number of times this canvas was extracted there (the
    #: render-twice inconsistency check shows up as counts >= 2).
    extractions_per_site: Dict[str, int] = field(default_factory=dict)

    def site_count(self, population: Optional[str] = None) -> int:
        if population is not None:
            return len(self.sites.get(population, ()))
        return len(self.all_sites())

    def all_sites(self) -> Set[str]:
        out: Set[str] = set()
        for domains in self.sites.values():
            out |= domains
        return out

    def add(self, domain: str, population: str, extraction: CanvasExtraction) -> None:
        self.sites.setdefault(population, set()).add(domain)
        if extraction.script_url:
            self.script_urls.add(extraction.script_url)
        self.extraction_count += 1
        self.extractions_per_site[domain] = self.extractions_per_site.get(domain, 0) + 1
        if not self.width:
            self.width, self.height = extraction.width, extraction.height


def cluster_canvases(
    outcomes: Mapping[str, DetectionOutcome],
    populations: Mapping[str, str],
) -> Dict[str, CanvasCluster]:
    """Group fingerprintable canvases by identical content.

    ``outcomes`` maps domain -> detection outcome; ``populations`` maps
    domain -> "top" / "tail".  Returns clusters keyed by canvas hash.

    Thin batch driver over :class:`repro.core.reducers.ClusterReducer` —
    the streaming path and this one share a single code path.
    """
    from repro.core.reducers import ClusterReducer

    reducer = ClusterReducer()
    for domain, outcome in outcomes.items():
        reducer.ingest_outcome(domain, populations.get(domain, "top"), outcome)
    return reducer.finalize()


def rank_clusters(
    clusters: Mapping[str, CanvasCluster], population: str = "top"
) -> List[CanvasCluster]:
    """Clusters sorted by popularity in one population (Figure 1's x-axis).

    Ties break deterministically by canvas hash.
    """
    return sorted(
        clusters.values(),
        key=lambda c: (-c.site_count(population), c.canvas_hash),
    )
