"""§5.1 / Table 4 — Tracking and advertising context via blocklists.

For each fingerprintable canvas, check whether the script that generated it
is covered by EasyList, EasyPrivacy (static adblockparser check with
resource type ``script``, ignoring dynamic context) or the Disconnect list
(domain containment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.blocklists.disconnect import DisconnectList
from repro.blocklists.matcher import RuleMatcher
from repro.core.detection import DetectionOutcome

__all__ = [
    "BlocklistContext",
    "CoverageCounts",
    "analyze_blocklist_context",
    "blocklist_flags_for_url",
]


@dataclass
class CoverageCounts:
    """Canvas counts per population for one coverage category."""

    top: int = 0
    tail: int = 0

    def add(self, population: str) -> None:
        if population == "top":
            self.top += 1
        else:
            self.tail += 1

    def fraction(self, totals: "CoverageCounts") -> Tuple[float, float]:
        return (
            self.top / totals.top if totals.top else 0.0,
            self.tail / totals.tail if totals.tail else 0.0,
        )


@dataclass
class BlocklistContext:
    """Table 4: per-list canvas coverage."""

    totals: CoverageCounts = field(default_factory=CoverageCounts)
    easylist: CoverageCounts = field(default_factory=CoverageCounts)
    easyprivacy: CoverageCounts = field(default_factory=CoverageCounts)
    disconnect: CoverageCounts = field(default_factory=CoverageCounts)
    any_list: CoverageCounts = field(default_factory=CoverageCounts)
    all_lists: CoverageCounts = field(default_factory=CoverageCounts)

    def rows(self) -> Dict[str, CoverageCounts]:
        return {
            "EasyList": self.easylist,
            "EasyPrivacy": self.easyprivacy,
            "Disconnect": self.disconnect,
            "Any": self.any_list,
            "All": self.all_lists,
        }


def blocklist_flags_for_url(
    url: Optional[str],
    easylist: RuleMatcher,
    easyprivacy: RuleMatcher,
    disconnect: DisconnectList,
) -> Tuple[bool, bool, bool]:
    """(easylist, easyprivacy, disconnect) coverage for one script URL.

    Inline scripts (no URL) can never match — exactly why first-party
    bundling defeats URL/DNS-based detection (§5.2).
    """
    if url is None or "#inline" in url:
        return (False, False, False)
    return (
        easylist.listed(url, "script"),
        easyprivacy.listed(url, "script"),
        disconnect.contains_url(url),
    )


def analyze_blocklist_context(
    outcomes: Mapping[str, DetectionOutcome],
    populations: Mapping[str, str],
    easylist: RuleMatcher,
    easyprivacy: RuleMatcher,
    disconnect: DisconnectList,
) -> BlocklistContext:
    """Classify every fingerprintable canvas by its script's list coverage."""
    context = BlocklistContext()
    # Per-URL memo: crawls see the same script URLs thousands of times.
    # Pure cache: it never changes a count.
    memo: Dict[Optional[str], Tuple[bool, bool, bool]] = {}
    for domain, outcome in outcomes.items():
        population = populations.get(domain, "top")
        for extraction in outcome.fingerprintable:
            url = extraction.script_url
            flags = memo.get(url)
            if flags is None:
                flags = memo[url] = blocklist_flags_for_url(
                    url, easylist, easyprivacy, disconnect
                )
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
    return context
