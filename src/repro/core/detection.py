"""§3.2 — Detecting canvas fingerprinting.

All ``toDataURL`` extractions are recorded, but not all generated canvases
are fingerprints.  Following the paper (adapting Englehardt & Narayanan's
heuristics), an extraction is *fingerprintable* unless:

1. it was extracted in a lossy format (JPEG/WebP) — compression destroys
   the sub-pixel differences fingerprinting needs, and excluding WebP also
   excludes WebP-support compatibility checks;
2. the canvas is small (< 16x16 px) — too little complexity to fingerprint,
   and this conveniently excludes emoji compatibility tests;
3. the extracting script also invoked animation-associated methods
   (``save``, ``restore``, …) on the page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.records import ANIMATION_METHODS, CanvasExtraction, SiteObservation

__all__ = ["ExclusionReason", "DetectionOutcome", "FingerprintDetector", "MIN_CANVAS_SIZE"]

#: Canvases strictly smaller than this (in either dimension) are excluded.
MIN_CANVAS_SIZE = 16


class ExclusionReason(str, enum.Enum):
    LOSSY_FORMAT = "lossy-format"
    TOO_SMALL = "too-small"
    ANIMATION_SCRIPT = "animation-script"


@dataclass
class DetectionOutcome:
    """Detection result for one site's observations."""

    domain: str
    fingerprintable: List[CanvasExtraction] = field(default_factory=list)
    excluded: List[Tuple[CanvasExtraction, ExclusionReason]] = field(default_factory=list)

    @property
    def total_extractions(self) -> int:
        return len(self.fingerprintable) + len(self.excluded)

    @property
    def is_fingerprinting_site(self) -> bool:
        """Did the site extract at least one fingerprintable canvas?"""
        return bool(self.fingerprintable)

    @property
    def fully_excluded(self) -> bool:
        """Extracted canvases, but every one was excluded (Appendix A.2)."""
        return bool(self.excluded) and not self.fingerprintable

    def excluded_by(self, reason: ExclusionReason) -> List[CanvasExtraction]:
        return [e for e, r in self.excluded if r is reason]


class FingerprintDetector:
    """Applies the three §3.2 filters to site observations."""

    def __init__(self, min_size: int = MIN_CANVAS_SIZE) -> None:
        self.min_size = min_size

    def classify_extraction(
        self, extraction: CanvasExtraction, animation_scripts: Set[Optional[str]]
    ) -> Optional[ExclusionReason]:
        """Why this extraction is excluded, or None if fingerprintable."""
        if not extraction.is_lossless:
            return ExclusionReason.LOSSY_FORMAT
        if extraction.width < self.min_size or extraction.height < self.min_size:
            return ExclusionReason.TOO_SMALL
        if extraction.script_url in animation_scripts:
            return ExclusionReason.ANIMATION_SCRIPT
        return None

    def detect(self, observation: SiteObservation) -> DetectionOutcome:
        """Classify every extraction recorded on one site."""
        animation_scripts: Set[Optional[str]] = set()
        for call in observation.calls:
            if call.method in ANIMATION_METHODS:
                animation_scripts.add(call.script_url)

        outcome = DetectionOutcome(domain=observation.domain)
        for extraction in observation.extractions:
            reason = self.classify_extraction(extraction, animation_scripts)
            if reason is None:
                outcome.fingerprintable.append(extraction)
            else:
                outcome.excluded.append((extraction, reason))
        return outcome

    def detect_all(self, observations: Iterable[SiteObservation]) -> Dict[str, DetectionOutcome]:
        """Detection outcomes for a whole crawl, keyed by domain.

        Records *successful* observations only, matching how the pipeline
        has always fed this method (``dataset.successful()``).
        """
        return {obs.domain: self.detect(obs) for obs in observations if obs.success}

    @staticmethod
    def fingerprintable_fraction(outcomes: Iterable[DetectionOutcome]) -> float:
        """Fraction of all extracted canvases that are fingerprintable
        (the paper reports 83%)."""
        kept = 0
        total = 0
        for outcome in outcomes:
            kept += len(outcome.fingerprintable)
            total += outcome.total_extractions
        return kept / total if total else 0.0
