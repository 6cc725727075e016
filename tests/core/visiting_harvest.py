"""The visiting vendor harvest: every demo page and known customer is loaded.

The ``signatures`` stage reads a known customer the control crawl visited
from the control crawl's detection outcomes instead of loading its page
again.  This
harvest loads every one, each in a fresh browser visit under the control
profile with no retries: it is the harvest as it was before that reuse,
kept as the oracle the reuse answers to on an unfaulted world.  The pattern
follows ``tests/crawler/eager_browser.py``, the oracle of static triage.
"""

from typing import List, Sequence, Set

from repro.browser.browser import Browser
from repro.browser.profile import BrowserProfile
from repro.canvas.device import INTEL_UBUNTU
from repro.core.attribution import IMPERVA_URL_REGEX, VendorSignature
from repro.core.detection import FingerprintDetector
from repro.crawler.collector import CanvasCollector
from repro.crawler.crawl import CrawlDataset
from repro.net.url import URL


def visiting_harvest(network, knowledge: Sequence, control: CrawlDataset) -> List[VendorSignature]:
    """Appendix A.3's harvest, loading every demo page and known customer."""
    detector = FingerprintDetector()
    collector = CanvasCollector(Browser(network, BrowserProfile(device=INTEL_UBUNTU)))
    injector = getattr(network, "injector", None)
    signatures: List[VendorSignature] = []

    def visit(domain: str):
        if injector is not None:
            injector.new_visit()
        return collector.collect(domain, rank=0, population="top")

    def pattern_hashes(observation, pattern: str) -> Set[str]:
        return {
            extraction.canvas_hash
            for extraction in detector.detect(observation).fingerprintable
            if extraction.script_url and pattern in extraction.script_url
        }

    for vendor in knowledge:
        hashes: Set[str] = set()
        if vendor.demo_url is not None:
            outcome = detector.detect(visit(URL.parse(vendor.demo_url).host))
            hashes |= {e.canvas_hash for e in outcome.fingerprintable}
        if not hashes and vendor.known_customers and vendor.script_pattern:
            for customer in vendor.known_customers:
                hashes |= pattern_hashes(visit(customer), vendor.script_pattern)
        if not hashes and vendor.script_pattern and not vendor.uses_url_regex:
            for observation in control.successful():
                hashes |= pattern_hashes(observation, vendor.script_pattern)
        signatures.append(
            VendorSignature(
                name=vendor.name,
                security=vendor.security,
                canvas_hashes=hashes,
                script_pattern=vendor.script_pattern,
                url_regex=IMPERVA_URL_REGEX if vendor.uses_url_regex else None,
                methods=vendor.methods,
            )
        )
    return signatures
