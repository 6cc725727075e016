"""Fingerprinting the fingerprinters: vendor attribution walkthrough.

Demonstrates the Appendix A.3 methodology on a small world:

1. harvest each vendor's test canvases from its public demo page,
2. or from known customer sites (confirmed by script URL pattern),
3. attribute crawl observations to vendors by canvas hash — which works
   even when the script is bundled first-party and the URL tells you
   nothing — plus Imperva's URL-regex special case.

Run:  python examples/vendor_attribution.py
"""

from repro.config import StudyScale
from repro.core import FingerprintDetector, VendorAttributor
from repro.core.pipeline import harvest_targets, harvest_vendor_signatures
from repro.crawler import run_crawl
from repro.webgen import build_world


def main() -> None:
    world = build_world(StudyScale(fraction=0.04))

    print("Ground-truth sources (Table 3):")
    for knowledge in world.vendor_knowledge():
        source = (
            f"demo page {knowledge.demo_url}"
            if knowledge.demo_url
            else f"{len(knowledge.known_customers)} known customers"
            if knowledge.known_customers
            else "script pattern only"
        )
        pattern = knowledge.script_pattern or ("<URL regex>" if knowledge.uses_url_regex else "-")
        print(f"  {knowledge.name:26s} via {source:40s} pattern: {pattern}")

    print("\nCrawling the synthetic web (control configuration)...")
    control = run_crawl(world.network, world.all_targets, label="control")

    detector = FingerprintDetector()
    outcomes = detector.detect_all(control.successful())

    print("Harvesting vendor canvas signatures (loading the demo pages)...")
    knowledge = world.vendor_knowledge()
    pages = run_crawl(world.network, harvest_targets(knowledge, control), label="harvest")
    signatures = harvest_vendor_signatures(knowledge, outcomes, pages)
    for sig in signatures:
        print(f"  {sig.name:26s} {len(sig.canvas_hashes)} distinct test canvases harvested")

    attributor = VendorAttributor(signatures)
    attributions = attributor.attribute_all(control.by_domain(), outcomes)

    print("\nPer-site attributions (first 15 fingerprinting sites):")
    shown = 0
    for domain, attribution in sorted(attributions.items()):
        if not attribution.vendors:
            continue
        evidence = ", ".join(f"{v} ({attribution.evidence[v]})" for v in sorted(attribution.vendors))
        print(f"  {domain:28s} -> {evidence}")
        shown += 1
        if shown >= 15:
            break

    counts = attributor.vendor_site_counts(attributions, control.populations())
    print("\nVendor reach (sites, top/tail):")
    for vendor, c in sorted(counts.items(), key=lambda kv: -(kv[1]["top"] + kv[1]["tail"])):
        if c["top"] or c["tail"]:
            print(f"  {vendor:26s} {c['top']:4d} / {c['tail']:4d}")


if __name__ == "__main__":
    main()
