"""Correctness gate: every run's outputs are checked before any number counts.

The reference is the generator's plan (``World.plans``), which the
measurement pipeline never reads.  A site's outcome is *wrong* when the
crawl or the detector disagrees with the plan in a way the workload does not
allow; ``failed`` counts wrong sites plus failed whole-run checks.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set

__all__ = [
    "GateReport", "canonical", "science_digest", "check_study", "check_crawl", "DigestLedger"
]


@dataclass
class GateReport:
    """The verdict on one iteration's outputs."""

    attempted: int = 0
    #: Sites whose outcome the workload does not allow, plus failed run checks.
    failed: int = 0
    #: Sites whose outcome differs from the plan at all (lost to faults too).
    plan_differs: int = 0
    errors: List[str] = field(default_factory=list)
    #: :func:`science_digest` of the study result (studies only).
    digest: str = ""

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def fail(self, message: str, count: int = 1) -> None:
        self.errors.append(message)
        self.failed += count


def canonical(value: Any) -> Any:
    """A JSON-ready form of ``value`` that does not depend on set or dict order.

    Dataclass fields declared ``compare=False`` (timings, counters, profiles)
    are left out: they are telemetry, not science.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        science = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
        return {"__type__": type(value).__name__, **science}
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        items = [(canonical(k), canonical(v)) for k, v in value.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, re.Pattern):
        return value.pattern
    if hasattr(value, "__dict__"):
        attributes = {k: canonical(v) for k, v in vars(value).items()}
        return {"__type__": type(value).__name__, **attributes}
    return repr(value)


def science_digest(value: Any) -> str:
    """SHA-256 over :func:`canonical` of ``value``."""
    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reachable(world) -> Set[str]:
    return {domain for domain, plan in world.plans.items() if plan.failure is None}


def _fingerprinting(outcomes) -> Set[str]:
    return {domain for domain, outcome in outcomes.items() if outcome.is_fingerprinting_site}


def check_study(world, result) -> GateReport:
    """A study must find exactly the planned sites and fingerprinters."""
    report = GateReport(attempted=len(result.control.observations))
    succeeded = {o.domain for o in result.control.successful()}
    wrong = succeeded ^ _reachable(world)
    for population in ("top", "tail"):
        truth = set(world.ground_truth_fp_sites(population))
        wrong |= result.fp_sites[population] ^ truth
    report.plan_differs = len(wrong)
    if wrong:
        report.fail(
            f"{len(wrong)} sites differ from the plan, e.g. {sorted(wrong)[:3]}", len(wrong)
        )
    if len(result.control.observations) != len(world.all_targets):
        report.fail("control crawl did not settle every target")
    if result.cross_machine_consistent is not True:
        report.fail(f"cross-machine check is {result.cross_machine_consistent!r}, not True")
    return report


def check_crawl(world, dataset, max_attempts: int, detector) -> GateReport:
    """A faulty crawl may lose a reachable site only to exhausted retries.

    Every other outcome must match the plan, and detection on the sites that
    loaded must equal the ground truth restricted to those sites.
    """
    from repro.crawler.resilience import is_transient

    report = GateReport(attempted=len(dataset.observations))
    reachable = _reachable(world)
    wrong: Set[str] = set()
    lost: Set[str] = set()
    for observation in dataset.observations:
        if observation.success:
            if observation.domain not in reachable:
                wrong.add(observation.domain)
        elif observation.domain in reachable:
            lost.add(observation.domain)
            exhausted = observation.attempts == max_attempts and is_transient(
                observation.failure_reason or ""
            )
            if not exhausted:
                wrong.add(observation.domain)
    succeeded = {o.domain for o in dataset.successful()}
    truth = {d for d in succeeded if world.plans[d].failure is None and world.plans[d].fingerprints}
    detected = _fingerprinting(detector.detect_all(dataset.successful()))
    wrong |= detected ^ truth
    report.plan_differs = len(wrong | lost)
    if wrong:
        report.fail(f"{len(wrong)} sites have outcomes the plan does not allow, e.g. "
                    f"{sorted(wrong)[:3]}", len(wrong))
    if {o.domain for o in dataset.observations} != {t.domain for t in world.all_targets}:
        report.fail("the crawl did not settle exactly the target list")
    return report


class DigestLedger:
    """Science digests by (source tree, seed, scale), kept in the checkout.

    ``study`` and ``study-jobs2`` run the same inputs for a seed, so the
    first to run records its digest and the other must match it.  The key
    includes a hash of the program's sources, so a changed program starts a
    fresh entry instead of comparing against old results.
    """

    def __init__(self, path: Path, source_root: Path) -> None:
        self.path = Path(path)
        self.tree = _tree_hash(Path(source_root))

    def check(self, seed: int, scale: float, digest: str, workload: str) -> List[str]:
        key = f"{self.tree}:{seed}:{scale}"
        entries: Dict[str, Dict[str, str]] = {}
        if self.path.exists():
            entries = json.loads(self.path.read_text(encoding="utf-8"))
        recorded = entries.setdefault(key, {})
        errors = [
            f"science digest differs from {other}'s for seed {seed}"
            for other, theirs in sorted(recorded.items())
            if other != workload and theirs != digest
        ]
        if recorded.get(workload, digest) != digest:
            errors.append(f"science digest changed between {workload} runs for seed {seed}")
        recorded.setdefault(workload, digest)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_suffix(".tmp")
        partial.write_text(json.dumps(entries, indent=1, sort_keys=True), encoding="utf-8")
        partial.replace(self.path)
        return errors


def _tree_hash(source_root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(source_root.rglob("*.py")):
        digest.update(str(path.relative_to(source_root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
