"""Crawl orchestration over site lists: retries, checkpointing, resume."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.browser.browser import Browser
from repro.browser.instrumentation import VirtualClock
from repro.browser.profile import BrowserProfile
from repro.core.records import SiteObservation
from repro.crawler.collector import CanvasCollector
from repro.crawler.resilience import (
    PageBudget,
    RetryPolicy,
    collect_with_retries,
    is_transient,
)
from repro.net.server import Network

__all__ = [
    "QUARANTINE_PREFIX",
    "CrawlTarget",
    "CrawlDataset",
    "CrawlHealth",
    "run_crawl",
    "resume_crawl",
]

#: Failure-reason prefix for sites the shard supervisor quarantined instead
#: of crawling (``quarantined:<last death signal>``).  Quarantined rows keep
#: the dataset self-accounting: every planned site appears as crawled,
#: failed, or quarantined — never silently missing.
QUARANTINE_PREFIX = "quarantined:"

#: Cyclic-collector thresholds while :func:`run_crawl` loops.  The collector
#: closes every page it loads, so page realms die by reference count and a
#: collection finds almost no page garbage: at the default (700, 10, 10) the
#: crawl still paid for hundreds of young collections per second, and for a
#: full collection, which re-walks the compiled-script cache, each time the
#: heap grew by a quarter.  Chosen by measurement (docs/performance.md,
#: "Page lifecycle").
_CRAWL_GC_THRESHOLD = (50_000, 20, 100)


@dataclass(frozen=True)
class CrawlTarget:
    """One site to visit."""

    domain: str
    rank: int
    population: str  # "top" | "tail"


@dataclass(frozen=True)
class CrawlHealth:
    """Operational health of one crawl — the paper's 16,276/17,260 story.

    Success counts say how much of the target list survived; the attempts
    histogram and recovered count say how much of that survival the retry
    layer bought; the failure table says what was lost and whether retrying
    harder could have helped (transient) or not (permanent).
    """

    label: str
    total: int
    successes: int
    #: Sites that only succeeded on a retry attempt (recovered transients).
    recovered: int
    #: attempts -> number of sites settling after exactly that many attempts.
    attempts_histogram: Dict[int, int]
    #: (reason, count, transient?) rows, most common first.
    failure_rows: Tuple[Tuple[str, int, bool], ...]
    inner_page_failures: int = 0
    #: Sites the shard supervisor quarantined (poison sites that kept killing
    #: their worker); counted inside the failure rows as ``quarantined:*``.
    quarantined: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.total if self.total else 0.0

    @property
    def total_attempts(self) -> int:
        return sum(a * n for a, n in self.attempts_histogram.items())

    def summary(self) -> str:
        lines = [
            f"crawl '{self.label}': {self.successes}/{self.total} sites ok "
            f"({self.success_rate:.1%}), {self.recovered} recovered by retry, "
            f"{self.total_attempts} page loads total",
        ]
        histogram = ", ".join(
            f"{attempts} attempt{'s' if attempts > 1 else ''}: {count}"
            for attempts, count in sorted(self.attempts_histogram.items())
        )
        lines.append(f"attempts histogram: {histogram or 'none'}")
        if self.inner_page_failures:
            lines.append(f"inner-page load failures: {self.inner_page_failures}")
        if self.quarantined:
            lines.append(
                f"quarantined by supervisor: {self.quarantined} site(s) "
                f"(degraded-mode completion; see quarantine.jsonl)"
            )
        if self.failure_rows:
            lines.append("failures by reason:")
            for reason, count, transient in self.failure_rows:
                kind = "transient" if transient else "permanent"
                lines.append(f"  {reason:28s} {count:6d}  ({kind})")
        return "\n".join(lines)


@dataclass
class CrawlDataset:
    """The output of one crawl configuration over a site list."""

    label: str
    observations: List[SiteObservation] = field(default_factory=list)

    def by_domain(self) -> Dict[str, SiteObservation]:
        return {o.domain: o for o in self.observations}

    def populations(self) -> Dict[str, str]:
        return {o.domain: o.population for o in self.observations}

    def successful(self, population: Optional[str] = None) -> List[SiteObservation]:
        return [
            o
            for o in self.observations
            if o.success and (population is None or o.population == population)
        ]

    def success_count(self, population: str) -> int:
        return len(self.successful(population))

    def failure_reasons(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for o in self.observations:
            if not o.success and o.failure_reason:
                out[o.failure_reason] = out.get(o.failure_reason, 0) + 1
        return out

    def quarantined_sites(self) -> Dict[str, str]:
        """domain -> full ``quarantined:<signal>`` reason for supervisor skips."""
        return {
            o.domain: o.failure_reason
            for o in self.observations
            if o.failure_reason and o.failure_reason.startswith(QUARANTINE_PREFIX)
        }

    # -- crawl health ---------------------------------------------------------

    def attempts_histogram(self) -> Dict[int, int]:
        """attempts -> number of sites that settled after that many attempts."""
        out: Dict[int, int] = {}
        for o in self.observations:
            out[o.attempts] = out.get(o.attempts, 0) + 1
        return out

    def recovered_count(self) -> int:
        """Sites that failed at least once but succeeded on a retry."""
        return sum(1 for o in self.observations if o.recovered)

    def failure_table(self) -> Tuple[Tuple[str, int, bool], ...]:
        """(reason, count, transient?) rows, most common first."""
        reasons = self.failure_reasons()
        return tuple(
            (reason, count, is_transient(reason))
            for reason, count in sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        )

    def health(self) -> CrawlHealth:
        return CrawlHealth(
            label=self.label,
            total=len(self.observations),
            successes=sum(1 for o in self.observations if o.success),
            recovered=self.recovered_count(),
            attempts_histogram=self.attempts_histogram(),
            failure_rows=self.failure_table(),
            inner_page_failures=sum(o.inner_page_failures for o in self.observations),
            quarantined=len(self.quarantined_sites()),
        )


def run_crawl(
    network: Network,
    targets: Iterable[CrawlTarget],
    profile: Optional[BrowserProfile] = None,
    label: str = "control",
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    inner_paths: tuple = (),
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    checkpoint=None,
    resume_from: Optional[CrawlDataset] = None,
    static_triage: Optional[bool] = None,
) -> CrawlDataset:
    """Visit every target with one browser configuration.

    The same browser instance is reused across sites, but each page load
    gets a fresh JS realm — matching how the real collector isolates page
    contexts within one browser process.  The collector closes each page
    once observed, and the loop runs under the cyclic collector's
    :data:`_CRAWL_GC_THRESHOLD`, restoring the previous thresholds however
    it ends.

    Resilience knobs (all optional, all off by default):

    * ``retry_policy`` — retry transient failures with deterministic backoff;
    * ``page_budget`` — per-page watchdog (virtual-time + JS step ceiling);
    * ``checkpoint`` — any object with ``write(observation)``; called as each
      observation lands, so a killed crawl leaves a loadable partial file
      (see :class:`repro.crawler.storage.CheckpointWriter`);
    * ``resume_from`` — a previously persisted (partial) dataset whose
      domains are carried over verbatim and not re-visited.

    When retries or fault injection are in play and no ``page_budget`` is
    given, a default :class:`PageBudget` is installed: a slow-response fault
    is pure virtual latency until a budget converts it into a ``timeout``,
    so a robustness run without a watchdog would silently skip that whole
    fault class.
    """
    if page_budget is None and (
        retry_policy is not None or getattr(network, "injector", None) is not None
    ):
        page_budget = PageBudget()
    browser = Browser(
        network,
        profile,
        js_step_budget=page_budget.max_js_steps if page_budget else None,
        static_triage=static_triage,
    )
    collector = CanvasCollector(browser, inner_paths=inner_paths, budget=page_budget)
    dataset = CrawlDataset(label=label)

    done = set()
    if resume_from is not None:
        for observation in resume_from.observations:
            dataset.observations.append(observation)
            done.add(observation.domain)

    # Crawl-level virtual clock: backoff delays advance it, so retry timing
    # is observable and deterministic without any wall-clock sleeping.
    backoff_clock = VirtualClock()

    saved_threshold = gc.get_threshold()
    gc.set_threshold(*_CRAWL_GC_THRESHOLD)
    try:
        for index, target in enumerate(targets):
            if target.domain in done:
                continue
            observation = collect_with_retries(
                collector, target, policy=retry_policy, clock=backoff_clock, label=label
            )
            dataset.observations.append(observation)
            if checkpoint is not None:
                checkpoint.write(observation)
            if progress is not None:
                progress(index, observation)
    finally:
        gc.set_threshold(*saved_threshold)
    return dataset


def resume_crawl(
    network: Network,
    targets: Iterable[CrawlTarget],
    out_path,
    profile: Optional[BrowserProfile] = None,
    label: str = "control",
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    inner_paths: tuple = (),
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    resume: bool = True,
    static_triage: Optional[bool] = None,
) -> CrawlDataset:
    """Run (or continue) a checkpointed crawl persisted at ``out_path``.

    Every observation is appended to ``<out_path>.partial`` as it lands; on
    completion the partial is atomically promoted to ``out_path``.  With
    ``resume=True`` an existing partial (or finished) file is loaded first
    and its domains are skipped, so a crawl killed mid-run completes into a
    dataset identical to an uninterrupted one.
    """
    # Local import: storage depends on this module for CrawlDataset.
    from repro.crawler import storage

    prior = storage.load_checkpoint(out_path) if resume else None
    if prior is not None:
        label = prior.label
    writer = storage.CheckpointWriter(out_path, label=label, resume=resume)
    try:
        dataset = run_crawl(
            network,
            targets,
            profile=profile,
            label=label,
            progress=progress,
            inner_paths=inner_paths,
            retry_policy=retry_policy,
            page_budget=page_budget,
            checkpoint=writer,
            resume_from=prior,
            static_triage=static_triage,
        )
    except BaseException:
        # Keep the partial file for a later --resume; never half-finalize.
        writer.close()
        raise
    writer.finalize()
    return dataset
