"""Crawl orchestration over site lists: profile sets, retries, checkpointing, resume."""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

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
    "ProfileSet",
    "CrawlTarget",
    "CrawlDataset",
    "CrawlHealth",
    "crawl_profiles",
    "run_crawl",
    "resume_crawls",
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

#: An ordered profile set: ``(label, profile)`` pairs, control first.  A
#: site-major crawl loads each site under every profile, in this order,
#: before it moves on to the next site.
ProfileSet = Tuple[Tuple[str, Optional[BrowserProfile]], ...]


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


def crawl_profiles(
    network: Network,
    targets: Iterable[CrawlTarget],
    profiles: ProfileSet,
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    inner_paths: tuple = (),
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    checkpoints: Optional[Mapping[str, Any]] = None,
    resume_from: Optional[Mapping[str, CrawlDataset]] = None,
    static_triage: Optional[bool] = None,
) -> Dict[str, CrawlDataset]:
    """Visit every target under every profile of ``profiles``, site-major.

    The crawl loop: each site is loaded under every profile back to back,
    in profile order, before the next site, so the later profiles find the
    site's scripts compiled and its canvases rendered.  Every (site,
    profile) visit settles through :func:`collect_with_retries` under its
    own label with a fresh fault clock, so each label's dataset equals a
    separate crawl under that profile alone.  Returns one dataset per label.

    Each profile gets its own browser, reused across sites; every page load
    gets a fresh JS realm — matching how the real collector isolates page
    contexts within one browser process.  The collector closes each page
    once observed, and the loop runs under the cyclic collector's
    :data:`_CRAWL_GC_THRESHOLD`, restoring the previous thresholds however
    it ends.

    Resilience knobs (all optional, all off by default):

    * ``retry_policy`` — retry transient failures with deterministic backoff;
    * ``page_budget`` — per-page watchdog (virtual-time + JS step ceiling);
    * ``checkpoints`` — per label, any object with ``write(observation)``;
      called as each observation lands, so a killed crawl leaves a loadable
      partial file (see :class:`repro.crawler.storage.CheckpointWriter`);
    * ``resume_from`` — per label, a previously persisted (partial) dataset
      whose domains are carried over verbatim and not re-visited under that
      label.

    When retries or fault injection are in play and no ``page_budget`` is
    given, a default :class:`PageBudget` is installed: a slow-response fault
    is pure virtual latency until a budget converts it into a ``timeout``,
    so a robustness run without a watchdog would silently skip that whole
    fault class.
    """
    labels = [label for label, _profile in profiles]
    if len(set(labels)) != len(labels):
        raise ValueError(f"profile labels must be unique, got {labels}")
    injector = getattr(network, "injector", None)
    if page_budget is None and (retry_policy is not None or injector is not None):
        page_budget = PageBudget()
    collectors = {
        label: CanvasCollector(
            Browser(
                network,
                profile,
                js_step_budget=page_budget.max_js_steps if page_budget else None,
                static_triage=static_triage,
            ),
            inner_paths=inner_paths,
            budget=page_budget,
        )
        for label, profile in profiles
    }
    datasets = {label: CrawlDataset(label=label) for label in labels}
    done: Dict[str, set] = {label: set() for label in labels}
    for label, prior in (resume_from or {}).items():
        datasets[label].observations.extend(prior.observations)
        done[label].update(observation.domain for observation in prior.observations)

    # Crawl-level virtual clock: backoff delays advance it, so retry timing
    # is observable and deterministic without any wall-clock sleeping.
    backoff_clock = VirtualClock()

    saved_threshold = gc.get_threshold()
    gc.set_threshold(*_CRAWL_GC_THRESHOLD)
    try:
        for index, target in enumerate(targets):
            for label in labels:
                if target.domain in done[label]:
                    continue
                if injector is not None:
                    # Each settle starts a fresh fault clock (see FaultInjector).
                    injector.new_visit()
                observation = collect_with_retries(
                    collectors[label],
                    target,
                    policy=retry_policy,
                    clock=backoff_clock,
                    label=label,
                )
                datasets[label].observations.append(observation)
                if checkpoints is not None:
                    checkpoints[label].write(observation)
                if progress is not None:
                    progress(index, observation)
    finally:
        gc.set_threshold(*saved_threshold)
    return datasets


def run_crawl(
    network: Network,
    targets: Iterable[CrawlTarget],
    profile: Optional[BrowserProfile] = None,
    label: str = "control",
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    inner_paths: tuple = (),
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    static_triage: Optional[bool] = None,
) -> CrawlDataset:
    """Visit every target with one browser configuration.

    The one-profile case of :func:`crawl_profiles`, whose knobs it takes
    for the single ``label``.
    """
    return crawl_profiles(
        network,
        targets,
        ((label, profile),),
        progress=progress,
        inner_paths=inner_paths,
        retry_policy=retry_policy,
        page_budget=page_budget,
        static_triage=static_triage,
    )[label]


def resume_crawls(
    network: Network,
    targets: Iterable[CrawlTarget],
    profiles: ProfileSet,
    out_paths: Mapping[str, Any],
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    inner_paths: tuple = (),
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    resume: bool = True,
    static_triage: Optional[bool] = None,
) -> Dict[str, CrawlDataset]:
    """Run (or continue) a site-major crawl checkpointed to one file per label.

    Every observation is appended to ``<out_paths[label]>.partial`` as it
    lands; on completion each partial is atomically promoted to its path.
    With ``resume=True`` each label's existing partial (or finished) file is
    loaded first and its domains are not visited again under that label, so
    a crawl killed between two profiles of a site loads only the missing
    (site, profile) pairs and completes into the datasets of an
    uninterrupted run.  A failed crawl closes every file without promoting
    it, keeping the partials for a later resume.
    """
    # Local import: storage depends on this module for CrawlDataset.
    from repro.crawler import storage

    priors = {}
    if resume:
        for label, _profile in profiles:
            prior = storage.load_checkpoint(out_paths[label])
            if prior is not None:
                priors[label] = prior
    with contextlib.ExitStack() as files:
        writers = {
            label: files.enter_context(
                storage.CheckpointWriter(out_paths[label], label=label, resume=resume)
            )
            for label, _profile in profiles
        }
        return crawl_profiles(
            network,
            targets,
            profiles,
            progress=progress,
            inner_paths=inner_paths,
            retry_policy=retry_policy,
            page_budget=page_budget,
            checkpoints=writers,
            resume_from=priors,
            static_triage=static_triage,
        )


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

    The one-profile case of :func:`resume_crawls`: with ``resume=True`` a
    crawl killed mid-run completes into a dataset identical to an
    uninterrupted one, under the label its file was started with.
    """
    from repro.crawler import storage

    if resume:
        label = storage.checkpoint_label(out_path) or label
    return resume_crawls(
        network,
        targets,
        ((label, profile),),
        {label: out_path},
        progress=progress,
        inner_paths=inner_paths,
        retry_policy=retry_policy,
        page_budget=page_budget,
        resume=resume,
        static_triage=static_triage,
    )[label]
