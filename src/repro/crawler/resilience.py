"""Retry policy, page budget and crash isolation for the crawl engine.

The paper's real crawl lost roughly a thousand of its 40k targets to
transient failures (16,276/17,260 successes per population).  This module is
the machinery that keeps such losses bounded and *recoverable*:

* :data:`failure classification <is_transient>` — which failure reasons are
  worth retrying (connection errors, timeouts, 5xx, truncated transfers) and
  which never are (bot blocks, 404s, deterministic crashes);
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic jitter, advanced over a virtual clock so no wall-clock time
  passes in tests or benchmarks;
* :class:`PageBudget` — the per-page watchdog: a virtual-time ceiling and an
  optional JS step cap, both surfaced as a ``timeout`` failure reason
  instead of a hung crawl;
* :func:`collect_with_retries` — the retry loop around one collector visit.

Crash isolation itself lives in
:meth:`~repro.crawler.collector.CanvasCollector.collect`, which converts any
uncaught exception into a failed observation with reason
``crash:<ExceptionType>`` so one bad page cannot kill a 40k-site crawl.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.browser.instrumentation import VirtualClock
from repro.core.records import SiteObservation

__all__ = [
    "TRANSIENT_PREFIXES",
    "PERMANENT_REASONS",
    "is_transient",
    "PageBudget",
    "RetryPolicy",
    "collect_with_retries",
    "count_page",
]

#: Failure-reason prefixes a retry can plausibly fix: the site may answer on
#: the next attempt.
TRANSIENT_PREFIXES = (
    "network-error",
    "timeout",
    "server-error",      # 5xx — distinct from permanent 4xx
    "truncated-script",
    "subresource-error",
)

#: Failure reasons that are definitive: retrying only re-annoys the target.
PERMANENT_REASONS = frozenset({"bot-blocked", "not-found"})


def is_transient(reason: Optional[str]) -> bool:
    """Whether a failure reason names a transient (retry-worthy) class."""
    if reason is None or reason in PERMANENT_REASONS:
        return False
    return any(reason == p or reason.startswith(p) for p in TRANSIENT_PREFIXES)


@dataclass(frozen=True)
class PageBudget:
    """Per-page watchdog limits.

    ``max_page_ms`` is virtual time (the page clock plus injected response
    latency); ``max_js_steps`` caps interpreter work per script.  Exceeding
    either yields a ``timeout`` failure reason — the crawl analogue of the
    real collector killing a page that never settles.
    """

    max_page_ms: float = 90_000.0
    max_js_steps: Optional[int] = None

    def exceeded(self, elapsed_ms: float) -> bool:
        return elapsed_ms > self.max_page_ms


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff over transient failures only.

    Backoff delays are deterministic: jitter is drawn from a RNG seeded by
    ``(key, attempt)``, so the same crawl replays the same schedule — which
    keeps fault-injection tests and resumed crawls reproducible.
    """

    max_attempts: int = 3
    base_delay_ms: float = 500.0
    backoff_factor: float = 2.0
    max_delay_ms: float = 30_000.0
    jitter_fraction: float = 0.1
    #: Crashes (``crash:*``) are deterministic bugs, not weather; retrying
    #: them is off by default.
    retry_crashes: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def is_retryable(self, reason: Optional[str]) -> bool:
        if reason is None:
            return False
        if reason.startswith("crash:"):
            return self.retry_crashes
        return is_transient(reason)

    def delay_ms(self, attempt: int, key: str = "") -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` >= 1 made so far)."""
        delay = min(
            self.base_delay_ms * self.backoff_factor ** (attempt - 1), self.max_delay_ms
        )
        if self.jitter_fraction:
            rng = random.Random(f"retry:{key}:{attempt}")
            delay *= 1.0 + rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return delay

    def backoff_schedule(self, key: str = "") -> List[float]:
        """Every delay the policy would sleep for ``key``, in order."""
        return [self.delay_ms(attempt, key) for attempt in range(1, self.max_attempts)]


def collect_with_retries(
    collector,
    target,
    policy: Optional[RetryPolicy] = None,
    clock: Optional[VirtualClock] = None,
    label: str = "",
) -> SiteObservation:
    """Visit one target, retrying transient failures per ``policy``.

    ``collector`` is any object with a ``collect(domain, rank, population)``
    returning a :class:`SiteObservation` (crash isolation is the collector's
    job).  ``clock`` — a crawl-level virtual clock — advances by each backoff
    delay, keeping the whole retry dance wall-clock free.

    ``label`` names the crawl configuration in the observability layer: the
    whole visit (retries included) is one ``crawl.page`` span, each backoff
    a ``crawl.retry`` event, and the settled outcome lands in the
    ``crawler.*`` metrics that ``repro.obs summary`` folds back into
    :class:`~repro.crawler.crawl.CrawlHealth`-equivalent totals.
    """
    started = time.perf_counter()
    with obs.span(
        "crawl.page", domain=target.domain, population=target.population
    ) as page_span:
        attempts = 0
        while True:
            attempts += 1
            observation = collector.collect(target.domain, target.rank, target.population)
            observation.attempts = attempts
            if observation.success:
                break
            if (
                policy is None
                or attempts >= policy.max_attempts
                or not policy.is_retryable(observation.failure_reason)
            ):
                break
            obs.event(
                "crawl.retry",
                sample_key=target.domain,
                domain=target.domain,
                attempt=attempts,
                reason=observation.failure_reason,
            )
            if clock is not None:
                clock.advance(policy.delay_ms(attempts, key=target.domain))
        page_span.set_attr("attempts", attempts)
        page_span.set_attr("success", observation.success)
        if not observation.success:
            page_span.set_attr("failure_reason", observation.failure_reason)
            page_span.set_status("error")
    count_page(observation, label)
    if not observation.success and (observation.failure_reason or "").startswith("timeout"):
        obs.event("crawl.watchdog", sample_key=observation.domain, domain=observation.domain)
    obs.observe("crawl.page.seconds", time.perf_counter() - started)
    return observation


def count_page(observation: SiteObservation, label: str) -> None:
    """Fold one settled observation into the crawler counters, per crawl label.

    The bracketed names (``crawler.pages[control]``,
    ``crawler.attempts[control|2]``…) are what
    :func:`repro.obs.inspect.crawl_totals` parses back into health totals —
    the two must stay in lockstep.  Besides :func:`collect_with_retries`,
    the supervisor counts here the observations whose worker never shipped
    its metrics delta.
    """
    attempts = observation.attempts
    obs.inc(obs._labeled("crawler.pages", label))
    obs.inc(obs._labeled("crawler.attempts_total", label), attempts)
    obs.inc(f"crawler.attempts[{label}|{attempts}]")
    if attempts > 1:
        obs.inc(obs._labeled("crawler.retries", label), attempts - 1)
    if observation.success:
        obs.inc(obs._labeled("crawler.pages_ok", label))
        if observation.recovered:
            obs.inc(obs._labeled("crawler.recovered", label))
    elif observation.failure_reason:
        obs.inc(f"crawler.failures[{label}|{observation.failure_reason}]")
        if observation.failure_reason.startswith("timeout"):
            obs.inc(obs._labeled("crawler.watchdog", label))
    if observation.inner_page_failures:
        obs.inc(
            obs._labeled("crawler.inner_page_failures", label),
            observation.inner_page_failures,
        )
