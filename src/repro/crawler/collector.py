"""Per-page collection: load, consent, behave, and assemble the observation."""

from __future__ import annotations

import dataclasses
from contextlib import closing
from typing import Iterable, List, Optional, Tuple

from repro.browser.browser import Browser, Page
from repro.browser.extensions import Extension
from repro.core.records import SiteObservation
from repro.crawler.autoconsent import Autoconsent
from repro.crawler.behavior import UserBehavior
from repro.crawler.resilience import PageBudget
from repro.net.http import Request
from repro.net.url import URL

__all__ = ["CanvasCollector", "SettleRecording", "Replay"]


class CanvasCollector:
    """The modified-Tracker-Radar-Collector analogue.

    Wraps a browser, handles banners and behavior simulation, and flattens
    the page's instrumentation into a :class:`SiteObservation`.  Every visit
    is crash-isolated: an exception anywhere in the load pipeline (parser,
    interpreter, instrumentation — any collector bug) becomes a failed
    observation with reason ``crash:<ExceptionType>`` rather than an aborted
    crawl.  An optional :class:`PageBudget` acts as the page watchdog,
    converting runaway pages into ``timeout`` failures.
    """

    def __init__(
        self,
        browser: Browser,
        inner_paths: tuple = (),
        budget: Optional[PageBudget] = None,
    ) -> None:
        self.browser = browser
        self.autoconsent = Autoconsent()
        self.behavior = UserBehavior()
        #: Optional inner pages to also visit (e.g. ("/login",)).  The
        #: paper's crawl is homepage-only — a stated lower bound; enabling
        #: inner paths measures what that bound misses.
        self.inner_paths = tuple(inner_paths)
        self.budget = budget

    def collect(self, domain: str, rank: int, population: str) -> SiteObservation:
        """Crawl one homepage (plus any configured inner pages), crash-isolated."""
        try:
            return self._collect(domain, rank, population)
        except Exception as exc:  # noqa: BLE001 — isolation is the whole point
            return SiteObservation(
                domain=domain,
                rank=rank,
                population=population,
                success=False,
                failure_reason=f"crash:{type(exc).__name__}",
                script_errors=[f"{type(exc).__name__}: {exc}"],
            )

    def _collect(self, domain: str, rank: int, population: str) -> SiteObservation:
        # Each page is closed as soon as the observation has copied what it
        # needs, so its realm dies by reference count (see Page.close).
        url = URL("https", domain)
        with closing(self.browser.load(url)) as page:
            observation = self._observe(domain, rank, population, page)
        if not observation.success:
            return observation

        for path in self.inner_paths:
            with closing(self.browser.load(url.with_path(path))) as inner:
                if not inner.ok:
                    # Most sites have no such page — but keep the miss visible.
                    observation.inner_page_failures += 1
                    continue
                self.autoconsent.handle(inner)
                self.behavior.simulate(inner)
                self._merge(observation, inner)
        return observation

    def _observe(self, domain: str, rank: int, population: str, page: Page) -> SiteObservation:
        """The homepage's observation: failed, or consented, scrolled and assembled."""
        if not page.ok:
            return self._failed(domain, rank, population, self._failure_reason(page), page)

        reason = self._page_fault_reason(page)
        if reason is not None:
            return self._failed(domain, rank, population, reason, page)

        self.autoconsent.handle(page)
        self.behavior.simulate(page)

        # The watchdog's final say: consent/scroll-triggered scripts also
        # spend the page's time budget.
        reason = self._page_fault_reason(page)
        if reason is not None:
            return self._failed(domain, rank, population, reason, page)

        return self._assemble(domain, rank, population, page)

    @staticmethod
    def _failed(
        domain: str, rank: int, population: str, reason: str, page: Page
    ) -> SiteObservation:
        return SiteObservation(
            domain=domain,
            rank=rank,
            population=population,
            success=False,
            failure_reason=reason,
            script_errors=list(page.script_errors),
        )

    @staticmethod
    def _merge(observation: SiteObservation, page: Page) -> None:
        instrument = page.instrument
        observation.calls.extend(instrument.calls)
        observation.property_accesses.extend(instrument.property_accesses)
        observation.extractions.extend(instrument.extractions)
        observation.blocked_urls.extend(page.blocked_urls)
        observation.script_errors.extend(page.script_errors)
        observation.script_sources.update(page.script_sources)

    def _failure_reason(self, page: Page) -> str:
        if page.status == 0:
            return "network-error"
        if page.status == 403:
            return "bot-blocked"
        if page.status == 404:
            return "not-found"
        if 500 <= page.status < 600:
            # 5xx is a server-side (often transient) condition, distinct from
            # the permanent 4xx client errors — the retry layer keys off it.
            return f"server-error-{page.status}"
        return f"http-{page.status}"

    def _page_fault_reason(self, page: Page) -> Optional[str]:
        """Post-load health check: transfer integrity, subresources, watchdog.

        Only *transient-looking* subresource failures (connection errors,
        5xx) fail the page — those are exactly what a retry can win back.  A
        DNS-nonexistent third-party host is permanent breakage the site
        shipped: the page stays a success with the miss recorded in
        ``script_errors``/``subresource_failures``, so retries are never
        burned on a host that will never exist.
        """
        if page.truncated_scripts:
            return "truncated-script"
        if any(
            status >= 500 or (status == 0 and error != "dns")
            for _url, status, error in page.subresource_failures
        ):
            return "subresource-error"
        if self.budget is not None:
            if self.budget.exceeded(page.elapsed_ms):
                return "timeout"
            if any("step budget exceeded" in e for e in page.script_errors):
                return "timeout"
        return None

    def _assemble(self, domain: str, rank: int, population: str, page: Page) -> SiteObservation:
        instrument = page.instrument
        return SiteObservation(
            domain=domain,
            rank=rank,
            population=population,
            success=True,
            final_url=str(page.url),
            calls=list(instrument.calls),
            property_accesses=list(instrument.property_accesses),
            extractions=list(instrument.extractions),
            blocked_urls=list(page.blocked_urls),
            script_errors=list(page.script_errors),
            script_sources=dict(page.script_sources),
        )


class SettleRecording:
    """One settle's attempts, kept for a later profile to replay.

    It is the collector of the settle it records: each visit lends the
    browser a list for the script requests its page loads put to
    extensions, and keeps the attempt's observation beside it.
    """

    def __init__(self, collector: CanvasCollector) -> None:
        self.collector = collector
        self.attempts: List[Tuple[SiteObservation, List[Request]]] = []

    def collect(self, domain: str, rank: int, population: str) -> SiteObservation:
        browser = self.collector.browser
        browser.script_requests = requests = []
        observation = self.collector.collect(domain, rank, population)
        browser.script_requests = None
        self.attempts.append((observation, requests))
        return observation

    def replayable(self, extensions: Tuple[Extension, ...]) -> bool:
        """Whether a profile that adds ``extensions`` would settle as recorded:
        no attempt crashed, and every extension lets every request through."""
        return not any(
            (observation.failure_reason or "").startswith("crash:")
            or any(extension.on_request(r) for r in requests for extension in extensions)
            for observation, requests in self.attempts
        )

    def replay(self) -> "Replay":
        return Replay(observation for observation, _requests in self.attempts)


class Replay:
    """A collector whose visits hand back a recorded settle's attempts in order.

    Each visit returns a copy of the next attempt's observation: fresh
    lists that share the recorded (frozen) records and strings.
    """

    def __init__(self, observations: Iterable[SiteObservation]) -> None:
        self._observations = iter(observations)

    def collect(self, domain: str, rank: int, population: str) -> SiteObservation:
        observation = next(self._observations)
        return dataclasses.replace(
            observation,
            calls=list(observation.calls),
            property_accesses=list(observation.property_accesses),
            extractions=list(observation.extractions),
            blocked_urls=list(observation.blocked_urls),
            script_errors=list(observation.script_errors),
            script_sources=dict(observation.script_sources),
        )
