"""User-behavior simulation: §3.1 — "simulates basic user behavior by
scrolling the page up and down and then waiting five seconds"."""

from __future__ import annotations

from repro.browser.browser import Page

__all__ = ["UserBehavior"]


class UserBehavior:
    """Scroll + settle-wait simulation."""

    SETTLE_MS = 5_000.0

    def __init__(self, settle_ms: float = SETTLE_MS) -> None:
        self.settle_ms = settle_ms

    def simulate(self, page: Page) -> None:
        """Scroll down and up, then wait for late scripts to finish."""
        if not page.ok:
            return
        # Scrolling fires scroll listeners: lazily-loaded fingerprinting runs.
        page.trigger("scroll")
        # The settle wait advances the virtual clock, so anything recorded
        # afterwards is visibly later in the timeline.
        page.instrument.clock.advance(self.settle_ms)
