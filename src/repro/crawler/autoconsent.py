"""Autoconsent: opt in to common consent banners (§3.1 uses DuckDuckGo's
autoconsent library; we model its effect — consent-gated scripts run)."""

from __future__ import annotations

from repro.browser.browser import Page

__all__ = ["Autoconsent"]


class Autoconsent:
    """Clicks through consent banners the crawler encounters."""

    def handle(self, page: Page) -> bool:
        """Opt in on ``page`` if it shows a known banner pattern.

        Returns True when a banner was handled (consent-gated scripts then
        execute, exactly like a user clicking "accept").
        """
        if not page.ok:
            return False
        if not page.has_consent_banner and page.pending_count("consent") == 0:
            return False
        # Click the accept button if the page exposes one.
        if page.document is not None:
            for button in page.document.query_selector_all(".consent-accept"):
                button._js_click(None, None, [])
        page.trigger("consent")
        return True
