"""Ad blocker extensions.

These apply blocklist rules the way deployed blockers do (§5.2) — which is
precisely *not* how the paper's static §5.1 check applies them:

* first-party requests get a pass (the exception fingerprinters exploit by
  bundling, CNAME cloaking and subdomain routing);
* rules run with their full dynamic context (resource type, ``$document``
  modifiers, ``domain=`` restrictions), so many listed scripts still load.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.blocklists.matcher import RuleMatcher
from repro.net.http import Request
from repro.net.url import registrable_domain

__all__ = ["Extension", "AdBlockerExtension"]


class Extension:
    """Base extension: sees every script request before it is sent."""

    name = "extension"

    def on_request(self, request: Request) -> bool:
        """Return True to cancel (block) the request.

        Free of side effects: the answer depends on the request alone, and
        asking changes nothing.  So a crawl may ask again about a request
        another profile's page load made, and skip a load whose requests
        this extension would all let through (see
        :func:`repro.crawler.crawl.crawl_profiles`).
        """
        raise NotImplementedError


class AdBlockerExtension(Extension):
    """A rule-list-driven blocker (AdblockPlus / uBlock Origin analogue)."""

    def __init__(
        self,
        name: str,
        matchers: Iterable[RuleMatcher],
        honor_first_party_exception: bool = True,
        extra_matchers: Iterable[RuleMatcher] = (),
    ) -> None:
        self.name = name
        self.matchers: List[RuleMatcher] = list(matchers)
        self.extra_matchers: List[RuleMatcher] = list(extra_matchers)
        self.honor_first_party_exception = honor_first_party_exception

    def on_request(self, request: Request) -> bool:
        url = str(request.url)
        third_party = request.third_party
        # First-party exception: blockers avoid breaking the site itself.
        if self.honor_first_party_exception and not third_party:
            return False
        page_domain = (
            registrable_domain(request.document_url.host) if request.document_url is not None else None
        )
        for matcher in list(self.matchers) + list(self.extra_matchers):
            if matcher.should_block(
                url,
                resource_type=request.resource_type.value,
                third_party=third_party,
                page_domain=page_domain,
            ):
                return True
        return False
