"""The eager page load: every script of a page runs, none is triaged.

Static triage decides, script by script, whether a page load may skip a
script the analyzer proved invisible.  This browser never skips: it is the
page load as it was before triage, kept as the oracle triage answers to.
A crawl must persist exactly what the same crawl persists under
:func:`eager`, which swaps :class:`EagerBrowser` into
:mod:`repro.crawler.crawl`; forked crawl workers inherit the swap.  The
pattern follows ``tests/js/reference_interpreter.py``, the oracle of the
compiled JS engine.
"""

import contextlib

import pytest

from repro.browser.browser import Browser
from repro.crawler import crawl as crawl_module


class EagerBrowser(Browser):
    """A browser that runs every script it meets, in document order."""

    def _triage(self, page, effective_url, source) -> bool:
        return False


@contextlib.contextmanager
def eager():
    """Crawl every page inside the block with :class:`EagerBrowser`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crawl_module, "Browser", EagerBrowser)
        yield
