"""The page-load pipeline.

``Browser.load(url)`` fetches the document over the synthetic network,
scans it for scripts, and executes them in order in the page's JS realm:
an interpreter wired with ``window`` / ``document`` / ``navigator`` and an
instrumented canvas factory, built when the page's first script runs (see
:meth:`Browser._realm`).  Extensions see every subresource request; script
errors are contained per-script like a real browser.

Every script goes through static triage first: a script the analyzer
proves invisible to the rest of the page is deferred, and runs only if a
later script could observe it (see :meth:`Browser._triage`).  Pages are
byte-identical to running every script; the skip saves interpreter time.

Deferred script groups model crawler-relevant behaviors:

* ``data-consent="required"`` scripts only run after a consent banner
  opt-in (the crawler's autoconsent triggers this);
* ``data-trigger="scroll"`` scripts only run when the page is scrolled
  (the crawler's behavior simulation triggers this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.browser.bindings import JSCanvasElement
from repro.browser.instrumentation import CanvasInstrument, VirtualClock
from repro.browser.privacy import RandomizationState, make_extraction_filter
from repro.browser.profile import BrowserProfile
from repro.canvas.element import HTMLCanvasElement
from repro.dom.document import Document
from repro.dom.html import ScriptRef, parse_html
from repro.dom.window import make_navigator, make_screen, make_window
from repro.js.errors import JSError, JSThrow
from repro.js.interpreter import Interpreter
from repro.js.static import verdict_for_source
from repro import obs
from repro.net.http import Request, ResourceType
from repro.net.server import Network
from repro.net.url import URL
from repro.obs import profiler

__all__ = ["Browser", "Page"]


@dataclass
class Page:
    """Everything a single page load produced."""

    url: URL
    ok: bool
    status: int = 0
    title: str = ""
    instrument: CanvasInstrument = field(default_factory=CanvasInstrument)
    document: Optional[Document] = None
    blocked_urls: List[str] = field(default_factory=list)
    script_errors: List[str] = field(default_factory=list)
    #: (url, status, error) for every subresource whose fetch failed — status 0
    #: for connection/DNS errors, with ``error`` naming the cause (``"dns"``
    #: for a nonexistent host, ``"connection"`` for a transient failure).
    #: The collector classifies these transient/permanent.
    subresource_failures: List[Tuple[str, int, Optional[str]]] = field(default_factory=list)
    #: Script URLs whose body arrived shorter than the declared
    #: content-length (a transfer cut mid-flight); never executed.
    truncated_scripts: List[str] = field(default_factory=list)
    executed_scripts: List[str] = field(default_factory=list)
    #: script_url -> source, for every script that actually executed.
    script_sources: Dict[str, str] = field(default_factory=dict)
    #: (script_url, error_type) for scripts whose *parse* blew up in a way
    #: the interpreter cannot contain (e.g. RecursionError on pathological
    #: nesting).  The script is recorded and skipped; siblings still run.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: The realm's ``console.log`` lines once a script has run; empty before.
    console: List[str] = field(default_factory=list)
    has_consent_banner: bool = False
    _pending: Dict[str, List[Tuple[Optional[str], str]]] = field(default_factory=dict)
    _browser: Optional["Browser"] = None
    #: The page's JS realm: None until a script first runs, and after close.
    _interp: Optional[Interpreter] = None
    #: Every canvas this page's factory created, in the DOM or not.
    _canvases: List[JSCanvasElement] = field(default_factory=list)
    #: How many inline scripts this page has executed (for #inline-N keys).
    _inline_seq: int = 0
    #: Triage state: scripts proven inert+effect-free, deferred instead of
    #: executed (with the page clock at their turn), the union of the
    #: globals they would write and of the host objects they read.
    _deferred: List[Tuple[str, str, float]] = field(default_factory=list)
    _deferred_writes: Set[str] = field(default_factory=set)
    _deferred_host_reads: Set[str] = field(default_factory=set)
    #: Union of shared-namespace reads of every script executed so far (and
    #: whether any of them reads an unbounded set of globals), and of the
    #: host objects they may have changed.
    _executed_reads: Set[str] = field(default_factory=set)
    _executed_host_writes: Set[str] = field(default_factory=set)
    _executed_reads_top: bool = False

    @property
    def skipped_scripts(self) -> List[str]:
        """Scripts currently deferred by triage (skipped for good unless a
        later script forces a flush)."""
        return [url for url, _source, _clock_ms in self._deferred]

    def pending_count(self, group: str) -> int:
        return len(self._pending.get(group, []))

    @property
    def elapsed_ms(self) -> float:
        """Virtual time this page load has consumed (clock + response latency)."""
        return self.instrument.clock.now_ms()

    def close(self) -> None:
        """Tear down the page's realm and DOM once its observation is taken.

        A realm is a web of reference cycles: the interpreter and its
        globals, the canvas factory (which closes over this page), the DOM's
        back-links and each canvas with its context and bindings.  Closing
        drops those links so all of it dies by reference count instead of
        waiting for the cycle collector.  Idempotent, and fine on a page
        whose realm was never built; only page-owned objects change, and
        what the page recorded stays readable.
        """
        interp, self._interp = self._interp, None
        self._browser = None
        if interp is not None:
            interp.close()
        if self.document is not None:
            self.document.close()
        for canvas in self._canvases:
            canvas.close()
        self._canvases.clear()

    def trigger(self, group: str) -> int:
        """Run a deferred script group ("consent" / "scroll"); returns count run."""
        pending = self._pending.pop(group, [])
        for script_url, source in pending:
            self._browser._execute(self, script_url, source)
        return len(pending)


class Browser:
    """A scriptable browser over the synthetic network."""

    def __init__(
        self,
        network: Network,
        profile: Optional[BrowserProfile] = None,
        js_step_budget: Optional[int] = None,
    ) -> None:
        self.network = network
        self.profile = profile or BrowserProfile()
        #: Per-page interpreter step cap; the crawler's page watchdog maps
        #: exhaustion to a ``timeout`` failure instead of hanging on a
        #: runaway script.  None keeps the interpreter default.
        self.js_step_budget = js_step_budget
        self._randomization = RandomizationState(self.profile.session_seed)

    @property
    def _step_budget(self) -> int:
        return self.js_step_budget or Interpreter.DEFAULT_STEP_BUDGET

    # -- page loading -------------------------------------------------------------------

    def load(self, url: "URL | str") -> Page:
        if isinstance(url, str):
            url = URL.parse(url)

        response = self.network.fetch(Request(url=url, resource_type=ResourceType.DOCUMENT))
        page = Page(url=url, ok=response.ok, status=response.status)
        if not response.ok:
            return page

        clock = VirtualClock()
        page.instrument = CanvasInstrument(clock)
        if response.latency_ms:
            clock.advance(response.latency_ms)
        page.document = Document(url=str(url))
        page._browser = self

        structure = parse_html(response.body)
        page.title = structure.title
        page.has_consent_banner = structure.has_consent_banner

        for ref in structure.scripts:
            self._process_script_tag(page, ref)
        return page

    def _realm(self, page: Page) -> Interpreter:
        """The page's JS realm, built the first time one of its scripts runs.

        Most pages run no script (triage defers them all), so they never
        pay for builtins, host objects or the canvas factory.  Building
        later is invisible because it only constructs objects: nothing of
        the page, its clock or its instrument changes, and ``Math.random``
        is seeded per realm.  ``Interpreter`` is looked up here, at build
        time, so the compiler's test oracle can patch it.
        """
        if page._interp is not None:
            return page._interp
        interp = Interpreter(step_budget=self._step_budget)
        document = page.document
        clock = page.instrument.clock

        def canvas_factory():
            impl = HTMLCanvasElement(device=self.profile.device)
            impl.extraction_filter = make_extraction_filter(
                self.profile.privacy_mode, self._randomization
            )
            canvas = JSCanvasElement(
                impl, page.instrument, interp, len(page._canvases) + 1, document=document
            )
            page._canvases.append(canvas)
            return canvas

        document.canvas_factory = canvas_factory

        navigator = make_navigator(self.profile.device.name, webdriver=self.profile.expose_webdriver)
        screen = make_screen()
        window = make_window(document, navigator, screen, clock)
        interp.define_global("window", window)
        interp.define_global("document", document)
        interp.define_global("navigator", navigator)
        interp.define_global("screen", screen)
        interp.define_global("location", window)
        interp.define_global("performance", window.get("performance"))
        interp.define_global("setTimeout", window.get("setTimeout"))
        interp.define_global("addEventListener", window.get("addEventListener"))

        page._interp = interp
        page.console = interp.console_log
        return interp

    # -- script execution ------------------------------------------------------------------

    def _process_script_tag(self, page: Page, ref: ScriptRef) -> None:
        group = None
        if ref.attr("data-consent") == "required":
            group = "consent"
        elif ref.attr("data-trigger") == "scroll":
            group = "scroll"

        if ref.is_inline:
            script_url, source = None, ref.source
        else:
            resolved = page.url.join(ref.src)
            request = Request(
                url=resolved, resource_type=ResourceType.SCRIPT, document_url=page.url
            )
            for extension in self.profile.extensions:
                if extension.on_request(request):
                    page.blocked_urls.append(str(resolved))
                    return
            response = self.network.fetch(request)
            if response.latency_ms:
                page.instrument.clock.advance(response.latency_ms)
            if not response.ok:
                page.script_errors.append(f"fetch failed ({response.status}): {resolved}")
                page.subresource_failures.append(
                    (str(resolved), response.status, response.error)
                )
                return
            declared = response.headers.get("content-length")
            if declared is not None and int(declared) != len(response.body):
                page.script_errors.append(f"truncated body: {resolved}")
                page.truncated_scripts.append(str(resolved))
                return
            script_url, source = str(resolved), response.body

        if group is not None:
            page._pending.setdefault(group, []).append((script_url, source))
            return
        self._execute(page, script_url, source)

    def _execute(self, page: Page, script_url: Optional[str], source: str) -> None:
        if script_url is not None:
            effective_url = script_url
        else:
            # Inline scripts get per-page sequence keys so siblings never
            # collide in script_sources (the first keeps the historical
            # bare "#inline" key).
            page._inline_seq += 1
            suffix = "#inline" if page._inline_seq == 1 else f"#inline-{page._inline_seq}"
            effective_url = f"{page.url}{suffix}"
        page.executed_scripts.append(effective_url)
        page.script_sources[effective_url] = source

        if self._triage(page, effective_url, source):
            return
        self._run_script(page, effective_url, source)

    def _triage(self, page: Page, effective_url: str, source: str) -> bool:
        """Decide whether this script can be skipped; True means skipped.

        A script is deferred (and, unless a later script forces a flush,
        never executed) only when the static analyzer proved it canvas-inert,
        throw-free, pure toward the host and within a step bound no larger
        than this page's step budget — so its run could not fail and the
        only trace it could leave is its global writes — AND it reads no
        other script's globals, rebinds no host name, reads no host object
        an executed script may have changed (``Math = …`` would turn its
        ``Math.floor`` into script code), and no already-executed script
        reads any of its writes (a function defined earlier could be called
        later).  Conversely, before *running* a
        script that may read a deferred script's writes, or change a host
        object a deferred script reads, every deferred script is flushed in
        document order with the page clock as it stood at its turn,
        restoring exactly the original execution.
        """
        verdict = verdict_for_source(source, effective_url)
        if (
            verdict.skippable
            and verdict.step_bound <= self._step_budget
            and not verdict.global_reads
            and not verdict.host_writes
            and not (set(verdict.host_reads) & page._executed_host_writes)
            and not page._executed_reads_top
            and not (set(verdict.global_writes) & page._executed_reads)
        ):
            page._deferred.append((effective_url, source, page.instrument.clock.now_ms()))
            page._deferred_writes.update(verdict.global_writes)
            page._deferred_host_reads.update(verdict.host_reads)
            obs.METRICS.inc("perf.hits[js.static.triage]")
            return True

        unbounded = verdict.reads_top or verdict.parse_error is not None
        if page._deferred and (
            unbounded
            or set(verdict.global_reads) & page._deferred_writes
            or set(verdict.host_writes) & page._deferred_host_reads
        ):
            self._flush_deferred(page)
        page._executed_reads.update(verdict.global_reads)
        page._executed_host_writes.update(verdict.host_writes)
        page._executed_reads_top = page._executed_reads_top or unbounded
        obs.METRICS.inc("perf.misses[js.static.triage]")
        return False

    def _flush_deferred(self, page: Page) -> None:
        """Execute every deferred script, in original document order."""
        pending, page._deferred = page._deferred, []
        page._deferred_writes = set()
        page._deferred_host_reads = set()
        clock = page.instrument.clock
        for url, source, clock_ms in pending:
            obs.METRICS.inc("perf.evictions[js.static.triage]")
            with clock.frozen_at(clock_ms):
                self._run_script(page, url, source)

    def _run_script(self, page: Page, effective_url: str, source: str) -> None:
        interp = self._realm(page)
        try:
            if profiler.ACTIVE:
                # Tag profiler samples with the executing script so
                # self-time attributes per vendor script.  Guarded by the
                # flag: with the profiler off this is one branch.
                with profiler.context("script", effective_url):
                    interp.run(source, script_url=effective_url)
            else:
                interp.run(source, script_url=effective_url)
        except JSError as exc:
            page.script_errors.append(f"{effective_url}: {exc.message}")
        except (JSThrow, RecursionError) as exc:
            # A parse blow-up the interpreter could not contain (deeply
            # nested expressions overrunning Python's recursion limit, or a
            # throw escaping the engine).  One malformed script must not
            # hide its siblings from the dynamic and static passes.
            kind = type(exc).__name__
            page.parse_errors.append((effective_url, kind))
            page.script_errors.append(f"{effective_url}: parse error: {kind}")
