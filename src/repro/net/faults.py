"""Deterministic transient-fault injection over the synthetic network.

The ecosystem's per-site failure *plans* (``SitePlan.failure``) model
permanent breakage: a dead domain stays dead for the whole crawl.  Real
crawls additionally lose sites to *transient* faults — connection resets,
5xx flaps, slow origins, truncated transfers — which is exactly the class a
retry layer can win back (the paper's crawl kept 16,276/17,260 of its
targets per population despite them).

:class:`FaultInjector` decides, purely as a function of ``(seed, url)``,
whether a URL is afflicted, with which fault kind, and for how many
consecutive fetch attempts.  The attempts are counted per *visit*: a crawl
starts a fresh fault clock (:meth:`FaultInjector.new_visit`) before it
settles each site under each profile, retries included.  What a visit sees
is then a function of ``(seed, url, attempt within the visit)`` alone — not
of draw order, of which process makes the visit, or of what that process
fetched before — so the same seed yields the identical faults in a serial
crawl, a recrawl and a sharded one.  That makes robustness *testable*: a
crawl with retries enabled must recover the exact success set of a
fault-free crawl, and a faulted study must not depend on its worker count.

:class:`FaultyNetwork` wraps any :class:`~repro.net.server.Network` and
applies the schedule at ``fetch`` time; everything else (DNS, servers,
aliases) passes straight through.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.net.http import Request, Response, ResourceType

__all__ = ["FaultKind", "FaultConfig", "FaultSchedule", "FaultInjector", "FaultyNetwork"]


class FaultKind:
    """The transient fault classes the injector can produce."""

    CONNECTION_ERROR = "connection-error"   # status 0, nothing served
    HTTP_FLAP = "http-flap"                 # 5xx that clears on a later attempt
    SLOW_RESPONSE = "slow-response"         # served, but with huge virtual latency
    TRUNCATED_SCRIPT = "truncated-script"   # script body cut short mid-transfer
    WORKER_CRASH = "worker-crash"           # the fetching *process* dies (OOM/segfault)
    WORKER_HANG = "worker-hang"             # the fetching process wedges (real sleep)

    ALL = (CONNECTION_ERROR, HTTP_FLAP, SLOW_RESPONSE, TRUNCATED_SCRIPT)
    #: Kinds applicable to non-script resources (a document cannot be a
    #: truncated *script*).
    DOCUMENT = (CONNECTION_ERROR, HTTP_FLAP, SLOW_RESPONSE)
    #: Process-level fault kinds.  These never enter the per-URL transient
    #: mix: they model *poison sites* that take down whichever crawl worker
    #: visits them, every time — the class only a shard supervisor
    #: (:mod:`repro.crawler.supervisor`) can recover from.
    PROCESS = (WORKER_CRASH, WORKER_HANG)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for the injected transient-failure mix."""

    #: Fraction of URLs afflicted by any fault at all.
    fault_rate: float = 0.0
    #: Relative weights of the fault kinds among afflicted URLs.
    connection_error_weight: float = 1.0
    http_flap_weight: float = 1.0
    slow_response_weight: float = 1.0
    truncated_script_weight: float = 1.0
    #: A fault afflicts at most this many consecutive attempts, then clears —
    #: the defining property of a *transient* fault.  Keep this below a
    #: retry policy's ``max_attempts`` and every afflicted site recovers.
    max_consecutive: int = 2
    #: Virtual latency injected by slow responses; pick it above the page
    #: watchdog budget so slowness surfaces as a ``timeout`` failure.  A slow
    #: response is *only* observable through a
    #: :class:`~repro.crawler.resilience.PageBudget` — without one the latency
    #: merely advances the virtual clock.  ``run_crawl`` therefore defaults a
    #: ``PageBudget`` whenever a ``FaultyNetwork`` or retry policy is in play.
    slow_ms: float = 120_000.0
    #: Status served while an HTTP flap lasts.
    flap_status: int = 503
    #: Poison sites whose *document* fetch kills the fetching process outright
    #: (``os._exit``), modelling an OOM-killed or segfaulted crawl worker.
    #: Deterministic and permanent: the same domain kills every process that
    #: visits it, which is what lets the supervisor's bisecting quarantine
    #: converge on the culprit.
    worker_crash_domains: Tuple[str, ...] = ()
    #: Poison sites whose document fetch wedges the fetching process in a
    #: real ``time.sleep`` — the progress-starving hang a supervisor must
    #: detect by liveness deadline rather than process exit.
    worker_hang_domains: Tuple[str, ...] = ()
    #: Exit status a worker-crash poison site dies with (137 = 128+SIGKILL,
    #: the signature of the kernel OOM killer).
    worker_crash_exit_code: int = 137
    #: How long a worker-hang poison site sleeps per document fetch.  Pick it
    #: far above the supervisor's liveness deadline; an unsupervised crawl
    #: hitting a hang site simply stalls for this long.
    worker_hang_seconds: float = 300.0

    def weight_for(self, kind: str) -> float:
        return {
            FaultKind.CONNECTION_ERROR: self.connection_error_weight,
            FaultKind.HTTP_FLAP: self.http_flap_weight,
            FaultKind.SLOW_RESPONSE: self.slow_response_weight,
            FaultKind.TRUNCATED_SCRIPT: self.truncated_script_weight,
        }[kind]


@dataclass(frozen=True)
class FaultSchedule:
    """What happens to one URL: ``kind`` for its first ``fail_attempts`` fetches."""

    kind: str
    fail_attempts: int


class FaultInjector:
    """Seeded fault scheduler; its clock counts the attempts of one visit."""

    def __init__(self, config: FaultConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        #: url -> fetch attempts in the current visit (the per-URL fault
        #: clock; :meth:`new_visit` resets it).
        self._attempts: Dict[str, int] = {}
        #: kind -> number of faults actually injected.
        self.injected: Dict[str, int] = {}

    def schedule_for(self, url: str, resource_type: ResourceType) -> Optional[FaultSchedule]:
        """The (stable) fault schedule for a URL, or None if unafflicted."""
        rng = random.Random(f"faults:{self.seed}:{url}")
        if rng.random() >= self.config.fault_rate:
            return None
        kinds = (
            FaultKind.ALL if resource_type == ResourceType.SCRIPT else FaultKind.DOCUMENT
        )
        weights = [self.config.weight_for(k) for k in kinds]
        if sum(weights) <= 0:
            return None
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        return FaultSchedule(kind=kind, fail_attempts=rng.randint(1, self.config.max_consecutive))

    def new_visit(self) -> None:
        """Start a fresh fault clock: every URL's next fetch is its first attempt.

        Called before each settle (one site under one profile, all of its
        attempts), so a URL's faults never depend on an earlier visit to a
        site that shares it, on an earlier crawl in the same process, or on
        the clock a forked worker inherited.
        """
        self._attempts.clear()

    def next_fault(self, url: str, resource_type: ResourceType) -> Optional[str]:
        """Advance the URL's attempt counter; return the fault kind to apply now."""
        attempt = self._attempts.get(url, 0) + 1
        self._attempts[url] = attempt
        schedule = self.schedule_for(url, resource_type)
        if schedule is None or attempt > schedule.fail_attempts:
            return None
        self.injected[schedule.kind] = self.injected.get(schedule.kind, 0) + 1
        obs.inc(f"net.faults.{schedule.kind}")
        obs.event("net.fault", sample_key=url, url=url, kind=schedule.kind, attempt=attempt)
        return schedule.kind

    def total_injected(self) -> int:
        return sum(self.injected.values())

    def process_fault(self, host: str) -> Optional[str]:
        """The process-level fault (if any) visiting ``host`` triggers.

        Unlike the transient schedule this is pure config, not seeded draw:
        poison sites are deterministic by domain so a respawned worker that
        re-visits the site dies again — the property the supervisor's
        bisection relies on to isolate the culprit.
        """
        if host in self.config.worker_crash_domains:
            return FaultKind.WORKER_CRASH
        if host in self.config.worker_hang_domains:
            return FaultKind.WORKER_HANG
        return None


class FaultyNetwork:
    """A :class:`Network` wrapper that injects the configured transient faults.

    Only ``fetch`` is intercepted; all other attributes (``dns``,
    ``server_for``, ``alias``, counters, ...) delegate to the wrapped network,
    so a ``FaultyNetwork`` drops into any crawl or study unchanged.
    """

    def __init__(self, inner, config: FaultConfig, seed: int = 0) -> None:
        self.inner = inner
        self.injector = FaultInjector(config, seed=seed)

    def fetch(self, request: Request) -> Response:
        config = self.injector.config
        if request.resource_type == ResourceType.DOCUMENT:
            self._apply_process_fault(request)
        kind = self.injector.next_fault(str(request.url), request.resource_type)
        if kind is None:
            return self.inner.fetch(request)
        if kind == FaultKind.CONNECTION_ERROR:
            return Response(
                url=request.url, status=0, content_type="", body="", error="connection"
            )
        if kind == FaultKind.HTTP_FLAP:
            return Response(
                url=request.url,
                status=config.flap_status,
                content_type="text/plain",
                body="temporarily unavailable",
            )
        response = self.inner.fetch(request)
        if kind == FaultKind.SLOW_RESPONSE:
            response.latency_ms = config.slow_ms
            return response
        # TRUNCATED_SCRIPT: cut the body mid-transfer.  The declared
        # content-length survives, which is how the browser detects it.
        response.headers = dict(response.headers)
        response.headers.setdefault("content-length", str(len(response.body)))
        response.body = response.body[: len(response.body) // 2]
        return response

    def _apply_process_fault(self, request: Request) -> None:
        """Kill or wedge *this process* if the document's host is poisoned.

        ``worker-crash`` exits via ``os._exit`` — no cleanup, no exception
        propagation, exactly like an OOM kill: the checkpoint keeps whatever
        was flushed and the parent observes a dead process.  ``worker-hang``
        sleeps wall-clock time, so no checkpoint line lands and only the
        supervisor's liveness deadline (not an exit code) can surface it.
        """
        host = getattr(request.url, "host", "") or ""
        kind = self.injector.process_fault(host)
        if kind is None:
            return
        config = self.injector.config
        self.injector.injected[kind] = self.injector.injected.get(kind, 0) + 1
        obs.inc(f"net.faults.{kind}")
        obs.event("net.fault", sample_key=host, url=str(request.url), kind=kind)
        if kind == FaultKind.WORKER_CRASH:
            os._exit(config.worker_crash_exit_code)
        time.sleep(config.worker_hang_seconds)

    def __getattr__(self, name):
        # During unpickling __dict__ is not populated yet; delegating would
        # recurse on ``self.inner`` forever.
        if name.startswith("__") or "inner" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.inner, name)
