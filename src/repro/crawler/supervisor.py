"""Shard supervisor: the crawl executor for every multi-process run.

PR 1 made single *pages* fault-tolerant (retry/backoff, watchdog,
checkpoint/resume); sharding made crawls parallel.  But at the paper's
40k-site scale one poison page — a worker that is OOM-killed, segfaults or
wedges — must not sink the whole crawl.  Every crawl with ``jobs > 1`` (or
an explicit :class:`SupervisorConfig`) therefore runs its shards in
**supervised worker processes**:

* liveness comes from checkpoint progress: a worker flushes one checkpoint
  line per page, so the newest mtime over the shard's checkpoints (one per
  label: the ``.partial`` file, then the promoted file) is its last sign of
  life;
* the supervisor waits on the live workers' process sentinels (a finished
  worker is collected at once) and classifies each worker through a small
  state machine::

      healthy ──(no progress for deadline/2)──> suspect
      suspect ──(progress resumes)────────────> healthy
      healthy/suspect ──(process exit ≠ 0)─────────────────┐
      healthy/suspect ──(no progress for deadline)──kill──>│ dead
      healthy/suspect ──(shard wall budget spent)─kill────>│
                                                           ▼
                                        respawn (remainder, same checkpoints)
                                        or — after ``max_shard_crashes`` —
                                        bisect / quarantine

* a site is **done** once it is persisted under every label of the shard's
  profile set; the remainder, salvage and bisection all follow from that
  rule;
* a dead worker's shard is **re-dispatched**: the remainder is every site
  not done (everything flushed before the crash survives, and the resume
  skips each persisted (site, label) pair), so each pair is crawled exactly
  once across any number of respawns;
* a shard that kills its worker ``max_shard_crashes`` times is **bisected**:
  its done sites are salvaged and its remainder is split in two sub-shards,
  recursively, each seeded with the pairs already persisted for its sites,
  until the poison *site* is isolated in a single-site shard — which is then
  **quarantined** under every label it has no observation for: recorded in
  ``quarantine.jsonl`` (reason, crash count, last signal) and represented
  in each label's merged dataset as a failed observation with reason
  ``quarantined:<signal>``;
* the study then completes in **degraded mode**: every planned site is
  accounted for as crawled, failed, or quarantined — prevalence and reach
  are computed over an explicitly-accounted site set, never a silently
  truncated one.

A no-fault supervised crawl is byte-identical to the in-process path
(``tests/crawler/test_supervisor.py`` pins this): supervision changes
*when and by whom* sites are visited, never what any site observes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.core.records import SiteObservation
from repro.crawler.crawl import QUARANTINE_PREFIX, CrawlDataset, CrawlTarget
from repro.crawler.resilience import count_page
from repro.crawler.shards import WorkerTask, shard_worker
from repro.crawler.storage import CheckpointWriter, checkpoint_path, load_checkpoint
from repro.js.static import verdict as static_verdict

__all__ = [
    "SupervisorConfig",
    "SupervisorError",
    "QuarantineRecord",
    "QuarantineLedger",
    "quarantine_ledger_path",
    "supervise",
]


class SupervisorError(RuntimeError):
    """The supervisor's global respawn budget was exhausted (runaway crashes)."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the shard supervisor.

    Defaults are sized for real crawls (pages take seconds, shards take
    minutes); tests shrink the deadlines to keep chaos runs fast.
    """

    #: Max silence (s) before a live worker is presumed hung and killed.
    #: Silence is time since the worker's spawn or its last checkpoint line,
    #: and workers flush one line per page, so this bounds the time one page
    #: may take — align it with the page watchdog.
    liveness_deadline_s: float = 60.0
    #: Optional wall-clock ceiling for one shard attempt; ``None`` disables.
    #: A worker that outlives it is killed and handled like a crash.
    shard_wall_budget_s: Optional[float] = None
    #: Longest wait (s) between liveness checks; a worker that exits is
    #: collected at once.
    poll_interval_s: float = 0.05
    #: Worker deaths one shard tolerates before its remainder is bisected.
    #: Sub-shards inherit ``max_shard_crashes - 1`` crashes: once a shard is
    #: marked poisonous, one more death per level is enough to keep
    #: splitting, so isolation costs ~``max_shard_crashes + log2(n)`` deaths.
    max_shard_crashes: int = 2
    #: Global circuit breaker: total respawns across the whole crawl before
    #: the supervisor gives up with :class:`SupervisorError` (a run where
    #: *every* site is poison should fail loudly, not quarantine the web).
    max_total_respawns: int = 128
    #: Grace (s) between SIGTERM and SIGKILL when putting down a worker.
    term_grace_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_shard_crashes < 1:
            raise ValueError(
                f"max_shard_crashes must be >= 1, got {self.max_shard_crashes}"
            )
        if self.liveness_deadline_s <= 0:
            raise ValueError(
                f"liveness_deadline_s must be > 0, got {self.liveness_deadline_s}"
            )


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined site, as persisted to the ledger."""

    domain: str
    rank: int
    population: str
    label: str
    #: Why the site was quarantined (currently always ``worker-killed``).
    reason: str
    #: Worker deaths attributed to the site's shard lineage.
    attempts: int
    #: The last death signal observed (``exit:<code>``, ``heartbeat-timeout``,
    #: ``wall-budget``).
    last_signal: str
    #: Lineage id of the single-site shard that isolated it (``0003.a.b``).
    shard: str
    ts: float = 0.0

    @property
    def failure_reason(self) -> str:
        """The dataset-side failure reason carrying this quarantine."""
        return f"{QUARANTINE_PREFIX}{self.last_signal}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "rank": self.rank,
            "population": self.population,
            "label": self.label,
            "reason": self.reason,
            "attempts": self.attempts,
            "last_signal": self.last_signal,
            "shard": self.shard,
            "ts": self.ts,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "QuarantineRecord":
        return cls(
            domain=data["domain"],
            rank=data["rank"],
            population=data["population"],
            label=data.get("label", ""),
            reason=data["reason"],
            attempts=data["attempts"],
            last_signal=data["last_signal"],
            shard=data.get("shard", ""),
            ts=data.get("ts", 0.0),
        )


def quarantine_ledger_path(checkpoint_dir: Union[str, Path]) -> Path:
    """The quarantine ledger for a (supervised) crawl's checkpoint dir."""
    return Path(checkpoint_dir) / "quarantine.jsonl"


class QuarantineLedger:
    """Append-only JSONL ledger of quarantined sites.

    Flushed per record, like the crawl checkpoints: a supervisor killed
    mid-run leaves a loadable ledger behind.  Records also always travel in
    the merged dataset itself (as ``quarantined:*`` failure rows), so the
    ledger is the *audit trail* — the dataset remains self-accounting.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.records: List[QuarantineRecord] = []

    def append(self, record: QuarantineRecord) -> None:
        self.records.append(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_json(), separators=(",", ":")) + "\n")
            fh.flush()

    @classmethod
    def load(cls, path: Union[str, Path]) -> "QuarantineLedger":
        ledger = cls(path)
        if ledger.path.exists():
            with open(ledger.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        ledger.records.append(QuarantineRecord.from_json(json.loads(line)))
        return ledger


# -- supervisor side ----------------------------------------------------------------


@dataclass
class _ShardTask:
    """One dispatchable unit of crawl work (a shard or a bisected sub-shard)."""

    #: Lineage id (``0003``, bisected ``0003.a.b``); the worker's lane is
    #: ``shard-<shard_id>``.
    shard_id: str
    work: WorkerTask
    crashes: int = 0
    #: (label, domain) pairs whose page metrics the supervisor already
    #: credited parent-side after a worker death (see
    #: ``_credit_orphan_metrics``) — a task's checkpoints survive respawns,
    #: so a second death must not re-count the rows credited at the first.
    credited: Set[Tuple[str, str]] = field(default_factory=set)


class _WorkerHandle:
    """A live worker process plus its liveness bookkeeping."""

    def __init__(self, task: _ShardTask, process, result_path: Path) -> None:
        self.task = task
        self.process = process
        self.result_path = result_path
        self.spawned_at = time.time()
        #: Newest sign of life seen so far.  Kept here rather than re-read,
        #: so the instant the finalize rename moves the checkpoint never
        #: reads as silence.
        self.last_seen = self.spawned_at
        self.state = "healthy"  # healthy | suspect

    def last_sign_of_life(self) -> float:
        """The newest mtime over the shard's checkpoints (one line lands per
        page), or spawn time."""
        for checkpoint in self.task.work.checkpoints.values():
            for path in (checkpoint_path(checkpoint), checkpoint):
                try:
                    self.last_seen = max(self.last_seen, os.stat(path).st_mtime)
                    break
                except OSError:
                    continue
        return self.last_seen


def _mp_context():
    """Fork where available (cheap, inherits loaded modules); default otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Supervisor:
    """State for one supervised crawl: task queue, live workers, salvage pool."""

    def __init__(self, labels: Sequence[str], config: SupervisorConfig, scratch: Path,
                 ledger: QuarantineLedger, jobs: int) -> None:
        self.labels = tuple(labels)
        self.config = config
        self.scratch = scratch
        self.ledger = ledger
        self.jobs = max(1, jobs)
        self.mp = _mp_context()
        self.pending: deque = deque()
        self.active: Dict[str, _WorkerHandle] = {}
        self.datasets: Dict[str, List[CrawlDataset]] = {label: [] for label in self.labels}
        #: Per label, observations salvaged from the checkpoints of abandoned
        #: (bisected or exhausted) tasks, plus the quarantine failure rows.
        self.salvaged: Dict[str, List[SiteObservation]] = {
            label: [] for label in self.labels
        }
        self.quarantined: List[QuarantineRecord] = []
        self.respawns = 0

    # -- lifecycle ------------------------------------------------------------

    def run(self, tasks: Sequence[_ShardTask]) -> None:
        self.pending.extend(tasks)
        try:
            while self.pending or self.active:
                while self.pending and len(self.active) < self.jobs:
                    self._spawn(self.pending.popleft())
                wait(
                    [handle.process.sentinel for handle in self.active.values()],
                    timeout=self.config.poll_interval_s,
                )
                self._poll_once()
        except BaseException:
            # Respawn-budget blowout or a KeyboardInterrupt: put every live
            # worker down before propagating — never leak crawling processes.
            # Their .partial checkpoints stay for a resume.
            for handle in self.active.values():
                self._kill(handle.process)
            self.active.clear()
            raise

    def _spawn(self, task: _ShardTask) -> None:
        result = self.scratch / f"result-{task.shard_id}-try{task.crashes}.pkl"
        process = self.mp.Process(
            target=shard_worker,
            args=(replace(task.work, result_path=result),),
            daemon=True,
        )
        process.start()
        obs.inc("supervisor.workers_spawned")
        self.active[task.shard_id] = _WorkerHandle(task, process, result)

    def _poll_once(self) -> None:
        """One supervision sweep over every live worker."""
        for shard_id in list(self.active):
            handle = self.active[shard_id]
            process = handle.process
            if not process.is_alive():
                process.join()
                del self.active[shard_id]
                if process.exitcode == 0 and handle.result_path.exists():
                    self._collect(handle)
                else:
                    self._on_worker_death(handle.task, f"exit:{process.exitcode}")
                continue
            now = time.time()
            silent_for = now - handle.last_sign_of_life()
            budget = self.config.shard_wall_budget_s
            if silent_for > self.config.liveness_deadline_s:
                self._kill(process)
                del self.active[shard_id]
                obs.inc("supervisor.heartbeat_timeouts")
                self._on_worker_death(handle.task, "heartbeat-timeout")
            elif budget is not None and now - handle.spawned_at > budget:
                self._kill(process)
                del self.active[shard_id]
                obs.inc("supervisor.wall_budget_kills")
                self._on_worker_death(handle.task, "wall-budget")
            elif silent_for > self.config.liveness_deadline_s / 2:
                if handle.state == "healthy":
                    handle.state = "suspect"
                    obs.inc("supervisor.suspects")
                    obs.event(
                        "crawl.worker.suspect",
                        sample_key=shard_id,
                        shard=shard_id,
                        silent_for_s=round(silent_for, 3),
                    )
            elif handle.state == "suspect":
                handle.state = "healthy"  # progress resumed after all

    def _kill(self, process) -> None:
        """SIGTERM, short grace, then SIGKILL — never wait on a wedged worker."""
        process.terminate()
        process.join(self.config.term_grace_s)
        if process.is_alive():
            process.kill()
            process.join()

    def _collect(self, handle: _WorkerHandle) -> None:
        with open(handle.result_path, "rb") as fh:
            result = pickle.load(fh)
        handle.result_path.unlink(missing_ok=True)
        static_verdict.adopt_verdicts(result.verdicts)
        obs.ingest_worker(result.obs_payload)
        for label, records in result.records.items():
            dataset = CrawlDataset(label=label)
            dataset.observations.extend(SiteObservation.from_json(record) for record in records)
            self.datasets[label].append(dataset)

    # -- failure handling -----------------------------------------------------

    def _on_worker_death(self, task: _ShardTask, signal: str) -> None:
        self.respawns += 1
        if self.respawns > self.config.max_total_respawns:
            raise SupervisorError(
                f"supervisor exhausted its respawn budget "
                f"({self.config.max_total_respawns}) — last death: shard "
                f"{task.shard_id} ({signal}); the crawl environment is "
                f"failing faster than quarantine can converge"
            )
        task.crashes += 1
        obs.inc("supervisor.respawns")
        obs.inc(f"supervisor.deaths[{signal}]")
        obs.event(
            "crawl.worker.respawn",
            sample_key=task.shard_id,
            shard=task.shard_id,
            signal=signal,
            crashes=task.crashes,
            remaining=len(task.work.targets),
        )
        persisted = {}
        for label, path in task.work.checkpoints.items():
            dataset = load_checkpoint(path)
            persisted[label] = dataset.observations if dataset is not None else []
        self._credit_orphan_metrics(task, persisted)
        done = set.intersection(
            *({observation.domain for observation in rows} for rows in persisted.values())
        )
        remainder = [t for t in task.work.targets if t.domain not in done]
        if not remainder:
            # Died after the last page but before the result was promoted:
            # the checkpoints have every observation — salvage them directly.
            self._salvage(persisted)
            return
        if task.crashes < self.config.max_shard_crashes:
            # Plain respawn: same checkpoints, same target list — the resume
            # machinery skips persisted (site, label) pairs, so the remainder
            # is crawled exactly once and the completed datasets carry
            # everything.  A respawn always resumes, even in a crawl started
            # without ``resume``.
            task.work = replace(task.work, resume=True)
            self.pending.append(task)
            return
        # Poisonous shard: salvage its done sites, then quarantine or bisect
        # the remainder.
        if len(remainder) == 1:
            self._salvage(persisted)
            self._quarantine(task, remainder[0], signal, persisted)
            return
        self._salvage(persisted, done)
        obs.inc("supervisor.splits")
        mid = (len(remainder) + 1) // 2
        for suffix, part in (("a", remainder[:mid]), ("b", remainder[mid:])):
            sub_id = f"{task.shard_id}.{suffix}"
            checkpoints = {
                label: self.scratch / f"{label}.shard-{sub_id}.jsonl" for label in self.labels
            }
            # Seed each sub-shard with the pairs already persisted for its
            # sites, so its resume visits only the missing ones.
            domains = {target.domain for target in part}
            seeded = set()
            for label, path in checkpoints.items():
                rows = [o for o in persisted[label] if o.domain in domains]
                if rows:
                    writer = CheckpointWriter(path, label=label)
                    for observation in rows:
                        writer.write(observation)
                    writer.close()
                    seeded.update((label, observation.domain) for observation in rows)
            self.pending.append(
                _ShardTask(
                    shard_id=sub_id,
                    work=replace(
                        task.work,
                        targets=tuple(part),
                        lane=f"shard-{sub_id}",
                        checkpoints=checkpoints,
                        resume=True,
                    ),
                    # Sub-shards are already suspects: one more death splits
                    # (or quarantines) them, keeping isolation logarithmic.
                    crashes=self.config.max_shard_crashes - 1,
                    # Seeded rows were credited at this death.
                    credited=seeded,
                )
            )

    def _salvage(
        self, persisted: Dict[str, List[SiteObservation]], domains: Optional[Set[str]] = None
    ) -> None:
        """Keep an abandoned task's persisted rows (only ``domains``' if given)."""
        for label, rows in persisted.items():
            self.salvaged[label].extend(
                o for o in rows if domains is None or o.domain in domains
            )

    def _credit_orphan_metrics(
        self, task: _ShardTask, persisted: Dict[str, List[SiteObservation]]
    ) -> None:
        """Count checkpoint rows whose worker died before shipping metrics.

        A dead worker's metrics delta dies with it, but the
        observations it persisted survive (they are salvaged, seeded into a
        sub-shard, or skipped by the respawn's resume) — so without this,
        ``repro.obs summary`` would under-count exactly the pages that
        survived a crash.  The per-task ``credited`` set keeps the crediting
        exactly-once across repeat deaths of the same task, mirroring the
        delta semantics of the worker payload channel.
        """
        for label, rows in persisted.items():
            for observation in rows:
                if (label, observation.domain) in task.credited:
                    continue
                task.credited.add((label, observation.domain))
                count_page(observation, label)

    def _quarantine(
        self,
        task: _ShardTask,
        site: CrawlTarget,
        signal: str,
        persisted: Dict[str, List[SiteObservation]],
    ) -> None:
        """Quarantine ``site`` under every label it has no persisted row for."""
        for label in self.labels:
            if any(o.domain == site.domain for o in persisted[label]):
                continue
            record = QuarantineRecord(
                domain=site.domain,
                rank=site.rank,
                population=site.population,
                label=label,
                reason="worker-killed",
                attempts=task.crashes,
                last_signal=signal,
                shard=task.shard_id,
                ts=time.time(),
            )
            self.ledger.append(record)
            self.quarantined.append(record)
            obs.inc("supervisor.quarantined")
            obs.event(
                "crawl.quarantine",
                sample_key=site.domain,
                domain=site.domain,
                label=label,
                shard=task.shard_id,
                signal=signal,
                attempts=task.crashes,
            )
            observation = SiteObservation(
                domain=site.domain,
                rank=site.rank,
                population=site.population,
                success=False,
                failure_reason=record.failure_reason,
                attempts=task.crashes,
            )
            self.salvaged[label].append(observation)
            # Account the synthesized observation in the crawler metrics
            # too: quarantined sites never pass through
            # ``collect_with_retries`` (the killed workers' deltas died with
            # them), so without this the run log's failure rows would omit
            # exactly the sites the supervisor gave up on.
            count_page(observation, label)


def supervise(
    tasks: Sequence[WorkerTask],
    directory: Path,
    config: SupervisorConfig,
    jobs: int,
) -> Dict[str, List[CrawlDataset]]:
    """Run one crawl's shard ``tasks`` in supervised worker processes.

    Called by :func:`~repro.crawler.shards.run_sharded_crawl`, which plans
    the shards and merges the returned datasets, label by label.  Every
    task must carry its checkpoints under ``directory`` (re-dispatch resumes
    from them); bisected sub-shards, worker result files and the
    ``quarantine.jsonl`` ledger land there too.  A run whose workers died
    completes anyway: each isolated poison site comes back as a failed
    observation with reason ``quarantined:<signal>`` under every label,
    among the salvaged rows of the last dataset.
    """
    labels = tasks[0].labels if tasks else ()
    ledger = QuarantineLedger(quarantine_ledger_path(directory))
    supervisor = _Supervisor(labels, config, directory, ledger, jobs)
    with obs.span(
        "crawl.supervised", label=",".join(labels), shards=len(tasks), jobs=jobs
    ) as span:
        supervisor.run(
            [_ShardTask(shard_id=f"{index:04d}", work=task) for index, task in enumerate(tasks)]
        )
        span.set_attr("respawns", supervisor.respawns)
        span.set_attr("quarantined", len(supervisor.quarantined))
    shard_datasets = {label: list(supervisor.datasets[label]) for label in labels}
    for label, rows in supervisor.salvaged.items():
        if rows:
            salvage = CrawlDataset(label=label)
            salvage.observations.extend(rows)
            shard_datasets[label].append(salvage)
    return shard_datasets
