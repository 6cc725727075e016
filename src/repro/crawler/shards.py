"""Shard planner and the crawl executor.

The paper's crawl covers 40k homepages; a strictly serial visit loop leaves
every core but one idle.  This module splits a target list into N
deterministic shards, crawls each under the whole profile set (site-major,
one checkpoint file per label, reusing the resume machinery of
:mod:`repro.crawler.crawl` / :mod:`repro.crawler.storage`), then merges each
label's shard datasets back into one :class:`CrawlDataset` in the original
target order — so a parallel crawl is observation-for-observation identical
to a serial one.

Why this is safe: every page load runs its scripts in a fresh JS realm of
its own against a stateless synthetic network, and fault injection
(:class:`~repro.net.faults.FaultInjector`) is keyed by ``(seed, url)`` and
counted per visit: the crawl loop starts a fresh fault clock for every
settle, so a forked worker's inherited clock and the other sites in its
shard never reach the faults a site sees.  Shard membership therefore cannot
change what any site observes, only *when* it is visited.

* :func:`plan_shards` — deterministic round-robin split (shard ``i`` takes
  ``targets[i::n]``), so top/tail populations stay balanced across shards;
* :class:`ExecutionConfig` — how a crawl executes (worker count, supervisor
  knobs, JS prewarm), carried as one value from ``run_study`` and the CLIs
  down to the worker;
* :func:`run_sharded_crawl` — the executor: in-process when ``jobs == 1``
  and no supervisor config is given, otherwise supervised worker processes
  (:mod:`repro.crawler.supervisor`: liveness deadline, crash re-dispatch,
  poison-site quarantine, degraded-mode completion);
* :func:`shard_worker` — the one worker body: a :class:`WorkerTask` in, a
  :class:`WorkerResult` out, carrying the shard's records, its one metrics
  delta (cache counters included) and the static verdicts its page loads
  computed (so the parent's ``static`` stage analyses no script a worker
  already analysed);
* :func:`merge_shard_datasets` — reassemble one label's dataset in target
  order; merged :class:`~repro.crawler.crawl.CrawlHealth` comes from the
  merged dataset's own ``health()``.

A killed crawl leaves per-shard, per-label ``.partial`` checkpoints behind,
and re-running with the same ``checkpoint_dir`` resumes every shard without
re-visiting a persisted (site, label) pair.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs, perf
from repro.browser.profile import BrowserProfile
from repro.js import compiler
from repro.js.static import verdict as static_verdict
from repro.core.records import SiteObservation
from repro.crawler.crawl import (
    CrawlDataset,
    CrawlTarget,
    ProfileSet,
    crawl_profiles,
    resume_crawls,
)
from repro.crawler.resilience import PageBudget, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (supervisor imports us)
    from repro.crawler.supervisor import SupervisorConfig

__all__ = [
    "ExecutionConfig",
    "WorkerTask",
    "WorkerResult",
    "plan_shards",
    "shard_checkpoint_path",
    "merge_shard_datasets",
    "shard_worker",
    "run_sharded_crawl",
]


@dataclass(frozen=True)
class ExecutionConfig:
    """How a crawl executes — never what it observes.

    Every field is exactly transparent: the datasets, and so the
    ``StudyResult``, are byte-identical whatever their values.  None of them
    enters a stage-cache key.
    """

    #: Worker processes.  ``1`` crawls in-process (unless ``supervisor`` is
    #: set); more always runs under the supervisor.
    jobs: int = 1
    #: Supervisor knobs.  ``None`` with ``jobs > 1`` means the defaults; set
    #: with ``jobs == 1`` it isolates the crawl in one supervised worker.
    supervisor: Optional["SupervisorConfig"] = None
    #: Script sources each worker compiles into its warm JS cache before the
    #: first page load (typically :func:`repro.webgen.vendors.prewarm_sources`,
    #: passed as plain strings so the crawler never imports ``webgen``).
    js_prewarm: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "js_prewarm", tuple(self.js_prewarm or ()))


@dataclass(frozen=True)
class WorkerTask:
    """One shard's crawl, as a worker process receives it (picklable)."""

    network: Any
    targets: Tuple[CrawlTarget, ...]
    #: The profile set the shard is crawled under, site-major.
    profiles: ProfileSet
    retry_policy: Optional[RetryPolicy]
    page_budget: Optional[PageBudget]
    inner_paths: tuple
    resume: bool
    execution: ExecutionConfig
    perf_config: perf.RenderCacheConfig
    obs_config: obs.ObsConfig
    #: Trace lane of the shard (``shard-0003``; bisected: ``shard-0003.a``).
    lane: str
    #: The shard's checkpoint file per label (``None``: crawl without them).
    checkpoints: Optional[Dict[str, Path]] = None
    #: Where a worker process atomically pickles its :class:`WorkerResult`.
    result_path: Optional[Path] = None

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _profile in self.profiles)


@dataclass(frozen=True)
class WorkerResult:
    """What one worker task ships home, each part exactly once."""

    #: Observations as JSON records per label — the checkpoint schema, so
    #: the parent never depends on pickling in-flight collector objects.
    records: Dict[str, List[Dict[str, Any]]]
    #: Spans, the metrics delta (cache and timer layers included) and
    #: profiler samples (:func:`repro.obs.worker_payload`).
    obs_payload: Dict[str, Any]
    #: Static verdicts computed during the task (new since it started), for
    #: :func:`repro.js.static.verdict.adopt_verdicts` in the parent.
    verdicts: Dict[Any, Any]


def plan_shards(targets: Sequence[CrawlTarget], shards: int) -> List[List[CrawlTarget]]:
    """Split ``targets`` into at most ``shards`` deterministic round-robin shards.

    Shard ``i`` takes ``targets[i::shards]``: the split depends only on the
    target order and the shard count, never on timing, and interleaves the
    (rank-ordered) list so every shard sees a comparable top/tail mix.
    Empty shards are dropped, so fewer targets than shards is fine.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    planned = [list(targets[i::shards]) for i in range(shards)]
    return [shard for shard in planned if shard]


def shard_checkpoint_path(
    checkpoint_dir: Union[str, Path], label: str, index: int, total: int
) -> Path:
    """The checkpoint file for one shard of a sharded crawl."""
    return Path(checkpoint_dir) / f"{label}.shard-{index:04d}-of-{total:04d}.jsonl"


def merge_shard_datasets(
    label: str,
    targets: Sequence[CrawlTarget],
    shard_datasets: Sequence[CrawlDataset],
) -> CrawlDataset:
    """Merge shard outputs into one dataset ordered like ``targets``.

    The merged dataset is indistinguishable from a serial crawl of the same
    list: observations appear in target order, and crawl health (success
    counts, attempts histogram, failure table) is recomputed from the merged
    observations via :meth:`CrawlDataset.health`.

    Degenerate shards are first-class: an empty shard dataset contributes
    nothing but cannot perturb the global ordering, and an all-failed
    shard's failure rows are carried into the merge like any observation —
    they are the crawl-health accounting.  When the same domain appears in
    several shard datasets (a supervised re-dispatch overlapping a salvaged
    checkpoint), the successful observation wins regardless of shard order;
    among observations of equal success the later shard wins — so a
    salvaged failure row can never shadow a completed re-crawl.
    """
    by_domain = {}
    for shard in shard_datasets:
        for observation in shard.observations:
            current = by_domain.get(observation.domain)
            if current is None or observation.success or not current.success:
                by_domain[observation.domain] = observation
    merged = CrawlDataset(label=label)
    for target in targets:
        observation = by_domain.get(target.domain)
        if observation is not None:
            merged.observations.append(observation)
    return merged


def _crawl_shard(
    task: WorkerTask, progress: Optional[Callable[[int, SiteObservation], None]] = None
) -> Dict[str, CrawlDataset]:
    """Crawl one shard in this process: prewarm, then a (checkpointed) crawl.

    Re-running the prewarm for a later shard finds the cache warm and
    records nothing.
    """
    execution = task.execution
    if execution.js_prewarm:
        compiler.prewarm(execution.js_prewarm)
    with obs.span(
        "crawl.shard", shard=task.lane, label=",".join(task.labels), size=len(task.targets)
    ):
        kwargs = dict(
            progress=progress,
            inner_paths=task.inner_paths,
            retry_policy=task.retry_policy,
            page_budget=task.page_budget,
        )
        if task.checkpoints is not None:
            return resume_crawls(
                task.network,
                task.targets,
                task.profiles,
                task.checkpoints,
                resume=task.resume,
                **kwargs,
            )
        return crawl_profiles(task.network, task.targets, task.profiles, **kwargs)


def shard_worker(task: WorkerTask) -> WorkerResult:
    """The worker body: crawl one shard under its profile set, ship the result home.

    Installs the parent's render-cache and observability configs, starts the
    sampling profiler to match, crawls, and returns records plus the obs
    payload — the metrics *delta from the task start* — and the static
    verdicts the task computed.  A worker process may be forked after its
    parent took in other workers' results, so a cumulative snapshot would
    ship those again; the obs layer likewise drops the trace records and
    profiler samples a forked child inherits.  With a ``result_path``
    the result is also pickled there atomically, so a worker that dies
    mid-write never hands the parent a torn payload.
    """
    perf.configure(task.perf_config)
    obs.configure(task.obs_config)
    obs.set_worker_label(task.lane)
    obs.profiler.maybe_start(task.obs_config)
    metrics_before = obs.METRICS.snapshot()
    verdicts_before = static_verdict.verdict_mark()
    # Prewarm compiles land after the baseline snapshot: they ship with
    # this task's delta.
    datasets = _crawl_shard(task)
    result = WorkerResult(
        records={
            label: [observation.to_json() for observation in dataset.observations]
            for label, dataset in datasets.items()
        },
        obs_payload=obs.worker_payload(metrics_before),
        verdicts=static_verdict.verdicts_since(verdicts_before),
    )
    if task.result_path is not None:
        tmp = task.result_path.with_name(task.result_path.name + ".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, task.result_path)
    return result


def run_sharded_crawl(
    network,
    targets: Sequence[CrawlTarget],
    profile: Optional[BrowserProfile] = None,
    label: str = "control",
    shards: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    inner_paths: tuple = (),
    resume: bool = True,
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    execution: ExecutionConfig = ExecutionConfig(),
    profiles: Optional[ProfileSet] = None,
) -> Union[CrawlDataset, Dict[str, CrawlDataset]]:
    """Crawl ``targets`` in shards and merge the shard datasets.

    * ``profiles`` — an ordered ``(label, profile)`` set, control first:
      every shard loads each of its sites under every profile back to back
      (:func:`~repro.crawler.crawl.crawl_profiles`), and the call returns
      ``{label: dataset}``.  Without it the crawl is the one-profile set
      ``((label, profile),)`` and returns that label's dataset;
    * ``shards`` defaults to ``execution.jobs`` (more shards than jobs is
      allowed: workers drain the shard queue);
    * with ``execution.jobs == 1`` and no ``execution.supervisor`` the
      shards are crawled in-process, one after the other — the only path
      that calls ``progress``;
    * otherwise every shard runs in a supervised worker process
      (:mod:`repro.crawler.supervisor`): a worker that dies or falls silent
      for ``liveness_deadline_s`` is re-dispatched from its checkpoints, and
      a site that keeps killing workers is quarantined.  ``jobs > 1`` with
      no supervisor config uses the default :class:`SupervisorConfig`;
    * with a ``checkpoint_dir``, every shard checkpoints to one file per
      label and a killed run resumes from the per-shard partials,
      re-visiting no (site, label) pair that was persisted.  Supervised runs
      always checkpoint: without a ``checkpoint_dir`` the files live in a
      private temporary directory.

    Each merged dataset equals a serial crawl of the same targets under its
    profile alone: identical observations in identical order (see
    ``tests/crawler/test_shards.py``).
    """
    one_profile = profiles is None
    if one_profile:
        profiles = ((label, profile),)
    labels = [name for name, _profile in profiles]
    jobs = max(1, execution.jobs)
    planned = plan_shards(targets, max(1, shards if shards is not None else jobs))
    supervised = jobs > 1 or execution.supervisor is not None
    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-supervisor-")
        if supervised and checkpoint_dir is None
        else contextlib.nullcontext(checkpoint_dir)
    )
    with scratch as directory:
        if directory is not None:
            Path(directory).mkdir(parents=True, exist_ok=True)
        tasks = [
            WorkerTask(
                network=network,
                targets=tuple(shard),
                profiles=profiles,
                retry_policy=retry_policy,
                page_budget=page_budget,
                inner_paths=inner_paths,
                resume=resume,
                execution=execution,
                perf_config=perf.config(),
                obs_config=obs.config(),
                lane=f"shard-{index:04d}",
                checkpoints={
                    name: shard_checkpoint_path(directory, name, index, len(planned))
                    for name in labels
                }
                if directory is not None
                else None,
            )
            for index, shard in enumerate(planned)
        ]
        if supervised:
            # Local import: the supervisor builds on this module.
            from repro.crawler.supervisor import SupervisorConfig, supervise

            shard_datasets = supervise(
                tasks, Path(directory), execution.supervisor or SupervisorConfig(), jobs
            )
        else:
            shard_datasets = {name: [] for name in labels}
            for task in tasks:
                for name, dataset in _crawl_shard(task, progress).items():
                    shard_datasets[name].append(dataset)
    merged = {
        name: merge_shard_datasets(name, targets, shard_datasets.get(name, ()))
        for name in labels
    }
    return merged[label] if one_profile else merged
