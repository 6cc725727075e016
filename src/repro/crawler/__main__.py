"""Crawl the synthetic web and persist the dataset as JSONL.

Decouples collection from analysis, like the real study: crawl once, then
analyze the saved dataset offline.  Crawls are checkpointed: each
observation is appended to ``<out>.partial`` as it lands, and a killed run
continues with ``--resume`` without re-visiting persisted domains.

Usage::

    python -m repro.crawler --scale 0.05 --out crawl.jsonl.gz
    python -m repro.crawler --scale 0.05 --adblock abp --out crawl-abp.jsonl.gz
    python -m repro.crawler --scale 0.05 --out crawl.jsonl.gz --resume
    python -m repro.crawler --scale 0.05 --fault-rate 0.1 --out crawl.jsonl.gz
    python -m repro.crawler --scale 0.05 --jobs 4 --out crawl.jsonl.gz
    python -m repro.crawler --scale 0.05 --stage crawl.control --cache-dir .stage-cache \\
        --out crawl.jsonl.gz

``--jobs N`` with N > 1 shards the target list over N worker processes, always
under the crawl supervisor (each shard checkpoints independently under
``<out>.shards/``, so ``--resume`` works for parallel crawls too).  The
supervisor re-dispatches a worker that dies or shows no checkpoint progress
for ``--liveness-deadline`` seconds, and quarantines a site that keeps
killing workers: such a crawl completes in degraded mode, with the skipped
sites recorded in ``<out>.shards/quarantine.jsonl`` and counted in the crawl
health output.  ``--supervised`` only matters at ``--jobs 1``, where it
isolates the crawl in one supervised worker.  ``--stage`` produces one of
the study pipeline's crawl outputs through the stage graph instead (the
``crawl`` stage, for that output's profile alone); with
``--cache-dir``, an unchanged re-run loads the dataset from the
content-addressed cache without a single page load.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.blocklists.matcher import RuleMatcher
from repro import obs
from repro.browser.extensions import AdBlockerExtension
from repro.browser.profile import BrowserProfile
from repro.canvas.device import DEVICE_PROFILES, INTEL_UBUNTU
from repro.config import StudyScale
from repro.crawler.crawl import resume_crawl
from repro.crawler.resilience import PageBudget, RetryPolicy
from repro.crawler.shards import ExecutionConfig, run_sharded_crawl
from repro.crawler.storage import save_dataset
from repro.crawler.supervisor import SupervisorConfig
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.obs.recorder import RunRecorder, resolve_run_dir
from repro.webgen import build_world
from repro.webgen.vendors import prewarm_sources

#: Outputs of the study's ``crawl`` stage the ``--stage`` flag can produce.
CRAWL_STAGES = ("crawl.control", "crawl.abp", "crawl.ubo")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20250504)
    parser.add_argument("--out", default="crawl.jsonl.gz")
    parser.add_argument(
        "--device",
        choices=sorted(DEVICE_PROFILES),
        default=INTEL_UBUNTU.name,
        help="crawl machine profile (§3.1 used two)",
    )
    parser.add_argument(
        "--adblock",
        choices=["none", "abp", "ubo"],
        default="none",
        help="install an ad blocker extension (§5.2 crawls)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from <out>.partial (or <out>), skipping persisted domains",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="page-load attempts per site; 1 disables retries",
    )
    parser.add_argument(
        "--page-budget-ms",
        type=float,
        default=90_000.0,
        help="per-page watchdog budget in virtual milliseconds",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject transient faults on this fraction of URLs (testing/chaos)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the fault schedule (defaults to --seed)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 shards the crawl over supervised workers "
        "(checkpoints in <out>.shards/)",
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="at --jobs 1, crawl in one supervised worker (--jobs >1 is always "
        "supervised): liveness deadline, crash re-dispatch, poison-site "
        "quarantine (quarantine.jsonl lands next to the shard checkpoints)",
    )
    parser.add_argument(
        "--liveness-deadline",
        type=float,
        default=60.0,
        help="whenever the supervisor runs: max time (s) without checkpoint "
        "progress before a worker is presumed hung and killed",
    )
    parser.add_argument(
        "--static-triage",
        action="store_true",
        help="skip executing scripts the static analyzer proves canvas-inert "
        "and effect-free toward the rest of the page (same as "
        "REPRO_JS_STATIC_TRIAGE=1; datasets are byte-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="stage cache directory (implies running via the stage graph)",
    )
    parser.add_argument(
        "--stage",
        choices=CRAWL_STAGES,
        default=None,
        help="produce this study crawl output via the stage graph "
        "(uses the output's canonical profile; --device/--adblock are ignored)",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="write run observability artifacts (manifest.json + trace.jsonl "
        "+ runs.jsonl history ledger) here; defaults to <out>.obs when "
        "REPRO_OBS_TRACE=1",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the wall-clock sampling profiler for this crawl (same as "
        "REPRO_OBS_PROFILE=1); writes profile.collapsed + profile.trace.json "
        "into the obs dir",
    )
    args = parser.parse_args(argv)


    if args.profile:
        obs.configure(replace(obs.config(), profile=True))
    obs.profiler.maybe_start(obs.config())

    world = build_world(StudyScale(fraction=args.scale, seed=args.seed))
    extensions = ()
    if args.adblock != "none":
        easylist = RuleMatcher.from_text(world.easylist_text, "easylist")
        if args.adblock == "abp":
            extensions = (AdBlockerExtension("Adblock Plus", [easylist]),)
        else:
            extra = [RuleMatcher.from_text(world.ubo_extra_text, "ubo-extra")]
            extensions = (AdBlockerExtension("UBlock Origin", [easylist], extra_matchers=extra),)

    profile = BrowserProfile(device=DEVICE_PROFILES[args.device], extensions=extensions)

    network = world.network
    if args.fault_rate > 0:
        seed = args.seed if args.fault_seed is None else args.fault_seed
        network = FaultyNetwork(network, FaultConfig(fault_rate=args.fault_rate), seed=seed)

    retry_policy = RetryPolicy(max_attempts=args.max_attempts) if args.max_attempts > 1 else None
    page_budget = PageBudget(max_page_ms=args.page_budget_ms)
    supervised = args.supervised or args.jobs > 1
    execution = ExecutionConfig(
        jobs=args.jobs,
        supervisor=SupervisorConfig(liveness_deadline_s=args.liveness_deadline)
        if supervised
        else None,
        js_prewarm=prewarm_sources(),
        # None = honour REPRO_JS_STATIC_TRIAGE; the flag forces it on.
        static_triage=True if args.static_triage else None,
    )

    started = time.time()
    done = {"n": 0}
    stage_timings = ()

    def progress(index, observation):
        done["n"] += 1
        if done["n"] % 500 == 0:
            rate = done["n"] / (time.time() - started)
            print(f"  {done['n']} sites crawled ({rate:.0f}/s)", flush=True)

    run_dir = resolve_run_dir(args.obs_dir, default=f"{args.out}.obs")
    recorder = None
    if run_dir is not None:
        recorder = RunRecorder(
            run_dir,
            label="crawl",
            seed=args.seed,
            shard_plan={"shards": max(1, args.jobs), "jobs": args.jobs},
            extra={"out": str(args.out), "scale": args.scale},
        ).start()

    if args.stage is not None or args.cache_dir is not None:
        # Stage-graph path: the crawl is one cached output of the study
        # pipeline's crawl stage, using the output's canonical profile.
        from repro.core.stages import StageCache, StudyContext, build_study_graph

        stage = args.stage or {
            "none": "crawl.control", "abp": "crawl.abp", "ubo": "crawl.ubo"
        }[args.adblock]
        cache = StageCache(args.cache_dir) if args.cache_dir is not None else None
        ctx = StudyContext(
            network=network,
            targets=world.all_targets,
            vendor_knowledge=world.vendor_knowledge(),
            easylist_text=world.easylist_text,
            easyprivacy_text=world.easyprivacy_text,
            disconnect=world.disconnect,
            ubo_extra_text=world.ubo_extra_text,
            dns=world.network.dns,
            retry_policy=retry_policy,
            page_budget=page_budget,
            execution=execution,
            checkpoint_dir=Path(args.cache_dir) / "shards"
            if args.cache_dir is not None
            else Path(f"{args.out}.shards"),
        )
        graph = build_study_graph(ctx, cache=cache)
        run = graph.execute(ctx, only=[stage])
        dataset = run.artifacts[stage]
        save_dataset(dataset, args.out)
        timing = run.timings[-1]
        stage_timings = tuple(run.timings)
        print(f"stage {stage}: {timing.status} in {timing.seconds:.1f}s")
    elif supervised:
        label = f"{args.adblock}-{args.device}" if args.adblock != "none" else args.device
        dataset = run_sharded_crawl(
            network,
            world.all_targets,
            profile=profile,
            label=label,
            checkpoint_dir=f"{args.out}.shards",
            retry_policy=retry_policy,
            page_budget=page_budget,
            resume=args.resume,
            execution=execution,
        )
        save_dataset(dataset, args.out)
    else:
        label = f"{args.adblock}-{args.device}" if args.adblock != "none" else args.device
        dataset = resume_crawl(
            network,
            world.all_targets,
            args.out,
            profile=profile,
            label=label,
            progress=progress,
            retry_policy=retry_policy,
            page_budget=page_budget,
            resume=args.resume,
            static_triage=execution.static_triage,
        )
    health = dataset.health()
    if recorder is not None:
        from dataclasses import asdict

        trace_path = recorder.finish(health=asdict(health), stage_timings=stage_timings)
        print(
            f"observability artifacts -> {trace_path.parent} "
            f"(run {recorder.run_id}; compare with "
            f"`python -m repro.obs history {trace_path.parent}`)"
        )
    print(f"crawled {health.total} sites ({health.successes} ok) in "
          f"{time.time() - started:.1f}s -> {args.out}")
    print(health.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
