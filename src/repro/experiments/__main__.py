"""Run every experiment and print the regenerated artifacts.

Usage::

    python -m repro.experiments                 # reduced scale (fast)
    python -m repro.experiments --scale 1.0     # the paper's full 20k+20k
    python -m repro.experiments --only table1 figure1
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.config import StudyScale
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.webgen import build_world


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05, help="fraction of 20k+20k sites")
    parser.add_argument("--seed", type=int, default=20250504)
    parser.add_argument("--only", nargs="*", default=None, help="experiment keys to run")
    parser.add_argument("--no-adblock", action="store_true", help="skip the two ad-blocker crawls")
    parser.add_argument("--artifacts", default=None, help="directory to also write artifacts into")
    parser.add_argument(
        "--jobs", type=int, default=1, help="crawl worker processes (sharded crawls)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="stage cache directory: re-runs skip every unchanged pipeline stage",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="write run observability artifacts (manifest.json + trace.jsonl + "
        "runs.jsonl history ledger) here; inspect with python -m repro.obs "
        "summary/history/diff/regress <dir>",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the wall-clock sampling profiler for this study (same as "
        "REPRO_OBS_PROFILE=1); the rollup lands in the report, trace summary "
        "and run ledger",
    )
    args = parser.parse_args(argv)

    if args.profile:
        from dataclasses import replace

        from repro import obs

        obs.configure(replace(obs.config(), profile=True))

    keys = args.only or list(EXPERIMENTS)
    needs_cross_machine = "cross_machine" in keys

    t0 = time.time()
    print(f"building world (scale={args.scale}) ...", flush=True)
    world = build_world(StudyScale(fraction=args.scale, seed=args.seed))
    print(f"world ready in {time.time() - t0:.1f}s; running study ...", flush=True)

    t0 = time.time()
    result = world.run_full_study(
        include_adblock_crawls=not args.no_adblock,
        include_cross_machine=needs_cross_machine,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        obs_dir=args.obs_dir,
    )
    cached = sum(1 for t in result.stage_timings if t.cached)
    # Collector pauses of this process and every crawl worker, and the
    # largest resident set among them: the costs that grow with the scale.
    gc_s = result.perf_counters.get("gc", {}).get("miss_seconds", 0.0)
    rss_mb = result.metrics["gauges"]["process.peak_rss_mb"]
    print(
        f"study finished in {time.time() - t0:.1f}s "
        f"({cached}/{len(result.stage_timings)} stages from cache; "
        f"GC {gc_s:.1f}s, peak RSS {rss_mb:.0f} MB)\n",
        flush=True,
    )
    if result.profile.get("samples"):
        from repro.obs.inspect import profile_text

        print("\n".join(profile_text(result.profile)))
        print()
    if args.obs_dir:
        print(
            f"run appended to {args.obs_dir}/runs.jsonl — compare with "
            f"`python -m repro.obs history {args.obs_dir}`\n",
            flush=True,
        )

    artifacts_dir = None
    if args.artifacts:
        from pathlib import Path

        artifacts_dir = Path(args.artifacts)
        artifacts_dir.mkdir(parents=True, exist_ok=True)

    for key in keys:
        text = run_experiment(key, result)
        print(text)
        print()
        # Infra experiments (stage wall-clock timings) differ on every run,
        # so they are printed but never written as artifacts.
        if artifacts_dir is not None and EXPERIMENTS[key].section != "infra":
            (artifacts_dir / f"{key}.txt").write_text(text + "\n", encoding="utf-8")

    from repro.analysis.report import study_comparisons

    comparison_lines = [c.line for c in study_comparisons(result)]
    print("=== Paper vs measured (all headline numbers) ===")
    for line in comparison_lines:
        print(line)
    if artifacts_dir is not None:
        (artifacts_dir / "paper_vs_measured.txt").write_text(
            "\n".join(comparison_lines) + "\n", encoding="utf-8"
        )
        # Figure 1 series as CSV for external plotting.
        from repro.analysis.figures import figure1_data

        rows = ["rank,top_sites,tail_sites"] + [
            f"{d['rank']},{d['top_sites']},{d['tail_sites']}" for d in figure1_data(result)
        ]
        (artifacts_dir / "figure1.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        # And as a PNG, drawn by this repository's own canvas implementation.
        from repro.analysis.figures import figure1_png

        figure1_png(result, path=str(artifacts_dir / "figure1.png"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
