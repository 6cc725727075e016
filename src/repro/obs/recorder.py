"""Run-artifact recorder: one manifest + one JSONL trace log per run.

A :class:`RunRecorder` brackets one ``run_crawl``/``run_study``:

* :meth:`start` writes ``manifest.json`` into the run directory and marks
  the metrics baseline (so the run's summary is a *delta*, immune to other
  runs sharing the process — the same windowing the stage graph uses per
  stage);
* :meth:`finish` drains the tracer's buffered records into ``trace.jsonl``
  — a ``run`` header line, one line per span/event, and a final ``summary``
  line carrying the exact metrics delta (plus drop counts) — and rewrites
  the manifest with anything learned during the run (config digest, stage
  cache keys, crawl health).

The summary line is what makes sampling safe: ``repro.obs summary`` totals
come from the (never-sampled) metrics delta, so they match
``CrawlDataset.health`` exactly even when only 1% of page spans survive
into the log.  Span/event lines feed the timeline views (``slow``,
``export-trace``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro import obs
from repro.obs import ledger as ledger_mod
from repro.obs import manifest as manifest_mod
from repro.obs import profiler
from repro.obs.metrics import diff_snapshots

__all__ = ["RunRecorder", "TRACE_NAME", "COLLAPSED_NAME", "PROFILE_TRACE_NAME"]

TRACE_NAME = "trace.jsonl"
COLLAPSED_NAME = "profile.collapsed"
PROFILE_TRACE_NAME = "profile.trace.json"


class RunRecorder:
    """Write one run's manifest and trace log under ``run_dir``."""

    def __init__(
        self,
        run_dir: Union[str, Path],
        label: str,
        seed: Optional[int] = None,
        shard_plan: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.label = label
        self.manifest = manifest_mod.collect_manifest(
            label, seed=seed, shard_plan=shard_plan, extra=extra
        )
        self._metrics_before: Dict[str, Any] = {}
        self._started = False
        #: Ledger id of the finished run (set by :meth:`finish`).
        self.run_id: Optional[str] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RunRecorder":
        """Write the manifest and mark the metrics baseline."""
        manifest_mod.write_manifest(self.run_dir, self.manifest)
        self._metrics_before = obs.METRICS.snapshot()
        self._started = True
        return self

    def finish(
        self,
        metrics: Optional[Dict[str, Any]] = None,
        manifest_update: Optional[Dict[str, Any]] = None,
        health: Optional[Dict[str, Any]] = None,
        stage_timings: Sequence[Any] = (),
        profile: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Flush records + summary to ``trace.jsonl``; returns its path.

        ``metrics`` is the run's metrics delta when the caller windowed it
        itself (``run_study`` fills ``StudyResult.metrics``): the summary
        line then carries that very delta, not one taken a collector pause
        later.  Otherwise the delta runs from :meth:`start` to now.
        ``profile`` is a drained :mod:`~repro.obs.profiler` sample-table
        snapshot.  When the profiler is active and none was passed, the
        process table is drained here — so the CLI paths get profile
        artifacts without extra plumbing.  A non-empty profile also writes
        ``profile.collapsed`` (flamegraph.pl lines) and
        ``profile.trace.json`` (Chrome trace), and every finish appends
        the run — manifest identity, stage timings, metrics delta, profile
        rollup, health — to the ``runs.jsonl`` history ledger.
        """
        if not self._started:
            self.start()
        if metrics is None:
            metrics = diff_snapshots(self._metrics_before, obs.METRICS.snapshot())
        if manifest_update:
            self.manifest.update(manifest_update)
            manifest_mod.write_manifest(self.run_dir, self.manifest)
        if profile is None and profiler.ACTIVE:
            profile = profiler.drain()
        profile_rollup = profiler.rollup(profile) if profile else None

        records = obs.TRACE.drain()
        path = self.run_dir / TRACE_NAME
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"t": "run", "label": self.label, "manifest": manifest_mod.MANIFEST_NAME}
                )
                + "\n"
            )
            for record in records:
                fh.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
            fh.write(
                json.dumps(
                    {
                        "t": "summary",
                        "label": self.label,
                        "metrics": metrics,
                        "health": health,
                        "records": len(records),
                        "dropped": obs.TRACE.dropped,
                        "profile": profile_rollup,
                    },
                    separators=(",", ":"),
                    default=str,
                )
                + "\n"
            )
        os.replace(tmp, path)

        if profile:
            collapsed = self.run_dir / COLLAPSED_NAME
            collapsed.write_text(
                "\n".join(profiler.collapsed_stacks(profile)) + "\n", encoding="utf-8"
            )
            chrome = self.run_dir / PROFILE_TRACE_NAME
            chrome.write_text(
                json.dumps(profiler.chrome_trace(profile), separators=(",", ":")) + "\n",
                encoding="utf-8",
            )

        entry = ledger_mod.make_entry(
            self.label,
            self.manifest,
            stage_timings=stage_timings,
            metrics=metrics,
            profile=profile_rollup,
            health=health,
        )
        ledger_mod.append_run(self.run_dir, entry)
        self.run_id = entry["run_id"]
        return path

    def __enter__(self) -> "RunRecorder":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()


def resolve_run_dir(
    explicit: Optional[Union[str, Path]], default: Optional[Union[str, Path]] = None
) -> Optional[Path]:
    """Where run artifacts should go: explicit arg > ``REPRO_OBS_DIR`` > default."""
    if explicit is not None:
        return Path(explicit)
    configured = obs.config().run_dir
    if configured:
        return Path(configured)
    if default is not None and obs.config().trace:
        return Path(default)
    return None
