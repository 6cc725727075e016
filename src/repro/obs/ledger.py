"""Run-history ledger: every run appended to ``runs.jsonl``, diffable.

The recorder's ``manifest.json``/``trace.jsonl`` are *per-run* artifacts —
each run overwrites the last — so nothing in the system could answer "when
did this get slower?".  The ledger fixes that: :func:`append_run` adds one
JSON line per finished run (manifest identity + stage timings + the exact
metrics delta + the profiler rollup + crawl health) to an append-only
``runs.jsonl`` in the obs directory.  Like the trace log, loading is
torn-line tolerant: a run killed mid-append costs that line, never the
file.

On top of the ledger sit the three history verbs of ``python -m repro.obs``:

* ``history`` — table of recent runs (id, age, label, config digest, wall
  seconds, pages, profile samples);
* ``diff A B`` — stage-timing / counter / hit-rate deltas between two
  runs.  Config-digest aware: *regressions* are only counted when the two
  runs have the same config digest — different configs are expected to
  differ, so the diff is informational;
* ``regress`` — the CI gate: latest run vs the **median** of prior runs
  with the same config digest and label, failing (exit 1) past a
  threshold, with the same contract as ``benchmarks/check_regression.py``
  (0 ok, 1 regression, 2 can't compare).

What regresses: per-stage wall seconds that grow past the threshold and
by more than :data:`TIMING_JITTER_S` (identical runs differ by that much —
jitter is not signal), and cache-layer / stage-cache hit rates that drop
past it (ignoring layers with fewer than :data:`HIT_RATE_MIN_LOOKUPS`
lookups).
Cache layers are read from their ``perf.hits[<layer>]`` counters; a
ledger line recorded before those existed names them differently
(``render_cache.glyph_atlas.hits``) and shows no cache layers here.
Raw wall seconds never compare across machines — but the ledger compares
a machine with itself, where they are exactly the drift signal fleet
crawls die by.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import layer_rows

__all__ = [
    "LEDGER_NAME",
    "append_run",
    "load_ledger",
    "resolve_run",
    "history_text",
    "diff_text",
    "regress_text",
]

LEDGER_NAME = "runs.jsonl"

#: A stage regresses (or improves) only when its seconds also move by more
#: than this.  Identical scale-0.01 studies on a shared 2-vCPU machine moved
#: sub-0.2 s stages by up to 0.11 s (a collector pause is enough to double
#: one), and the 1.4 s crawl by up to 0.17 s, 0.42 s with another process
#: busy on the second vCPU; a relative threshold alone flags all of these.
TIMING_JITTER_S = 0.5

#: Hit-rate comparisons need at least this many lookups on both sides.
HIT_RATE_MIN_LOOKUPS = 20


def ledger_path(obs_dir: Union[str, Path]) -> Path:
    path = Path(obs_dir)
    return path if path.name == LEDGER_NAME else path / LEDGER_NAME


# -- writing -------------------------------------------------------------------


def make_entry(
    label: str,
    manifest: Dict[str, Any],
    stage_timings: Sequence[Any] = (),
    metrics: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    health: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ledger line (JSON-able).  ``stage_timings`` accepts
    :class:`~repro.core.stages.stage.StageTiming` objects or plain dicts."""
    stages = []
    for timing in stage_timings:
        if isinstance(timing, dict):
            stages.append(
                {
                    "name": str(timing.get("name", "?")),
                    "seconds": float(timing.get("seconds", 0.0)),
                    "cached": bool(timing.get("cached", False)),
                }
            )
        else:
            stages.append(
                {
                    "name": timing.name,
                    "seconds": float(timing.seconds),
                    "cached": bool(timing.cached),
                }
            )
    run_id = hashlib.sha256(
        f"{label}|{manifest.get('created')}|{os.getpid()}|{time.time_ns()}".encode()
    ).hexdigest()[:12]
    return {
        "t": "ledger-run",
        "run_id": run_id,
        "label": label,
        "created": manifest.get("created"),
        "git": manifest.get("git"),
        "config_digest": manifest.get("config_digest"),
        "seed": manifest.get("seed"),
        "shard_plan": manifest.get("shard_plan"),
        "stages": stages,
        "metrics": metrics or {},
        "profile": profile,
        "health": health,
    }


def append_run(obs_dir: Union[str, Path], entry: Dict[str, Any]) -> Path:
    """Append one run line (single ``write`` of line+newline, then flush —
    a torn writer can only tear its own line, which loading skips)."""
    path = ledger_path(obs_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, separators=(",", ":"), default=str)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return path


# -- loading / selection -------------------------------------------------------


def load_ledger(obs_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """All parseable ledger entries, oldest first (torn lines skipped)."""
    path = ledger_path(obs_dir)
    if not path.exists():
        return []
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and entry.get("t") == "ledger-run":
                entries.append(entry)
    return entries


def resolve_run(entries: Sequence[Dict[str, Any]], selector: str) -> Dict[str, Any]:
    """Find one run: ``latest``/``prev``, a negative index (``-1`` is the
    newest), or a run-id prefix."""
    if not entries:
        raise ValueError("the run ledger is empty")
    sel = selector.strip()
    if sel in ("latest", "last"):
        return entries[-1]
    if sel == "prev":
        sel = "-2"
    try:
        index = int(sel)
    except ValueError:
        matches = [e for e in entries if str(e.get("run_id", "")).startswith(sel)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ValueError(f"no run with id prefix {sel!r} (try 'repro.obs history')")
        raise ValueError(f"run id prefix {sel!r} is ambiguous ({len(matches)} matches)")
    try:
        return entries[index if index < 0 else index]
    except IndexError:
        raise ValueError(
            f"run index {index} out of range (ledger holds {len(entries)} run(s))"
        ) from None


# -- derived views -------------------------------------------------------------


def _stage_map(entry: Dict[str, Any]) -> Dict[str, Tuple[float, bool]]:
    return {
        str(s.get("name")): (float(s.get("seconds", 0.0)), bool(s.get("cached")))
        for s in entry.get("stages", ())
    }


def _wall_seconds(entry: Dict[str, Any]) -> float:
    return sum(float(s.get("seconds", 0.0)) for s in entry.get("stages", ()))


def _hit_rates(entry: Dict[str, Any]) -> Dict[str, Tuple[float, float]]:
    """``layer -> (hit_rate, lookups)`` for the cache layers + the stage
    cache, from the run's metrics delta."""
    metrics = entry.get("metrics", {})
    out: Dict[str, Tuple[float, float]] = {}
    for layer, row in sorted(layer_rows(metrics).items()):
        lookups = row["hits"] + row["misses"]
        if lookups:
            out[layer] = (row["hit_rate"], lookups)
    counters = metrics.get("counters", {})
    hits = float(counters.get("stage.cache.hits", 0.0))
    misses = float(counters.get("stage.cache.misses", 0.0))
    if hits + misses:
        out["stage.cache"] = (hits / (hits + misses), hits + misses)
    return out


def _pages(entry: Dict[str, Any]) -> int:
    counters = entry.get("metrics", {}).get("counters", {})
    return int(sum(v for k, v in counters.items() if k.startswith("crawler.pages[")))


#: Dataset-shape counters: with equal config digests these should be
#: identical run to run; any difference is drift worth a warning.
_SHAPE_PREFIXES = ("crawler.pages", "crawler.pages_ok")


def history_text(entries: Sequence[Dict[str, Any]], top: int = 20) -> str:
    if not entries:
        return "(empty run ledger — finish a run with REPRO_OBS_TRACE=1 or --obs-dir first)"
    lines = [
        f"{'#':>4s} {'run id':12s} {'created':20s} {'label':10s} "
        f"{'config':10s} {'wall':>8s} {'pages':>7s} {'samples':>8s}"
    ]
    total = len(entries)
    for offset, entry in enumerate(entries[-top:]):
        index = total - min(top, total) + offset - total  # negative selector
        profile = entry.get("profile") or {}
        lines.append(
            f"{index:>4d} {str(entry.get('run_id', '?')):12s} "
            f"{str(entry.get('created', '?'))[:19]:20s} "
            f"{str(entry.get('label', '?')):10s} "
            f"{str(entry.get('config_digest') or '-')[:10]:10s} "
            f"{_wall_seconds(entry):7.2f}s {_pages(entry):7d} "
            f"{int(profile.get('samples', 0)):8d}"
        )
    return "\n".join(lines)


def diff_text(
    a: Dict[str, Any],
    b: Dict[str, Any],
    threshold: float = 0.25,
) -> Tuple[str, int]:
    """Human diff of two ledger runs; returns ``(text, regressions)``.

    ``regressions`` counts threshold-crossing slowdowns/hit-rate drops and
    dataset-shape drift — but only when the runs share a config digest
    (different configs legitimately differ; the table still prints).
    """
    same_config = (
        a.get("config_digest") is not None
        and a.get("config_digest") == b.get("config_digest")
    )
    lines = [
        f"run A: {a.get('run_id')}  ({a.get('created')}, label {a.get('label')}, "
        f"config {a.get('config_digest') or '?'})",
        f"run B: {b.get('run_id')}  ({b.get('created')}, label {b.get('label')}, "
        f"config {b.get('config_digest') or '?'})",
    ]
    if not same_config:
        lines.append(
            "config digests differ: deltas below are informational, not regressions"
        )
    regressions = 0

    stages_a, stages_b = _stage_map(a), _stage_map(b)
    names = [n for n in stages_a if n in stages_b]
    if names:
        lines.append(f"{'stage':20s} {'A':>9s} {'B':>9s} {'delta':>9s}  status")
        for name in names:
            sec_a, cached_a = stages_a[name]
            sec_b, cached_b = stages_b[name]
            delta = sec_b - sec_a
            status = ""
            if cached_a != cached_b:
                status = f"cache: {'hit' if cached_a else 'ran'} -> {'hit' if cached_b else 'ran'}"
            elif same_config and delta > TIMING_JITTER_S and sec_b > sec_a * (1.0 + threshold):
                status = f"REGRESSED (+{delta / sec_a:.0%})" if sec_a else "REGRESSED"
                regressions += 1
            elif same_config and -delta > TIMING_JITTER_S and sec_b < sec_a * (1.0 - threshold):
                status = f"improved ({delta / sec_a:+.0%})"
            lines.append(
                f"{name:20s} {sec_a:8.2f}s {sec_b:8.2f}s {delta:+8.2f}s  {status}"
            )
        only = sorted(set(stages_a) ^ set(stages_b))
        for name in only:
            side = "A" if name in stages_a else "B"
            lines.append(f"{name:20s} (only in run {side})")

    rates_a, rates_b = _hit_rates(a), _hit_rates(b)
    shared = [layer for layer in rates_a if layer in rates_b]
    if shared:
        lines.append(f"{'cache layer':24s} {'A':>8s} {'B':>8s}  status")
        for layer in shared:
            rate_a, lookups_a = rates_a[layer]
            rate_b, lookups_b = rates_b[layer]
            status = ""
            if (
                same_config
                and min(lookups_a, lookups_b) >= HIT_RATE_MIN_LOOKUPS
                and rate_b < rate_a * (1.0 - threshold)
            ):
                status = f"REGRESSED (hit rate {rate_a:.1%} -> {rate_b:.1%})"
                regressions += 1
            lines.append(f"{layer:24s} {rate_a:7.1%} {rate_b:7.1%}  {status}")

    counters_a = a.get("metrics", {}).get("counters", {})
    counters_b = b.get("metrics", {}).get("counters", {})
    drifted = []
    for name in sorted(set(counters_a) | set(counters_b)):
        if not name.startswith(_SHAPE_PREFIXES):
            continue
        va, vb = float(counters_a.get(name, 0.0)), float(counters_b.get(name, 0.0))
        if va != vb:
            drifted.append((name, va, vb))
    if drifted and same_config:
        lines.append("dataset-shape drift under an identical config digest:")
        for name, va, vb in drifted:
            lines.append(f"  {name:40s} {va:10.0f} -> {vb:10.0f}")
            regressions += 1

    profile_a, profile_b = a.get("profile") or {}, b.get("profile") or {}
    if profile_a.get("samples") or profile_b.get("samples"):
        lines.append(
            f"profile samples: {int(profile_a.get('samples', 0))} -> "
            f"{int(profile_b.get('samples', 0))} "
            f"({float(profile_a.get('seconds', 0.0)):.2f}s -> "
            f"{float(profile_b.get('seconds', 0.0)):.2f}s sampled)"
        )

    if same_config:
        lines.append(
            "no regressions" if not regressions else f"{regressions} regression(s)"
        )
    return "\n".join(lines), regressions


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def regress_text(
    entries: Sequence[Dict[str, Any]],
    threshold: float = 0.25,
    min_runs: int = 1,
) -> Tuple[str, int]:
    """Latest run vs the median of prior same-config/same-label runs.

    Returns ``(text, exit_code)`` with the :mod:`benchmarks.check_regression`
    contract: 0 ok, 1 regression past ``threshold``, 2 nothing to compare
    (fewer than ``min_runs`` prior runs share the latest run's config
    digest and label — a setup problem, not a perf verdict).
    """
    if not entries:
        return ("the run ledger is empty — nothing to compare", 2)
    latest = entries[-1]
    digest, label = latest.get("config_digest"), latest.get("label")
    prior = [
        e
        for e in entries[:-1]
        if e.get("config_digest") == digest and e.get("label") == label
    ]
    if digest is None or len(prior) < min_runs:
        return (
            f"no prior run shares config digest {digest or '?'} and label "
            f"{label!r} — need {min_runs}, have {len(prior)} "
            "(run the same configuration again to establish a baseline)",
            2,
        )

    lines = [
        f"latest {latest.get('run_id')} vs median of {len(prior)} prior run(s) "
        f"(config {digest}, label {label}, threshold {threshold:.0%})",
        f"{'metric':32s} {'median':>10s} {'latest':>10s}  status",
    ]
    failures = 0

    current_stages = _stage_map(latest)
    for name, (seconds, cached) in current_stages.items():
        history = [
            _stage_map(e)[name][0]
            for e in prior
            if name in _stage_map(e) and not _stage_map(e)[name][1]
        ]
        if cached or not history:
            continue
        median = _median(history)
        ceiling = max(median * (1.0 + threshold), median + TIMING_JITTER_S)
        slow = seconds > ceiling
        status = f"REGRESSED (ceiling {ceiling:.2f}s)" if slow else "ok"
        failures += slow
        lines.append(f"{'stage.' + name + '.seconds':32s} {median:9.2f}s {seconds:9.2f}s  {status}")

    current_rates = _hit_rates(latest)
    prior_rates = [_hit_rates(e) for e in prior]
    for layer in sorted({k for rates in prior_rates for k in rates}):
        history = [
            rates[layer][0]
            for rates in prior_rates
            if layer in rates and rates[layer][1] >= HIT_RATE_MIN_LOOKUPS
        ]
        if not history:
            continue
        median = _median(history)
        if layer not in current_rates:
            lines.append(f"{layer + '.hit_rate':32s} {median:10.3f} {'-':>10s}  MISSING")
            failures += 1
            continue
        rate, lookups = current_rates[layer]
        if lookups < HIT_RATE_MIN_LOOKUPS:
            continue
        low = rate < median * (1.0 - threshold)
        status = f"REGRESSED (floor {median * (1 - threshold):.3f})" if low else "ok"
        failures += low
        lines.append(f"{layer + '.hit_rate':32s} {median:10.3f} {rate:10.3f}  {status}")

    if failures:
        lines.append(f"{failures} metric(s) regressed more than {threshold:.0%}")
        return "\n".join(lines), 1
    lines.append("no regressions")
    return "\n".join(lines), 0
