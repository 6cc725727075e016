"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 20250504 --seconds 40 --trace 0

Every iteration runs in a fresh interpreter with the ``REPRO_*`` variables
cleared and ``PYTHONPATH`` pointing at this checkout's ``src``, so the
program's process-wide caches start cold, as they do for a CLI user.
Iterations repeat while the next one should end within ``--seconds`` (at
least ``MIN_ITERATIONS`` run), and every metric is the median over them.
Durations are in reference seconds: measured, then scaled by the machine's
speed during the measurement (``perfbench/speed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones; ``trace.overhead_frac`` compares the two kinds.  An iteration
that fails the correctness gate, crashes or overruns stops the run: it
prints a result with ``"correct": false`` and no metrics, and exits with
status 1.  Without the program's sources next to it, the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the benchmark package importable
    sys.path.insert(0, str(ROOT))

from perfbench.gate import DigestLedger  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, STUDY_SCALE, WORKLOADS  # noqa: E402

#: Iterations a run makes at least, however long they take (when traced,
#: one untraced and one traced).
MIN_ITERATIONS = 2
#: No iteration starts once the run could overrun this many seconds, and
#: none may take longer.
HARD_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "site_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def _child_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(scratch)  # temporary files stay inside the checkout
    return env


def _iterate(workload: str, seed: int, traced: bool, scratch: Path, index: int) -> dict:
    out = scratch / f"iteration-{index:03d}"
    out.mkdir()
    launched = time.monotonic()
    # A session of its own, so a timeout kills the iteration and its workers.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "perfbench.iteration",
            "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)),
            "--launched", repr(launched), "--out", str(out),
        ],
        cwd=ROOT,
        env=_child_env(scratch),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    result_file = out / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        sys.stderr.write(stdout[-2000:] + stderr[-4000:])
        raise RuntimeError(f"iteration {index} exited with status {proc.returncode}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def _check_digests(workload: str, seed: int, results: list) -> list:
    """Every iteration, and the other study workload, must agree on the science."""
    digests = {r["digest"] for r in results}
    if digests == {""}:
        return []
    if len(digests) != 1:
        return [f"science digest differs between iterations: {sorted(digests)}"]
    ledger = DigestLedger(ROOT / ".perfbench" / "digests.json", ROOT / "src")
    return ledger.check(seed, STUDY_SCALE, digests.pop(), workload)


def measure(workload: str, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    started = time.monotonic()
    results = []
    longest = 0.0
    while True:
        # Start another iteration only if it should end within the run's
        # seconds, so a run lasts about as long whatever the machine's speed.
        projected = time.monotonic() - started + longest
        if len(results) >= MIN_ITERATIONS and projected > seconds:
            break
        if results and projected + 0.5 * longest > HARD_LIMIT_S:
            break
        traced = bool(trace) and len(results) % 2 == 1
        begun = time.monotonic()
        try:
            result = _iterate(workload, seed, traced, scratch, len(results))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"correctness: {exc}\n")
            attempted = sum(r["attempted"] for r in results)
            return {"correct": False, "attempted": max(attempted, 1), "failed": 1, "metrics": {}}
        longest = max(longest, time.monotonic() - begun)
        results.append(result)
        sys.stderr.write(
            f"iteration {len(results) - 1} traced={int(traced)} "
            + " ".join(f"{k}={v:.4f}" for k, v in result["metrics"].items())
            + " measured: "
            + " ".join(f"{k}={v:.4f}" for k, v in result["measured"].items())
            + "\n"
        )
        if not result["correct"]:
            break

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]] + _check_digests(workload, seed, results)
    if errors or failed:
        for error in errors:
            sys.stderr.write(f"correctness: {error}\n")
        return {"correct": False, "attempted": attempted, "failed": max(failed, 1), "metrics": {}}

    untraced = [r for r in results if not r["traced"]]
    if trace:
        traced_runs = [r for r in results if r["traced"]]
        values = {
            name: statistics.median(r["per_layer"][name] for r in traced_runs)
            for name in traced_runs[0]["per_layer"]
        }
        base = statistics.median(r["metrics"]["wall_s"] for r in untraced)
        values["trace.overhead_frac"] = values["trace.wall_s"] / base - 1.0
        values["site_ms_p99"] = statistics.median(r["metrics"]["site_ms_p99"] for r in untraced)
        units = PER_LAYER
    else:
        values = {
            name: statistics.median(r["metrics"][name] for r in untraced) for name in END_TO_END
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
