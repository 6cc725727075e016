"""Machine-speed meter: how fast the machine ran while a timed body ran.

On a shared cloud VM (2 vCPUs, Intel Xeon at 2.1 GHz) a tight pure-Python
loop ran anywhere from 4.4 to 7.5 M iterations/s, in phases of a few
seconds, so the raw wall times of one program spread past any bound the
benchmark may set.
The meter samples the speed *during* the body: an interval timer
(``SIGALRM``) runs a fixed pure-Python :func:`kernel` every ``interval_s``
seconds and records the CPU time it took.  The kernel is standard-library
code, never the program's, so a change to the program moves the body's time
and not the kernel's.

Crawl workers forked while the meter runs start their own timer and write
their samples to ``speed-<pid>.json`` when they exit, so a parallel body is
measured on every vCPU it used.  :meth:`SpeedMeter.speed` is the mean, over
all samples, of :data:`REFERENCE_KERNEL_S` over the sampled time: the
machine's speed relative to the reference machine.  A measured duration
times that speed is the duration in *reference seconds*, the time the body
would have taken on the reference machine.  The kernel's own time (about
1% of the body) stays in the measured duration.
"""

from __future__ import annotations

import bisect
import difflib
import gc
import itertools
import json
import os
import random
import signal
import statistics
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["SpeedMeter", "LocalSpeed", "kernel", "REFERENCE_KERNEL_S"]

#: The kernel's CPU time on the reference machine: a 2-vCPU Xeon at 2.1 GHz
#: running Python 3.11, near the middle of its speed range.
REFERENCE_KERNEL_S = 0.0003


def _texts() -> Tuple[str, str]:
    rng = random.Random(20250504)
    first = "".join(rng.choice("abcdefgh ") for _ in range(300))
    second = "".join(c if rng.random() > 0.1 else "x" for c in first)
    return first, second


_FIRST, _SECOND = _texts()


def kernel() -> float:
    """Generic library Python: match two fixed 300-character texts with ``difflib``.

    Dict-heavy, call-heavy pure-Python code, as the program is.  Measured
    against the study's wall time on the VM above, its speed tracked the
    program's best of the candidates tried: over 50 runs of one seed in ten
    minutes of heavy drift, scaling by it cut the quartile spread from 0.21
    to 0.031, against 0.040 for a tight loop and 0.124 for a random walk
    over 20 MB of objects (``perfbench/README.md``).
    """
    return difflib.SequenceMatcher(None, _FIRST, _SECOND).ratio()


class SpeedMeter:
    """Samples :func:`kernel` on a wall-clock interval inside a ``with`` block.

    With ``out_dir``, processes forked inside the block sample too and write
    their samples there when they exit; without it only this process samples.
    """

    def __init__(self, out_dir: Optional[Path] = None, interval_s: float = 0.02) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.interval_s = interval_s
        self.active = False
        self._previous = None
        self._reset()
        if self.out_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)
            mp_util.register_after_fork(self, SpeedMeter._after_mp_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: ``time.perf_counter()`` at each kernel run, and the CPU seconds it took.
        self.stamps: List[float] = []
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        # No collection of the program's objects inside a sample: the
        # kernel's own objects die by reference count.
        collecting = gc.isenabled()
        gc.disable()
        self.stamps.append(time.perf_counter())
        started = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - started)
        if collecting:
            gc.enable()

    def _start_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def _after_fork(self) -> None:
        # Interval timers are not inherited; the SIGALRM handler is.
        self._reset()
        if self.active:
            self._start_timer()

    def _after_mp_fork(self) -> None:
        # Runs in a multiprocessing child after it cleared the inherited
        # finalizers, so this one survives until the worker exits.
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        self._start_timer()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.active = False
        signal.signal(signal.SIGALRM, self._previous)

    def dump(self) -> None:
        """Write this process's samples to ``speed-<pid>.json``."""
        if self.active and self.samples:
            path = self.out_dir / f"speed-{os.getpid()}.json"
            path.write_text(json.dumps([self.stamps, self.samples]), encoding="utf-8")

    def speeds(self) -> Dict[int, Tuple[List[float], List[float]]]:
        """pid -> (sample times, speeds), for this process and every worker that wrote."""
        raw = {self.pid: (self.stamps, self.samples)}
        if self.out_dir is not None:
            for path in sorted(self.out_dir.glob("speed-*.json")):
                pid = int(path.stem.split("-", 1)[1])
                if pid != self.pid:
                    raw[pid] = json.loads(path.read_text(encoding="utf-8"))
        return {
            pid: (list(stamps), [REFERENCE_KERNEL_S / s for s in samples])
            for pid, (stamps, samples) in raw.items()
            if samples
        }

    def speed(self) -> float:
        """Mean speed over every sample, relative to the reference machine."""
        speeds = [v for _stamps, values in self.speeds().values() for v in values]
        if not speeds:
            raise RuntimeError("the speed meter took no samples")
        return statistics.fmean(speeds)


#: :class:`LocalSpeed` averages the samples this close to a span: about ten
#: samples around a site, well inside the host's phases of steady speed.
LOCAL_WINDOW_S = 0.1


class LocalSpeed:
    """The speed one process measured around a moment of its run.

    :meth:`around` averages that process's samples within
    :data:`LOCAL_WINDOW_S` of an interval, so a span is scaled by the speed
    the machine had while it ran; with no sample that close it falls back to
    the process's mean, then to the meter's.
    """

    def __init__(self, meter: SpeedMeter) -> None:
        self.overall = meter.speed()
        self._series = {}
        for pid, (stamps, speeds) in meter.speeds().items():
            # Each process appended its samples in time order.
            self._series[pid] = (stamps, [0.0, *itertools.accumulate(speeds)])

    def around(self, pid: int, start: float, end: float) -> float:
        series = self._series.get(pid)
        if series is None:
            return self.overall
        times, sums = series
        lo = bisect.bisect_left(times, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(times, end + LOCAL_WINDOW_S)
        if hi == lo:
            return sums[-1] / len(times)
        return (sums[hi] - sums[lo]) / (hi - lo)
