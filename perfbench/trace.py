"""Outside-in span tracer: wraps a layer's public functions from the benchmark.

The program is not edited.  :func:`Tracer.install` replaces each boundary
function (a module-level function or a class method) with a wrapper that
records one span per call: a name index, start, end and the index of the
enclosing span.  Spans stay in per-process arrays in memory until the traced
body has ended.

Crawl workers are forked from the main process, so they inherit the wrappers.  A
fork resets the child's span arrays, and a ``multiprocessing`` finalizer
writes the child's spans to ``spans-<pid>.json`` in the tracer's directory
when the worker exits; the main process then reads every per-pid file.

Spans nest only within one thread: the tracer assumes each process makes its
wrapped calls from a single thread, which holds for every crawl executor.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "ProcessSpans", "load_spans", "self_times"]


class Tracer:
    """Records spans for wrapped calls; one instance per benchmark iteration."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        mp_util.register_after_fork(self, Tracer._after_mp_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.kinds = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        #: span index -> small integer outcome (see ``flag`` in :meth:`wrap`).
        self.flags: Dict[int, int] = {}
        #: span index -> main-thread CPU seconds spent inside the span.
        self.cpu: Dict[int, float] = {}
        self.stack = [-1]

    def _after_mp_fork(self) -> None:
        # Runs in a multiprocessing child after it cleared the inherited
        # finalizers, so this one survives until the worker exits.
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def _kind(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_index[name] = index
        return index

    # -- wrapping ---------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        flag: Optional[Callable[[object], int]] = None,
        cpu: bool = False,
    ) -> Callable:
        """``fn`` with one ``name`` span per call.

        ``flag`` maps the return value to an integer kept with the span (for
        example 1 for a failed page load).  ``cpu`` also records the calling
        thread's CPU time over the span, so waiting shows as wall minus CPU.
        """
        kind = self._kind(name)
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.kinds)
            self.kinds.append(kind)
            self.parents.append(self.stack[-1])
            self.ends.append(0.0)
            self.stack.append(index)
            cpu_start = thread_time() if cpu else 0.0
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                if cpu:
                    self.cpu[index] = thread_time() - cpu_start
                self.stack.pop()
            if flag is not None:
                self.flags[index] = flag(result)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every ``next()`` is one ``name`` span."""
        timed_next = self.wrap(next, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(items)
                except StopIteration:
                    return
                yield item

        return traced

    def install(self, owner: object, attr: str, name: str, iterate: bool = False, **kw) -> None:
        """Replace ``owner.attr`` and every ``repro`` module alias of it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(original.__func__, name, **kw))
        elif iterate:
            wrapper = self.wrap_iter(original, name)
        else:
            wrapper = self.wrap(original, name, **kw)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return  # method lookup goes through the class
        for module_name, module in list(sys.modules.items()):
            if module is None or module is owner or not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (latest patch first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------------

    def spans(self) -> "ProcessSpans":
        return ProcessSpans(
            pid=self.pid,
            names=list(self.names),
            kinds=list(self.kinds),
            parents=list(self.parents),
            starts=list(self.starts),
            ends=list(self.ends),
            flags=dict(self.flags),
            cpu=dict(self.cpu),
        )

    def dump(self) -> Path:
        """Write this process's spans to ``spans-<pid>.json``."""
        path = self.out_dir / f"spans-{os.getpid()}.json"
        spans = self.spans()
        path.write_text(json.dumps(spans.to_json()), encoding="utf-8")
        return path


class ProcessSpans:
    """The spans one process recorded, in call order."""

    def __init__(self, pid, names, kinds, parents, starts, ends, flags, cpu) -> None:
        self.pid = pid
        self.names = names
        self.kinds = kinds
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.flags = flags
        self.cpu = cpu

    def __len__(self) -> int:
        return len(self.kinds)

    def name(self, index: int) -> str:
        return self.names[self.kinds[index]]

    def to_json(self) -> dict:
        return {
            "pid": self.pid,
            "names": self.names,
            "kinds": self.kinds,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "flags": {str(k): v for k, v in self.flags.items()},
            "cpu": {str(k): v for k, v in self.cpu.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProcessSpans":
        return cls(
            pid=data["pid"],
            names=data["names"],
            kinds=data["kinds"],
            parents=data["parents"],
            starts=data["starts"],
            ends=data["ends"],
            flags={int(k): v for k, v in data["flags"].items()},
            cpu={int(k): v for k, v in data["cpu"].items()},
        )


def load_spans(out_dir: Path, exclude_pid: Optional[int] = None) -> List[ProcessSpans]:
    """Every per-pid span file in ``out_dir`` (workers, usually)."""
    loaded = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans = ProcessSpans.from_json(json.loads(path.read_text(encoding="utf-8")))
        if spans.pid != exclude_pid:
            loaded.append(spans)
    return loaded


def self_times(spans: ProcessSpans) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Calls nest synchronously, so children are disjoint sub-intervals of
    their parent and grandchildren are already inside a child: subtracting
    direct children's durations never counts a nested call twice.
    """
    durations = [end - start for start, end in zip(spans.starts, spans.ends)]
    own = list(durations)
    for index, parent in enumerate(spans.parents):
        if parent >= 0:
            own[parent] -= durations[index]
    return own
