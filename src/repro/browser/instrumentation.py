"""Canvas API interception.

The analogue of the paper's modified Tracker Radar Collector: every method
call and property write on ``CanvasRenderingContext2D`` and
``HTMLCanvasElement`` host objects flows through a :class:`CanvasInstrument`,
tagged with the executing script's URL (taken live from the JS interpreter)
and a virtual timestamp.
"""

from __future__ import annotations

import contextlib
import re
from typing import Any, Iterator, List, Optional

from repro.core.records import CanvasApiCall, CanvasExtraction, PropertyAccess

__all__ = ["VirtualClock", "CanvasInstrument"]


#: A UTF-16 surrogate pair: a high surrogate followed by a low one.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _pair_surrogates(text: str) -> str:
    """Combine UTF-16 surrogate pairs into the code points they encode.

    JS strings are sequences of UTF-16 code units, so an emoji drawn via
    ``'\\ud83d\\ude03'`` reaches the instrument as two surrogate code units.
    JSON text cannot distinguish that from the single astral character (the
    escape sequences *are* the pair encoding), so previews must be
    normalized here or a dataset would change when round-tripped through a
    checkpoint or cache file.  Lone surrogates are kept as-is; they survive
    JSON round-trips unchanged.

    Every preview passes through here, whole ``toDataURL`` strings included,
    so ASCII text (the common case) returns at once.
    """
    if text.isascii():
        return text
    return _SURROGATE_PAIR.sub(_combine_pair, text)


def _combine_pair(match: "re.Match[str]") -> str:
    high, low = match.group()
    return chr(0x10000 + ((ord(high) - 0xD800) << 10) + (ord(low) - 0xDC00))


class VirtualClock:
    """Deterministic per-page clock; each recorded event advances it."""

    def __init__(self, start_ms: float = 0.0, tick_ms: float = 0.137) -> None:
        self._now = start_ms
        self.tick_ms = tick_ms

    def now_ms(self) -> float:
        return round(self._now, 3)

    def advance(self, ms: Optional[float] = None) -> float:
        self._now += self.tick_ms if ms is None else ms
        return self.now_ms()

    @contextlib.contextmanager
    def frozen_at(self, ms: float) -> Iterator[None]:
        """Read ``ms`` inside the block (nothing in it may advance the
        clock), then resume where the clock stood."""
        saved, self._now = self._now, ms
        try:
            yield
        finally:
            self._now = saved


class CanvasInstrument:
    """Collects canvas observations for one page load."""

    #: Cap on per-argument preview size, like the real collector's truncation.
    ARG_PREVIEW = 120

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock or VirtualClock()
        self.calls: List[CanvasApiCall] = []
        self.property_accesses: List[PropertyAccess] = []
        self.extractions: List[CanvasExtraction] = []

    # -- recording -------------------------------------------------------------------

    def record_call(
        self,
        interface: str,
        method: str,
        args: tuple,
        retval: Any,
        script_url: Optional[str],
        canvas_id: int,
    ) -> None:
        self.calls.append(
            CanvasApiCall(
                interface=interface,
                method=method,
                args=tuple(self._preview(a) for a in args),
                retval=self._preview(retval) if retval is not None else None,
                script_url=script_url,
                canvas_id=canvas_id,
                t_ms=self.clock.advance(),
            )
        )

    def record_property(
        self,
        interface: str,
        prop: str,
        value: Any,
        script_url: Optional[str],
        canvas_id: int,
    ) -> None:
        self.property_accesses.append(
            PropertyAccess(
                interface=interface,
                prop=prop,
                value=self._preview(value),
                script_url=script_url,
                canvas_id=canvas_id,
                t_ms=self.clock.advance(),
            )
        )

    def record_extraction(
        self,
        data_url: str,
        mime: str,
        width: int,
        height: int,
        script_url: Optional[str],
        canvas_id: int,
        method: str = "toDataURL",
    ) -> None:
        self.extractions.append(
            CanvasExtraction(
                data_url=data_url,
                mime=mime,
                width=width,
                height=height,
                script_url=script_url,
                canvas_id=canvas_id,
                t_ms=self.clock.advance(),
                method=method,
            )
        )

    # -- helpers ----------------------------------------------------------------------

    def _preview(self, value: Any) -> Any:
        """JSON-able, truncated preview of a call argument / return value."""
        if isinstance(value, (bool, int, float)) or value is None:
            return value
        text = _pair_surrogates(str(value))
        if len(text) > self.ARG_PREVIEW:
            return text[: self.ARG_PREVIEW] + f"...<{len(text)} chars>"
        return text

    def scripts_calling(self, method: str) -> set:
        return {c.script_url for c in self.calls if c.method == method}
