"""Static verdicts: classification, signatures, and the content-addressed
verdict cache.

A :class:`StaticVerdict` is the whole static subsystem's output for one
script *source* — it depends on nothing but the bytes, so it is cached in a
byte-budget LRU keyed by ``(sha256(source), ANALYZER_VERSION)`` beside the
compiled-program cache, and two scripts served at different URLs with the
same body share one entry.

The same LRU also holds verdicts by script *shape*: the source's text
with number literals left out, from one regular-expression pass that
mirrors the lexer (:func:`repro.js.lexer.shape_key`).  Two sources of one
shape lex to the same tokens and lines up to number values.  The parser
reads a number's value only to build a number literal or a name (an
object key, a property after ``.``), and the shape keeps the text of every
number that becomes a name, so two sources of one shape parse to the same
tree up to number literals.  A verdict whose analysis read no number
literal's value (``Analysis.reads_numbers``) is stored under its shape
too, and a later source of that shape gets it with its own ``sha`` and
``signature``, the only fields taken from the text, without being lexed,
parsed or analysed.  A source the pass does not mirror (non-ASCII, a
template literal, a character only the lexer's rare branch takes) has no
shape and is analysed in full.  Parse errors never serve a shape: their
columns move with the numbers.  A shape key is ``bytes``, so it never
equals a source's hex digest.

The fingerprinting-likelihood class mirrors the dynamic detector's §3.2
heuristics statically: a readout in a lossy encoding, from a canvas whose
literal dimensions fall below ``MIN_CANVAS_SIZE``, or from an animated
canvas (``save``/``restore`` / ``requestAnimationFrame``) is excluded, and
only an unexcluded readout following text or geometry drawing makes a
script ``fingerprinting-likely``.
"""

from __future__ import annotations

import dataclasses
import re
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

from repro import perf
from repro.js.compiler import _source_digest
from repro.js.errors import JSError, JSThrow
from repro.js.lexer import shape_key
from repro.js.parser import parse
from repro.js.static.analyzer import IMPURE_MATH_CALLS, Analysis, analyze_program

__all__ = [
    "ANALYZER_VERSION",
    "CLASS_PARSE_ERROR",
    "CLASS_INERT",
    "CLASS_BENIGN",
    "CLASS_UNKNOWN",
    "CLASS_FP_LIKELY",
    "StaticVerdict",
    "adopt_verdicts",
    "classify",
    "verdict_for_source",
    "verdict_mark",
    "verdicts_since",
]

#: Bumped whenever the analyzer's semantics change: part of the cache key,
#: so stale verdicts can never survive an analyzer upgrade.
ANALYZER_VERSION = "3"

CLASS_PARSE_ERROR = "parse-error"
CLASS_INERT = "inert"
CLASS_BENIGN = "canvas-benign"
CLASS_UNKNOWN = "canvas-unknown"
CLASS_FP_LIKELY = "fingerprinting-likely"

#: Host calls a triage-skippable script may perform (pure, and invisible
#: to every other script on the page).  ``Math.*`` is matched by prefix,
#: less :data:`~repro.js.static.analyzer.IMPURE_MATH_CALLS`.
_SKIP_PURE_CALLS = {
    "performance.now", "JSON.stringify", "JSON.parse",
    "parseInt", "parseFloat", "isNaN", "isFinite",
}

_BANNER_RE = re.compile(r"/\*!?(.*?)\*/", re.DOTALL)
_STRING_RE = re.compile(r"'([^'\n]{12,})'|\"([^\"\n]{12,})\"")
_MAX_CONSTANTS = 8


@dataclass(frozen=True)
class StaticVerdict:
    """Everything the static pass can say about one script source."""

    sha: str
    classification: str
    api_profile: Tuple[str, ...] = ()
    taint_paths: Tuple[Tuple[str, str], ...] = ()
    signature: Tuple[str, ...] = ()
    readout_count: int = 0
    excluded: Tuple[str, ...] = ()
    skippable: bool = False
    skip_blockers: Tuple[str, ...] = ()
    global_writes: Tuple[str, ...] = ()
    global_reads: Tuple[str, ...] = ()
    reads_top: bool = False
    host_reads: Tuple[str, ...] = ()
    host_writes: Tuple[str, ...] = ()
    #: Sound upper bound on the steps one run charges (None: unproven).
    step_bound: Optional[int] = None
    parse_error: Optional[str] = None

    def to_row(self) -> Dict[str, object]:
        """A JSON-friendly flat row for datasets and reducers."""
        return {
            "sha": self.sha,
            "classification": self.classification,
            "api_profile": list(self.api_profile),
            "taint_paths": [list(p) for p in self.taint_paths],
            "signature": list(self.signature),
            "readout_count": self.readout_count,
            "excluded": list(self.excluded),
            "skippable": self.skippable,
            "parse_error": self.parse_error,
        }


def _signature(source: str) -> Tuple[str, ...]:
    """Constant-string signature: the banner comment (vendor SDKs ship
    copyright headers) plus the longest embedded string constants."""
    parts = []
    banner = _BANNER_RE.search(source)
    if banner is not None:
        text = " ".join(banner.group(1).split())
        if text:
            parts.append(text[:160])
    constants = []
    for match in _STRING_RE.finditer(source):
        constants.append(match.group(1) or match.group(2))
    constants = sorted(set(constants), key=lambda s: (-len(s), s))[:_MAX_CONSTANTS]
    return tuple(parts + constants)


def _skip_blockers(analysis: Analysis) -> Tuple[str, ...]:
    """Why this script may NOT be skipped by the crawl-time triage.

    Empty means the triage proved the script (a) cannot reach any canvas
    API, (b) cannot throw, (c) has a sound step bound within the step cap,
    and (d) performs only pure whitelisted host calls — so the only trace
    it leaves is its global writes, which the triage tracks separately.
    Whether the bound fits the page's step budget is the browser's call.
    """
    blockers = []
    if analysis.canvas_mention:
        blockers.append("mentions a canvas API")
    if analysis.may_throw():
        blockers.append(f"may throw: {analysis.throw_reasons[0]}")
    if not analysis.terminating():
        reason = analysis.nonterm_reasons[0] if analysis.nonterm_reasons else "step bound exceeded"
        blockers.append(f"unproven termination: {reason}")
    impure = sorted(
        call for call in analysis.host_calls
        if call not in _SKIP_PURE_CALLS
        and not (call.startswith("Math.") and call not in IMPURE_MATH_CALLS)
    )
    if impure:
        blockers.append(f"impure host calls: {', '.join(impure[:4])}")
    if analysis.reads_top:
        blockers.append("reads an unbounded set of globals")
    return tuple(blockers)


def classify(analysis: Analysis) -> Tuple[str, Tuple[str, ...]]:
    """Map one analysis to a likelihood class + the exclusions that fired."""
    if not analysis.canvas_mention:
        return CLASS_INERT, ()
    if not analysis.readouts:
        if analysis.text_draws or analysis.geometry_draws:
            return CLASS_BENIGN, ("no-readout",)
        return CLASS_UNKNOWN, ()
    live = []
    excluded = []
    for site in analysis.readouts:
        reasons = site.excluded(analysis.animated)
        if reasons:
            excluded.extend(reasons)
        else:
            live.append(site)
    if not live:
        return CLASS_BENIGN, tuple(sorted(set(excluded)))
    for site in live:
        text, geometry = site.draws(analysis)
        if text or geometry:
            return CLASS_FP_LIKELY, tuple(sorted(set(excluded)))
    return CLASS_UNKNOWN, tuple(sorted(set(excluded)))


def _describe(exc: BaseException) -> str:
    """``Type: message at line L:C``, without the URL the source came from."""
    text = str(exc)
    if isinstance(exc, JSError):
        text = exc.message
        if exc.line is not None:
            text += f" at line {exc.line}" + (f":{exc.col}" if exc.col is not None else "")
    return f"{type(exc).__name__}: {text}"[:200]


def _error_verdict(source: str, sha: str, exc: BaseException) -> StaticVerdict:
    return StaticVerdict(
        sha=sha,
        classification=CLASS_PARSE_ERROR,
        signature=_signature(source),
        skip_blockers=("parse error",),
        reads_top=True,
        parse_error=_describe(exc),
    )


def _verdict(source: str, sha: str, analysis: Analysis) -> StaticVerdict:
    classification, excluded = classify(analysis)
    blockers = _skip_blockers(analysis)
    return StaticVerdict(
        sha=sha,
        classification=classification,
        api_profile=tuple(sorted(analysis.api_profile)),
        taint_paths=tuple(sorted(analysis.taint_paths)),
        signature=_signature(source),
        readout_count=len(analysis.readouts),
        excluded=excluded,
        skippable=not blockers,
        skip_blockers=blockers,
        global_writes=tuple(sorted(analysis.global_writes)),
        global_reads=tuple(sorted(analysis.global_reads)),
        reads_top=analysis.reads_top,
        host_reads=tuple(sorted(analysis.host_reads)),
        host_writes=tuple(sorted(analysis.host_writes)),
        step_bound=analysis.step_bound,
    )


#: Content-addressed verdict cache, beside the compiled-program cache.
_VERDICT_CACHE = perf.ByteBudgetLRU("js.static", 16 * perf.MB)


def _verdict_nbytes(verdict: StaticVerdict) -> int:
    size = 200
    for value in (verdict.api_profile, verdict.signature, verdict.global_writes,
                  verdict.global_reads, verdict.host_reads, verdict.host_writes,
                  verdict.excluded, verdict.skip_blockers):
        size += sum(len(s) + 16 for s in value)
    size += sum(len(a) + len(b) + 16 for a, b in verdict.taint_paths)
    return size


def verdict_for_source(source: str, script_url: str = "<anonymous>") -> StaticVerdict:
    """The cached static verdict for one script body.

    A verdict depends on the source bytes alone, never on ``script_url``:
    the cache is keyed by digest, so the same body served at two URLs (or
    analysed first by either of two crawl workers) has one verdict.  On a
    digest miss the source's shape is looked up (see the module docstring),
    and the source is lexed only if no verdict is held for it; a shape hit
    is this call's one recorded hit, and a full analysis its one recorded
    miss.
    """
    sha = _source_digest(source)
    key = (sha, ANALYZER_VERSION)
    cached = _VERDICT_CACHE.get(key)
    if cached is not None:
        return cached
    started = time.perf_counter()
    shape = shape_key(source)
    if shape is not None:
        shape = (shape, ANALYZER_VERSION)
        template = _VERDICT_CACHE.get(shape)
        if template is not None:
            verdict = dataclasses.replace(template, sha=sha, signature=_signature(source))
            _VERDICT_CACHE.adopt(key, verdict, _verdict_nbytes(verdict))
            return verdict
    try:
        analysis = analyze_program(parse(source))
    except (JSError, JSThrow, RecursionError) as exc:
        verdict, shape = _error_verdict(source, sha, exc), None
    else:
        verdict = _verdict(source, sha, analysis)
        if analysis.reads_numbers:
            shape = None
    nbytes = _verdict_nbytes(verdict)
    _VERDICT_CACHE.put(key, verdict, nbytes, time.perf_counter() - started)
    if shape is not None:
        _VERDICT_CACHE.adopt(shape, verdict, nbytes)
    return verdict


def verdict_mark() -> FrozenSet[Hashable]:
    """The keys of every verdict this process holds (shape templates
    included), for :func:`verdicts_since`."""
    return frozenset(key for key, _verdict in _VERDICT_CACHE.items())


def verdicts_since(mark: FrozenSet[Hashable]) -> Dict[Hashable, StaticVerdict]:
    """The verdicts this process holds that it did not hold at ``mark``.

    A crawl worker ships these home, so the parent's ``static`` stage finds
    every script its workers analysed (a verdict the worker's cache evicted
    is computed again by the parent, or served by a shape it holds).
    """
    return {key: verdict for key, verdict in _VERDICT_CACHE.items() if key not in mark}


def adopt_verdicts(verdicts: Mapping[Hashable, StaticVerdict]) -> None:
    """Take in verdicts another process computed, shape templates included.

    Records no hit and no miss (the computing process counted its miss),
    and leaves a verdict already held as it is: a verdict depends on the
    source bytes alone, so both are the same, and two templates of one
    shape serve the same verdict.
    """
    for key, verdict in verdicts.items():
        _VERDICT_CACHE.adopt(key, verdict, _verdict_nbytes(verdict))
