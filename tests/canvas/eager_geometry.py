"""The eager path and the row-loop coverage kernel: oracles of the canvas geometry.

:class:`repro.canvas.path.Path` records the calls that build a path and
flattens its arcs only when points are needed, and
:func:`repro.canvas.path._coverage_uncached` fills a whole box at once.
This module keeps both as they were before: :class:`EagerPath` flattens
every arc as it is added, through the same :func:`flatten_arc`, and
:func:`coverage_rows` fills one supersampled row at a time.  Every raster,
and so every canvas hash, must be byte-identical under :func:`eager`, which
swaps both into the canvas modules.  The pattern follows
``tests/crawler/eager_browser.py``, the oracle of static triage.
"""

import contextlib
import hashlib
import math
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.canvas import context2d as context2d_module
from repro.canvas import path as path_module
from repro.canvas.path import SUPERSAMPLE, _winding_numbers, flatten_arc


class EagerPath:
    """A sequence of subpaths (polylines), built in *device* coordinates."""

    def __init__(self) -> None:
        self.subpaths: List[List[Tuple[float, float]]] = []
        self._closed: List[bool] = []

    # -- construction ------------------------------------------------------------

    def move_to(self, x: float, y: float) -> None:
        self.subpaths.append([(x, y)])
        self._closed.append(False)

    def line_to(self, x: float, y: float) -> None:
        if not self.subpaths:
            self.move_to(x, y)
            return
        self.subpaths[-1].append((x, y))

    def close(self) -> None:
        if self.subpaths and len(self.subpaths[-1]) > 1:
            self._closed[-1] = True

    def add_polyline(self, points: Sequence[Tuple[float, float]], closed: bool = False) -> None:
        pts = list(points)
        if len(pts) >= 2:
            self.subpaths.append(pts)
            self._closed.append(closed)

    def arc(self, cx, cy, radius, start, end, anticlockwise, transform, rx_scale=1.0, ry_scale=1.0):
        """Flatten an arc or ellipse at once and append its points."""
        points = flatten_arc(cx, cy, radius, start, end, anticlockwise, transform, rx_scale, ry_scale)
        if self.current_point is not None:
            for p in points:
                self.line_to(*p)
        else:
            self.move_to(*points[0])
            for p in points[1:]:
                self.line_to(*p)

    @property
    def current_point(self) -> Optional[Tuple[float, float]]:
        if self.subpaths and self.subpaths[-1]:
            return self.subpaths[-1][-1]
        return None

    def is_empty(self) -> bool:
        return not any(len(sp) >= 2 for sp in self.subpaths)

    def is_finite(self) -> bool:
        return all(math.isfinite(c) for pts in self.subpaths for p in pts for c in p)

    def copy(self) -> "EagerPath":
        out = EagerPath()
        out.subpaths = [list(sp) for sp in self.subpaths]
        out._closed = list(self._closed)
        return out

    def canonical_digest(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for pts, closed in zip(self.subpaths, self._closed):
            h.update(struct.pack("<I?", len(pts), closed))
            h.update(np.asarray(pts, dtype=np.float64).tobytes())
        return h.digest()

    # -- geometry helpers ----------------------------------------------------------

    def edges(self) -> np.ndarray:
        rows: List[Tuple[float, float, float, float]] = []
        for pts, _closed in zip(self.subpaths, self._closed):
            if len(pts) < 2:
                continue
            for a, b in zip(pts, pts[1:]):
                rows.append((a[0], a[1], b[0], b[1]))
            if pts[0] != pts[-1]:
                rows.append((pts[-1][0], pts[-1][1], pts[0][0], pts[0][1]))
        if not rows:
            return np.zeros((0, 4), dtype=np.float64)
        return np.asarray(rows, dtype=np.float64)

    def stroke_segments(self) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
        segments = []
        for pts, closed in zip(self.subpaths, self._closed):
            if len(pts) < 2:
                continue
            for a, b in zip(pts, pts[1:]):
                segments.append((a, b))
            if closed and pts[0] != pts[-1]:
                segments.append((pts[-1], pts[0]))
        return segments

    def bounds(self, pad: float = 1.0) -> Optional[Tuple[float, float, float, float]]:
        xs: List[float] = []
        ys: List[float] = []
        for pts in self.subpaths:
            for x, y in pts:
                xs.append(x)
                ys.append(y)
        if not xs:
            return None
        return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)

    def contains_point(self, x: float, y: float, rule: str = "nonzero") -> bool:
        edges = self.edges()
        if edges.shape[0] == 0 or not self.is_finite():
            return False
        winding = _winding_numbers(edges, np.array([x]), np.array([y]))
        if rule == "evenodd":
            return bool(winding[0] % 2 != 0)
        return bool(winding[0] != 0)


def coverage_rows(edges: np.ndarray, x0: int, y0: int, x1: int, y1: int, rule: str) -> np.ndarray:
    """Scanline coverage, one supersampled row at a time."""
    ss = SUPERSAMPLE
    w, h = x1 - x0, y1 - y0
    coverage = np.zeros((h, w), dtype=np.float64)

    ex1, ey1, ex2, ey2 = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    dy = ey2 - ey1
    safe_dy = np.where(np.abs(dy) < 1e-12, 1.0, dy)
    inv_dy = (ex2 - ex1) / safe_dy
    row_weight = 1.0 / ss

    for sub in range(h * ss):
        y = y0 + (sub + 0.5) / ss
        upward = (ey1 <= y) & (ey2 > y)
        downward = (ey2 <= y) & (ey1 > y)
        crossing = upward | downward
        if not crossing.any():
            continue
        xi = ex1[crossing] + (y - ey1[crossing]) * inv_dy[crossing]
        direction = np.where(upward[crossing], 1, -1)
        order = np.argsort(xi, kind="stable")
        xi = xi[order]
        winding = np.cumsum(direction[order])
        if rule == "evenodd":
            inside = (winding % 2) != 0
        else:
            inside = winding != 0

        row = coverage[sub // ss]
        span_start = None
        for k in range(len(xi)):
            if inside[k] and span_start is None:
                span_start = xi[k]
            elif not inside[k] and span_start is not None:
                _add_span(row, span_start - x0, xi[k] - x0, row_weight, w)
                span_start = None
        if span_start is not None:
            _add_span(row, span_start - x0, float(w), row_weight, w)
    return coverage


def _add_span(row: np.ndarray, xa: float, xb: float, weight: float, w: int) -> None:
    xa = max(0.0, xa)
    xb = min(float(w), xb)
    if xb <= xa:
        return
    ca = int(xa)
    cb = int(xb)
    if ca == cb:
        row[ca] += (xb - xa) * weight
        return
    row[ca] += (ca + 1 - xa) * weight
    if cb < w:
        row[cb] += (xb - cb) * weight
    if cb > ca + 1:
        row[ca + 1 : cb] += weight


@contextlib.contextmanager
def eager():
    """Build every path eagerly and fill every coverage miss row by row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context2d_module, "Path", EagerPath)
        patch.setattr(path_module, "_coverage_uncached", coverage_rows)
        yield
