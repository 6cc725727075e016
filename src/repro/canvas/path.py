"""Path construction and anti-aliased rasterization.

A path is a log of the calls that built it, in device space: the points of
``moveTo``, ``lineTo``, ``rect`` and flattened curves, and each arc or
ellipse as the arguments :func:`flatten_arc` takes, transform included.
The log answers what recording asks (is the path empty, has it a current
point) and its digest names the path in render-cache keys; it is flattened
into polylines only when points are needed: a render-cache miss, a clip or
hit test, or a curve starting at the current point an arc left.  Filling
uses a supersampled winding test (non-zero or even-odd) vectorized with
numpy over the whole box; stroking builds per-segment quads plus joint
disks.  Anti-aliased edge pixels receive the device profile's deterministic
perturbation — the core fingerprintable signal.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.canvas.device import DeviceProfile
from repro.canvas.geometry import Transform

__all__ = ["Path", "rasterize_fill", "rasterize_stroke"]

#: Supersampling factor per axis for coverage estimation.
SUPERSAMPLE = 3

#: Log command codes.  Points are device space; an arc entry holds the
#: arguments of :func:`flatten_arc`.
_MOVE, _LINE, _CLOSE, _POLYLINE, _ARC = range(5)


class Path:
    """A sequence of subpaths (polylines) in *device* coordinates, kept as a log.

    The context transforms points before handing them to the path, matching
    canvas semantics where the CTM applies at path-construction time; arcs
    keep the transform they were added under.  :attr:`subpaths` flattens the
    log (once, then only what was appended since), exactly as adding each
    call's points at once would have built them.
    """

    def __init__(self) -> None:
        self._log: List[tuple] = []
        #: Whether some subpath was started (the path has a current point).
        self._has_point = False
        #: Whether some subpath has two points (the path is not empty).
        self._has_segment = False
        #: The current point, when the log knows it without flattening.
        self._current: Optional[Tuple[float, float]] = None
        # The flattened log, up to entry ``_flat``.
        self._subpaths: List[List[Tuple[float, float]]] = []
        self._closed: List[bool] = []
        self._flat = 0

    # -- construction ------------------------------------------------------------

    def move_to(self, x: float, y: float) -> None:
        self._log.append((_MOVE, x, y))
        self._has_point = True
        self._current = (x, y)

    def line_to(self, x: float, y: float) -> None:
        self._log.append((_LINE, x, y))
        if self._has_point:
            self._has_segment = True  # the point ends a segment
        self._has_point = True  # or starts the first subpath
        self._current = (x, y)

    def close(self) -> None:
        self._log.append((_CLOSE,))

    def add_polyline(self, points: Sequence[Tuple[float, float]], closed: bool = False) -> None:
        pts = list(points)
        if len(pts) >= 2:
            self._log.append((_POLYLINE, closed) + tuple(c for p in pts for c in p))
            self._has_point = self._has_segment = True
            self._current = tuple(pts[-1])

    def arc(
        self,
        cx: float,
        cy: float,
        radius: float,
        start: float,
        end: float,
        anticlockwise: bool,
        transform: Transform,
        rx_scale: float = 1.0,
        ry_scale: float = 1.0,
    ) -> None:
        """Add the arc :func:`flatten_arc` makes of these arguments.

        Its points continue the current subpath, or start one when there is
        no current point.  Nothing is flattened until points are needed.
        """
        self._log.append((_ARC, cx, cy, radius, start, end, anticlockwise, transform, rx_scale, ry_scale))
        self._has_point = self._has_segment = True  # at least nine points
        self._current = None

    @property
    def current_point(self) -> Optional[Tuple[float, float]]:
        if not self._has_point:
            return None
        if self._current is None:  # the last entry is an arc
            self._current = self.subpaths[-1][-1]
        return self._current

    def is_empty(self) -> bool:
        return not self._has_segment

    def copy(self) -> "Path":
        """Independent copy (deferred paint ops capture the path as drawn,
        unaffected by later ``lineTo``/``closePath`` on the live path).

        Copies the log, not the points: the copy flattens on its own if a
        render misses."""
        out = Path()
        out._log = list(self._log)
        out._has_point = self._has_point
        out._has_segment = self._has_segment
        out._current = self._current
        return out

    def canonical_digest(self) -> bytes:
        """Content digest of the log.

        Used as the geometry component of render-cache keys: two paths with
        the same digest flatten to the same subpaths and closed flags, since
        every entry's code, count and numbers (an arc's transform among
        them) are folded in as doubles.
        """
        h = hashlib.blake2b(digest_size=16)
        for entry in self._log:
            if entry[0] == _ARC:
                t = entry[7]
                entry = entry[:7] + (t.a, t.b, t.c, t.d, t.e, t.f) + entry[8:]
            values = entry[1:]
            h.update(struct.pack(f"<BH{len(values)}d", entry[0], len(values), *values))
        return h.digest()

    # -- flattening ----------------------------------------------------------------

    @property
    def subpaths(self) -> List[List[Tuple[float, float]]]:
        """The flattened subpaths (do not modify); ``_closed`` then holds
        whether ``closePath`` closed each."""
        log = self._log
        if self._flat == len(log):
            return self._subpaths
        subpaths, closed = self._subpaths, self._closed
        for entry in log[self._flat :]:
            code = entry[0]
            if code == _LINE:
                if subpaths:
                    subpaths[-1].append((entry[1], entry[2]))
                else:
                    subpaths.append([(entry[1], entry[2])])
                    closed.append(False)
            elif code == _MOVE:
                subpaths.append([(entry[1], entry[2])])
                closed.append(False)
            elif code == _CLOSE:
                if subpaths and len(subpaths[-1]) > 1:
                    closed[-1] = True
            elif code == _POLYLINE:
                subpaths.append(list(zip(entry[2::2], entry[3::2])))
                closed.append(entry[1])
            else:
                points = flatten_arc(*entry[1:])
                if subpaths:
                    subpaths[-1].extend(points)
                else:
                    subpaths.append(points)
                    closed.append(False)
        self._flat = len(log)
        return subpaths

    def is_finite(self) -> bool:
        """Whether every device-space point is finite.

        Finite arguments can still overflow: ``translate(1e308, 0)`` twice
        puts every later point at infinity.  A path with such a point covers
        nothing, so filling, stroking or clearing it draws nothing.
        """
        return all(math.isfinite(c) for pts in self.subpaths for p in pts for c in p)

    # -- geometry helpers ----------------------------------------------------------

    def edges(self) -> np.ndarray:
        """All edges as an ``(E, 4)`` array of (x1, y1, x2, y2).

        Open subpaths are implicitly closed for filling, per canvas fill
        semantics.
        """
        rows: List[Tuple[float, float, float, float]] = []
        for pts in self.subpaths:
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
        """Segments to stroke (closing segment included for closed subpaths)."""
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
        """Point-in-path test (isPointInPath)."""
        edges = self.edges()
        if edges.shape[0] == 0 or not self.is_finite():
            return False
        winding = _winding_numbers(edges, np.array([x]), np.array([y]))
        if rule == "evenodd":
            return bool(winding[0] % 2 != 0)
        return bool(winding[0] != 0)


# --- flattening helpers (used by paths and the context) ---------------------------


def flatten_arc(
    cx: float,
    cy: float,
    radius: float,
    start: float,
    end: float,
    anticlockwise: bool,
    transform: Transform,
    rx_scale: float = 1.0,
    ry_scale: float = 1.0,
) -> List[Tuple[float, float]]:
    """Flatten an arc/ellipse into transformed polyline points."""
    if radius < 0:
        raise ValueError("negative radius")
    sweep = end - start
    two_pi = 2 * math.pi
    if anticlockwise:
        if sweep <= -two_pi:
            sweep = -two_pi
        else:
            sweep = -(((-sweep) % two_pi) or (two_pi if sweep != 0 else 0))
            if sweep == 0 and (end - start) != 0:
                sweep = -two_pi
    else:
        if sweep >= two_pi:
            sweep = two_pi
        else:
            sweep = (sweep % two_pi) or (two_pi if (end - start) != 0 and (end - start) % two_pi == 0 else sweep % two_pi)
    # Segment count scales with radius and transform magnitude for smoothness;
    # an infinite or NaN estimate (an overflowing radius or transform) takes
    # the cap, and its points come out non-finite, so the arc draws nothing.
    scale = transform.scale_magnitude
    steps = abs(sweep) * max(radius * max(rx_scale, ry_scale), 1.0) * scale * 0.75
    n = max(8, int(steps)) if steps < 128 else 128
    points = []
    for i in range(n + 1):
        t = start + sweep * (i / n)
        x = cx + radius * rx_scale * math.cos(t)
        y = cy + radius * ry_scale * math.sin(t)
        points.append(transform.apply(x, y))
    return points


def flatten_cubic(
    p0: Tuple[float, float],
    p1: Tuple[float, float],
    p2: Tuple[float, float],
    p3: Tuple[float, float],
    transform: Transform,
) -> List[Tuple[float, float]]:
    """Flatten a cubic bézier (control points in user space) to device points."""
    n = 24
    out = []
    for i in range(1, n + 1):
        t = i / n
        mt = 1 - t
        x = mt**3 * p0[0] + 3 * mt**2 * t * p1[0] + 3 * mt * t**2 * p2[0] + t**3 * p3[0]
        y = mt**3 * p0[1] + 3 * mt**2 * t * p1[1] + 3 * mt * t**2 * p2[1] + t**3 * p3[1]
        out.append(transform.apply(x, y))
    return out


def flatten_quadratic(
    p0: Tuple[float, float],
    p1: Tuple[float, float],
    p2: Tuple[float, float],
    transform: Transform,
) -> List[Tuple[float, float]]:
    n = 16
    out = []
    for i in range(1, n + 1):
        t = i / n
        mt = 1 - t
        x = mt**2 * p0[0] + 2 * mt * t * p1[0] + t**2 * p2[0]
        y = mt**2 * p0[1] + 2 * mt * t * p1[1] + t**2 * p2[1]
        out.append(transform.apply(x, y))
    return out


# --- rasterization ------------------------------------------------------------------


def rasterize_fill(
    path: Path,
    width: int,
    height: int,
    rule: str = "nonzero",
    device: Optional[DeviceProfile] = None,
    noise_tag: int = 1,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rasterize a filled path.

    Returns ``(coverage, (x_offset, y_offset))`` where coverage is a float
    array in [0, 1] covering the path's clipped bounding box.
    """
    if not path.is_finite():
        return np.zeros((0, 0)), (0, 0)
    edges = path.edges()
    bounds = path.bounds()
    if edges.shape[0] == 0 or bounds is None:
        return np.zeros((0, 0)), (0, 0)
    x0 = max(0, int(math.floor(bounds[0])))
    y0 = max(0, int(math.floor(bounds[1])))
    x1 = min(width, int(math.ceil(bounds[2])))
    y1 = min(height, int(math.ceil(bounds[3])))
    if x1 <= x0 or y1 <= y0:
        return np.zeros((0, 0)), (0, 0)

    coverage = _coverage_from_edges(edges, x0, y0, x1, y1, rule)
    if device is not None:
        _perturb_edges(coverage, device, noise_tag, x0, y0)
    return coverage, (x0, y0)


def rasterize_stroke(
    path: Path,
    width: int,
    height: int,
    line_width: float,
    device: Optional[DeviceProfile] = None,
    noise_tag: int = 2,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rasterize a stroked path as union coverage of segment quads + joint disks."""
    segments = path.stroke_segments()
    if not segments or not 0 < line_width < math.inf or not path.is_finite():
        return np.zeros((0, 0)), (0, 0)
    half = max(line_width / 2.0, 0.35)

    bounds = path.bounds(pad=half + 1.0)
    assert bounds is not None
    x0 = max(0, int(math.floor(bounds[0])))
    y0 = max(0, int(math.floor(bounds[1])))
    x1 = min(width, int(math.ceil(bounds[2])))
    y1 = min(height, int(math.ceil(bounds[3])))
    if x1 <= x0 or y1 <= y0:
        return np.zeros((0, 0)), (0, 0)

    coverage = np.zeros((y1 - y0, x1 - x0), dtype=np.float64)
    for (ax, ay), (bx, by) in segments:
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        if length < 1e-9:
            quad_edges = _disk_edges(ax, ay, half)
        else:
            nx, ny = -dy / length * half, dx / length * half
            quad = [
                (ax + nx, ay + ny),
                (bx + nx, by + ny),
                (bx - nx, by - ny),
                (ax - nx, ay - ny),
            ]
            quad_edges = _polygon_edges(quad)
        seg_cov = _coverage_from_edges(quad_edges, x0, y0, x1, y1, "nonzero")
        np.maximum(coverage, seg_cov, out=coverage)

    # Joint and cap disks give smooth round joins.
    joint_points = {seg[0] for seg in segments} | {seg[1] for seg in segments}
    if half > 0.6:
        for jx, jy in joint_points:
            disk = _coverage_from_edges(_disk_edges(jx, jy, half), x0, y0, x1, y1, "nonzero")
            np.maximum(coverage, disk, out=coverage)

    if device is not None:
        _perturb_edges(coverage, device, noise_tag, x0, y0)
    return coverage, (x0, y0)


def _polygon_edges(points: List[Tuple[float, float]]) -> np.ndarray:
    rows = []
    for a, b in zip(points, points[1:] + points[:1]):
        rows.append((a[0], a[1], b[0], b[1]))
    return np.asarray(rows, dtype=np.float64)


def _disk_edges(cx: float, cy: float, r: float, n: int = 16) -> np.ndarray:
    pts = [(cx + r * math.cos(2 * math.pi * i / n), cy + r * math.sin(2 * math.pi * i / n)) for i in range(n)]
    return _polygon_edges(pts)


#: Pure-function cache for winding-rule coverage: identical fingerprinting
#: scripts rasterize identical geometry on thousands of sites, so the first
#: site pays for the supersampled winding test and the rest hit the cache.
#: Keyed by the exact edge bytes plus the pixel box and rule; bounded by a
#: byte budget with LRU eviction (see docs/performance.md).
_COVERAGE_CACHE = perf.ByteBudgetLRU("path_mask", budget_attr="path_cache_bytes")


def _coverage_from_edges(
    edges: np.ndarray, x0: int, y0: int, x1: int, y1: int, rule: str
) -> np.ndarray:
    """Supersampled winding-rule coverage over the [x0,x1)x[y0,y1) pixel box."""
    if not perf.config().enabled:
        return _coverage_uncached(edges, x0, y0, x1, y1, rule)
    key = (edges.tobytes(), x0, y0, x1, y1, rule)
    cached = _COVERAGE_CACHE.get(key)
    if cached is not None:
        return cached.copy()  # callers mutate (noise, union) — protect the cache
    started = time.perf_counter()
    coverage = _coverage_uncached(edges, x0, y0, x1, y1, rule)
    _COVERAGE_CACHE.put(key, coverage, coverage.nbytes, seconds=time.perf_counter() - started)
    return coverage.copy()


#: Cells (sub-rows times edges plus columns) the kernel handles per block of
#: rows: bounds its temporaries however tall or wide the box.
_BLOCK_CELLS = 1 << 18


def _coverage_uncached(
    edges: np.ndarray, x0: int, y0: int, x1: int, y1: int, rule: str
) -> np.ndarray:
    """Scanline coverage: supersampled rows, analytically exact columns.

    For each sample row, edge crossings are sorted and converted to winding
    spans; span x-extents contribute fractional coverage to their pixel
    columns exactly (no x supersampling).  The box is done a block of rows
    at a time, every sample row of a block at once.  Each pixel receives its
    contributions in the order of a row-by-row scan (sample row, then span,
    then a span's two end columns before its middle), so each value is the
    same floating-point sum that scan computes.
    """
    ss = SUPERSAMPLE
    w, h = x1 - x0, y1 - y0
    coverage = np.zeros((h, w), dtype=np.float64)
    ex1, ey1, ex2, ey2 = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    # Edges far beyond the box (coordinates near the float range) may
    # overflow here; the spans that follow are clamped to the box.
    with np.errstate(over="ignore", invalid="ignore"):
        dy = ey2 - ey1
        safe_dy = np.where(np.abs(dy) < 1e-12, 1.0, dy)
        inv_dy = (ex2 - ex1) / safe_dy
        rows = max(1, _BLOCK_CELLS // (ss * (edges.shape[0] + w)))
        for r0 in range(0, h, rows):
            r1 = min(h, r0 + rows)
            y = y0 + (np.arange(r0 * ss, r1 * ss) + 0.5) / ss
            _cover_rows(coverage[r0:r1], ex1, ey1, ey2, inv_dy, y, x0, w, rule)
    return coverage


def _cover_rows(
    out: np.ndarray,
    ex1: np.ndarray,
    ey1: np.ndarray,
    ey2: np.ndarray,
    inv_dy: np.ndarray,
    y: np.ndarray,
    x0: int,
    w: int,
    rule: str,
) -> None:
    """Add the spans of sample rows ``y`` (``SUPERSAMPLE`` per row of ``out``)."""
    ss = SUPERSAMPLE
    yc = y[:, None]
    upward = (ey1 <= yc) & (ey2 > yc)
    downward = (ey2 <= yc) & (ey1 > yc)
    # Crossings row by row, each row's in edge order; then sorted by x
    # within each row, stably (ties keep edge order).
    sub, edge = np.nonzero(upward | downward)
    if sub.size == 0:
        return
    xi = ex1[edge] + (y[sub] - ey1[edge]) * inv_dy[edge]
    direction = np.where(upward[sub, edge], 1, -1)
    order = np.lexsort((xi, sub))
    sub, xi, direction = sub[order], xi[order], direction[order]

    first = np.empty(sub.size, dtype=bool)  # first crossing of its row
    first[0] = True
    np.not_equal(sub[1:], sub[:-1], out=first[1:])
    winding = np.cumsum(direction)
    row_start = np.flatnonzero(first)
    winding -= np.repeat(winding[row_start] - direction[row_start], np.diff(np.append(row_start, sub.size)))
    inside = (winding % 2) != 0 if rule == "evenodd" else winding != 0
    was_inside = np.empty_like(inside)
    was_inside[0] = False
    was_inside[1:] = inside[:-1]
    was_inside &= ~first

    # A span opens where the winding turns inside and closes at the next
    # crossing of its row that turns outside; one still open at the row's
    # end runs to the box's right edge.
    opens = np.flatnonzero(inside & ~was_inside)
    closes = np.flatnonzero(~inside & was_inside)
    xa = xi[opens] - x0
    xb = np.full(opens.size, float(w))
    if closes.size:
        k = np.minimum(np.searchsorted(closes, opens), closes.size - 1)
        closed = (closes[k] > opens) & (sub[closes[k]] == sub[opens])
        xb[closed] = xi[closes[k][closed]] - x0
    # NaN crossings (0 * inf, from edges near the float range) sort last in
    # their row; a span opening at one covers the whole row.
    whole = np.isnan(xa)
    # Clamp to [0, w]; a NaN start clamps to 0 and a NaN end to w.
    xa = np.where(xa > 0.0, xa, 0.0)
    xb = np.where(xb < w, xb, float(w))
    keep = xb > xa
    sub, xa, xb, whole = sub[opens][keep], xa[keep], xb[keep], whole[keep]
    ca, cb = xa.astype(np.int64), xb.astype(np.int64)

    # A span adds to its first column, then (if inside the box) to its last,
    # then the full row weight to each column in between.  Within one sample
    # row, spans are disjoint: a column in a span's middle gets nothing else
    # from that row, so middles are added whole after the end columns.
    # Only the whole-row spans overlap the others, and they come last.
    weight = 1.0 / ss
    same = ca == cb
    has_end = ~same & (cb < w)
    ends_row = np.repeat(sub // ss, 2)
    ends_col = np.column_stack((ca, cb)).ravel()
    ends_value = np.column_stack((np.where(same, xb - xa, (ca + 1) - xa), xb - cb)).ravel() * weight
    ends_used = np.column_stack((~whole, has_end & ~whole)).ravel()
    middle = (cb - ca > 1) & ~whole
    for phase in range(ss):
        in_phase = sub % ss == phase
        used = ends_used & np.repeat(in_phase, 2)
        np.add.at(out, (ends_row[used], ends_col[used]), ends_value[used])
        spans = middle & in_phase
        if spans.any():
            # 1 across each middle, else 0: adding 0.0 leaves a value as it is.
            inside_middle = np.zeros((out.shape[0], w + 1), dtype=np.int32)
            np.add.at(inside_middle, (sub[spans] // ss, ca[spans] + 1), 1)
            np.add.at(inside_middle, (sub[spans] // ss, cb[spans]), -1)
            np.cumsum(inside_middle, axis=1, out=inside_middle)
            out += inside_middle[:, :w] * weight
        for r in sub[whole & in_phase] // ss:
            out[r] += weight


def _winding_numbers(edges: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Winding number of each point, computed against all edges at once."""
    x1, y1, x2, y2 = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
    # Broadcast points (N, 1) against edges (E,).
    pyc = py[:, None]
    pxc = px[:, None]
    upward = (y1[None, :] <= pyc) & (y2[None, :] > pyc)
    downward = (y2[None, :] <= pyc) & (y1[None, :] > pyc)
    crossing = upward | downward
    dy = y2 - y1
    safe_dy = np.where(np.abs(dy) < 1e-12, 1.0, dy)
    t = (pyc - y1[None, :]) / safe_dy[None, :]
    xi = x1[None, :] + t * (x2 - x1)[None, :]
    right = xi > pxc
    contrib = np.where(crossing & right, np.where(upward, 1, -1), 0)
    return contrib.sum(axis=1)


def _perturb_edges(coverage: np.ndarray, device: DeviceProfile, tag: int, x0: int, y0: int) -> None:
    """Apply the device's deterministic AA perturbation to edge pixels in place."""
    edge_mask = (coverage > 0.0) & (coverage < 1.0)
    if not edge_mask.any():
        return
    ys, xs = np.nonzero(edge_mask)
    quanta = np.rint(coverage[ys, xs] * 64).astype(np.int64)
    noise = device.edge_noise_array(tag, xs + x0, ys + y0, quanta)
    coverage[ys, xs] = np.clip(coverage[ys, xs] + noise, 0.0, 1.0)
