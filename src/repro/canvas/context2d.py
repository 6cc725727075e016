"""CanvasRenderingContext2D: the drawing API fingerprinting scripts target."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro import obs, perf
from repro.canvas.color import ColorError, parse_color
from repro.canvas.device import DeviceProfile
from repro.canvas.font import TextRasterizer, parse_font
from repro.canvas.geometry import Transform
from repro.canvas.gradient import CanvasGradient
from repro.canvas.path import (
    Path,
    flatten_cubic,
    flatten_quadratic,
    rasterize_fill,
    rasterize_stroke,
)
from repro.canvas.surface import MAX_PIXELS, Surface

__all__ = ["CanvasRenderingContext2D", "ImageData", "TextMetrics"]

FillStyle = Union[str, CanvasGradient]


@dataclass
class ImageData:
    """Result of ``getImageData``: raw RGBA pixels."""

    width: int
    height: int
    #: ``(H, W, 4)`` uint8 array.
    pixels: np.ndarray

    @property
    def data_length(self) -> int:
        return self.width * self.height * 4


@dataclass
class TextMetrics:
    """Result of ``measureText`` (the fields fingerprinting scripts read)."""

    width: float
    actual_bounding_box_left: float = 0.0
    actual_bounding_box_right: float = 0.0
    actual_bounding_box_ascent: float = 0.0
    actual_bounding_box_descent: float = 0.0


@dataclass
class _DrawState:
    fill_style: FillStyle = "#000000"
    stroke_style: FillStyle = "#000000"
    line_width: float = 1.0
    font: str = "10px sans-serif"
    text_baseline: str = "alphabetic"
    text_align: str = "start"
    global_alpha: float = 1.0
    composite_op: str = "source-over"
    transform: Transform = field(default_factory=Transform)
    shadow_blur: float = 0.0
    shadow_color: str = "rgba(0, 0, 0, 0)"
    shadow_offset_x: float = 0.0
    shadow_offset_y: float = 0.0
    #: Full-surface clip mask in [0, 1], or None when unclipped.
    clip_mask: Optional[np.ndarray] = None
    #: Content digest of ``clip_mask`` (render-cache key component).
    clip_digest: Optional[bytes] = None


#: Layer 1 of the render-acceleration subsystem: whole-canvas rasters keyed
#: by (device, size, baseline, canonical draw-op log).  Fingerprinting
#: vendors serve the *same* script to thousands of sites, so the op log —
#: and therefore the rendered pixels — repeat endlessly within one crawl
#: process; the first canvas pays for rasterization, the rest share its
#: raster copy-on-write (see docs/performance.md).
#: Whole-canvas rasters are float64 RGBA, the costliest values of any cache.
_RENDER_CACHE = perf.ByteBudgetLRU("render_cache", 256 * perf.MB)


class CanvasRenderingContext2D:
    """Software 2D rendering context bound to one canvas element.

    Paint operations are *deferred*: each call captures its full inputs
    (geometry, style, state snapshot) plus a canonical key, and the surface
    is only materialized when pixels are read back (``toDataURL`` /
    ``getImageData`` / being drawn onto another canvas).  At that point the
    whole op log is looked up in the process-wide render cache — a hit
    shares the cached raster and skips rasterization entirely.
    State mutations (styles, transforms, clipping) stay eager: they are
    cheap and must be visible to reads like ``measureText``.  Path building
    records a log (:class:`~repro.canvas.path.Path`) that is flattened only
    when points are needed: at a miss, or for ``clip``, ``isPointInPath`` or
    a curve that starts where an arc ended.
    """

    def __init__(self, canvas, device: DeviceProfile) -> None:
        self.canvas = canvas
        self.device = device
        self._state = _DrawState()
        self._stack: List[_DrawState] = []
        self._path = Path()
        self._text = TextRasterizer(device)
        #: Deferred paint ops: (canonical key, zero-arg replay closure).
        self._pending: List[Tuple[Tuple, Callable[[], None]]] = []
        #: Token describing the surface content beneath the pending ops:
        #: "blank" for a fresh canvas, else the previous flush's key digest.
        #: Unless tainted, it names the surface content exactly
        #: (:meth:`content_identity`).
        self._baseline: object = "blank"
        #: True once a paint bypassed the op log (caching disabled at the
        #: time): the surface content can no longer be trusted to match any
        #: key, so flushes replay without touching the cache.
        self._tainted = False

    # -- surface plumbing ------------------------------------------------------------

    @property
    def _surface(self) -> Surface:
        return self.canvas.surface

    # -- deferred rendering ------------------------------------------------------------

    def _defer(self, key: Tuple, apply_fn: Callable[[], None]) -> None:
        """Queue a paint op for replay at flush time (eager when disabled)."""
        if perf.config().enabled:
            self._pending.append((key, apply_fn))
            return
        # Caching was disabled (possibly mid-canvas): anything still queued
        # must paint before this op to preserve draw order.
        self._tainted = True
        pending, self._pending = self._pending, []
        for _, queued in pending:
            queued()
        apply_fn()

    def flush(self) -> None:
        """Materialize pending paint ops into the surface.

        Hit: the identical (device, size, baseline, op-log) sequence was
        rendered before — share its raster, copy-on-write.  Miss: replay the
        closures in order and hand the result to the cache, which the
        surface then shares too.  Either way the op log is consumed and the
        baseline advances to this flush's key, so chained draw/read/draw
        sequences keep hitting.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if self._tainted or not perf.config().enabled:
            for _, apply_fn in pending:
                apply_fn()
            self._tainted = True
            return
        key = (
            self.device,
            self._surface.width,
            self._surface.height,
            self._baseline,
            tuple(op_key for op_key, _ in pending),
        )
        cached = _RENDER_CACHE.get(key)
        if cached is not None:
            self._surface.restore(cached)
        else:
            started = time.perf_counter()
            for _, apply_fn in pending:
                apply_fn()
            pixels = self._surface.share()
            _RENDER_CACHE.put(key, pixels, pixels.nbytes, seconds=time.perf_counter() - started)
        if obs.TRACE.enabled:
            # Guarded: flush runs per drawn canvas, so even building the
            # attrs dict is too costly for the tracing-off hot path.
            obs.event("render.flush", ops=len(pending), hit=cached is not None)
        # Chain the baseline as a digest: keys stay flat however many
        # flushes a canvas goes through.
        self._baseline = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).digest()

    def content_identity(self) -> object:
        """Flush, then name the surface content as the render cache does.

        The baseline: ``"blank"`` before any flush, else the digest of the
        last flush's render key.  None once the context is tainted, since
        then no key names the content.
        """
        self.flush()
        return None if self._tainted else self._baseline

    def _capture_state(self) -> Tuple[_DrawState, Tuple]:
        """Snapshot the draw state for a deferred op, plus its key part."""
        state = replace(self._state)
        key = (
            state.global_alpha,
            state.composite_op,
            state.shadow_blur,
            state.shadow_color,
            state.shadow_offset_x,
            state.shadow_offset_y,
            state.clip_digest,
        )
        return state, key

    def _capture_style(self, style: FillStyle) -> Tuple[FillStyle, Tuple]:
        """Freeze a fill/stroke style for deferred use, plus its key part."""
        if isinstance(style, CanvasGradient):
            return style.snapshot(), ("gradient",) + style.state_key
        return style, ("color", style)

    # -- state attributes --------------------------------------------------------------

    @property
    def fillStyle(self) -> FillStyle:
        return self._state.fill_style

    @fillStyle.setter
    def fillStyle(self, value: FillStyle) -> None:
        if isinstance(value, CanvasGradient):
            self._state.fill_style = value
            return
        try:
            parse_color(value)
        except (ColorError, TypeError):
            return  # invalid assignments are ignored, like real browsers
        self._state.fill_style = value

    @property
    def strokeStyle(self) -> FillStyle:
        return self._state.stroke_style

    @strokeStyle.setter
    def strokeStyle(self, value: FillStyle) -> None:
        if isinstance(value, CanvasGradient):
            self._state.stroke_style = value
            return
        try:
            parse_color(value)
        except (ColorError, TypeError):
            return
        self._state.stroke_style = value

    @property
    def lineWidth(self) -> float:
        return self._state.line_width

    @lineWidth.setter
    def lineWidth(self, value: float) -> None:
        if isinstance(value, (int, float)) and value > 0 and math.isfinite(value):
            self._state.line_width = float(value)

    @property
    def font(self) -> str:
        return self._state.font

    @font.setter
    def font(self, value: str) -> None:
        if isinstance(value, str) and value.strip():
            self._state.font = value

    @property
    def textBaseline(self) -> str:
        return self._state.text_baseline

    @textBaseline.setter
    def textBaseline(self, value: str) -> None:
        if value in ("top", "hanging", "middle", "alphabetic", "ideographic", "bottom"):
            self._state.text_baseline = value

    @property
    def textAlign(self) -> str:
        return self._state.text_align

    @textAlign.setter
    def textAlign(self, value: str) -> None:
        if value in ("start", "end", "left", "right", "center"):
            self._state.text_align = value

    @property
    def globalAlpha(self) -> float:
        return self._state.global_alpha

    @globalAlpha.setter
    def globalAlpha(self, value: float) -> None:
        if isinstance(value, (int, float)) and 0.0 <= value <= 1.0:
            self._state.global_alpha = float(value)

    @property
    def globalCompositeOperation(self) -> str:
        return self._state.composite_op

    @globalCompositeOperation.setter
    def globalCompositeOperation(self, value: str) -> None:
        if isinstance(value, str):
            self._state.composite_op = value

    @property
    def shadowBlur(self) -> float:
        return self._state.shadow_blur

    @shadowBlur.setter
    def shadowBlur(self, value: float) -> None:
        if isinstance(value, (int, float)) and value >= 0:
            self._state.shadow_blur = float(value)

    @property
    def shadowColor(self) -> str:
        return self._state.shadow_color

    @shadowColor.setter
    def shadowColor(self, value: str) -> None:
        if isinstance(value, str):
            self._state.shadow_color = value

    @property
    def shadowOffsetX(self) -> float:
        return self._state.shadow_offset_x

    @shadowOffsetX.setter
    def shadowOffsetX(self, value: float) -> None:
        if isinstance(value, (int, float)) and math.isfinite(value):
            self._state.shadow_offset_x = float(value)

    @property
    def shadowOffsetY(self) -> float:
        return self._state.shadow_offset_y

    @shadowOffsetY.setter
    def shadowOffsetY(self, value: float) -> None:
        if isinstance(value, (int, float)) and math.isfinite(value):
            self._state.shadow_offset_y = float(value)

    # -- state stack --------------------------------------------------------------------

    def save(self) -> None:
        self._stack.append(replace(self._state))

    def restore(self) -> None:
        if self._stack:
            self._state = self._stack.pop()

    # -- transforms ----------------------------------------------------------------------

    def translate(self, x: float, y: float) -> None:
        self._state.transform = self._state.transform.translate(x, y)

    def scale(self, sx: float, sy: float) -> None:
        self._state.transform = self._state.transform.scale(sx, sy)

    def rotate(self, angle: float) -> None:
        self._state.transform = self._state.transform.rotate(angle)

    def transform(self, a: float, b: float, c: float, d: float, e: float, f: float) -> None:
        self._state.transform = self._state.transform.multiply(Transform(a, b, c, d, e, f))

    def setTransform(self, a: float, b: float, c: float, d: float, e: float, f: float) -> None:
        self._state.transform = Transform(a, b, c, d, e, f)

    def resetTransform(self) -> None:
        self._state.transform = Transform()

    # -- rectangles ----------------------------------------------------------------------

    def fillRect(self, x: float, y: float, w: float, h: float) -> None:
        self._queue_fill(self._rect_path(x, y, w, h), "nonzero")

    def strokeRect(self, x: float, y: float, w: float, h: float) -> None:
        self._queue_stroke(self._rect_path(x, y, w, h))

    def clearRect(self, x: float, y: float, w: float, h: float) -> None:
        if w <= 0 or h <= 0:
            return
        t = self._state.transform
        if t.b == 0 and t.c == 0:
            (x0, y0) = t.apply(x, y)
            (x1, y1) = t.apply(x + w, y + h)
            if not all(map(math.isfinite, (x0, y0, x1, y1))):
                return  # an overflowing transform: nothing to clear
            ix0 = int(math.floor(min(x0, x1)))
            iy0 = int(math.floor(min(y0, y1)))
            ix1 = int(math.ceil(max(x0, x1)))
            iy1 = int(math.ceil(max(y0, y1)))
            self._defer(
                ("clear-rect", ix0, iy0, ix1, iy1),
                lambda: self._surface.clear_rect(ix0, iy0, ix1, iy1),
            )
            return
        # Rotated clears: paint transparent with destination-out coverage.
        path = self._rect_path(x, y, w, h)
        self._defer(
            ("clear-path", path.canonical_digest()),
            lambda: self._clear_path(path),
        )

    def _clear_path(self, path: Path) -> None:
        coverage, offset = rasterize_fill(path, self._surface.width, self._surface.height)
        if coverage.size:
            self._surface.paint(coverage, (0.0, 0.0, 0.0, 255.0), op="destination-out", offset=offset)

    def _rect_path(self, x: float, y: float, w: float, h: float) -> Path:
        t = self._state.transform
        path = Path()
        path.add_polyline(
            [t.apply(x, y), t.apply(x + w, y), t.apply(x + w, y + h), t.apply(x, y + h)],
            closed=True,
        )
        return path

    # -- path building ---------------------------------------------------------------------

    def beginPath(self) -> None:
        self._path = Path()

    def closePath(self) -> None:
        self._path.close()

    def moveTo(self, x: float, y: float) -> None:
        self._path.move_to(*self._state.transform.apply(x, y))

    def lineTo(self, x: float, y: float) -> None:
        self._path.line_to(*self._state.transform.apply(x, y))

    def rect(self, x: float, y: float, w: float, h: float) -> None:
        t = self._state.transform
        self._path.add_polyline(
            [t.apply(x, y), t.apply(x + w, y), t.apply(x + w, y + h), t.apply(x, y + h)],
            closed=True,
        )

    def arc(
        self,
        cx: float,
        cy: float,
        radius: float,
        start: float,
        end: float,
        anticlockwise: bool = False,
    ) -> None:
        if radius < 0:
            raise ValueError("IndexSizeError: negative arc radius")
        self._path.arc(cx, cy, radius, start, end, bool(anticlockwise), self._state.transform)

    def ellipse(
        self,
        cx: float,
        cy: float,
        rx: float,
        ry: float,
        rotation: float,
        start: float,
        end: float,
        anticlockwise: bool = False,
    ) -> None:
        if rx < 0 or ry < 0:
            raise ValueError("IndexSizeError: negative ellipse radius")
        t = self._state.transform.translate(cx, cy).rotate(rotation).translate(-cx, -cy)
        self._path.arc(cx, cy, 1.0, start, end, bool(anticlockwise), t, rx, ry)

    def quadraticCurveTo(self, cpx: float, cpy: float, x: float, y: float) -> None:
        start = self._inverse_current_point()
        for p in flatten_quadratic(start, (cpx, cpy), (x, y), self._state.transform):
            self._path.line_to(*p)

    def bezierCurveTo(self, c1x: float, c1y: float, c2x: float, c2y: float, x: float, y: float) -> None:
        start = self._inverse_current_point()
        for p in flatten_cubic(start, (c1x, c1y), (c2x, c2y), (x, y), self._state.transform):
            self._path.line_to(*p)

    def arcTo(self, x1: float, y1: float, x2: float, y2: float, radius: float) -> None:
        # Approximation: corner rounded by a quadratic through the control point.
        self.quadraticCurveTo(x1, y1, x2, y2)
        del radius

    def _inverse_current_point(self) -> Tuple[float, float]:
        """Current point mapped back to user space (approximate: assumes the
        CTM hasn't changed since the point was added, the common case)."""
        cp = self._path.current_point
        if cp is None:
            return (0.0, 0.0)
        t = self._state.transform
        det = t.a * t.d - t.b * t.c
        if abs(det) < 1e-12:
            return cp
        x, y = cp[0] - t.e, cp[1] - t.f
        return ((t.d * x - t.c * y) / det, (-t.b * x + t.a * y) / det)

    # -- painting -------------------------------------------------------------------------

    def fill(self, rule: str = "nonzero") -> None:
        if rule not in ("nonzero", "evenodd"):
            rule = "nonzero"
        # Copy: the live path may keep growing after this draw.
        self._queue_fill(self._path.copy(), rule)

    def stroke(self) -> None:
        self._queue_stroke(self._path.copy())

    def _queue_fill(self, path: Path, rule: str) -> None:
        if path.is_empty():
            return
        style, style_key = self._capture_style(self._state.fill_style)
        state, state_key = self._capture_state()
        key = ("fill", path.canonical_digest(), rule, style_key, state_key)
        self._defer(key, lambda: self._fill_path(path, rule, style, state))

    def _queue_stroke(self, path: Path) -> None:
        if path.is_empty():
            return
        style, style_key = self._capture_style(self._state.stroke_style)
        state, state_key = self._capture_state()
        line_width = state.line_width * state.transform.scale_magnitude
        key = ("stroke", path.canonical_digest(), line_width, style_key, state_key)
        self._defer(key, lambda: self._stroke_path(path, line_width, style, state))

    def _fill_path(self, path: Path, rule: str, style: FillStyle, state: _DrawState) -> None:
        coverage, offset = rasterize_fill(
            path,
            self._surface.width,
            self._surface.height,
            rule=rule,
            device=self.device,
            noise_tag=self._geometry_tag(path),
        )
        if coverage.size == 0:
            return
        self._paint_coverage(coverage, offset, style, state)

    def _stroke_path(self, path: Path, line_width: float, style: FillStyle, state: _DrawState) -> None:
        coverage, offset = rasterize_stroke(
            path,
            self._surface.width,
            self._surface.height,
            line_width=line_width,
            device=self.device,
            noise_tag=self._geometry_tag(path) ^ 0x5A5A,
        )
        if coverage.size == 0:
            return
        self._paint_coverage(coverage, offset, style, state)

    def _geometry_tag(self, path: Path) -> int:
        """Deterministic tag derived from geometry: identical shapes get
        identical device noise regardless of draw order."""
        h = 0
        try:
            for pts in path.subpaths:
                for x, y in pts[:8]:
                    h = (h * 31 + int(x * 16) * 7 + int(y * 16)) & 0x7FFFFFFF
        except (OverflowError, ValueError):
            return 1  # a coordinate beyond ±1e307, or not finite
        return h or 1

    def clip(self, rule: str = "nonzero") -> None:
        """Intersect the clip region with the current path."""
        if rule not in ("nonzero", "evenodd"):
            rule = "nonzero"
        mask = np.zeros((self._surface.height, self._surface.width), dtype=np.float64)
        coverage, (ox, oy) = rasterize_fill(
            self._path, self._surface.width, self._surface.height, rule=rule
        )
        if coverage.size:
            mask[oy : oy + coverage.shape[0], ox : ox + coverage.shape[1]] = coverage
        if self._state.clip_mask is None:
            self._state.clip_mask = mask
        else:
            self._state.clip_mask = self._state.clip_mask * mask
        self._state.clip_digest = hashlib.blake2b(
            self._state.clip_mask.tobytes(), digest_size=16
        ).digest()

    def _paint_coverage(
        self,
        coverage: np.ndarray,
        offset: Tuple[int, int],
        style: FillStyle,
        state: _DrawState,
    ) -> None:
        alpha = state.global_alpha
        if alpha <= 0.0:
            return
        if state.clip_mask is not None:
            # Align the coverage mask (at surface offset) with the clip mask.
            x0, y0 = offset
            h, w = coverage.shape
            sx0, sy0 = max(0, x0), max(0, y0)
            sx1 = min(self._surface.width, x0 + w)
            sy1 = min(self._surface.height, y0 + h)
            clipped = np.zeros_like(coverage)
            if sx1 > sx0 and sy1 > sy0:
                clipped[sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0] = (
                    coverage[sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0]
                    * state.clip_mask[sy0:sy1, sx0:sx1]
                )
            coverage = clipped
        self._paint_shadow(coverage, offset, state)
        if isinstance(style, CanvasGradient):
            x0, y0 = offset
            rgba = style.sample(x0, y0, coverage.shape[1], coverage.shape[0])
            if alpha < 1.0:
                rgba = rgba.copy()
                rgba[..., 3] *= alpha
            self._surface.paint(coverage, rgba, op=state.composite_op, offset=offset)
            return
        r, g, b, a = parse_color(style)
        self._surface.paint(coverage, (r, g, b, a * alpha), op=state.composite_op, offset=offset)

    def _paint_shadow(self, coverage: np.ndarray, offset: Tuple[int, int], state: _DrawState) -> None:
        """Draw the shape's shadow (blurred, offset copy) under it."""
        if state.shadow_blur <= 0 and state.shadow_offset_x == 0 and state.shadow_offset_y == 0:
            return
        try:
            r, g, b, a = parse_color(state.shadow_color)
        except Exception:
            return
        if a <= 0:
            return  # default transparent shadow

        mask = coverage
        radius = int(min(16, round(state.shadow_blur / 2)))
        if radius > 0:
            # Separable box blur approximating the Gaussian browsers use.
            mask = np.pad(mask, radius, mode="constant")
            kernel = np.ones(2 * radius + 1) / (2 * radius + 1)
            mask = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), 0, mask)
            mask = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), 1, mask)
        ox = offset[0] - radius + int(round(state.shadow_offset_x))
        oy = offset[1] - radius + int(round(state.shadow_offset_y))
        self._surface.paint(
            np.clip(mask, 0.0, 1.0),
            (r, g, b, a * state.global_alpha),
            op="source-over",
            offset=(ox, oy),
        )

    # -- text ------------------------------------------------------------------------------

    def fillText(self, text: str, x: float, y: float, max_width: Optional[float] = None) -> None:
        self._draw_text(text, x, y, self._state.fill_style, max_width)

    def strokeText(self, text: str, x: float, y: float, max_width: Optional[float] = None) -> None:
        self._draw_text(text, x, y, self._state.stroke_style, max_width)

    def measureText(self, text: str) -> TextMetrics:
        spec = parse_font(self._state.font)
        width = self._text.measure(str(text), spec)
        # Bounding-box metrics derive from the font geometry: ascent spans
        # cap height above the alphabetic baseline, descent the strip below.
        ascent = spec.size_px * 7.0 / 8.0
        descent = spec.size_px / 8.0
        return TextMetrics(
            width=width,
            actual_bounding_box_left=0.0,
            actual_bounding_box_right=width,
            actual_bounding_box_ascent=round(ascent, 3),
            actual_bounding_box_descent=round(descent, 3),
        )

    def _draw_text(
        self, text: str, x: float, y: float, style: FillStyle, max_width: Optional[float]
    ) -> None:
        text = str(text)
        if not text:
            return
        style, style_key = self._capture_style(style)
        state, state_key = self._capture_state()
        t = state.transform
        key = (
            "text",
            text,
            state.font,
            state.text_baseline,
            state.text_align,
            x,
            y,
            max_width,
            (t.a, t.b, t.c, t.d, t.e, t.f),
            style_key,
            state_key,
        )
        self._defer(key, lambda: self._render_text(text, x, y, style, max_width, state))

    def _render_text(
        self,
        text: str,
        x: float,
        y: float,
        style: FillStyle,
        max_width: Optional[float],
        state: _DrawState,
    ) -> None:
        spec = parse_font(state.font)
        coverage, emoji_colors, baseline_off = self._text.render(text, spec, state.text_baseline)
        if coverage.size == 0:
            return

        width = self._text.measure(text, spec)
        if max_width is not None and 0 < max_width < width:
            # Canvas squeezes text horizontally to fit maxWidth.
            squeeze = max_width / width
            new_w = max(1, int(coverage.shape[1] * squeeze))
            idx = np.linspace(0, coverage.shape[1] - 1, new_w).astype(int)
            coverage = coverage[:, idx]
            if emoji_colors is not None:
                emoji_colors = emoji_colors[:, idx]
            width = max_width

        ax = x
        if state.text_align in ("center",):
            ax -= width / 2.0
        elif state.text_align in ("right", "end"):
            ax -= width

        baseline_shift = self._text.baseline_shift(state.text_baseline, spec)
        top_y = y + baseline_shift - baseline_off

        t = state.transform
        coverage, emoji_colors, offset = _place_mask(
            coverage, emoji_colors, t, ax, top_y, self._surface.width, self._surface.height
        )

        if emoji_colors is not None:
            rgba = np.zeros(coverage.shape + (4,), dtype=np.float64)
            base = parse_color(style) if isinstance(style, str) else (0.0, 0.0, 0.0, 255.0)
            rgba[..., 0], rgba[..., 1], rgba[..., 2] = base[0], base[1], base[2]
            rgba[..., 3] = base[3] * state.global_alpha
            tinted = emoji_colors.sum(axis=2) > 0
            rgba[tinted, :3] = emoji_colors[tinted]
            self._surface.paint(coverage, rgba, op=state.composite_op, offset=offset)
            return

        self._paint_coverage(coverage, offset, style, state)

    # -- pixel access -----------------------------------------------------------------------

    def getImageData(self, x: float, y: float, w: float, h: float) -> ImageData:
        x, y, w, h = int(x), int(y), int(w), int(h)
        if w <= 0 or h <= 0:
            raise ValueError("IndexSizeError: empty getImageData region")
        _check_region(w, h)
        snapshot = self.canvas.read_pixels()
        out = np.zeros((h, w, 4), dtype=np.uint8)
        sx0, sy0 = max(0, x), max(0, y)
        sx1, sy1 = min(self._surface.width, x + w), min(self._surface.height, y + h)
        if sx1 > sx0 and sy1 > sy0:
            out[sy0 - y : sy1 - y, sx0 - x : sx1 - x] = snapshot[sy0:sy1, sx0:sx1]
        return ImageData(width=w, height=h, pixels=out)

    def putImageData(self, image_data: ImageData, x: float, y: float) -> None:
        # Copy: the caller may mutate the ImageData after this call.  The op
        # key carries a content digest, so a putImageData of different
        # pixels can never collide with a cached render.
        pixels = np.ascontiguousarray(image_data.pixels).copy()
        digest = hashlib.blake2b(pixels.tobytes(), digest_size=16).digest()
        self._defer(
            ("put-image", digest, pixels.shape, int(x), int(y)),
            lambda: self._surface.put_uint8(pixels, int(x), int(y)),
        )

    def createImageData(self, w: float, h: float) -> ImageData:
        w, h = int(w), int(h)
        if w <= 0 or h <= 0:
            raise ValueError("IndexSizeError: empty createImageData")
        _check_region(w, h)
        return ImageData(width=w, height=h, pixels=np.zeros((h, w, 4), dtype=np.uint8))

    def drawImage(self, source, dx: float, dy: float, dw: Optional[float] = None, dh: Optional[float] = None) -> None:
        """Draw another canvas element onto this one.

        Reading the source flushes *its* pending ops (and runs its privacy
        filter), exactly as an eager implementation would; the captured
        pixels are keyed by content digest so the op log stays canonical.
        """
        pixels = source.read_pixels() if hasattr(source, "read_pixels") else None
        if pixels is None:
            return
        tx, ty = self._state.transform.apply(dx, dy)
        if not (math.isfinite(tx) and math.isfinite(ty)):
            return  # an overflowing transform: the image lands nowhere
        offset = (int(round(tx)), int(round(ty)))
        if dw is not None and dh is not None and (dw != pixels.shape[1] or dh != pixels.shape[0]):
            resized = _nearest_resize(
                pixels, int(dh), int(dw), offset, self._surface.width, self._surface.height
            )
            if resized is None:
                return  # no part of the destination lands on the canvas
            pixels, offset = resized
        op = self._state.composite_op
        digest = hashlib.blake2b(np.ascontiguousarray(pixels).tobytes(), digest_size=16).digest()

        def apply() -> None:
            rgba = pixels.astype(np.float64)
            coverage = np.ones(rgba.shape[:2], dtype=np.float64)
            self._surface.paint(coverage, rgba, op=op, offset=offset)

        self._defer(("draw-image", digest, pixels.shape, offset, op), apply)

    # -- hit testing -------------------------------------------------------------------------

    def isPointInPath(self, x: float, y: float, rule: str = "nonzero") -> bool:
        px, py = self._state.transform.apply(x, y)
        return self._path.contains_point(px, py, rule)

    # -- gradients ----------------------------------------------------------------------------

    def createLinearGradient(self, x0: float, y0: float, x1: float, y1: float) -> CanvasGradient:
        return CanvasGradient("linear", (x0, y0, x1, y1))

    def createRadialGradient(
        self, x0: float, y0: float, r0: float, x1: float, y1: float, r1: float
    ) -> CanvasGradient:
        if r0 < 0 or r1 < 0:
            raise ValueError("IndexSizeError: negative gradient radius")
        return CanvasGradient("radial", (x0, y0, r0, x1, y1, r1))


def _place_mask(
    coverage: np.ndarray,
    colors: Optional[np.ndarray],
    transform: Transform,
    x: float,
    y: float,
    width: int,
    height: int,
):
    """Position a text mask under the CTM on a ``width`` x ``height`` canvas.

    Pure translations (the overwhelmingly common case) use sub-pixel shifts;
    general affine transforms resample the mask via inverse mapping.  A
    placement that is not finite places nothing, and a resampled box larger
    than the largest canvas is resampled only where it lands on this one.
    """
    if transform.a == 1 and transform.b == 0 and transform.c == 0 and transform.d == 1:
        tx, ty = x + transform.e, y + transform.f
        if not (math.isfinite(tx) and math.isfinite(ty)):
            return np.zeros((0, 0)), None, (0, 0)
        ix, iy = int(math.floor(tx)), int(math.floor(ty))
        fx, fy = tx - ix, ty - iy
        if fx > 1e-6 or fy > 1e-6:
            coverage = _subpixel_shift(coverage, fx, fy)
            if colors is not None:
                colors = np.pad(colors, ((0, 1), (0, 1), (0, 0)), mode="edge")
        return coverage, colors, (ix, iy)

    # General affine: map the mask's bounding box through the transform and
    # inverse-sample.
    h, w = coverage.shape
    corners = [transform.apply(x + cx, y + cy) for cx, cy in ((0, 0), (w, 0), (0, h), (w, h))]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    if not all(map(math.isfinite, xs + ys)):
        return np.zeros((0, 0)), None, (0, 0)
    ox, oy = int(math.floor(min(xs))), int(math.floor(min(ys)))
    out_w = max(1, int(math.ceil(max(xs))) - ox)
    out_h = max(1, int(math.ceil(max(ys))) - oy)
    if out_w * out_h > MAX_PIXELS:
        x1, y1 = min(ox + out_w, width), min(oy + out_h, height)
        ox, oy = max(ox, 0), max(oy, 0)
        out_w, out_h = x1 - ox, y1 - oy
        if out_w <= 0 or out_h <= 0:
            return np.zeros((0, 0)), None, (0, 0)

    det = transform.a * transform.d - transform.b * transform.c
    if not 1e-12 <= abs(det) < math.inf:
        return np.zeros((0, 0)), None, (0, 0)
    ia, ib = transform.d / det, -transform.b / det
    ic, idd = -transform.c / det, transform.a / det

    yy, xx = np.mgrid[0:out_h, 0:out_w]
    dx = (xx + ox + 0.5) - transform.e
    dy = (yy + oy + 0.5) - transform.f
    ux = ia * dx + ic * dy - x
    uy = ib * dx + idd * dy - y
    uxi = np.clip(np.round(ux - 0.5).astype(int), -1, w)
    uyi = np.clip(np.round(uy - 0.5).astype(int), -1, h)
    valid = (uxi >= 0) & (uxi < w) & (uyi >= 0) & (uyi < h)
    out = np.zeros((out_h, out_w), dtype=np.float64)
    out[valid] = coverage[uyi[valid], uxi[valid]]
    out_colors = None
    if colors is not None:
        out_colors = np.zeros((out_h, out_w, 3), dtype=np.float64)
        out_colors[valid] = colors[uyi[valid], uxi[valid]]
    return out, out_colors, (ox, oy)


def _subpixel_shift(mask: np.ndarray, fx: float, fy: float) -> np.ndarray:
    """Bilinear shift of a mask by a sub-pixel amount (grows by one pixel)."""
    h, w = mask.shape
    out = np.zeros((h + 1, w + 1), dtype=np.float64)
    out[:h, :w] += mask * (1 - fx) * (1 - fy)
    out[:h, 1:] += mask * fx * (1 - fy)
    out[1:, :w] += mask * (1 - fx) * fy
    out[1:, 1:] += mask * fx * fy
    return out


def _check_region(w: int, h: int) -> None:
    """Reject an ImageData region larger than the largest canvas."""
    if w * h > MAX_PIXELS:
        raise ValueError(f"RangeError: a {w}x{h} region is larger than the largest canvas")


def _nearest_resize(
    pixels: np.ndarray,
    out_h: int,
    out_w: int,
    offset: Tuple[int, int],
    width: int,
    height: int,
) -> Optional[Tuple[np.ndarray, Tuple[int, int]]]:
    """Nearest-neighbour resize of ``pixels`` to ``out_h`` x ``out_w`` at ``offset``.

    Only the rows and columns that land on the ``width`` x ``height``
    canvas are computed; returns them with their offset, or None when none
    does.  Output row ``r`` reads source row ``r * in_h / out_h`` (columns
    likewise), whatever part is computed.
    """
    in_h, in_w = pixels.shape[:2]
    out_h, out_w = max(1, out_h), max(1, out_w)
    ox, oy = offset
    r0, r1 = max(0, -oy), min(out_h, height - oy)
    c0, c1 = max(0, -ox), min(out_w, width - ox)
    if r1 <= r0 or c1 <= c0:
        return None
    # Float indices: exact below 2**53, and far offsets never overflow int64.
    yi = np.clip(((np.arange(r1 - r0, dtype=np.float64) + r0) * in_h / out_h).astype(int), 0, in_h - 1)
    xi = np.clip(((np.arange(c1 - c0, dtype=np.float64) + c0) * in_w / out_w).astype(int), 0, in_w - 1)
    return pixels[np.ix_(yi, xi)], (ox + c0, oy + r0)
