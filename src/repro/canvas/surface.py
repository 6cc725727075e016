"""RGBA pixel surface with alpha compositing.

The surface stores non-premultiplied RGBA as ``float64`` internally for
compositing precision and exposes ``uint8`` snapshots.  Paint sources are
applied through coverage masks (anti-aliased shapes produce fractional
coverage), supporting the subset of ``globalCompositeOperation`` values that
real fingerprinting scripts use.

Pixels are allocated on the first write, and a surface restored from the
render cache reads the cached array in place until it is written
(copy-on-write): most canvases are resized before they are drawn, and most
draws repeat a render the cache already holds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["Surface", "COMPOSITE_OPERATIONS", "MAX_DIMENSION", "MAX_PIXELS"]

#: The largest canvas side (browsers cap canvas dimensions), and the pixel
#: count of the largest canvas: the bound on any region a script sizes.
MAX_DIMENSION = 4096
MAX_PIXELS = MAX_DIMENSION * MAX_DIMENSION

COMPOSITE_OPERATIONS = (
    "source-over",
    "destination-over",
    "source-atop",
    "destination-out",
    "multiply",
    "screen",
    "darken",
    "lighten",
    "xor",
    "copy",
)


class Surface:
    """A ``height x width`` RGBA raster.

    It holds one of three things: nothing (blank, every pixel transparent),
    a private array, or a read-only array it shares with the render cache.
    Every write goes through :meth:`_writable`, which makes the array
    private first; a write that bypassed it would raise on a shared array
    instead of corrupting the cache.
    """

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"surface dimensions must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        # Non-premultiplied float RGBA, channels in 0..255 (alpha too);
        # None while blank.
        self._px: Optional[np.ndarray] = None

    def _writable(self) -> np.ndarray:
        """The pixels, made private (allocated or copied) for a write."""
        px = self._px
        if px is None:
            px = self._px = np.zeros((self.height, self.width, 4), dtype=np.float64)
        elif not px.flags.writeable:
            px = self._px = px.copy()
        return px

    # -- snapshots ----------------------------------------------------------------

    def to_uint8(self) -> np.ndarray:
        """Return an independent ``uint8`` copy of the pixels."""
        if self._px is None:
            return np.zeros((self.height, self.width, 4), dtype=np.uint8)
        return np.clip(np.rint(self._px), 0, 255).astype(np.uint8)

    def share(self) -> np.ndarray:
        """Hand the full-precision raster to the render cache.

        The array is marked read-only and kept: this surface reads it in
        place, and its next write copies it.  ``float64`` rather than
        ``uint8``: a restored canvas must continue compositing
        bit-identically to one that was rasterized in place.
        """
        px = self._writable()
        px.setflags(write=False)
        return px

    def restore(self, pixels: np.ndarray) -> None:
        """Take a raster from :meth:`share` as this surface's content, copy-on-write."""
        if pixels.shape != (self.height, self.width, 4):
            raise ValueError(
                f"cached shape {pixels.shape} does not match surface {self.width}x{self.height}"
            )
        self._px = pixels

    def put_uint8(self, pixels: np.ndarray, x: int = 0, y: int = 0) -> None:
        """Overwrite a region with raw RGBA pixels (putImageData semantics)."""
        h, w = pixels.shape[:2]
        x0, y0 = max(0, x), max(0, y)
        x1, y1 = min(self.width, x + w), min(self.height, y + h)
        if x1 <= x0 or y1 <= y0:
            return
        src = pixels[y0 - y : y1 - y, x0 - x : x1 - x].astype(np.float64)
        self._writable()[y0:y1, x0:x1] = src

    def clear_rect(self, x0: int, y0: int, x1: int, y1: int) -> None:
        x0, y0 = max(0, x0), max(0, y0)
        x1, y1 = min(self.width, x1), min(self.height, y1)
        if x1 > x0 and y1 > y0 and self._px is not None:
            self._writable()[y0:y1, x0:x1] = 0.0

    # -- painting -----------------------------------------------------------------

    def paint(
        self,
        coverage: np.ndarray,
        color: "np.ndarray | Tuple[float, float, float, float]",
        op: str = "source-over",
        offset: Tuple[int, int] = (0, 0),
    ) -> None:
        """Composite a paint source onto the surface through a coverage mask.

        ``coverage`` is a 2D float array in [0, 1] positioned at ``offset``
        (x, y).  ``color`` is either a single RGBA tuple or a full RGBA array
        matching ``coverage``'s shape (for gradients / drawImage).
        """
        ch, cw = coverage.shape
        ox, oy = offset
        x0, y0 = max(0, ox), max(0, oy)
        x1, y1 = min(self.width, ox + cw), min(self.height, oy + ch)
        if x1 <= x0 or y1 <= y0:
            return
        cov = coverage[y0 - oy : y1 - oy, x0 - ox : x1 - ox]
        if isinstance(color, tuple):
            src = np.empty(cov.shape + (4,), dtype=np.float64)
            src[..., 0], src[..., 1], src[..., 2], src[..., 3] = color
        else:
            src = color[y0 - oy : y1 - oy, x0 - ox : x1 - ox].astype(np.float64)

        px = self._writable()
        px[y0:y1, x0:x1] = _composite(px[y0:y1, x0:x1], src, cov, op)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Surface({self.width}x{self.height})"


def _composite(dst: np.ndarray, src: np.ndarray, cov: np.ndarray, op: str) -> np.ndarray:
    """Porter-Duff (plus blend modes) on non-premultiplied float RGBA."""
    if op not in COMPOSITE_OPERATIONS:
        # Unknown modes fall back to source-over, as browsers do for typos.
        op = "source-over"

    sa = (src[..., 3] / 255.0) * cov  # effective source alpha
    da = dst[..., 3] / 255.0
    sc = src[..., :3]
    dc = dst[..., :3]

    if op == "copy":
        out = np.empty_like(dst)
        out[..., :3] = sc
        out[..., 3] = sa * 255.0
        return out

    if op in ("multiply", "screen", "darken", "lighten"):
        if op == "multiply":
            blended = sc * dc / 255.0
        elif op == "screen":
            blended = 255.0 - (255.0 - sc) * (255.0 - dc) / 255.0
        elif op == "darken":
            blended = np.minimum(sc, dc)
        else:
            blended = np.maximum(sc, dc)
        # Blend modes only apply where the destination has alpha; elsewhere
        # the source color is used, then standard source-over compositing.
        eff_src = blended * da[..., None] + sc * (1.0 - da[..., None])
        return _source_over(dc, da, eff_src, sa)

    if op == "source-over":
        return _source_over(dc, da, sc, sa)

    if op == "destination-over":
        out_a = da + sa * (1.0 - da)
        safe = np.maximum(out_a, 1e-9)
        out_c = (dc * da[..., None] + sc * (sa * (1.0 - da))[..., None]) / safe[..., None]
        return _pack(out_c, out_a)

    if op == "source-atop":
        out_a = da
        safe = np.maximum(out_a, 1e-9)
        out_c = (sc * (sa * da)[..., None] + dc * (da * (1.0 - sa))[..., None]) / safe[..., None]
        return _pack(out_c, out_a)

    if op == "destination-out":
        out_a = da * (1.0 - sa)
        return _pack(dc, out_a)

    if op == "xor":
        out_a = sa * (1.0 - da) + da * (1.0 - sa)
        safe = np.maximum(out_a, 1e-9)
        out_c = (sc * (sa * (1.0 - da))[..., None] + dc * (da * (1.0 - sa))[..., None]) / safe[..., None]
        return _pack(out_c, out_a)

    raise AssertionError(f"unhandled composite op {op}")  # pragma: no cover


def _source_over(dc: np.ndarray, da: np.ndarray, sc: np.ndarray, sa: np.ndarray) -> np.ndarray:
    out_a = sa + da * (1.0 - sa)
    safe = np.maximum(out_a, 1e-9)
    out_c = (sc * sa[..., None] + dc * (da * (1.0 - sa))[..., None]) / safe[..., None]
    return _pack(out_c, out_a)


def _pack(color: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    out = np.empty(color.shape[:2] + (4,), dtype=np.float64)
    out[..., :3] = color
    out[..., 3] = alpha * 255.0
    return out
