"""Font parsing, metrics and text rasterization.

The CSS ``font`` shorthand is parsed into size / family / weight / style;
glyphs come from the bitmap tables in :mod:`repro.canvas.font_data` and are
resampled to the requested pixel size with area-average anti-aliasing.  Two
device-dependent effects are applied, mirroring why text is the highest-
entropy canvas surface:

* per-family metric perturbation (advance widths scale with the device's
  ``font_advance_scale`` and a family-keyed tweak), and
* deterministic AA perturbation of glyph edge pixels.

Unknown non-ASCII codepoints (emoji) render as a tinted rounded box whose
tint is device-dependent — emoji fonts differ per OS, and fingerprinters
exploit that.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import perf
from repro.canvas.device import DeviceProfile
from repro.canvas.font_data import DESCENDER_ROW, GLYPHS, GLYPH_HEIGHT

__all__ = ["FontSpec", "parse_font", "TextRasterizer"]

_SIZE_RE = re.compile(r"(\d+(?:\.\d+)?)\s*(px|pt|em)\b")

#: Ratio of the bitmap cell occupied above the baseline (rows 0-6 of 8).
_BASELINE_RATIO = (DESCENDER_ROW) / GLYPH_HEIGHT


@dataclass(frozen=True)
class FontSpec:
    """Parsed CSS font shorthand."""

    size_px: float = 10.0
    family: str = "sans-serif"
    bold: bool = False
    italic: bool = False

    @property
    def key(self) -> Tuple[float, str, bool, bool]:
        return (self.size_px, self.family, self.bold, self.italic)


def parse_font(font: str) -> FontSpec:
    """Parse a CSS ``font`` shorthand string (e.g. ``"italic 11pt Arial"``)."""
    if not font or not font.strip():
        return FontSpec()
    text = font.strip()
    lower = text.lower()
    bold = bool(re.search(r"\b(bold|[6-9]00)\b", lower))
    italic = "italic" in lower or "oblique" in lower

    size_px = 10.0
    m = _SIZE_RE.search(lower)
    family = "sans-serif"
    if m:
        value = float(m.group(1))
        unit = m.group(2)
        if unit == "px":
            size_px = value
        elif unit == "pt":
            size_px = value * 4.0 / 3.0
        else:  # em, relative to 16px default
            size_px = value * 16.0
        rest = text[m.end():].strip()
        if rest:
            family = rest.split(",")[0].strip().strip("'\"") or "sans-serif"
    else:
        # No size: the whole string may be a family list.
        family = text.split(",")[0].strip().strip("'\"") or "sans-serif"
    return FontSpec(size_px=size_px, family=family, bold=bold, italic=italic)


#: Process-wide glyph atlas: glyph rasterization is pure in
#: (device, char, spec, cell height), and thousands of page loads share the
#: same vendor scripts, so a shared cache is a large crawl-speed win.
#: Byte-budgeted LRU, instrumented through :mod:`repro.perf`.
_GLYPH_ATLAS = perf.ByteBudgetLRU("glyph_atlas", 64 * perf.MB)


class TextRasterizer:
    """Renders text runs to coverage masks for one device profile."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device

    # -- metrics --------------------------------------------------------------------

    def family_scale(self, family: str) -> float:
        """Per-family advance tweak: different font files, different metrics."""
        tweak = 1.0 + (self.device.hash32("family", family.lower()) % 97) / 2000.0
        return self.device.font_advance_scale * tweak

    def measure(self, text: str, spec: FontSpec) -> float:
        """Advance width of ``text`` in pixels (measureText)."""
        scale = spec.size_px / GLYPH_HEIGHT
        fam = self.family_scale(spec.family)
        width = 0.0
        for ch in text:
            width += (self._advance_cells(ch) + 1) * scale * fam
        return round(width, 3)

    def _advance_cells(self, ch: str) -> int:
        glyph = GLYPHS.get(ch)
        if glyph is not None:
            return len(glyph[0])
        return 6 if ord(ch) > 0x2000 else 5  # emoji boxes are wide

    # -- rasterization ---------------------------------------------------------------

    def render(
        self,
        text: str,
        spec: FontSpec,
        baseline: str = "alphabetic",
    ) -> Tuple[np.ndarray, Optional[np.ndarray], float]:
        """Rasterize a text run.

        Returns ``(coverage, color_override, baseline_offset)`` where
        ``coverage`` is a float mask anchored at the text origin's x and the
        run's top, ``color_override`` is an optional RGB array (emoji carry
        their own colors), and ``baseline_offset`` is the distance from the
        mask's top row to the alphabetic baseline.
        """
        scale = spec.size_px / GLYPH_HEIGHT
        fam = self.family_scale(spec.family)
        cell_h = max(2, int(round(GLYPH_HEIGHT * scale)))
        height = cell_h + 2  # headroom for italic shear

        advances: List[float] = []
        total = 0.0
        for ch in text:
            adv = (self._advance_cells(ch) + 1) * scale * fam
            advances.append(adv)
            total += adv
        width = int(math.ceil(total + self.device.subpixel_phase)) + 2
        if width <= 0 or not text:
            return np.zeros((height, 1)), None, cell_h * _BASELINE_RATIO

        coverage = np.zeros((height, width), dtype=np.float64)
        colors: Optional[np.ndarray] = None

        pen = self.device.subpixel_phase
        for idx, ch in enumerate(text):
            mask, tint = self._glyph_mask(ch, spec, cell_h)
            gx = int(round(pen))
            gh, gw = mask.shape
            x1 = min(width, gx + gw)
            y1 = min(height, gh)
            if x1 > gx:
                region = coverage[0:y1, gx:x1]
                np.maximum(region, mask[0:y1, 0 : x1 - gx], out=region)
                if tint is not None:
                    if colors is None:
                        colors = np.zeros((height, width, 3), dtype=np.float64)
                    sub = colors[0:y1, gx:x1]
                    on = mask[0:y1, 0 : x1 - gx] > 0
                    sub[on] = tint
            pen += advances[idx]

        self._perturb(coverage, text, spec)
        return coverage, colors, cell_h * _BASELINE_RATIO

    def baseline_shift(self, baseline: str, spec: FontSpec) -> float:
        """Offset from the user-supplied y to the alphabetic baseline."""
        size = spec.size_px
        if baseline == "top":
            return size * _BASELINE_RATIO
        if baseline == "hanging":
            return size * (_BASELINE_RATIO - 0.1)
        if baseline == "middle":
            return size * _BASELINE_RATIO / 2.0
        if baseline in ("bottom", "ideographic"):
            return -size * (1.0 - _BASELINE_RATIO)
        return 0.0  # alphabetic

    # -- glyph machinery -------------------------------------------------------------

    def _glyph_mask(
        self, ch: str, spec: FontSpec, cell_h: int
    ) -> Tuple[np.ndarray, Optional[Tuple[int, int, int]]]:
        caching = perf.config().enabled
        key = (self.device, ch, spec.key, cell_h)
        if caching:
            cached = _GLYPH_ATLAS.get(key)
            if cached is not None:
                mask, tint = cached
                return mask, tint
        started = time.perf_counter()

        rows = GLYPHS.get(ch)
        if rows is None:
            mask, tint = self._fallback_glyph(ch, cell_h)
        else:
            bitmap = np.array([[c != " " for c in row] for row in rows], dtype=np.float64)
            if spec.bold:
                shifted = np.zeros_like(bitmap)
                shifted[:, 1:] = bitmap[:, :-1]
                bitmap = np.maximum(bitmap, shifted)
            mask = _resize_area(bitmap, cell_h, max(1, int(round(bitmap.shape[1] * cell_h / GLYPH_HEIGHT))))
            mask = _smooth(mask)
            if spec.italic:
                mask = _shear(mask)
            tint = None

        if caching:
            _GLYPH_ATLAS.put(key, (mask, tint), mask.nbytes, seconds=time.perf_counter() - started)
        return mask, tint

    def _fallback_glyph(self, ch: str, cell_h: int) -> Tuple[np.ndarray, Optional[Tuple[int, int, int]]]:
        """Unknown codepoints: emoji-style tinted box, or hollow box for Latin-ish."""
        code = ord(ch)
        w = max(2, int(round(cell_h * 0.8)))
        mask = np.zeros((cell_h, w), dtype=np.float64)
        if code > 0x2000:
            # Color-emoji analogue: filled rounded box, device-tinted, with a
            # codepoint-dependent notch pattern so distinct emoji render
            # distinctly.
            mask[1:-1, 1:-1] = 1.0
            notch = self.device.hash32("notch", code) % max(1, w - 2)
            mask[1 + (code % max(1, cell_h - 2)), 1 + notch] = 0.0
            return mask, self.device.emoji_color(code)
        # Hollow "tofu" box with a codepoint-dependent interior pattern:
        # distinct unknown characters must stay distinguishable (a string of
        # Cyrillic text still carries per-character shape information).
        mask[1, 1:-1] = 1.0
        mask[-2, 1:-1] = 1.0
        mask[1:-1, 1] = 1.0
        mask[1:-1, -2] = 1.0
        inner_h, inner_w = max(1, cell_h - 4), max(1, w - 4)
        bits = code * 0x9E3779B1 & 0xFFFFFFFF
        for row in range(inner_h):
            for col in range(inner_w):
                if (bits >> ((row * inner_w + col) % 31)) & 1:
                    mask[2 + row, 2 + col] = 1.0
        return mask, None

    def _perturb(self, coverage: np.ndarray, text: str, spec: FontSpec) -> None:
        edge = (coverage > 0.0) & (coverage < 1.0)
        if not edge.any():
            return
        ys, xs = np.nonzero(edge)
        quanta = np.rint(coverage[ys, xs] * 64).astype(np.int64)
        tag = self.device.hash32("text", spec.key) & 0x7FFFFFFF
        noise = self.device.edge_noise_array(tag, xs, ys, quanta)
        coverage[ys, xs] = np.clip(coverage[ys, xs] + noise, 0.0, 1.0)


def _resize_area(bitmap: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Area-average resize of a binary bitmap — produces fractional edges."""
    in_h, in_w = bitmap.shape
    ss = 3
    yy = (np.arange(out_h * ss) + 0.5) * in_h / (out_h * ss)
    xx = (np.arange(out_w * ss) + 0.5) * in_w / (out_w * ss)
    yi = np.clip(yy.astype(int), 0, in_h - 1)
    xi = np.clip(xx.astype(int), 0, in_w - 1)
    up = bitmap[np.ix_(yi, xi)]
    return up.reshape(out_h, ss, out_w, ss).mean(axis=(1, 3))


def _smooth(mask: np.ndarray) -> np.ndarray:
    """Light separable blur modelling font smoothing.

    Guarantees fractional coverage at glyph edges even at integer scale
    factors — without it there would be no anti-aliased pixels for the
    device profile to perturb, and canvas fingerprints would not vary
    across machines for integer font sizes.
    """
    h, w = mask.shape
    out = np.pad(mask, 1, mode="constant")
    out = out[:-2, :] * 0.12 + out[1:-1, :] * 0.76 + out[2:, :] * 0.12
    out = out[:, :-2] * 0.12 + out[:, 1:-1] * 0.76 + out[:, 2:] * 0.12
    assert out.shape == (h, w)
    return np.clip(out, 0.0, 1.0)


def _shear(mask: np.ndarray) -> np.ndarray:
    """Cheap italic: shift rows right proportionally to height."""
    h, w = mask.shape
    max_shift = max(1, h // 6)
    out = np.zeros((h, w + max_shift), dtype=mask.dtype)
    for row in range(h):
        shift = int(round(max_shift * (1.0 - row / max(1, h - 1))))
        out[row, shift : shift + w] = mask[row]
    return out
