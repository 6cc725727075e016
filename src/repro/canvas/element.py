"""HTMLCanvasElement: dimensions, context acquisition, and extraction.

``toDataURL`` is the choke point the paper's methodology instruments — it is
where a generated canvas becomes an exfiltratable string.  The element also
hosts the ``extraction_filter`` hook browsers use to implement canvas
randomization defenses (§5.3): the filter sees the pixels on every read-out
and may add noise.  Without a filter, a canvas whose content is a render
the render cache can name reads out under that name, and its pixels are
rounded only if the encode memo misses.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import perf
from repro.canvas.context2d import CanvasRenderingContext2D
from repro.canvas.device import DeviceProfile, INTEL_UBUNTU
from repro.canvas.encode import (
    RenderedPixels,
    data_url,
    jpeg_like_encode,
    png_encode,
    webp_like_encode,
)
from repro.canvas.surface import MAX_DIMENSION, Surface

__all__ = ["HTMLCanvasElement"]

DEFAULT_WIDTH = 300
DEFAULT_HEIGHT = 150

#: Readout filter signature: receives an (H, W, 4) uint8 copy, returns same.
ExtractionFilter = Callable[[np.ndarray], np.ndarray]


class HTMLCanvasElement:
    """A canvas element with a software raster backend."""

    tag_name = "canvas"

    def __init__(
        self,
        width: int = DEFAULT_WIDTH,
        height: int = DEFAULT_HEIGHT,
        device: DeviceProfile = INTEL_UBUNTU,
    ) -> None:
        self.device = device
        self.surface = Surface(width, height)
        self._context: Optional[CanvasRenderingContext2D] = None
        #: Privacy-defense hook applied on every pixel read-out.
        self.extraction_filter: Optional[ExtractionFilter] = None

    # -- dimensions (assignment resets the surface, per spec) ---------------------------

    @property
    def width(self) -> int:
        return self.surface.width

    @width.setter
    def width(self, value: int) -> None:
        value = _coerce_dimension(value, DEFAULT_WIDTH)
        self.surface = Surface(value, self.surface.height)
        self._rebind_context()

    @property
    def height(self) -> int:
        return self.surface.height

    @height.setter
    def height(self, value: int) -> None:
        value = _coerce_dimension(value, DEFAULT_HEIGHT)
        self.surface = Surface(self.surface.width, value)
        self._rebind_context()

    def _rebind_context(self) -> None:
        if self._context is not None:
            # Resetting a canvas dimension also resets context state, per spec.
            self._context = CanvasRenderingContext2D(self, self.device)

    # -- context -------------------------------------------------------------------------

    def getContext(self, context_type: str):
        """Return the 2D context, or None for unsupported context types."""
        if context_type != "2d":
            return None
        if self._context is None:
            self._context = CanvasRenderingContext2D(self, self.device)
        return self._context

    def close(self) -> None:
        """Detach the 2D context, which points back at this element.

        Called once the page is done; the canvas is never drawn or read
        after, so its surface and paths die by reference count.
        """
        self._context = None

    # -- extraction -----------------------------------------------------------------------

    def read_pixels(self) -> np.ndarray:
        """Snapshot pixels through the privacy filter (if installed).

        Materializes deferred draw ops first (the render-cache flush point),
        then applies the privacy filter — randomization defenses act on the
        rendered pixels, so caching below this line cannot mask them.
        """
        if self._context is not None:
            self._context.flush()
        pixels = self.surface.to_uint8()
        if self.extraction_filter is not None:
            pixels = self.extraction_filter(pixels)
        return pixels

    def _content_identity(self) -> object:
        """The render cache's name for this canvas's content, or None.

        None when the readout must see the pixels: an extraction filter may
        change them on every readout, and with the caches disabled nothing
        is named.  A canvas with no context is blank.
        """
        if self.extraction_filter is not None or not perf.config().enabled:
            return None
        if self._context is None:
            return "blank"
        return self._context.content_identity()

    def toDataURL(self, mime_type: str = "image/png", quality: Optional[float] = None) -> str:
        """Serialize the canvas to a data URL.

        Unknown MIME types fall back to PNG, matching browser behavior.
        """
        identity = self._content_identity()
        if identity is None:
            pixels = self.read_pixels()
        else:
            pixels = RenderedPixels(identity, self.surface)
        mime = (mime_type or "image/png").lower()
        if mime == "image/jpeg":
            return data_url(mime, jpeg_like_encode(pixels, 0.92 if quality is None else quality))
        if mime == "image/webp":
            return data_url(mime, webp_like_encode(pixels, 0.8 if quality is None else quality))
        return data_url("image/png", png_encode(pixels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<canvas {self.width}x{self.height} on {self.device.name}>"


def _coerce_dimension(value, default: int) -> int:
    """HTML dimension coercion: non-positive/invalid values use the default."""
    try:
        ivalue = int(value)
    except (TypeError, ValueError):
        return default
    if ivalue <= 0:
        return default
    return min(ivalue, MAX_DIMENSION)  # cap, like browsers' max canvas size
