"""Image encoding for ``toDataURL``.

* :func:`png_encode` writes real, spec-conformant RGBA PNGs (8-bit,
  color type 6, filter 0) so extractions are lossless — the property
  fingerprinting depends on and that our detection heuristics key off.
* :func:`png_decode` reads them back (all five filter types), used by
  ``putImageData``-style tests and analysis tooling.
* :func:`jpeg_like_encode` / :func:`webp_like_encode` are deterministic
  *lossy* codecs: block-quantizers that destroy the sub-pixel differences
  fingerprinting needs, exactly why the paper's heuristics exclude
  ``image/jpeg`` and ``image/webp`` extractions.  (They are not bitwise
  JPEG/WebP — the study only needs their information loss and MIME type.)
* The encoders take a ``uint8`` array or a canvas's :class:`RenderedPixels`,
  a readout named by the render that produced it.
"""

from __future__ import annotations

import base64
import hashlib
import struct
import time
import zlib
from typing import Callable, Hashable, Tuple, Union

import numpy as np

from repro import perf

__all__ = [
    "RenderedPixels",
    "png_encode",
    "png_decode",
    "jpeg_like_encode",
    "webp_like_encode",
    "data_url",
    "parse_data_url",
    "PNGError",
]

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class PNGError(ValueError):
    """Raised when decoding an invalid PNG stream."""


class RenderedPixels:
    """A canvas readout named by the render that produced it.

    ``identity`` determines the ``uint8`` pixels exactly: the render
    cache's digest of a flushed render key, or ``"blank"`` for a canvas
    nothing was drawn on.  The encode memo keys by it instead of hashing
    the pixels, and :meth:`array` rounds the raster only when an encode
    misses.  It reads its surface when encoded, so encode it at once.
    """

    __slots__ = ("identity", "shape", "_surface")

    def __init__(self, identity: Hashable, surface) -> None:
        self.identity = identity
        self.shape = (surface.height, surface.width, 4)
        self._surface = surface

    def array(self) -> np.ndarray:
        return self._surface.to_uint8()


Pixels = Union[np.ndarray, RenderedPixels]

#: Encode memoization: ``toDataURL`` output keyed by (codec, quality, pixel
#: digest or render identity).  The render-twice consistency check doubles
#: every extraction and identical canvases repeat across sites, so encodes
#: repeat verbatim; zlib/quantization is pure in the pixel bytes, making
#: either key exact.
_ENCODE_CACHE = perf.ByteBudgetLRU("encode", 64 * perf.MB)


def _memoized_encode(
    codec: str, params: Tuple, pixels: Pixels, encode: Callable[[np.ndarray], bytes]
) -> bytes:
    rendered = isinstance(pixels, RenderedPixels)
    if not perf.config().enabled:
        return encode(pixels.array() if rendered else pixels)
    if rendered:
        key = (codec, params, pixels.shape, "render", pixels.identity)
    else:
        digest = hashlib.blake2b(np.ascontiguousarray(pixels).tobytes(), digest_size=16).digest()
        key = (codec, params, pixels.shape, digest)
    cached = _ENCODE_CACHE.get(key)
    if cached is not None:
        return cached
    started = time.perf_counter()
    data = encode(pixels.array() if rendered else pixels)
    _ENCODE_CACHE.put(key, data, len(data), seconds=time.perf_counter() - started)
    return data


def _check_rgba(pixels: Pixels) -> None:
    if len(pixels.shape) != 3 or pixels.shape[2] != 4:
        raise ValueError(f"expected (H, W, 4) RGBA array, got shape {pixels.shape}")


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(pixels: Pixels) -> bytes:
    """Encode ``(H, W, 4)`` RGBA pixels as a PNG byte string.

    An array of another dtype than ``uint8`` is clipped to it.
    """
    _check_rgba(pixels)
    if isinstance(pixels, np.ndarray) and pixels.dtype != np.uint8:
        pixels = np.clip(pixels, 0, 255).astype(np.uint8)
    return _memoized_encode("png", (), pixels, _png_encode_uncached)


def _png_encode_uncached(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape[:2]
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 6, 0, 0, 0)
    # Filter type 0 (None) per scanline.
    raw = np.empty((height, 1 + width * 4), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = pixels.reshape(height, width * 4)
    idat = zlib.compress(raw.tobytes(), level=6)

    return _PNG_SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_decode(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGBA PNG into an ``(H, W, 4)`` uint8 array."""
    if not data.startswith(_PNG_SIGNATURE):
        raise PNGError("bad PNG signature")
    pos = len(_PNG_SIGNATURE)
    width = height = None
    idat = b""
    while pos < len(data):
        if pos + 8 > len(data):
            raise PNGError("truncated chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if crc != (zlib.crc32(tag + payload) & 0xFFFFFFFF):
            raise PNGError(
                f"bad CRC in {tag!r} chunk at offset {pos} "
                f"(expected {zlib.crc32(tag + payload) & 0xFFFFFFFF:#010x}, found {crc:#010x})"
            )
        if tag == b"IHDR":
            width, height, depth, ctype, _comp, _filt, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or ctype != 6 or interlace != 0:
                raise PNGError("only 8-bit non-interlaced RGBA supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    if width is None or height is None:
        raise PNGError("missing IHDR")

    raw = zlib.decompress(idat)
    stride = width * 4
    if len(raw) != height * (stride + 1):
        raise PNGError("bad IDAT length")

    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row in range(height):
        offset = row * (stride + 1)
        ftype = raw[offset]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=offset + 1).copy()
        out[row] = _unfilter(ftype, line, prev)
        prev = out[row]
    return out.reshape(height, width, 4)


def _unfilter(ftype: int, line: np.ndarray, prev: np.ndarray) -> np.ndarray:
    bpp = 4
    if ftype == 0:
        return line
    if ftype == 2:  # Up
        return (line.astype(np.uint16) + prev).astype(np.uint8)
    out = np.zeros_like(line)
    if ftype == 1:  # Sub
        for i in range(len(line)):
            left = out[i - bpp] if i >= bpp else 0
            out[i] = (int(line[i]) + int(left)) & 0xFF
        return out
    if ftype == 3:  # Average
        for i in range(len(line)):
            left = out[i - bpp] if i >= bpp else 0
            out[i] = (int(line[i]) + (int(left) + int(prev[i])) // 2) & 0xFF
        return out
    if ftype == 4:  # Paeth
        for i in range(len(line)):
            left = int(out[i - bpp]) if i >= bpp else 0
            up = int(prev[i])
            ul = int(prev[i - bpp]) if i >= bpp else 0
            p = left + up - ul
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
            if pa <= pb and pa <= pc:
                pred = left
            elif pb <= pc:
                pred = up
            else:
                pred = ul
            out[i] = (int(line[i]) + pred) & 0xFF
        return out
    raise PNGError(f"unknown filter type {ftype}")


def jpeg_like_encode(pixels: Pixels, quality: float = 0.92) -> bytes:
    """Deterministic lossy encoding standing in for JPEG.

    Quantizes 2x2 blocks and coarsens channel values; the quantization step
    grows as ``quality`` drops.  Information below the quantization floor —
    including device AA noise — is destroyed.
    """
    return _lossy_encode(pixels, quality, magic=b"RPRJPG1\x00", drop_alpha=True)


def webp_like_encode(pixels: Pixels, quality: float = 0.8) -> bytes:
    """Deterministic lossy encoding standing in for (lossy) WebP."""
    return _lossy_encode(pixels, quality, magic=b"RPRWEBP\x00", drop_alpha=False)


def _lossy_encode(pixels: Pixels, quality: float, magic: bytes, drop_alpha: bool) -> bytes:
    _check_rgba(pixels)
    quality = min(max(float(quality), 0.0), 1.0)
    return _memoized_encode(
        "lossy",
        (magic, quality, drop_alpha),
        pixels,
        lambda array: _lossy_encode_uncached(array, quality, magic, drop_alpha),
    )


def _lossy_encode_uncached(pixels: np.ndarray, quality: float, magic: bytes, drop_alpha: bool) -> bytes:
    step = max(4, int(round((1.0 - quality) * 48)) + 4)
    height, width = pixels.shape[:2]

    work = pixels.astype(np.float64)
    if drop_alpha:
        # JPEG has no alpha channel: composite onto white.
        alpha = work[..., 3:4] / 255.0
        work = work[..., :3] * alpha + 255.0 * (1.0 - alpha)
    else:
        work = work[..., :4]

    quantized = _blur_block_quantize(work, step)

    payload = zlib.compress(quantized.tobytes(), level=6)
    header = magic + struct.pack(">IIBB", width, height, step, quantized.shape[2])
    return header + payload


def lossy_quantized_planes(pixels: np.ndarray, quality: float = 0.92) -> np.ndarray:
    """The quantized block planes the lossy codecs serialize.

    Exposed for analysis/tests: comparing two canvases' planes shows how
    much signal survives lossy extraction (sub-pixel device noise mostly
    does not — hence the paper's detection heuristics drop JPEG/WebP).
    """
    quality = min(max(float(quality), 0.0), 1.0)
    step = max(4, int(round((1.0 - quality) * 48)) + 4)
    return _blur_block_quantize(pixels.astype(np.float64)[..., :3], step)


def _blur_block_quantize(work: np.ndarray, step: int) -> np.ndarray:
    """Low-pass (3x3 box) then 2x2 block-average then quantize.

    The blur models the high-frequency attenuation of DCT quantization: it is
    what makes the lossy path robustly insensitive to single-pixel AA noise.
    """
    height, width = work.shape[:2]
    padded = np.pad(work, ((1, 1), (1, 1), (0, 0)), mode="edge")
    blurred = np.zeros_like(work)
    for dy in range(3):
        for dx in range(3):
            blurred += padded[dy : dy + height, dx : dx + width]
    blurred /= 9.0
    if height % 2 or width % 2:
        blurred = np.pad(blurred, ((0, height % 2), (0, width % 2), (0, 0)), mode="edge")
    blocks = blurred.reshape(blurred.shape[0] // 2, 2, blurred.shape[1] // 2, 2, blurred.shape[2]).mean(
        axis=(1, 3)
    )
    return np.rint(blocks / step).astype(np.int16)


def data_url(mime: str, data: bytes) -> str:
    """Serialize bytes as a ``data:`` URL."""
    return f"data:{mime};base64," + base64.b64encode(data).decode("ascii")


def parse_data_url(url: str) -> Tuple[str, bytes]:
    """Split a base64 ``data:`` URL into (mime, bytes)."""
    if not url.startswith("data:"):
        raise ValueError("not a data URL")
    head, _, b64 = url.partition(",")
    mime = head[len("data:"):].split(";")[0] or "text/plain"
    return mime, base64.b64decode(b64)
