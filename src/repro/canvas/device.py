"""Device profiles: the source of cross-machine rendering differences.

Canvas fingerprinting works because the same drawing commands produce
slightly different pixels on different GPU / OS / font stacks (anti-aliasing,
sub-pixel smoothing, font hinting).  A :class:`DeviceProfile` models one
machine: it deterministically perturbs anti-aliased edge coverage and font
metrics as a pure function of ``(device seed, drawing context)``, so that

* the same script on the same profile always yields identical bytes
  (fingerprints are stable — §4.2 relies on this), and
* the same script on a different profile yields different bytes
  (the §3.1 Intel-vs-M1 validation relies on this).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["DeviceProfile", "INTEL_UBUNTU", "APPLE_M1", "DEVICE_PROFILES"]


@dataclass(frozen=True)
class DeviceProfile:
    """One rendering stack (GPU + OS + font configuration)."""

    name: str
    seed: int
    #: Strength of anti-aliasing perturbation on edge pixels (0..1 coverage units).
    aa_strength: float = 0.08
    #: Horizontal sub-pixel phase applied to glyph positioning, in pixels.
    subpixel_phase: float = 0.0
    #: Multiplier on glyph advance widths (font metric differences).
    font_advance_scale: float = 1.0
    #: Emoji palettes differ per OS; used when rasterizing non-ASCII glyphs.
    emoji_palette: int = 0

    def hash32(self, *parts: object) -> int:
        """Stable 32-bit hash of the device seed plus arbitrary parts.

        Uses CRC32 so results are identical across processes and Python
        versions (``hash()`` is randomized per process).
        """
        data = repr((self.seed,) + tuple(parts)).encode("utf-8")
        return zlib.crc32(data) & 0xFFFFFFFF

    def edge_noise_array(self, tag: int, xs, ys, quanta) -> "np.ndarray":
        """Vectorized deterministic noise in [-aa, aa] for edge pixels.

        ``xs``/``ys`` are integer pixel coordinates, ``quanta`` an integer
        per-pixel context value (e.g. quantized coverage).  Uses an integer
        mixing function (xorshift-multiply) so results are stable across
        processes and platforms.
        """
        import numpy as np

        h = (
            np.asarray(xs, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ np.asarray(ys, dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            ^ np.asarray(quanta, dtype=np.uint64) * np.uint64(0x165667B19E3779F9)
            ^ np.uint64((self.seed * 0x27D4EB2F165667C5 + tag * 0x85EBCA77) & 0xFFFFFFFFFFFFFFFF)
        )
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        unit = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)  # [0, 1)
        return (unit * 2.0 - 1.0) * self.aa_strength

    def emoji_color(self, codepoint: int) -> Tuple[int, int, int]:
        """Device-dependent emoji tint: emoji fonts differ per OS."""
        h = self.hash32("emoji", self.emoji_palette, codepoint)
        return (64 + (h & 0x7F), 64 + ((h >> 8) & 0x7F), 64 + ((h >> 16) & 0x7F))


#: The crawl machine the paper's main dataset was collected on.
INTEL_UBUNTU = DeviceProfile(
    name="intel-ubuntu-22.04",
    seed=0x1A7E1,
    aa_strength=0.08,
    subpixel_phase=0.0,
    font_advance_scale=1.0,
    emoji_palette=1,
)

#: The validation machine (§3.1 second crawl).
APPLE_M1 = DeviceProfile(
    name="apple-m1",
    seed=0xA991E,
    aa_strength=0.11,
    subpixel_phase=0.33,
    font_advance_scale=1.02,
    emoji_palette=2,
)

DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    INTEL_UBUNTU.name: INTEL_UBUNTU,
    APPLE_M1.name: APPLE_M1,
}


def device_fleet(n: int, seed: int = 0xF1EE7) -> "list[DeviceProfile]":
    """A fleet of ``n`` distinct synthetic devices.

    Used to demonstrate canvas fingerprinting's discriminatory power (§2):
    each profile models a different GPU/OS/font stack, so each renders a
    given test canvas to different bytes.  Profiles are deterministic in
    ``(seed, index)``.
    """
    import random

    fleet = []
    for i in range(n):
        rng = random.Random(f"{seed}:device:{i}")
        fleet.append(
            DeviceProfile(
                name=f"synthetic-device-{i:03d}",
                seed=rng.getrandbits(32),
                aa_strength=0.05 + rng.random() * 0.10,
                subpixel_phase=rng.random() * 0.5,
                font_advance_scale=0.97 + rng.random() * 0.06,
                emoji_palette=rng.randrange(8),
            )
        )
    return fleet
