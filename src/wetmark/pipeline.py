"""Whole-image embedding and extraction.

The flippability mask is computed once on the cover, the pixel indices
are shuffled with the keyed permutation, and consecutive blocks of 4096
shuffled positions form independent areas. The message spills greedily
from area to area; areas reached after the message is exhausted still
carry a zero-length header so the blind decoder reads every area
safely. Pixels beyond the last full area are never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import flippability, wpc
from .bitmap import BinaryImage
from .flippability import FlippabilityMask
from .prng import StegoKey
from .wpc import AREA_SIZE, AreaCodec


class ImageTooSmallError(ValueError):
    """Image has fewer pixels than one area (or is under 3x3)."""


class MessageTooLongError(ValueError):
    """Message exceeds the image's embedding capacity."""


@dataclass(frozen=True)
class AreaRecord:
    area: int
    k: int          # flippable pixels in the area
    q_p: int        # payload bits embedded
    flips: int

    def to_dict(self) -> dict:
        return {"area": self.area, "k": self.k, "q_p": self.q_p,
                "flips": self.flips}


@dataclass(frozen=True)
class EmbedReport:
    """Per-area and total accounting of an embed or capacity run."""

    n_areas: int               # N_A
    n_flippable: int           # N_FP, summed over every area
    n_embedded: int            # N_E, total payload bits
    leftover_pixels: int
    per_area: tuple[AreaRecord, ...]

    def to_dict(self) -> dict:
        return {
            "N_A": self.n_areas,
            "N_FP": self.n_flippable,
            "N_E": self.n_embedded,
            "leftover_pixels": self.leftover_pixels,
            "areas": [a.to_dict() for a in self.per_area],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class EmbedPlan:
    permutation: np.ndarray = field(repr=False)
    n_areas: int
    leftover_pixels: int
    mask: FlippabilityMask


def _shuffle(img: BinaryImage, key: StegoKey) -> tuple[np.ndarray, np.ndarray]:
    """The keyed permutation of the pixels, and its full areas one per row."""
    n_pixels = img.width * img.height
    if n_pixels < AREA_SIZE or img.width < 3 or img.height < 3:
        raise ImageTooSmallError(
            f"{img.width}x{img.height}: need at least {AREA_SIZE} pixels "
            "and 3x3 geometry")
    perm = key.permutation(n_pixels)
    n_areas = n_pixels // AREA_SIZE
    return perm, perm[:n_areas * AREA_SIZE].reshape(n_areas, AREA_SIZE)


def plan(img: BinaryImage, key: StegoKey) -> EmbedPlan:
    perm, areas = _shuffle(img, key)
    return EmbedPlan(perm, len(areas), perm.size - areas.size,
                     flippability.compute_mask(img))


def _plan_areas(img: BinaryImage, key: StegoKey, message=None):
    """Each area's pixel indices (one row each), the leftover pixel count
    and the ``wpc.AreaPlan`` of ``message`` over the areas, or of their
    capacity for None."""
    perm, idx = _shuffle(img, key)
    areas = wpc.AreaPlan(AreaCodec(key), wpc.pack_bits(np.take(img.bits, idx)),
                         np.take(flippability.compute_mask(img).flags, idx),
                         message)
    return idx, perm.size - idx.size, areas


def _report(areas: wpc.AreaPlan, leftover: int, flips) -> EmbedReport:
    records = tuple(map(AreaRecord, areas.area_index.tolist(),
                        areas.k.tolist(), areas.q_p.tolist(), flips))
    return EmbedReport(len(records), int(areas.k.sum()),
                       int(areas.q_p.sum()), leftover, records)


def embed(img: BinaryImage, key: StegoKey,
          message: np.ndarray) -> tuple[BinaryImage, EmbedReport]:
    """Embed ``message`` (uint8 bit array) and return (stego, report)."""
    if np.size(message) > img.width * img.height:  # a payload bit per pixel
        raise MessageTooLongError(f"message has more bits than the "
                                  f"image's {img.width * img.height} pixels")
    message = wpc.message_bits(message)
    idx, leftover, areas = _plan_areas(img, key, message)
    embedded = int(areas.q_p.sum())
    if embedded < len(message):
        raise MessageTooLongError(
            f"capacity exhausted after {embedded} of {len(message)} bits")
    out_bits = img.bits.copy()
    out_bits[idx[areas.flips]] ^= 1
    out_bits.setflags(write=False)
    return (BinaryImage(img.width, img.height, out_bits),
            _report(areas, leftover, areas.flips.sum(axis=1).tolist()))


def extract(img: BinaryImage, key: StegoKey) -> np.ndarray:
    """Blindly extract the embedded bit sequence using only the key."""
    _, idx = _shuffle(img, key)
    return wpc.extract_area(wpc.pack_bits(np.take(img.bits, idx)),
                            AreaCodec(key))


def capacity(img: BinaryImage, key: StegoKey) -> EmbedReport:
    """Capacity accounting without modifying any pixel."""
    _, leftover, areas = _plan_areas(img, key)
    return _report(areas, leftover, [0] * len(areas.k))
