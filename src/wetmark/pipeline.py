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

from . import flippability, prng, wpc
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
    n_flippable: int           # N_FP over used areas
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

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class EmbedPlan:
    permutation: np.ndarray = field(repr=False)
    n_areas: int
    leftover_pixels: int
    mask: FlippabilityMask


def _check_geometry(img: BinaryImage) -> int:
    n_pixels = img.width * img.height
    if n_pixels < AREA_SIZE or img.width < 3 or img.height < 3:
        raise ImageTooSmallError(
            f"{img.width}x{img.height}: need at least {AREA_SIZE} pixels "
            "and 3x3 geometry")
    return n_pixels


def plan(img: BinaryImage, key: StegoKey) -> EmbedPlan:
    n_pixels = _check_geometry(img)
    perm = prng.permutation(key, n_pixels)
    n_areas = n_pixels // AREA_SIZE
    mask = flippability.compute_mask(img)
    return EmbedPlan(perm, n_areas, n_pixels - n_areas * AREA_SIZE, mask)


def _area_inputs(img: BinaryImage, key: StegoKey, p: EmbedPlan):
    """Pixel indices of every area (one row each), codecs, covers, masks."""
    idx = p.permutation[:p.n_areas * AREA_SIZE].reshape(p.n_areas, AREA_SIZE)
    flippable = p.mask.as_bool()[idx]
    codecs = [AreaCodec(key, a) for a in range(p.n_areas)]
    return (idx, codecs, wpc.pack_bits(img.bits[idx]),
            [np.flatnonzero(row) for row in flippable])


def embed(img: BinaryImage, key: StegoKey,
          message: np.ndarray) -> tuple[BinaryImage, EmbedReport]:
    """Embed ``message`` (uint8 bit array) and return (stego, report)."""
    message = wpc.message_bits(message)
    p = plan(img, key)
    idx, *inputs = _area_inputs(img, key, p)
    plans = wpc.plan_message(*inputs, len(message))
    embedded = sum(int(q_p.sum()) for _, q_p in plans)
    if embedded < len(message):
        raise MessageTooLongError(
            f"capacity exhausted after {embedded} of {len(message)} bits")
    out_bits = img.bits.copy()
    records = []
    pos = 0
    for areas, q_p in plans:
        flips = areas.embed(message[pos:], q_p)
        pos += int(q_p.sum())
        for codec, k, q, at in zip(areas.codecs, areas.k, q_p, flips):
            out_bits[idx[codec.area_index, at]] ^= 1
            records.append(AreaRecord(codec.area_index, int(k), int(q), len(at)))
    report = EmbedReport(p.n_areas, sum(r.k for r in records), embedded,
                         p.leftover_pixels, tuple(records))
    return BinaryImage(img.width, img.height, out_bits), report


def extract(img: BinaryImage, key: StegoKey) -> np.ndarray:
    """Blindly extract the embedded bit sequence using only the key."""
    n_pixels = _check_geometry(img)
    perm = prng.permutation(key, n_pixels)
    n_areas = n_pixels // AREA_SIZE
    words = wpc.pack_bits(img.bits[perm[:n_areas * AREA_SIZE]]
                          .reshape(n_areas, AREA_SIZE))
    chunks = [wpc.extract_area(words[a], AreaCodec(key, a))
              for a in range(n_areas)]
    return np.concatenate(chunks)


def capacity(img: BinaryImage, key: StegoKey) -> EmbedReport:
    """Capacity accounting without modifying any pixel."""
    p = plan(img, key)
    areas = wpc.AreaBatch(*_area_inputs(img, key, p)[1:])
    records = tuple(AreaRecord(a, int(areas.k[a]), int(areas.room[a]), 0)
                    for a in range(p.n_areas))
    return EmbedReport(p.n_areas, int(areas.k.sum()), int(areas.room.sum()),
                       p.leftover_pixels, records)
