"""Blind watermarking of 1-bit images with wet paper codes over GF(2)."""

from .bitmap import BinaryImage, PbmError, flip_pixel, parse_pbm, serialize_pbm
from .flippability import FlippabilityMask, compute_mask, is_flippable
from .pipeline import (
    EmbedPlan,
    EmbedReport,
    ImageTooSmallError,
    MessageTooLongError,
    capacity,
    embed,
    extract,
    plan,
)
from .prng import StegoKey
from .wpc import AREA_SIZE, AreaCodec, HeaderCapacityError, embed_area, extract_area

__version__ = "0.1.0"

__all__ = [
    "AREA_SIZE",
    "AreaCodec",
    "BinaryImage",
    "EmbedPlan",
    "EmbedReport",
    "FlippabilityMask",
    "HeaderCapacityError",
    "ImageTooSmallError",
    "MessageTooLongError",
    "PbmError",
    "StegoKey",
    "capacity",
    "compute_mask",
    "embed",
    "embed_area",
    "extract",
    "extract_area",
    "flip_pixel",
    "is_flippable",
    "parse_pbm",
    "plan",
    "serialize_pbm",
]
