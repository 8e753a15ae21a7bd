"""1-bit raster images with PBM (P1/P4) load/store.

Internally a pixel value of 1 means black and 0 means white, which is
also PBM's convention, so no inversion happens anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

MAX_SIDE = 1 << 16
# Checked before anything of the image's size is allocated: about twice a
# 600 dpi A4 scan. Embed and extract both pay the keyed permutation's peak
# of about 17 B/pixel (tracemalloc, 17.1 at 2**22): about 1.1 GB at this
# cap, and 73 GB at the 2**32 pixels that MAX_SIDE alone admits.
MAX_PIXELS = 1 << 26

# Whitespace is bytes.isspace's: space, \t, \n, \v, \f and \r.
_SPACE = re.compile(rb"[ \t\n\v\f\r]*")
_MAX_TOKEN = 64  # bytes of a width or height token; zero padding included
_TOKEN = re.compile(rb"[^ \t\n\v\f\r#]{0,%d}" % (_MAX_TOKEN + 1))
_COMMENT = re.compile(rb"#[^\r\n]*")

_P1_SPACE = b" \t\n\v\f\r"  # deleted from each chunk of a P1 body
_P1_CHUNK = 1 << 16  # body bytes read at a time


class PbmError(ValueError):
    """Malformed PBM input."""


def _check_size(width: int, height: int, error: type[ValueError]) -> None:
    """Raise ``error`` unless a width x height image is within the caps."""
    if width < 1 or height < 1:
        raise error("non-positive dimensions")
    if width > MAX_SIDE or height > MAX_SIDE:
        raise error(f"dimensions exceed {MAX_SIDE}")
    if width * height > MAX_PIXELS:
        raise error(f"image exceeds {MAX_PIXELS} pixels")


@dataclass(frozen=True)
class BinaryImage:
    """Immutable 1-bit image; ``bits`` is flat, raster order, uint8 of 0/1."""

    width: int
    height: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_size(self.width, self.height, ValueError)
        bits = np.asarray(self.bits)
        if bits.shape != (self.width * self.height,):
            raise ValueError("bits length must equal width*height")
        # Checked before the cast, which would wrap 256 to 0; max() is
        # exact on uint8 and makes no image-sized temporary.
        if (bits.max() > 1 if bits.dtype == np.uint8
                else not ((bits == 0) | (bits == 1)).all()):
            raise ValueError("bits must be 0 or 1")
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def grid(self) -> np.ndarray:
        """Read-only (height, width) view."""
        return self.bits.reshape(self.height, self.width)

    def __eq__(self, other):
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.bits, other.bits))


def _skip(data: bytes, pos: int) -> int:
    """Offset of the first byte at or after ``pos`` that is neither
    whitespace nor inside a ``#`` comment."""
    pos = _SPACE.match(data, pos).end()
    while data[pos:pos + 1] == b"#":
        pos = _SPACE.match(data, _COMMENT.match(data, pos).end()).end()
    return pos


def _parse_p1(data: bytes, pos: int, width: int, height: int) -> BinaryImage:
    """The P1 body from ``pos``: comments only before the first sample.

    Read a chunk at a time, so temporaries stay small beside the image
    and chunks after the last needed sample are never read. A chunk's
    whitespace is deleted by ``bytes.translate``; what is left is
    samples, of which the first still needed are checked and stored.
    Each chunk is a copy: no array keeps a view of ``data``, which a
    mapped file needs in order to close.
    """
    need = width * height
    bits = np.empty(need, dtype=np.uint8)
    count = 0
    for start in range(_skip(data, pos), len(data), _P1_CHUNK):
        chunk = data[start:start + _P1_CHUNK].translate(None, _P1_SPACE)
        body = np.frombuffer(chunk, dtype=np.uint8)[:need - count]
        got = bits[count:count + body.size]
        np.subtract(body, ord("0"), out=got)  # wraps: any other byte is > 1
        if got.max(initial=0) > 1:
            bad = body[np.argmax(got > 1)]
            raise PbmError(f"invalid P1 sample byte {bad:#x}")
        count += body.size
        if count == need:
            return BinaryImage(width, height, bits)
    raise PbmError("truncated P1 payload")


def parse_pbm(data) -> BinaryImage:
    """Parse a P1 (ASCII) or P4 (binary) PBM from bytes or an mmap.

    Bytes after the last sample the image needs are never read, so a
    memory-mapped file costs only the pages the parser touches.
    """
    if len(data) < 2:
        raise PbmError("truncated header")
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise PbmError(f"unsupported magic {magic!r}")

    tokens, body_off = [], 2  # width and height, read in place
    for _ in range(2):
        start = _skip(data, body_off)
        body_off = _TOKEN.match(data, start).end()
        if body_off == start:
            raise PbmError("missing dimensions")
        if body_off - start > _MAX_TOKEN:
            raise PbmError(f"dimension token longer than {_MAX_TOKEN} bytes")
        tokens.append(data[start:body_off])
    # ASCII digits only: int() alone would take a sign or an underscore
    if not all(token.isdigit() for token in tokens):
        raise PbmError("non-numeric dimensions")
    width, height = map(int, tokens)
    _check_size(width, height, PbmError)

    if magic == b"P1":
        return _parse_p1(data, body_off, width, height)

    # P4: one delimiter byte after the height token, then packed rows. The
    # height token ends at whitespace, at a comment or at the end of the
    # data; a comment's terminating CR/LF is the delimiter.
    if data[body_off:body_off + 1] == b"#":
        body_off = _COMMENT.match(data, body_off).end()
        if body_off == len(data):
            raise PbmError("unterminated comment after P4 dimensions")
    payload_off = body_off + 1
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    payload = data[payload_off:payload_off + need]
    if len(payload) < need:
        raise PbmError("truncated P4 payload")
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    unpacked = np.unpackbits(rows, axis=1)[:, :width]  # MSB-first, pad dropped
    return BinaryImage(width, height, unpacked.reshape(-1).copy())


def serialize_pbm(img: BinaryImage, fmt: str = "P4") -> bytes:
    """Serialize to P1 or P4; parse(serialize(img)) == img.

    P1 writes one text line per image row, its samples separated by
    single spaces.
    """
    fmt = fmt.upper()
    if fmt == "P1":
        text = np.full((img.height, 2 * img.width), ord(" "), dtype=np.uint8)
        np.add(img.grid(), ord("0"), out=text[:, 0::2])
        text[:, -1] = ord("\n")
        return f"P1\n{img.width} {img.height}\n".encode() + text.tobytes()
    if fmt == "P4":
        packed = np.packbits(img.grid(), axis=1)  # MSB-first, zero pad
        header = f"P4\n{img.width} {img.height}\n".encode()
        return header + packed.tobytes()
    raise ValueError(f"unknown format {fmt!r}")


def flip_pixel(img: BinaryImage, index: int) -> BinaryImage:
    """Return a copy with the bit at ``index`` complemented."""
    if not 0 <= index < img.width * img.height:
        raise IndexError(f"pixel index {index} out of range")
    bits = img.bits.copy()
    bits[index] ^= 1
    return BinaryImage(img.width, img.height, bits)
