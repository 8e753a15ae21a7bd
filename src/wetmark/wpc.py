"""Per-area wet paper encoder and blind decoder.

Each area of n pixels carries a header of ceil(log2 n) bits announcing
its payload length, followed by the payload. The keyed matrix D has one
row per message bit; the encoder solves H v = m xor D b over GF(2),
where H is D restricted to the flippable columns, and flips the cover
accordingly. The decoder just computes D b' row by row; it never learns
which pixels were flippable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2, prng
from .prng import StegoKey

AREA_SIZE = 4096


class HeaderCapacityError(RuntimeError):
    """An area cannot host even its length header (rank < header bits)."""


@dataclass(frozen=True)
class AreaCodec:
    key: StegoKey
    area_index: int = 0
    n: int = AREA_SIZE

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("area size must be >= 2")

    @property
    def header_bits(self) -> int:
        return (self.n - 1).bit_length()  # ceil(log2 n)


@dataclass(frozen=True)
class AreaEmbedResult:
    modified_words: np.ndarray = field(repr=False)  # b' packed, len n bits
    payload_bits_embedded: int  # q_p
    q_total: int
    flips_made: int


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack cover bits (uint8 0/1) into uint64 words, LSB-first.

    A 2-D array packs each row on its own.
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    nbytes = packed.shape[-1]
    out = np.zeros(packed.shape[:-1] + (-(-nbytes // 8) * 8,), dtype=np.uint8)
    out[..., :nbytes] = packed
    return out.view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n]


def message_bits(message) -> np.ndarray:
    """``message`` as uint8 bits; anything but a 1-D array of 0/1 raises."""
    bits = np.asarray(message)
    if bits.ndim != 1 or not ((bits == 0) | (bits == 1)).all():
        raise ValueError("message must be a 1-D array of 0/1 bits")
    return bits.astype(np.uint8, copy=False)


def restrict_columns(rows_words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows of D restricted to the given columns, re-packed as words."""
    nrows = len(rows_words)
    if len(cols) == 0:
        return np.zeros((nrows, 1), dtype=np.uint64)
    row_bytes = np.ascontiguousarray(rows_words).view(np.uint8)
    bits = (row_bytes[:, cols >> 3] >> (cols & 7).astype(np.uint8)) & 1
    return pack_bits(bits)


class AreaBatch:
    """Areas planned together, with one elimination for all of them.

    Area i is planned on the first rows[i] rows of its keyed matrix,
    restricted to its flippable columns, and all areas are eliminated in
    one go. Rows 0..hb+q_p-1 of an area are independent exactly when
    hb+q_p <= the prefix found here, so the area carries up to
    ``room[i]`` = prefix - hb payload bits; any message up to that is then
    embedded by solving a leading block of the same eliminated rows. By
    default an area is planned on all the rows it could ever use.
    """

    def __init__(self, codecs: list[AreaCodec], covers, flippables, rows=None):
        self.codecs = codecs
        self.flippables = [np.asarray(f, dtype=np.int64) for f in flippables]
        self.k = np.array([len(f) for f in self.flippables], dtype=np.int64)
        self.header_bits = np.array([c.header_bits for c in codecs],
                                    dtype=np.int64)
        if rows is None:
            rows = np.maximum(self.k, self.header_bits)
        rows = np.asarray(rows, dtype=np.int64)
        self.starts = np.cumsum(rows) - rows
        words = max(1, (int(self.k.max(initial=0)) + 63) // 64)
        h_rows = np.zeros((int(rows.sum()), words), dtype=np.uint64)
        self.syndrome = np.zeros(len(h_rows), dtype=np.uint8)
        for codec, cover, cols, at, q in zip(codecs, covers, self.flippables,
                                             self.starts, rows.tolist()):
            d_words = prng.matrix_words(codec.key, codec.area_index, q, codec.n)
            restricted = restrict_columns(d_words, cols)
            h_rows[at:at + q, :restricted.shape[1]] = restricted
            self.syndrome[at:at + q] = gf2.mat_vec_words(d_words, cover)
        self.echelon = gf2.max_independent_prefix_words(h_rows, rows)
        prefix = self.echelon.prefix
        for i in np.flatnonzero(prefix < self.header_bits)[:1]:
            raise HeaderCapacityError(
                f"area {codecs[i].area_index}: only {prefix[i]} independent "
                f"rows over {self.k[i]} flippable pixels, need "
                f"{self.header_bits[i]} for the header")
        self.room = prefix - self.header_bits

    def allot(self, n_bits: int) -> np.ndarray:
        """Payload bits per area when ``n_bits`` spill from area to area."""
        before = np.cumsum(self.room) - self.room
        return np.clip(n_bits - before, 0, self.room)

    def embed(self, message: np.ndarray, q_p: np.ndarray) -> list[np.ndarray]:
        """Flippable positions to flip so that area i carries q_p[i] bits.

        The areas take consecutive slices of ``message``, each behind its
        length header.
        """
        rhs = self.syndrome.copy()
        pos = 0
        for at, hb, q in zip(self.starts, self.header_bits, q_p.tolist()):
            header = (q >> np.arange(hb - 1, -1, -1)) & 1  # big-endian
            rhs[at:at + hb] ^= header.astype(np.uint8)
            rhs[at + hb:at + hb + q] ^= message[pos:pos + q]
            pos += q
        v, consistent = self.echelon.solve(rhs, self.header_bits + q_p)
        if not consistent.all():
            raise RuntimeError(
                f"area {self.codecs[np.argmin(consistent)].area_index}: "
                "independent rows gave an inconsistent system")
        v_bits = np.unpackbits(v.view(np.uint8), axis=1, bitorder="little")
        return [cols[v_bits[i, :len(cols)] == 1]
                for i, cols in enumerate(self.flippables)]


def plan_message(codecs: list[AreaCodec], covers, flippables,
                 n_bits: int) -> list[tuple[AreaBatch, np.ndarray]]:
    """Plan ``n_bits`` that spill greedily over the areas, in order.

    Returns batches in area order, each with the payload bits its areas
    carry. A batch takes as many areas as would hold the bits still to
    place if none of their rows were dependent, plus one, and plans each
    on no more rows than its header and those bits need. Once all bits
    are placed, a last batch plans the remaining areas for their
    zero-length headers alone. Every area is eliminated exactly once.
    """
    header_bits = np.array([c.header_bits for c in codecs], dtype=np.int64)
    most = np.maximum(0, np.array([len(f) for f in flippables]) - header_bits)
    plans = []
    start, left = 0, n_bits
    while start < len(codecs):
        end = len(codecs)
        if left:
            need = np.searchsorted(np.cumsum(most[start:]), left)
            end = min(end, start + int(need) + 2)
        part = slice(start, end)
        batch = AreaBatch(codecs[part], covers[part], flippables[part],
                          header_bits[part] + np.minimum(most[part], left))
        q_p = batch.allot(left)
        plans.append((batch, q_p))
        left -= int(q_p.sum())
        start = end
    return plans


def embed_area(cover_words: np.ndarray, flippable: np.ndarray,
               codec: AreaCodec, message: np.ndarray) -> tuple[AreaEmbedResult, int]:
    """Embed as much of ``message`` as the area admits.

    Returns the result plus the number of payload bits consumed.
    ``cover_words`` is the area's n cover bits packed; ``flippable``
    holds within-area positions (sorted); ``message`` is the remaining
    bit sequence.
    """
    message = message_bits(message)
    [(area, q_p)] = plan_message([codec], [cover_words], [flippable],
                                 len(message))
    flip_at = area.embed(message, q_p)[0]
    modified = cover_words.copy()
    if len(flip_at):
        delta = np.zeros(codec.n, dtype=np.uint8)
        delta[flip_at] = 1
        modified ^= pack_bits(delta)
    q_p = int(q_p[0])
    return AreaEmbedResult(modified, q_p, codec.header_bits + q_p,
                           len(flip_at)), q_p


def extract_area(received_words: np.ndarray, codec: AreaCodec) -> np.ndarray:
    """Blindly read this area's payload bits from the received vector."""
    hb = codec.header_bits
    head_rows = prng.matrix_words(codec.key, codec.area_index, hb, codec.n)
    head = gf2.mat_vec_words(head_rows, received_words)
    q_p = 0
    for b in head:
        q_p = (q_p << 1) | int(b)
    pay_rows = prng.matrix_words(codec.key, codec.area_index, q_p, codec.n,
                                 first_row=hb)
    return gf2.mat_vec_words(pay_rows, received_words)
