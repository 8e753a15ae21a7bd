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
# The keyed rows of consecutive areas are made one group per keystream
# call: as many areas as fit in this many stream words (256 KB), at least one.
HEADER_GROUP_WORDS = 1 << 15
# A stack of areas is eliminated, solved and dropped at once: as many as
# fit their restricted rows in this many words (4 MB), at least one. Not
# HEADER_GROUP_WORDS, since no shared bound measured as well: 2^19 raised
# the desk benchmark's peak RSS 11 %, 2^18 or less slowed dense covers at
# capacity 13-33 %, and one grown with the image split paper-scale stacks.
STACK_WORDS = 1 << 19


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
    """The first ``n`` bits of packed words, LSB-first; a 2-D array row by row."""
    row_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(row_bytes, axis=-1, bitorder="little")[..., :n]


def message_bits(message) -> np.ndarray:
    """``message`` as uint8 bits; anything but a 1-D array of 0/1 raises."""
    bits = np.asarray(message)
    if bits.ndim != 1 or not ((bits == 0) | (bits == 1)).all():
        raise ValueError("message must be a 1-D array of 0/1 bits")
    return bits.astype(np.uint8, copy=False)


def _check_width(words, n: int) -> None:
    """Refuse packed vectors that are not ceil(n/64) words wide."""
    if np.shape(words)[-1:] != ((n + 63) // 64,):
        raise ValueError(f"an area of {n} bits packs into {(n + 63) // 64} "
                         f"words, got shape {np.shape(words)}")


def restrict_columns(rows_words: np.ndarray, flippable: np.ndarray) -> np.ndarray:
    """Rows of D restricted to the columns ``flippable`` marks, re-packed."""
    bits = unpack_bits(rows_words, len(flippable))
    return pack_bits(np.compress(flippable, bits, axis=1))


class AreaPlan:
    """The greedy spill of ``message`` over the areas in order, or with
    no message the capacity of each area.

    Row i of ``flippable`` marks the k[i] flippable pixels of area i.
    Area i can carry up to ``prefix - hb`` payload bits, where prefix is
    the longest run of independent leading rows of its keyed matrix
    restricted to those columns. It carries ``q_p[i]`` of them, the next
    bits of ``message``, by flipping the pixels ``flips`` marks (None for
    capacity; laid out like ``flippable``).

    One loop plans, eliminates and solves stacks of consecutive areas,
    each one ``gf2`` block stack: block i holds the rows planned for area
    i, restricted to its flippable columns, then zero rows, and so does
    its syndrome. Each stack is planned at its start from the bits still
    to place: each of its areas gets its header rows plus one row per
    bit, up to all the rows it could use (for capacity, all of them).
    While bits remain, a stack takes no more areas than would hold them
    if none of their rows were dependent, plus one. A stack also ends
    before it passes ``STACK_WORDS`` of restricted rows, and is dropped
    once solved. An area's rows 0..hb+q-1 eliminate as they would alone,
    and it gets at least hb+q rows, so no output depends on where the
    stacks end.

    A stack's keyed rows are made with one keystream call and one mat-vec
    per group of as many areas as fit ``HEADER_GROUP_WORDS`` stream words
    at the stack's tallest planned rows; rows past an area's planned count
    stay out of its block and syndrome. The areas share the key and size
    of ``codec``, the first area's, and take the area indices after it.
    """

    def __init__(self, codec: AreaCodec, covers, flippable, message=None):
        self.codec = codec
        covers = np.asarray(covers)
        self.flippable = np.asarray(flippable, dtype=bool)
        self.k = self.flippable.sum(axis=1)
        self.area_index = codec.area_index + np.arange(len(self.k))
        self.q_p = np.zeros(len(self.k), dtype=np.int64)
        self.flips = None if message is None else np.zeros_like(self.flippable)
        most = np.maximum(0, self.k - codec.header_bits)
        # for capacity, one bit more than the areas could hold
        left = int(most.sum()) + 1 if message is None else len(message)
        words = np.maximum(1, (self.k + 63) // 64)
        start = 0
        while start < len(self.k):
            rows = codec.header_bits + np.minimum(most[start:], left)
            if left:
                need = np.searchsorted(np.cumsum(most[start:]), left)
                rows = rows[:need + 2]
            # the most areas whose restricted rows fit STACK_WORDS words
            size = (np.arange(1, len(rows) + 1) * np.maximum.accumulate(rows)
                    * np.maximum.accumulate(words[start:start + len(rows)]))
            end = start + max(1, np.searchsorted(size, STACK_WORDS, "right"))
            left -= self._stack(slice(start, end), covers[start:end],
                                rows[:end - start], left, message)
            start = end

    def _stack(self, part: slice, covers, rows, left: int, message) -> int:
        """Eliminate rows[i] rows of each area of ``part``, set q_p from the
        ``left`` bits to place and solve for ``message``; returns sum(q_p)."""
        words = max(1, (int(self.k[part].max(initial=0)) + 63) // 64)
        h_rows = np.zeros((len(rows), rows.max(), words), dtype=np.uint64)
        rhs = np.zeros(h_rows.shape[:2], dtype=np.uint8)  # the syndrome first
        hb, key, n = self.codec.header_bits, self.codec.key, self.codec.n
        row_words = (n + 63) // 64
        areas, wet = self.area_index[part], self.flippable[part]
        group = max(1, HEADER_GROUP_WORDS // (row_words * h_rows.shape[1]))
        for start in range(0, len(rows), group):
            g = slice(start, start + group)
            height = int(rows[g].max())
            d_words = prng.matrix_words(key, areas[g], height, n)
            d_words = d_words.reshape(-1, height, row_words)
            syndromes = gf2.mat_vec_words(d_words, covers[g, None])
            for i, (d, syndrome) in enumerate(zip(d_words, syndromes), start):
                restricted = restrict_columns(d[:rows[i]], wet[i])
                h_rows[i, :rows[i], :restricted.shape[1]] = restricted
                rhs[i, :rows[i]] = syndrome[:rows[i]]
        echelon = gf2.Echelon(h_rows.reshape(-1, words), len(rows))
        room = echelon.prefix - hb
        for i in np.flatnonzero(room < 0)[:1]:
            raise HeaderCapacityError(
                f"area {areas[i]}: only {room[i] + hb} independent rows over "
                f"{self.k[part][i]} flippable pixels, need {hb} for the "
                f"header; {np.sum(room < 0)} of the {part.stop} areas "
                "eliminated so far lack room for it")
        q_p = self.q_p[part] = np.clip(left - np.cumsum(room) + room, 0, room)
        if message is None:
            return int(q_p.sum())
        header = (q_p[:, None] >> np.arange(hb - 1, -1, -1)) & 1  # big-endian
        rhs[:, :hb] ^= header.astype(np.uint8)
        # payload bit j of area i goes to row hb + j of its block
        row = np.arange(rhs.shape[1])
        bits = message[len(message) - left:][:q_p.sum()]  # after those sent
        rhs[(hb <= row) & (row < hb + q_p[:, None])] ^= bits
        v, consistent = echelon.solve(rhs.reshape(-1), hb + q_p)
        if not consistent.all():
            raise RuntimeError(f"area {areas[np.argmin(consistent)]}: "
                               "independent rows gave an inconsistent system")
        v_bits = unpack_bits(v, int(self.k[part].max()))
        inside = np.arange(v_bits.shape[1]) < self.k[part][:, None]
        self.flips[part][wet] = v_bits[inside]
        return int(q_p.sum())


def embed_area(cover_words: np.ndarray, flippable: np.ndarray,
               codec: AreaCodec, message: np.ndarray) -> tuple[AreaEmbedResult, int]:
    """Embed as much of ``message`` as the area admits.

    Returns the result plus the number of payload bits consumed.
    ``cover_words`` is the area's n cover bits packed; ``flippable``
    holds within-area positions, 0 .. n-1; ``message`` is the remaining
    bit sequence.
    """
    message = message_bits(message)
    _check_width(cover_words, codec.n)
    positions = np.asarray(flippable)
    if ((positions < 0) | (positions >= codec.n)).any():
        raise ValueError("flippable positions must lie in 0 .. n-1")
    wet = np.zeros((1, codec.n), dtype=bool)
    wet[0, flippable] = True
    area = AreaPlan(codec, [cover_words], wet, message)
    flips, q_p = area.flips[0], int(area.q_p[0])
    return AreaEmbedResult(cover_words ^ pack_bits(flips), q_p,
                           codec.header_bits + q_p, int(flips.sum())), q_p


def extract_area(received_words: np.ndarray, codec: AreaCodec) -> np.ndarray:
    """Blindly read the payload bits of one area, or of consecutive areas
    in order: ``received_words`` is one area's packed received vector, or
    one per row, row i that of area ``codec.area_index + i``.

    The areas share the key and size of ``codec``. Their header rows come
    from one keystream call per group of areas, bounded to
    ``HEADER_GROUP_WORDS`` stream words, and are multiplied in one
    mat-vec per group. Only areas that announce a payload then generate
    and multiply their payload rows, one by one.
    """
    hb, n, key = codec.header_bits, codec.n, codec.key
    _check_width(received_words, n)
    words = np.atleast_2d(received_words)
    areas = range(codec.area_index, codec.area_index + len(words))
    weights = 1 << np.arange(hb - 1, -1, -1)  # the header is big-endian
    group = max(1, HEADER_GROUP_WORDS // (hb * ((n + 63) // 64)))
    q_p = np.empty(len(words), dtype=np.int64)
    for s in range(0, len(words), group):
        head = prng.matrix_words(key, areas[s:s + group], hb, n)
        q_p[s:s + group] = gf2.mat_vec_words(
            head.reshape(-1, hb, head.shape[1]),
            words[s:s + group, None, :]) @ weights
    payload = [gf2.mat_vec_words(prng.matrix_words(key, area, q, n,
                                                   first_row=hb), x)
               for area, q, x in zip(areas, q_p.tolist(), words)
               if q]
    return np.concatenate(payload or [np.empty(0, dtype=np.uint8)])
