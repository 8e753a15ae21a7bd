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


def restrict_columns(rows_words: np.ndarray, flippable: np.ndarray) -> np.ndarray:
    """Rows of D restricted to the columns ``flippable`` marks, re-packed."""
    bits = unpack_bits(rows_words, len(flippable))
    return pack_bits(np.compress(flippable, bits, axis=1))


class AreaPlan:
    """``n_bits`` of message spread greedily over the areas, in order.

    Row i of ``flippable`` marks the k[i] flippable pixels of area i.
    Area i can carry up to ``prefix - hb`` payload bits, where prefix is
    the longest run of independent leading rows of its keyed matrix
    restricted to those columns, and it carries ``q_p[i]`` of them. Rows
    0..hb+q-1 are independent exactly when hb+q <= prefix, so ``embed``
    solves the leading rows of those eliminated here.

    The areas are eliminated in ``batches`` of consecutive areas, each as
    one stack of equal blocks: block i holds the rows planned for area i,
    then zero rows, and so does its syndrome. A batch takes as many areas
    as would hold the bits still to place if none of their rows were
    dependent, plus one, and plans each on no more rows than its header
    and those bits need. Once all bits are placed, a last batch plans the
    remaining areas for their zero-length headers alone. With more bits
    than the areas hold, one batch plans every area on all the rows it
    could ever use, which is its capacity. Every area is eliminated
    exactly once.

    A batch's keyed rows are made a group of consecutive areas at a time,
    with one keystream call and one mat-vec for the syndromes per group.
    A group holds as many areas as fit in ``HEADER_GROUP_WORDS`` stream
    words at the largest row count planned among them, and at least one.
    Rows an area gets past its planned count stay out of its block and
    its syndrome. Each area's planned rows are then restricted to its
    flippable columns on their own.

    The areas share the key and size of ``codec``, the first area's, and
    take the area indices after it.
    """

    def __init__(self, codec: AreaCodec, covers, flippable, n_bits: int):
        self.codec = codec
        covers = np.asarray(covers)
        self.flippable = np.asarray(flippable, dtype=bool)
        self.k = self.flippable.sum(axis=1)
        self.area_index = codec.area_index + np.arange(len(self.k))
        self.q_p = np.zeros(len(self.k), dtype=np.int64)
        self.batches = []  # (areas slice, planned rows, syndrome, Echelon)
        most = np.maximum(0, self.k - codec.header_bits)
        start, left = 0, n_bits
        while start < len(self.k):
            end = len(self.k)
            if left:
                need = np.searchsorted(np.cumsum(most[start:]), left)
                end = min(end, start + int(need) + 2)
            part = slice(start, end)
            rows = codec.header_bits + np.minimum(most[part], left)
            room = self._eliminate(part, covers[part], rows)
            before = np.cumsum(room) - room
            self.q_p[part] = np.clip(left - before, 0, room)
            left -= int(self.q_p[part].sum())
            start = end

    def _eliminate(self, part: slice, covers, rows: np.ndarray) -> np.ndarray:
        """Eliminate the first rows[i] rows of each area in ``part`` as one
        stack; returns the payload bits each area has room for."""
        words = max(1, (int(self.k[part].max(initial=0)) + 63) // 64)
        h_rows = np.zeros((len(rows), rows.max(), words), dtype=np.uint64)
        syndrome = np.zeros(h_rows.shape[:2], dtype=np.uint8)
        key, n = self.codec.key, self.codec.n
        row_words = (n + 63) // 64
        areas, wet = self.area_index[part], self.flippable[part]
        planned = rows.tolist()
        start = 0
        while start < len(planned):
            # the most areas whose rows fit the bound at their largest height
            end = start + 1
            while (end < len(planned) and (end + 1 - start) * row_words
                   * max(planned[start:end + 1]) <= HEADER_GROUP_WORDS):
                end += 1
            height = max(planned[start:end])
            d_words = prng.matrix_words(key, areas[start:end], height, n)
            d_words = d_words.reshape(end - start, height, row_words)
            syndrome[start:end, :height] = gf2.mat_vec_words(
                d_words, covers[start:end, None])
            for i, d in enumerate(d_words, start):
                restricted = restrict_columns(d[:planned[i]], wet[i])
                h_rows[i, :planned[i], :restricted.shape[1]] = restricted
            start = end
        # clear the syndrome rows past an area's planned count, which a
        # taller area of its group made; its block holds zeros there
        syndrome[np.arange(syndrome.shape[1]) >= rows[:, None]] = 0
        echelon = gf2.max_independent_prefix_words(
            h_rows.reshape(-1, words), len(rows))
        prefix, hb = echelon.prefix, self.codec.header_bits
        for i in np.flatnonzero(prefix < hb)[:1]:
            raise HeaderCapacityError(
                f"area {self.area_index[part][i]}: only {prefix[i]} "
                f"independent rows over {self.k[part][i]} flippable pixels, "
                f"need {hb} for the header; {np.sum(prefix < hb)} of the "
                f"{part.stop} areas eliminated so far lack room for it")
        self.batches.append((part, rows, syndrome, echelon))
        return prefix - hb

    def embed(self, message: np.ndarray) -> np.ndarray:
        """Which pixels to flip in every area, one boolean row each, laid
        out like ``flippable``, so that area i carries the next q_p[i]
        bits of ``message`` behind its header."""
        hb, sent = self.codec.header_bits, 0
        flips = np.zeros_like(self.flippable)
        for part, _, syndrome, echelon in self.batches:
            q_p, rhs = self.q_p[part], syndrome.copy()
            header = (q_p[:, None] >> np.arange(hb - 1, -1, -1)) & 1  # big-endian
            rhs[:, :hb] ^= header.astype(np.uint8)
            # payload bit j of area i goes to row hb + j of its block
            row, end = np.arange(rhs.shape[1]), sent + int(q_p.sum())
            rhs[(hb <= row) & (row < hb + q_p[:, None])] ^= message[sent:end]
            sent = end
            v, consistent = echelon.solve(rhs.reshape(-1), hb + q_p)
            if not consistent.all():
                bad = self.area_index[part][np.argmin(consistent)]
                raise RuntimeError(f"area {bad}: independent rows "
                                   "gave an inconsistent system")
            v_bits = unpack_bits(v, int(self.k[part].max()))
            inside = np.arange(v_bits.shape[1]) < self.k[part][:, None]
            flips[part][self.flippable[part]] = v_bits[inside]
        return flips


def embed_area(cover_words: np.ndarray, flippable: np.ndarray,
               codec: AreaCodec, message: np.ndarray) -> tuple[AreaEmbedResult, int]:
    """Embed as much of ``message`` as the area admits.

    Returns the result plus the number of payload bits consumed.
    ``cover_words`` is the area's n cover bits packed; ``flippable``
    holds within-area positions, 0 .. n-1; ``message`` is the remaining
    bit sequence.
    """
    message = message_bits(message)
    positions = np.asarray(flippable)
    if ((positions < 0) | (positions >= codec.n)).any():
        raise ValueError("flippable positions must lie in 0 .. n-1")
    wet = np.zeros((1, codec.n), dtype=bool)
    wet[0, flippable] = True
    area = AreaPlan(codec, [cover_words], wet, len(message))
    flips, q_p = area.embed(message)[0], int(area.q_p[0])
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
