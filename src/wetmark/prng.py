"""Keyed deterministic randomness: pixel shuffle and per-area bit matrices.

Everything is a pure function of (key bytes, domain tag, area index), so
encoder and decoder regenerate identical streams from the shared key.
The keystream is SplitMix64; the key is digested with FNV-1a 64.
Matrix rows are generated row by row, so any prefix of rows is
reproducible without knowing the final row count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MIX1 = 0xBF58476D1CE4E5B9  # SplitMix64 output multipliers
MIX2 = 0x94D049BB133111EB

TAG_PERM = 0x5045524D5045524D  # shuffle stream
TAG_MATR = 0x4D4154524D415452  # matrix streams, one per area

_CHUNK = 1 << 14  # stream words drawn at a time, to bound temporaries


@dataclass(frozen=True)
class StegoKey:
    """Shared secret; arbitrary non-empty bytes, digested once."""

    key_bytes: bytes
    digest: int = field(init=False, repr=False, compare=False)  # fnv1a64

    def __post_init__(self):
        if not self.key_bytes:
            raise ValueError("key must be non-empty")
        object.__setattr__(self, "digest", fnv1a64(self.key_bytes))

    @classmethod
    def from_text(cls, text: str) -> "StegoKey":
        """UTF-8 text, or raw bytes via a ``hex:`` prefix."""
        if text.startswith("hex:"):
            return cls(bytes.fromhex(text[4:]))
        return cls(text.encode("utf-8"))


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def mix64(x: int) -> int:
    """SplitMix64 output mixing of a 64-bit word."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(key: StegoKey, tag: int, area: int = 0) -> int:
    """Seed for the (key, tag, area) stream; streams never alias across tags."""
    return mix64(key.digest ^ tag ^ ((area * GAMMA) & MASK64))


def stream_words(seed: int | np.ndarray, count: int,
                 offset: int = 0) -> np.ndarray:
    """Words ``offset .. offset+count-1`` of the stream, vectorized.

    Word i equals mix64(seed + (i+1)*GAMMA), the (i+1)-th output of a
    sequential SplitMix64 stream started at ``seed``. An array of seeds
    gives one stream per seed, along a new last axis.
    """
    steps = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):  # in place: one temporary at a time
        steps *= np.uint64(GAMMA)
        z = np.add.outer(np.asarray(seed, dtype=np.uint64), steps)
        z ^= z >> np.uint64(30)
        z *= np.uint64(MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(MIX2)
        z ^= z >> np.uint64(31)
    return z


def permutation(key: StegoKey, n_total: int) -> np.ndarray:
    """Keyed Fisher-Yates permutation of 0..n_total-1, as uint32.

    Swap t = 0, 1, ..., n_total-1 exchanges the entries at positions
    i = n_total-1-t and j_t = (word t of the TAG_PERM stream) mod (i+1);
    the last swap, of position 0 with itself, changes nothing.

    The swaps are not run one after another. Position i is final after
    swap t and receives what position j_t held just before it: j_t
    itself if no earlier swap drew j_t, else what the last such swap s
    moved there, namely the entry position i_s held just before swap s.
    That entry is in turn what the last swap before s that drew i_s moved
    there, or i_s itself if there is none. These links form a forest
    whose depth grows like log n (Shun et al., SODA 2015), so pointer
    jumping resolves all of it in a few passes, and the result equals the
    sequential shuffle exactly. Each pass visits only the swaps whose
    link is not yet a root: half the swaps before the first pass, an
    eighth after it.
    """
    if not 1 <= n_total <= 1 << 32:
        raise ValueError("n_total must be in 1 .. 2**32")
    n = n_total
    chunks = [(s, min(n, s + _CHUNK)) for s in range(0, n, _CHUNK)]
    seed = derive_seed(key, TAG_PERM)
    # Sort the swaps by (j_t, t), packed as j_t * 2**32 + t: each run of
    # the sorted order holds the swaps that drew one position, in order.
    order = np.empty(n, dtype=np.uint64)
    for s, e in chunks:
        j = stream_words(seed, e - s, offset=s) % np.arange(
            n - s, n - e, -1, dtype=np.uint64)
        order[s:e] = (j << np.uint64(32)) | np.arange(s, e, dtype=np.uint64)
    order.sort()
    halves = order.view(np.uint32)
    swap, drawn = ((halves[0::2], halves[1::2]) if np.little_endian
                   else (halves[1::2], halves[0::2]))
    # first[u]: sorted swap u starts its run; first[u + 1]: it ends it.
    first = np.ones(n + 1, dtype=bool)
    np.not_equal(drawn[1:], drawn[:-1], out=first[1:n])
    # link[t]: the last swap before t that drew i_t = n-1-t, or t itself
    # (a root) if there is none. A swap with j_t = i_t links to itself too,
    # wrongly, but it is the last to draw i_t, so no entry it holds is read.
    # The swaps with a link are the open ones, those not yet known to
    # point at a root; a root never changes, so only they need jumping.
    link = np.arange(n, dtype=np.uint32)
    by_position = link[::-1]
    open_ = np.empty(np.count_nonzero(first[1:]), dtype=np.uint32)
    size = 0
    for s, e in chunks:
        end = np.flatnonzero(first[s + 1:e + 1]) + s  # sorted run ends
        position, last = drawn[end], swap[end]
        by_position[position] = last
        t = np.subtract(n - 1, position, out=position)
        t = t[t != last]
        open_[size:size + t.size] = t
        size += t.size
    # Pointer jumping over the open swaps, in place: a swap's link only
    # ever moves to an earlier swap on its way to the root, and it leaves
    # the open set once it reaches it.
    while size:
        kept = 0
        for s in range(0, size, _CHUNK):
            t = open_[s:min(size, s + _CHUNK)]
            up = link[link[t]]
            link[t] = up
            t = t[link[up] != up]
            open_[kept:kept + t.size] = t
            kept += t.size
        size = kept
    root = link
    del by_position, open_, end, position, last, t  # freed before perm
    held = np.subtract(n - 1, root, out=root)  # entry at i_t before swap t
    perm = np.empty(n, dtype=np.uint32)
    for s, e in chunks:
        value = drawn[s:e]  # read nowhere else: overwritten in place
        later = np.flatnonzero(~first[s:e])
        value[later] = held[swap[later + s - 1]]
        perm[::-1][swap[s:e]] = value  # perm[::-1][t] is position i_t
    return perm


def matrix_words(key: StegoKey, areas: int | Sequence[int], rows: int,
                 cols: int, first_row: int = 0) -> np.ndarray:
    """Rows ``first_row .. first_row+rows-1`` of the keyed matrix of one
    area, or of each of a sequence of areas, from one keystream call.

    One area gives a (rows, words) array. A sequence of areas gives their
    block stack, (len(areas)*rows, words), block i holding area i's rows.
    Each row consumes exactly ceil(cols/64) stream words; bit j of a row
    is bit (j mod 64) of word j//64. Surplus bits of the last word are
    cleared so packed rows compare equal regardless of how they were cut.
    """
    if cols < 1:
        raise ValueError("cols must be >= 1")
    if rows < 0:
        raise ValueError("rows must be >= 0")
    seeds = [derive_seed(key, TAG_MATR, area)
             for area in np.ravel(areas).tolist()]
    wpr = (cols + 63) // 64
    words = stream_words(np.array(seeds, dtype=np.uint64), rows * wpr,
                         offset=first_row * wpr).reshape(-1, wpr)
    words[:, -1] &= np.uint64(MASK64 >> (-cols % 64))
    return words
