"""Keyed deterministic randomness: pixel shuffle and per-area bit matrices.

Everything is a pure function of (key bytes, domain tag, area index), so
encoder and decoder regenerate identical streams from the shared key.
The keystream is SplitMix64; the key is digested with FNV-1a 64.
Matrix rows are generated row by row, so any prefix of rows is
reproducible without knowing the final row count.
"""

from __future__ import annotations

import operator
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
    """Shared secret: non-empty bytes-like, stored as bytes, digested once."""

    key_bytes: bytes
    digest: int = field(init=False, repr=False, compare=False)  # fnv1a64

    def __post_init__(self):
        if isinstance(self.key_bytes, str):
            raise TypeError("a text key goes through StegoKey.from_text")
        object.__setattr__(self, "key_bytes", bytes(memoryview(self.key_bytes)))
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
    i_t = n_total-1-t and j_t = (word t of the TAG_PERM stream) mod (i_t+1);
    the last swap, of position 0 with itself, changes nothing.

    The swaps are not run one after another. Position i_t is final after
    swap t and receives what position j_t held just before it: j_t
    itself if no earlier swap drew j_t, else what the last such swap s
    moved there, namely root[i_s], the entry position i_s held just
    before swap s. That entry is in turn root[i_r] for the last swap r
    before s that drew i_s, or i_s itself if there is none. These links
    form a forest whose depth grows like log n (Shun et al., SODA 2015).
    Each link points to a higher position, so one pass over the drawn
    positions from the highest down finds every root already resolved,
    except for links inside the chunk the pass is reading, which a few
    hops resolve. The result equals the sequential shuffle exactly.
    """
    n = operator.index(n_total)
    if not 1 <= n <= 1 << 32:
        raise ValueError("n_total must be in 1 .. 2**32")
    chunks = [(s, min(n, s + _CHUNK)) for s in range(0, n, _CHUNK)]
    seed = derive_seed(key, TAG_PERM)
    # Sort the swaps by (j_t, t), packed as j_t * 2**32 + t: each run of
    # the sorted order holds the swaps that drew one position, in order.
    order = np.empty(n, dtype=np.uint64)
    for s, e in chunks:
        j = stream_words(seed, e - s, offset=s)
        j %= np.arange(n - s, n - e, -1, dtype=np.uint64)
        j <<= np.uint64(32)
        np.bitwise_or(j, np.arange(s, e, dtype=np.uint64), out=order[s:e])
    order.sort()
    # Unpack sorted swap u into position[u] = i_t, an array of its own,
    # and drawn[u] = j_t, packed into the first half of the sort buffer;
    # the second half then holds root, root[p] = p until a link sets it.
    # Chunk s reads from 2s on and writes at s, so it only overwrites
    # pairs it has already read.
    halves = order.view(np.uint32)
    low = 0 if np.little_endian else 1
    position = np.empty(n, dtype=np.uint32)
    drawn, root = halves[:n], halves[n:]
    for s, e in chunks:
        np.subtract(n - 1, halves[2 * s + low:2 * e:2], out=position[s:e])
        drawn[s:e] = halves[2 * s + 1 - low:2 * e:2]
    for s, e in chunks:
        root[s:e] = np.arange(s, e, dtype=np.uint32)
    # first[u]: sorted swap u starts its run; first[u + 1]: it ends it.
    first = np.ones(n + 1, dtype=bool)
    np.not_equal(drawn[1:], drawn[:-1], out=first[1:n])
    # The end of the run of position p is the last swap to draw p, so
    # root[p] = root[position of that swap], a higher position. A swap
    # that drew its own position (j_t = i_t) is the end of its own run and
    # links p to itself, wrongly, but it is the last to draw p, so no
    # later swap and no other link reads root[p]. Gathers go through
    # np.take; scatters index with intp, where np.put is slower.
    for s, e in reversed(chunks):
        end = np.flatnonzero(first[s + 1:e + 1])
        end += s
        p = np.take(drawn, end).astype(np.intp)
        last = np.take(position, end)
        root[p] = np.take(root, last)
        # A link to a position of this chunk read root there before the
        # chunk set it: jump those links along until they reach a root.
        p = p[last <= drawn[e - 1]]
        while p.size:
            up = np.take(root, p)
            top = np.take(root, up)
            open_ = top != up
            p = p[open_]
            root[p] = top[open_]
    perm = np.empty(n, dtype=np.uint32)
    for s, e in chunks:
        value = drawn[s:e]  # read nowhere else: overwritten in place
        later = np.flatnonzero(~first[s:e])
        value[later] = np.take(root, np.take(position, later + s - 1))
        perm[position[s:e].astype(np.intp)] = value
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
