"""Bit-packed linear algebra over GF(2).

Rows are numpy uint64 word matrices: bit j of a row is bit j%64 of word
j//64. Systems are stacked and eliminated once, in lock step and eight
columns at a time, by an ``Echelon``; it then gives the longest linearly
independent prefix of each system's rows and solves any leading block of
them for any right-hand side, with free variables 0.
"""

from __future__ import annotations

import numpy as np

_BITS = (1 << np.arange(8, dtype=np.uint16))[:, None]


def mat_vec_words(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-parity products for word-packed rows; returns uint8 bits.

    Stacked rows and vectors broadcast: rows (g, r, w) with x (g, 1, w)
    give each of g vectors its own r products.
    """
    counts = np.bitwise_count(rows & x).sum(axis=-1)
    return (counts & 1).astype(np.uint8)


class Echelon:
    """Stacked systems, eliminated once for any number of later solves.

    The word matrix it is made from is ``count`` blocks of rows of one
    height, stacked: block i holds system i's rows, then zero rows, which
    never pivot, so each system comes out as it would without them. The
    blocks are copied into a (words, rows, systems) array: the systems
    axis is innermost, so every vector operation runs over all systems at
    once. They are reduced in lock step, column by column. Step c takes
    column c in every system that still has it in a remaining row: the
    first such row is the pivot, and it is added to each remaining row
    with that column, itself included. Pivots thus leave the stack as
    zero rows, and the rows left at the end are exactly the dependent
    ones. A row only ever receives earlier rows, which makes rows 0..q-1
    of a system come out as they would on their own, for every q. Free
    variables are 0.

    The steps run in blocks of 8 columns, one byte of a word, as in the
    Method of Four Russians (Albrecht, Bard and Hart, arXiv:0811.1714).
    The pivots of a block are found on a (systems, rows) uint16 strip.
    Its low byte holds each row's 8 bits of the block, and its high byte
    the row's received set: which of the block's pivot rows, as they
    stood at the start of the block, the row has received. A row is then
    its value at the start plus the rows in its received set, so one
    gather from each system's table of the 256 combinations of those 8
    rows, and one XOR, reduce every word from the block's on. ``solve``
    replays a block at once from the received sets it keeps.

    ``prefix[i]`` is the largest p such that rows 0..p-1 of system i are
    linearly independent: the first of its rows that never pivots.
    """

    def __init__(self, rows: np.ndarray, count: int):
        rows = np.asarray(rows, dtype=np.uint64)
        words = self.words = rows.shape[1]
        height = self.height = len(rows) // max(count, 1)
        if count * height != len(rows):
            raise ValueError("rows must be count blocks of equal height")
        # a copy, C-ordered: the caller's rows are never eliminated in place
        h = rows.reshape(count, height, words).transpose(2, 1, 0).copy()
        systems = np.arange(count)
        pivoted = np.zeros((height + 1, count), dtype=bool)
        # One record per block until every row is zero: (top, first
        # column, pivot rows and whether they pivot (8, systems), the
        # pivots' received sets, those of the rows from top on, and the
        # pivots as they pivoted, from the block's word on).
        self.blocks = []
        top = 0
        for c in range(0, 64 * words, 8):
            w = c >> 6
            # every row is zero before column c, so before word w
            while top < height and not h[w:, top].any():
                top += 1
            if top == height:
                break
            strip = h[w, top:].T >> np.uint64(c & 63)
            strip = strip.astype(np.uint16, order="C") & 0xFF
            flat, at = strip.reshape(-1), systems * (height - top)
            first = np.empty((8, count), dtype=np.intp)
            pivot = np.empty((8, count), dtype=np.uint16)
            for j in range(8):
                has = np.bitwise_and(strip, 1 << j).astype(bool)
                has.argmax(axis=1, out=first[j])
                # the pivot joins its own received set, so it ends as {j}
                np.bitwise_or(np.take(flat, first[j] + at), 256 << j,
                              out=pivot[j])
                strip ^= has * pivot[j, :, None]
            found = (pivot & _BITS).astype(bool)
            first += top
            pivoted[first[found], found.nonzero()[1]] = True
            # every combination s of the pivot rows, at s*count + system
            base = h[w:, first, systems]
            table = np.zeros((words - w, 256, count), dtype=np.uint64)
            for j in range(8):
                np.bitwise_xor(table[:, :1 << j], base[:, j, None],
                               out=table[:, 1 << j:2 << j])
            table = table.reshape(words - w, -1)
            received = (strip >> 8).astype(np.uint8).T
            h[w:, top:] ^= np.take(table, received * np.intp(count) + systems,
                                   axis=1)
            sets = (pivot >> 8).astype(np.uint8)
            self.blocks.append((top, c, first, found, sets,
                                np.ascontiguousarray(received),
                                np.take(table, sets * np.intp(count) + systems,
                                        axis=1)))
        self.prefix = np.argmin(pivoted, axis=0)

    def solve(self, rhs_bits: np.ndarray, use) -> tuple[np.ndarray, np.ndarray]:
        """Solve the first use[i] rows of every system i.

        ``rhs_bits`` holds one bit per row, in the rows' block layout.
        Returns the packed solutions (systems, words), free variables 0,
        and whether each system's leading rows were consistent.
        """
        rhs_bits = np.asarray(rhs_bits)
        # Checked before the cast, which would wrap 256 to 0.
        if not ((rhs_bits == 0) | (rhs_bits == 1)).all():
            raise ValueError("rhs must hold bits 0 or 1")
        use = np.asarray(use, dtype=np.int64)
        count = len(self.prefix)
        if rhs_bits.shape != (count * self.height,):
            raise ValueError("rhs length must equal row count")
        systems = np.arange(count)
        rhs = rhs_bits.reshape(count, self.height).T.astype(np.uint8, order="C")
        # Bit j of a block's byte is the rhs of its pivot row j at the
        # block start. Every rhs gains the bits of its received set; a
        # pivot carries those of its own set, itself included.
        carried = []
        for top, _, first, _, sets, received, _ in self.blocks:
            byte = np.packbits(rhs[first, systems], axis=0, bitorder="little")
            carried.append(np.bitwise_count(sets & byte) & 1)
            rhs[top:] ^= np.bitwise_count(received & byte) & 1
        inside = np.arange(self.height)[:, None] < use
        consistent = ~(rhs.astype(bool) & inside).any(axis=0)
        v = np.zeros((self.words, count), dtype=np.uint64)
        for (_, c, first, found, _, _, pivots), bits in zip(
                reversed(self.blocks), reversed(carried)):
            w, shift = c >> 6, np.uint64(c & 63)
            # Pivots beyond a system's use leave their column free.
            take = (found & (first < use)).view(np.uint8)
            # v holds the columns after the block, so their parity comes
            # first (a uint8 sum keeps it); then the block's own pivots,
            # last first.
            par = np.bitwise_count(pivots & v[w:, None]).sum(axis=0,
                                                              dtype=np.uint8)
            par ^= bits
            inner = (pivots[0] >> shift).astype(np.uint8)
            x = np.zeros(count, dtype=np.uint8)
            for j in range(7, -1, -1):
                x |= ((np.bitwise_count(inner[j] & x) ^ par[j]) & take[j]) << j
            v[w] |= x.astype(np.uint64) << shift
        return np.ascontiguousarray(v.T), consistent


# Read only by perfbench/tracer.py, which times the elimination under this
# name; it wraps ``Echelon`` wherever held, ``gf2.Echelon`` included.
max_independent_prefix_words = Echelon


def solve_words(rows: np.ndarray, rhs_bits: np.ndarray) -> np.ndarray | None:
    """Solve over word-packed rows; returns packed solution words or None."""
    v, consistent = Echelon(rows, 1).solve(rhs_bits, [len(rows)])
    return v[0] if consistent[0] else None
