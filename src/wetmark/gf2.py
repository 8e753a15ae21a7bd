"""Bit-packed linear algebra over GF(2).

Rows are numpy uint64 word matrices: bit j of a row is bit j%64 of word
j//64. Systems are stacked and eliminated once, in lock step, by an
``Echelon``; it then gives the longest linearly independent prefix of
each system's rows and solves any leading block of them for any
right-hand side, with free variables 0.
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)
_SHIFT = np.arange(64, dtype=np.uint64)


def mat_vec_words(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-parity products for word-packed rows; returns uint8 bits."""
    counts = np.bitwise_count(rows & x).sum(axis=1)
    return (counts & 1).astype(np.uint8)


class Echelon:
    """Stacked systems, eliminated once for any number of later solves.

    System i is rows ``starts[i] .. starts[i]+sizes[i]-1`` of the word
    matrix it was made from. The systems are stacked to one height,
    padded with zero rows to the largest, in a (words, rows, systems)
    array: the systems axis is innermost, so every vector operation runs
    over all systems at once. They are reduced in lock step, column by
    column. Step c takes column c in every system that still has it in a
    remaining row: the first such row is the pivot, and it is added to
    each remaining row with that column, itself included. Pivots thus
    leave the stack as zero rows, and the rows left at the end are
    exactly the dependent ones. A row only ever receives earlier rows,
    which makes rows 0..q-1 of a system come out as they would on their
    own, for every q.
    """

    def __init__(self, rows: np.ndarray, sizes):
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        total, count = len(rows), len(self.sizes)
        if self.sizes.sum() != total:
            raise ValueError("sizes must add up to the row count")
        words = self.words = rows.shape[1]
        starts = np.cumsum(self.sizes) - self.sizes
        # Where each given row sits in the padded stack.
        self._system = np.repeat(np.arange(count), self.sizes)
        self._local = np.arange(total) - np.repeat(starts, self.sizes)
        height = self.height = int(self.sizes.max(initial=0))
        h = np.zeros((words, height, count), dtype=np.uint64)
        h[:, self._local, self._system] = rows.T
        systems = np.arange(count)
        scratch = np.empty((height, count), dtype=np.uint64)
        # the row after the last never pivots
        pivoted = np.zeros((height + 1, count), dtype=bool)
        # One step per column that pivots in some system: (top, column,
        # pivoting systems, their pivot rows, their pivots from the column's
        # word on, and the rows from top on that got the pivot, packed).
        self.steps = []
        top = 0
        for c in range(64 * words):
            while top < height and not h[:, top].any():
                top += 1
            if top == height:
                break
            w = c >> 6
            has = (h[w, top:] >> _SHIFT[c & 63]) & _ONE
            adds = has.astype(bool)
            which = np.flatnonzero(adds.any(axis=0))
            if not which.size:
                continue
            first = top + adds.argmax(axis=0)
            pivot = h[w:, first, systems]
            mask = np.negative(has)
            for v in range(w, words):
                np.bitwise_and(mask, pivot[v - w], out=scratch[top:])
                h[v, top:] ^= scratch[top:]
            rows = first[which]
            pivoted[rows, which] = True
            self.steps.append((top, c, which, rows, pivot.T[which],
                               np.packbits(adds, axis=1)))
        # the longest prefix of rows that are independent
        self.prefix = np.argmin(pivoted, axis=0)

    def solve(self, rhs_bits: np.ndarray, use) -> tuple[np.ndarray, np.ndarray]:
        """Solve the first use[i] rows of every system i.

        ``rhs_bits`` holds one bit per row, laid out like the rows. Returns
        the packed solutions (systems, words), free variables 0, and
        whether each system's block was consistent.
        """
        rhs_bits = np.asarray(rhs_bits, dtype=np.uint8)
        use = np.asarray(use, dtype=np.int64)
        if len(rhs_bits) != len(self._local):
            raise ValueError("rhs length must equal row count")
        count = len(self.sizes)
        rhs = np.zeros((self.height, count), dtype=np.uint8)
        rhs[self._local, self._system] = rhs_bits
        carried = np.zeros((len(self.steps), count), dtype=np.uint8)
        for bit, (top, _, which, rows, _, adds) in zip(carried, self.steps):
            bit[which] = rhs[rows, which]
            rhs[top:] ^= np.unpackbits(adds, axis=1, count=count) & bit
        inside = np.arange(self.height)[:, None] < use
        consistent = ~(rhs.astype(bool) & inside).any(axis=0)
        v = np.zeros((count, self.words), dtype=np.uint64)
        for (_, c, which, rows, pivot, _), bit in zip(reversed(self.steps),
                                                      reversed(carried)):
            w = c >> 6
            parity = np.bitwise_count(pivot & v[which, w:]).sum(axis=1) & 1
            x = (bit[which] ^ parity) & (rows < use[which])
            v[which, w] |= x.astype(np.uint64) << _SHIFT[c & 63]
        return v, consistent


def max_independent_prefix_words(rows: np.ndarray, sizes) -> Echelon:
    """Eliminate stacked systems once; system i is the next sizes[i] rows.

    ``.prefix[i]`` of the result is the largest p such that rows 0..p-1 of
    system i are linearly independent, and ``.solve`` reuses the work.
    """
    return Echelon(rows, sizes)


def solve_words(rows: np.ndarray, rhs_bits: np.ndarray) -> np.ndarray | None:
    """Solve over word-packed rows; returns packed solution words or None."""
    v, consistent = Echelon(rows, [len(rows)]).solve(rhs_bits, [len(rows)])
    return v[0] if consistent[0] else None
