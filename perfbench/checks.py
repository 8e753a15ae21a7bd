"""Output checks that do not trust the code under test.

The flippability rule and the keyed permutation are re-derived here from
their definitions (README, ``wetmark.flippability``, ``wetmark.prng``),
so a codec change that alters either one fails the benchmark instead of
silently changing what it measures.
"""

from __future__ import annotations

import numpy as np

AREA_SIZE = 4096  # pixels per area, fixed by the codec's format
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
TAG_PERM = 0x5045524D5045524D


def _components(cells: list[int], color: int) -> int:
    """8-connected components of ``color`` in a row-major 3x3 window."""
    todo = {i for i in range(9) if cells[i] == color}
    count = 0
    while todo:
        count += 1
        stack = [todo.pop()]
        while stack:
            r, c = divmod(stack.pop(), 3)
            for j in list(todo):
                if abs(j // 3 - r) <= 1 and abs(j % 3 - c) <= 1:
                    todo.discard(j)
                    stack.append(j)
    return count


def flip_table() -> np.ndarray:
    """512 booleans: may the centre of the window with this code flip?"""
    table = np.zeros(512, dtype=bool)
    for code in range(1, 511):
        cells = [(code >> i) & 1 for i in range(9)]
        flipped = cells.copy()
        flipped[4] ^= 1
        table[code] = all(_components(cells, c) == _components(flipped, c)
                          for c in (0, 1))
    return table


_WINDOW = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]  # bit order


def flippable_count(grid: np.ndarray, table: np.ndarray) -> int:
    """Number of interior pixels whose 3x3 window passes the rule."""
    h, w = grid.shape
    codes = np.zeros((h - 2, w - 2), dtype=np.int64)
    for bit, (dy, dx) in enumerate(_WINDOW):
        codes |= grid[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx].astype(np.int64) << bit
    return int(table[codes].sum())


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def keyed_permutation(key: bytes, n: int) -> np.ndarray:
    """Fisher-Yates over 0..n-1 driven by the key's SplitMix64 shuffle stream."""
    h = 0xCBF29CE484222325  # FNV-1a 64 of the key bytes
    for b in key:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    with np.errstate(over="ignore"):
        seed = _mix64(np.array([h ^ TAG_PERM], dtype=np.uint64))[0]
        steps = np.arange(1, n, dtype=np.uint64)
        words = _mix64(seed + steps * np.uint64(GAMMA))
    draws = (words % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    perm = list(range(n))
    for t, j in enumerate(draws):
        i = n - 1 - t
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def output_problems(cover: np.ndarray, stego: np.ndarray, key: bytes,
                    table: np.ndarray) -> list[str]:
    """Why ``stego`` is not a valid embedding of ``cover``; empty if it is.

    Every changed pixel must be flippable in the cover (an interior pixel
    whose 3x3 window passes the rule), and no pixel outside the whole
    areas of the keyed shuffle may change.
    """
    if stego.shape != cover.shape:
        return [f"stego is {stego.shape[::-1]}, cover is {cover.shape[::-1]}"]
    problems = []
    h, w = cover.shape
    ys, xs = np.nonzero(stego != cover)
    border = (ys == 0) | (ys == h - 1) | (xs == 0) | (xs == w - 1)
    if border.any():
        problems.append(f"{int(border.sum())} border pixels changed")
    ys, xs = ys[~border], xs[~border]
    codes = np.zeros(len(ys), dtype=np.int64)
    for bit, (dy, dx) in enumerate(_WINDOW):
        codes |= cover[ys + dy, xs + dx].astype(np.int64) << bit
    if not table[codes].all():
        problems.append(f"{int((~table[codes]).sum())} changed pixels "
                        "are not flippable in the cover")
    n = h * w
    used = n - n % AREA_SIZE
    if used < n:
        left = keyed_permutation(key, n)[used:]
        if (stego.reshape(-1)[left] != cover.reshape(-1)[left]).any():
            problems.append("leftover pixels changed")
    return problems
