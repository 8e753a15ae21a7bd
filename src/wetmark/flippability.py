"""Decide which pixels can be inverted without visible damage.

A center pixel of a 3x3 window is flippable when the window is not
uniform and complementing the center changes neither the number of
8-connected black components nor the number of 8-connected white
components inside the window. The rule is symmetric under the 8
dihedral transforms of the grid and under color inversion, and is
precomputed as a 512-entry table keyed by the 9-bit window code
(bit i = cell i, row-major, cell 4 = center).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitmap import BinaryImage

CENTER = 4

# 8-neighbor offsets within the 3x3 grid, as (row, col).
_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _component_count(code: int, color: int) -> int:
    """Number of 8-connected components of ``color`` cells in a window code."""
    cells = [(code >> i) & 1 for i in range(9)]
    seen = [False] * 9
    count = 0
    for start in range(9):
        if seen[start] or cells[start] != color:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            r, c = divmod(i, 3)
            for dr, dc in _NEIGHBORS:
                nr, nc = r + dr, c + dc
                if 0 <= nr < 3 and 0 <= nc < 3:
                    j = nr * 3 + nc
                    if not seen[j] and cells[j] == color:
                        seen[j] = True
                        stack.append(j)
    return count


def _classify(code: int) -> bool:
    if code == 0 or code == 0x1FF:
        return False
    flipped = code ^ (1 << CENTER)
    return (_component_count(code, 1) == _component_count(flipped, 1)
            and _component_count(code, 0) == _component_count(flipped, 0))


def _build_table() -> np.ndarray:
    return np.array([_classify(code) for code in range(512)], dtype=bool)


FLIP_TABLE = _build_table()


def is_flippable(code: int) -> bool:
    """Whether the center pixel of the window with this 9-bit code is flippable."""
    if not 0 <= code < 512:
        raise ValueError("window code must be in 0..511")
    return bool(FLIP_TABLE[code])


def window_code(cells) -> int:
    """Pack 9 row-major cell values into the 9-bit window code."""
    cells = list(cells)
    if len(cells) != 9 or any(c not in (0, 1) for c in cells):
        raise ValueError("window must be 9 cells of 0/1")
    return sum(c << i for i, c in enumerate(cells))


@dataclass(frozen=True)
class FlippabilityMask:
    """Which pixels of an image are flippable: one read-only boolean flag
    per pixel, in raster order, as ``compute_mask`` writes it."""

    width: int
    height: int
    flags: np.ndarray = field(repr=False)  # width*height bools, flat

    @property
    def indices(self) -> np.ndarray:
        """Raster indices of the flippable pixels, strictly increasing."""
        return np.flatnonzero(self.flags)

    def __len__(self):
        return int(np.count_nonzero(self.flags))

    def as_bool(self) -> np.ndarray:
        """Flat boolean membership array of length width*height."""
        return self.flags.copy()

    def to_image(self) -> BinaryImage:
        """Render the mask as an image (flippable = black)."""
        return BinaryImage(self.width, self.height,
                           self.flags.astype(np.uint8))


def compute_mask(img: BinaryImage) -> FlippabilityMask:
    """Slide the 3x3 window over every interior pixel of the original image.

    Border pixels (incomplete window) are never flippable.
    """
    if img.width < 3 or img.height < 3:
        raise ValueError("image must be at least 3x3")
    g = img.grid()
    codes = np.zeros((img.height - 2, img.width - 2), dtype=np.int16)
    for bit in range(9):
        dr, dc = divmod(bit, 3)
        codes |= g[dr:dr + img.height - 2, dc:dc + img.width - 2].astype(np.int16) << bit
    flags = np.zeros((img.height, img.width), dtype=bool)
    flags[1:-1, 1:-1] = FLIP_TABLE[codes]
    flags.setflags(write=False)
    return FlippabilityMask(img.width, img.height, flags.reshape(-1))
