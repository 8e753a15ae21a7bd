"""Decide which pixels can be inverted without visible damage.

A center pixel of a 3x3 window is flippable when its 8 neighbors of
each color form exactly one 8-connected group inside the window. The
center joins every neighbor of its own color, so inverting it splits
that color's neighbors into their groups and merges the other color's:
both component counts inside the window stay the same exactly when
each color has one group. A uniform window has a color with none. The
center never enters the rule, so a flipped pixel stays flippable. The
rule is symmetric under the 8 dihedral transforms of the grid and under
color inversion, and is precomputed as a 512-entry table keyed by the
9-bit window code (bit i = cell i, row-major, cell 4 = center).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitmap import BinaryImage, _own_raster


def _ring_groups(codes: np.ndarray, color: int) -> np.ndarray:
    """Number of 8-connected groups of ``color`` among the 8 neighbors
    of the center, for each window code.

    The edge cells N, E, S and W are 8-neighbors of each other in a
    4-cycle, and a corner touches only the two edges beside it. So the
    groups are the runs of ``color`` around the edge cycle, plus the
    corners whose two edges both have the other color.
    """
    edges = ((codes[:, None] >> [1, 5, 7, 3]) & 1) == color    # N, E, S, W
    corners = ((codes[:, None] >> [2, 8, 6, 0]) & 1) == color  # NE, SE, SW, NW
    runs = (edges & ~np.roll(edges, 1, axis=1)).sum(axis=1)
    runs[edges.all(axis=1)] = 1
    lone = corners & ~edges & ~np.roll(edges, -1, axis=1)
    return runs + lone.sum(axis=1)


FLIP_TABLE = ((_ring_groups(np.arange(512), 0) == 1)
              & (_ring_groups(np.arange(512), 1) == 1))


def is_flippable(code: int) -> bool:
    """Whether the center pixel of the window with this 9-bit code is flippable."""
    if not 0 <= code < 512:
        raise ValueError("window code must be in 0..511")
    return bool(FLIP_TABLE[code])


@dataclass(frozen=True, eq=False)  # own __eq__; unhashable
class FlippabilityMask:
    """Which pixels of an image of 3x3 or more are flippable: one bool
    per pixel, in raster order, kept as ``BinaryImage`` keeps its bits."""

    width: int
    height: int
    flags: np.ndarray = field(repr=False)  # width*height bools, flat

    def __post_init__(self):
        _own_raster(self, "flags", bool)
        if self.width < 3 or self.height < 3:
            raise ValueError("image must be at least 3x3")

    def __eq__(self, other):
        if not isinstance(other, FlippabilityMask):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.flags, other.flags))

    @property
    def indices(self) -> np.ndarray:
        """Raster indices of the flippable pixels, strictly increasing."""
        return np.flatnonzero(self.flags)

    def __len__(self):
        return int(np.count_nonzero(self.flags))

    def to_image(self) -> BinaryImage:
        """Render the mask as an image (flippable = black)."""
        bits = self.flags.astype(np.uint8)
        bits.setflags(write=False)
        return BinaryImage(self.width, self.height, bits)


def compute_mask(img: BinaryImage) -> FlippabilityMask:
    """Slide the 3x3 window over every interior pixel of the original image.

    Border pixels (incomplete window) are never flippable. The mask
    refuses an image under 3x3.
    """
    g = img.grid()
    # bit dr*3 + dc of a code is cell (dr, dc): a 3-bit code per pixel along
    # each row, then three rows of those, the last row's in the top bits
    cols = g[:, :-2] | g[:, 1:-1] << 1 | g[:, 2:] << 2  # uint8, up to 7
    codes = cols[2:].astype(np.uint16)
    codes <<= 3
    codes |= cols[1:-1]
    codes <<= 3
    codes |= cols[:-2]
    flags = np.zeros((img.height, img.width), dtype=bool)
    flags[1:-1, 1:-1] = FLIP_TABLE[codes]
    flags.setflags(write=False)
    return FlippabilityMask(img.width, img.height, flags.reshape(-1))
