#!/usr/bin/env python3
"""Why the pixels are shuffled before they are cut into areas.

A scanned page has blank margins and blank lines. Cut in raster order,
its areas hold very different numbers k of flippable pixels, and an area
over a margin holds none: it cannot even carry its 12-bit length header,
so the page could not be watermarked at all. The keyed shuffle spreads
the flippable pixels evenly, so every area gets about the mean.
"""

import numpy as np

import wetmark as wm
from wetmark.bitmap import BinaryImage
from wetmark.flippability import compute_mask
from wetmark.prng import StegoKey
from wetmark.wpc import AREA_SIZE


def make_page(size=256, top=85, bottom=170, seed=3):
    """Text-like strokes over rows top..bottom-1 of a blank square page."""
    r = np.random.default_rng(seed)
    g = np.zeros((size, size), dtype=np.uint8)
    for _ in range(size * (bottom - top) // 300):
        y = int(r.integers(top + 1, bottom - 1))
        x = int(r.integers(1, size - 1))
        length = int(r.integers(3, 14))
        if r.integers(2):
            g[y, x:min(size, x + length)] = 1
        else:
            g[y:min(bottom, y + length), x] = 1
    return BinaryImage(size, size, g.reshape(-1))


def show(name, k):
    k = np.asarray(k)
    print(f"{name:>13}: k = {' '.join(f'{v:3d}' for v in k)}")
    print(f"{'':>13}  min {k.min()}, max {k.max()}, "
          f"coefficient of variation {k.std() / k.mean():.2f}, "
          f"{int((k < 12).sum())} areas below the 12 header bits")


def main():
    page = make_page()
    mask = compute_mask(page).flags
    print(f"page: {page.width}x{page.height}, text over rows 85-169, "
          f"{int(mask.sum())} flippable pixels in "
          f"{page.width * page.height // AREA_SIZE} areas of {AREA_SIZE}\n")

    show("raster order", mask.reshape(-1, AREA_SIZE).sum(axis=1))
    for key in (b"a", b"b", b"c"):
        report = wm.capacity(page, StegoKey(key))
        show(f"key {key.decode()!r}", [rec.k for rec in report.per_area])
        print(f"{'':>13}  capacity {report.n_embedded} bits\n")

    print("In raster order the margin areas would fail their header; with")
    print("any key every area carries one, and the spread of k is small.")


if __name__ == "__main__":
    main()
