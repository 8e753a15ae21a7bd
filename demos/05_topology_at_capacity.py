#!/usr/bin/env python3
"""What the flips of one embed do to the topology of the whole image.

A pixel is flippable when inverting it alone keeps the 8-connectivity of
both colours in its 3x3 window, so a lone flip never splits or joins a
component of the image. The flips of one embed are made together, and
two neighbouring flips can each pass the rule on the cover and still cut
or join a stroke between them. This demo counts the 8-connected black
and white components of a text cover, and of its stego images at 10 %
and at 100 % of capacity, with the breadth-first counter the tests use.
"""

import importlib.util
from pathlib import Path

import numpy as np

import wetmark as wm
from wetmark.bitmap import BinaryImage
from wetmark.prng import StegoKey


def load_reference():
    """``tests/reference.py``, the oracles of the test suite, by path."""
    path = Path(__file__).resolve().parent.parent / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_cover(width=300, height=225, seed=1):
    """Text-like cover at paper scale: random short strokes on white."""
    r = np.random.default_rng(seed)
    g = np.zeros((height, width), dtype=np.uint8)
    for _ in range(width * height // 300):
        y, x = int(r.integers(1, height - 1)), int(r.integers(1, width - 1))
        length = int(r.integers(3, 14))
        if r.integers(2):
            g[y, x:min(width, x + length)] = 1
        else:
            g[y:min(height, y + length), x] = 1
    return BinaryImage(width, height, g.reshape(-1))


def main():
    component_counts = load_reference().component_counts
    cover = make_cover()
    key = StegoKey(b"demo key")
    capacity = wm.capacity(cover, key).n_embedded
    black, white = component_counts(cover.grid())
    print(f"cover: {cover.width}x{cover.height}, capacity {capacity} bits")
    print(f"{'':>14}  {'flips':>5}  {'black':>5}  {'white':>5}")
    print(f"{'cover':>14}  {0:>5}  {black:>5}  {white:>5}")

    rng = np.random.default_rng(5)
    for share in (0.1, 1.0):
        message = rng.integers(0, 2, int(capacity * share), dtype=np.uint8)
        stego, report = wm.embed(cover, key, message)
        assert np.array_equal(wm.extract(stego, key), message)
        flips = sum(area.flips for area in report.per_area)
        black, white = component_counts(stego.grid())
        print(f"{f'{share:.0%} capacity':>14}  {flips:>5}  "
              f"{black:>5}  {white:>5}")

    print("\nEach flip alone keeps both counts; the flips of one embed")
    print("together change them, the more so the fuller the image.")


if __name__ == "__main__":
    main()
