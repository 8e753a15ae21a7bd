#!/usr/bin/env python3
"""Embed a secret message into a synthetic 1-bit image and read it back.

The embedding touches only flippable pixels, yet the extractor needs
nothing but the key: it recomputes the keyed shuffle and matrices and
reads each area's syndrome. A key used for many pages of one size
makes the shuffle once.
"""

import numpy as np

import wetmark as wm
from wetmark.bitmap import BinaryImage
from wetmark.prng import StegoKey


def make_cover(width=256, height=192, seed=7):
    """Text-like cover: random short strokes on white."""
    r = np.random.default_rng(seed)
    g = np.zeros((height, width), dtype=np.uint8)
    for _ in range(width * height // 250):
        y, x = int(r.integers(1, height - 1)), int(r.integers(1, width - 1))
        length = int(r.integers(3, 14))
        if r.integers(2):
            g[y, x:min(width, x + length)] = 1
        else:
            g[y:min(height, y + length), x] = 1
    return BinaryImage(width, height, g.reshape(-1))


def main():
    cover = make_cover()
    key = StegoKey(b"demo key")
    secret = b"Meet me at the old mill at noon."
    message = np.unpackbits(np.frombuffer(secret, dtype=np.uint8))

    report = wm.capacity(cover, key)
    print(f"cover: {cover.width}x{cover.height}, "
          f"{int(cover.bits.sum())} black pixels")
    print(f"areas: {report.n_areas}, flippable pixels: {report.n_flippable}, "
          f"capacity: {report.n_embedded} bits "
          f"({report.n_embedded // 8} bytes)")
    print(f"message: {len(message)} bits")

    stego, embed_report = wm.embed(cover, key, message)
    flips = int((stego.bits ^ cover.bits).sum())
    print(f"\nembedded {embed_report.n_embedded} bits by flipping "
          f"{flips} pixels "
          f"({100 * flips / cover.bits.size:.3f}% of the image)")

    recovered_bits = wm.extract(stego, key)
    recovered = np.packbits(recovered_bits).tobytes()[:len(secret)]
    print(f"extracted: {recovered!r}")
    assert recovered == secret

    garbage = np.packbits(wm.extract(stego, StegoKey(b"wrong key"))).tobytes()
    print(f"\nwith the wrong key the syndrome is noise: "
          f"{garbage[:16]!r}... ({len(garbage)} bytes)")

    # One key, many pages: the key keeps the shuffle of the last image size
    # it saw, so further pages of that size skip it. Each page's stego and
    # extract are those of a key made afresh for it.
    print("\none key, many pages:")
    for seed in (8, 9):
        page = make_cover(seed=seed)
        page_stego, _ = wm.embed(page, key, message)
        fresh_stego, _ = wm.embed(page, StegoKey(b"demo key"), message)
        assert page_stego == fresh_stego
        bits = wm.extract(page_stego, key)
        assert np.array_equal(bits, wm.extract(page_stego,
                                               StegoKey(b"demo key")))
        print(f"  page {seed}: {np.packbits(bits).tobytes()[:len(secret)]!r}")


if __name__ == "__main__":
    main()
