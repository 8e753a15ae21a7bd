#!/usr/bin/env python3
"""Tour of the flippability rule.

A center pixel of a 3x3 window may be inverted only when its 8
neighbors of each color form exactly one 8-connected group; then
inverting it keeps the number of 8-connected black components and
white components inside the window unchanged. This script counts the
flippable patterns, shows a few of them, and demonstrates the symmetry
of the rule and that the center itself never enters it.
"""

import numpy as np

from wetmark import is_flippable
from wetmark.flippability import FLIP_TABLE


def render(code):
    rows = []
    for r in range(3):
        rows.append(" ".join("#" if (code >> (3 * r + c)) & 1 else "."
                             for c in range(3)))
    return rows


def main():
    total = int(FLIP_TABLE.sum())
    print(f"{total} of 512 window patterns have a flippable center "
          f"({100 * total / 512:.1f}%)\n")

    print("A few flippable patterns (center cell is the middle):")
    shown = 0
    for code in range(512):
        if is_flippable(code) and shown < 6:
            for line in render(code):
                print("   ", line)
            print()
            shown += 1

    print("Color inversion never changes the verdict:")
    codes = np.arange(512)
    assert all(is_flippable(int(c)) == is_flippable(int(c) ^ 0x1FF)
               for c in codes)
    print("  checked all 512 patterns against their complements: OK")

    changed = int((FLIP_TABLE != FLIP_TABLE[codes ^ (1 << 4)]).sum())
    print("\nFlipping the center never changes the verdict:")
    print(f"  {changed} of 512 patterns change it with the center flipped,")
    print("  so a flipped pixel stays flippable")

    print("\nClassics that are NOT flippable:")
    examples = {
        "solid white": 0,
        "solid black": 0x1FF,
        "isolated black center": 1 << 4,
        "vertical stroke through center": (1 << 1) | (1 << 4) | (1 << 7),
    }
    for name, code in examples.items():
        print(f"  {name}: flippable = {is_flippable(code)}")


if __name__ == "__main__":
    main()
