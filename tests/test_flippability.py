import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wetmark.bitmap import BinaryImage, flip_pixel
from wetmark.flippability import (
    FLIP_TABLE,
    FlippabilityMask,
    compute_mask,
    is_flippable,
)

from conftest import memory_peak, synth_image
from reference import component_counts, oracle_is_flippable, oracle_mask_flags


def test_center_never_enters_the_rule():
    codes = np.arange(512)
    assert (FLIP_TABLE == FLIP_TABLE[codes ^ (1 << 4)]).all()
    assert FLIP_TABLE.sum() == 112


def test_flipped_pixel_stays_flippable():
    img = synth_image(96, 80, 5)
    flippable = compute_mask(img).indices
    assert len(flippable) >= 200
    for p in flippable.tolist():
        assert compute_mask(flip_pixel(img, p)).flags[p], p


def test_specific_patterns():
    assert not is_flippable(0)            # all white
    assert not is_flippable(0x1FF)        # all black
    assert not is_flippable(1 << 4)       # isolated black center
    # vertical black stroke through center column: cells 1, 4, 7
    stroke = (1 << 1) | (1 << 4) | (1 << 7)
    assert not is_flippable(stroke)       # flip splits the stroke


def test_is_flippable_rejects_bad_code():
    with pytest.raises(ValueError):
        is_flippable(512)


def test_mask_uniform_image_empty():
    img = BinaryImage(8, 8, np.zeros(64, dtype=np.uint8))
    assert len(compute_mask(img)) == 0


def test_mask_3x3_only_center_possible():
    for seed in range(20):
        bits = np.random.default_rng(seed).integers(0, 2, 9).astype(np.uint8)
        mask = compute_mask(BinaryImage(3, 3, bits))
        assert set(mask.indices.tolist()) <= {4}


@st.composite
def _images(draw):
    """Random images 3 to 70 pixels on a side, a third of them 3xN or Nx3."""
    width, height = draw(st.integers(3, 70)), draw(st.integers(3, 70))
    thin = draw(st.sampled_from(["", "3xN", "Nx3"]))
    width = 3 if thin == "3xN" else width
    height = 3 if thin == "Nx3" else height
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return BinaryImage(width, height,
                       rng.integers(0, 2, width * height, dtype=np.uint8))


@given(_images())
@settings(max_examples=60, deadline=None)
def test_mask_matches_nine_shift_oracle(img):
    """The mask built from a 3-bit code per pixel of each row, three rows
    at a time, equals the nine shifted copies it replaced, 3xN and Nx3
    images included."""
    mask = compute_mask(img)
    assert np.array_equal(mask.flags, oracle_mask_flags(img))
    assert (np.diff(mask.indices) > 0).all()  # strictly increasing


def test_mask_memory_per_pixel():
    img = synth_image(1024, 1024, 5)
    compute_mask(img)
    with memory_peak() as mem:
        compute_mask(img)
    assert mem.peak <= 6.5 * 1024 * 1024


def test_mask_5x5_segment_case():
    g = np.zeros((5, 5), dtype=np.uint8)
    g[2, 1:4] = 1  # 3-pixel horizontal segment in the middle row
    img = BinaryImage(5, 5, g.reshape(-1))
    expected = []
    for y in range(1, 4):
        for x in range(1, 4):
            cells = g[y - 1:y + 2, x - 1:x + 2].reshape(-1).tolist()
            code = sum(c << i for i, c in enumerate(cells))
            if oracle_is_flippable(code):
                expected.append(y * 5 + x)
    assert compute_mask(img).indices.tolist() == expected


def test_mask_never_contains_border():
    for seed in range(10):
        r = np.random.default_rng(seed)
        bits = r.integers(0, 2, 10 * 7).astype(np.uint8)
        mask = compute_mask(BinaryImage(10, 7, bits))
        for i in mask.indices.tolist():
            y, x = divmod(i, 10)
            assert 0 < x < 9 and 0 < y < 6


def test_mask_rejects_small_images():
    with pytest.raises(ValueError):
        compute_mask(BinaryImage(2, 5, np.zeros(10, dtype=np.uint8)))


def test_mask_owns_and_checks_its_flags():
    """Flags are checked as given. A writable array stays the caller's,
    also through a read-only view of it; the read-only flags that
    ``compute_mask`` makes are kept as they are."""
    flags = np.zeros(9, dtype=bool)
    mask = FlippabilityMask(3, 3, flags)
    flags[4] = True
    grid = np.zeros((3, 3), dtype=bool)
    view = grid.reshape(-1)
    view.setflags(write=False)
    viewed = FlippabilityMask(3, 3, view)
    grid[1, 1] = True
    assert len(mask) == len(viewed) == 0 and mask.indices.size == 0
    for bad in (np.zeros(8, dtype=bool), np.array([0, 0, 0, 0, 2, 0, 0, 0, 0])):
        with pytest.raises(ValueError, match="^flags must be"):
            FlippabilityMask(3, 3, bad)
    made = compute_mask(synth_image(16, 12, 3))
    assert FlippabilityMask(16, 12, made.flags).flags is made.flags
    strided = np.zeros(18, dtype=bool)
    strided.setflags(write=False)  # so no one can write its view either
    assert FlippabilityMask(3, 3, strided[::2]).flags.flags.c_contiguous


def test_masks_compare_by_sizes_and_flags():
    img = synth_image(16, 12, 3)
    mask = compute_mask(img)
    assert mask == compute_mask(img)
    flags = mask.flags.copy()
    flags[mask.indices[0]] = False
    assert mask != FlippabilityMask(16, 12, flags)
    assert mask != FlippabilityMask(12, 16, mask.flags)
    assert mask != mask.to_image()


def test_mask_to_image_roundtrip():
    img_bits = np.random.default_rng(0).integers(0, 2, 64).astype(np.uint8)
    mask = compute_mask(BinaryImage(8, 8, img_bits))
    rendered = mask.to_image()
    assert rendered.bits.sum() == len(mask)
    assert np.nonzero(rendered.bits)[0].tolist() == mask.indices.tolist()


def test_component_counts_on_known_images():
    ring = np.zeros((5, 5), dtype=np.uint8)
    ring[1:4, 1:4] = 1
    ring[2, 2] = 0
    assert component_counts(ring) == (1, 2)  # the hole is its own component
    two = np.zeros((4, 7), dtype=np.uint8)
    two[1:3, 1], two[1:3, 4:6] = 1, 1
    assert component_counts(two) == (2, 1)
    # diagonal neighbours connect, in both colours
    assert component_counts(np.eye(4, dtype=np.uint8)) == (1, 1)
    assert component_counts(np.zeros((3, 3), dtype=np.uint8)) == (0, 1)


@pytest.mark.parametrize("cover", ["text", "random"])
def test_one_flippable_flip_keeps_both_component_counts(cover):
    """Each flippable pixel, flipped alone, leaves the numbers of black
    and of white 8-connected components of the whole image unchanged.
    (The flips of one embed, made together, need not: see README.)"""
    rng = np.random.default_rng(31)
    img = (synth_image(48, 40, 31, stroke_density=60) if cover == "text" else
           BinaryImage(48, 40, rng.integers(0, 2, 48 * 40, dtype=np.uint8)))
    base = component_counts(img.grid())
    for i in rng.choice(compute_mask(img).indices, 40, replace=False):
        bits = img.bits.copy()
        bits[i] ^= 1
        assert component_counts(bits.reshape(40, 48)) == base
    # Flips no two of which are 8-adjacent lie outside each other's
    # windows, so each stays a lone flip: here every flippable pixel on
    # the even rows and even columns, all flipped together.
    grid = img.grid() ^ compute_mask(img).flags.reshape(40, 48)
    grid[1::2] = img.grid()[1::2]
    grid[:, 1::2] = img.grid()[:, 1::2]
    assert (grid != img.grid()).sum() > 10
    assert component_counts(grid) == base
