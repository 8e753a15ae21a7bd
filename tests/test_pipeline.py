import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wetmark as wm
from wetmark import flippability, prng, wpc
from wetmark.bitmap import BinaryImage
from wetmark.pipeline import ImageTooSmallError, MessageTooLongError, plan
from wetmark.prng import StegoKey
from wetmark.wpc import AREA_SIZE, AreaCodec, HeaderCapacityError

from conftest import memory_peak, synth_image
from reference import (
    oracle_embed,
    oracle_extract_area,
    oracle_mask_flags,
    words_to_int,
)

KEY = StegoKey(b"pipeline-key")


def test_plan_paper_scale_geometry():
    img = synth_image(300, 225, 0)
    p = plan(img, KEY)
    assert p.n_areas == 16
    assert p.leftover_pixels == 67500 - 16 * AREA_SIZE == 1964


def test_plan_exact_fit():
    img = synth_image(64, 64, 1)
    p = plan(img, KEY)
    assert p.n_areas == 1 and p.leftover_pixels == 0


def test_plan_too_small():
    img = synth_image(60, 60, 2)
    with pytest.raises(ImageTooSmallError):
        plan(img, KEY)


def test_empty_message_roundtrip():
    img = synth_image(128, 64, 3)
    stego, report = wm.embed(img, KEY, np.zeros(0, dtype=np.uint8))
    assert report.n_embedded == 0
    assert all(rec.q_p == 0 for rec in report.per_area)
    assert wm.extract(stego, KEY).size == 0


@pytest.mark.parametrize("message", [
    np.frombuffer(b"hi", np.uint8), [1, 255, 3], [-1], [0.5], [[0, 1]]])
def test_embed_rejects_non_bit_messages(monkeypatch, message):
    """The message is checked on entry, before the image is shuffled."""
    def unreachable(*args):
        raise AssertionError("shuffled an image for a message that is not bits")

    monkeypatch.setattr(prng, "permutation", unreachable)
    with pytest.raises(ValueError,
                       match="^message must be a 1-D array of 0/1 bits$"):
        wm.embed(synth_image(64, 64, 4), KEY, message)


def test_embed_refuses_more_bits_than_pixels(monkeypatch):
    """Each payload bit needs a pixel of its own, so a longer message is
    refused on entry, before the image is shuffled."""
    monkeypatch.setattr(prng, "permutation", None)
    with pytest.raises(MessageTooLongError, match="^message has more bits "
                       "than the image's 4096 pixels$"):
        wm.embed(synth_image(64, 64, 4), KEY, np.zeros(4097, np.uint8))


def test_roundtrip_random_messages(rng):
    for seed in range(5):
        img = synth_image(96, 96, seed + 50)
        cap = wm.capacity(img, KEY).n_embedded
        msg = rng.integers(0, 2, cap // 2).astype(np.uint8)
        stego, report = wm.embed(img, KEY, msg)
        assert report.n_embedded == len(msg)
        assert np.array_equal(wm.extract(stego, KEY), msg)


@pytest.mark.parametrize("kind", ["text", "iid"])
def test_capacity_is_embed_at_capacity_area_by_area(rng, kind):
    """Capacity and embed plan the areas alike: at exactly N_E bits every
    area carries the payload capacity reports for it."""
    if kind == "text":
        img = synth_image(160, 128, 13)
    else:
        img = BinaryImage(128, 128, rng.integers(0, 2, 128 * 128))
    cap = wm.capacity(img, KEY)
    msg = rng.integers(0, 2, cap.n_embedded).astype(np.uint8)
    _, report = wm.embed(img, KEY, msg)
    assert len(report.per_area) == report.n_areas >= 4
    assert ([(r.area, r.k, r.q_p) for r in report.per_area]
            == [(r.area, r.k, r.q_p) for r in cap.per_area])


def test_shuffle_equalizes_area_capacity():
    """The paper's claim for the keyed shuffle: it evens out the flippable
    pixels over the areas, so blank margins cost no area its header."""
    page = np.zeros((256, 256), dtype=np.uint8)
    page[85:170] = synth_image(256, 85, 3).grid()  # text, blank margins
    img = BinaryImage(256, 256, page.reshape(-1))
    mask = flippability.compute_mask(img).flags
    raster_k = mask.reshape(-1, AREA_SIZE).sum(axis=1)  # unshuffled areas
    assert (raster_k < 12).sum() >= 8
    assert raster_k.std() / raster_k.mean() > 1
    for key in (b"a", b"b", b"c", b"d"):
        report = wm.capacity(img, StegoKey(key))  # every area holds a header
        k = np.array([r.k for r in report.per_area])
        assert k.sum() == raster_k.sum() and k.min() >= 4 * 12
        assert k.std() / k.mean() < 0.25


def test_determinism(rng):
    img = synth_image(96, 96, 8)
    msg = rng.integers(0, 2, 100).astype(np.uint8)
    s1, r1 = wm.embed(img, KEY, msg)
    s2, r2 = wm.embed(img, KEY, msg)
    assert s1 == s2 and r1 == r2
    assert np.array_equal(wm.extract(s1, KEY), wm.extract(s2, KEY))


def test_wrong_key_roundtrip_contract(rng):
    img = synth_image(96, 96, 9)
    msg = rng.integers(0, 2, 200).astype(np.uint8)
    stego, _ = wm.embed(img, KEY, msg)
    assert np.array_equal(wm.extract(stego, KEY), msg)
    other = wm.extract(stego, StegoKey(b"not-the-key"))
    # not asserted bit-exact; overwhelmingly unlikely to match
    assert other.size != msg.size or not np.array_equal(other, msg)


def test_all_white_image_header_capacity():
    img = BinaryImage(64, 64, np.zeros(64 * 64, dtype=np.uint8))
    with pytest.raises(HeaderCapacityError):
        wm.capacity(img, KEY)
    with pytest.raises(HeaderCapacityError):
        wm.embed(img, KEY, np.zeros(0, dtype=np.uint8))


def test_capacity_does_not_modify(rng):
    img = synth_image(96, 96, 10)
    before = img.bits.copy()
    wm.capacity(img, KEY)
    assert np.array_equal(img.bits, before)


def test_report_json_schema(rng):
    import json
    img = synth_image(96, 96, 11)
    msg = rng.integers(0, 2, 50).astype(np.uint8)
    _, report = wm.embed(img, KEY, msg)
    doc = json.loads(report.to_json())
    assert set(doc) == {"N_A", "N_FP", "N_E", "leftover_pixels", "areas"}
    assert doc["N_E"] == sum(a["q_p"] for a in doc["areas"])
    for a in doc["areas"]:
        assert set(a) == {"area", "k", "q_p", "flips"}


def test_dense_cover_memory_per_pixel():
    """Capacity, and embed at capacity, of an iid cover: every area has
    k near 900, so the elimination's records set the peak."""
    n = 256 * 256
    bits = np.random.default_rng(41).integers(0, 2, n, dtype=np.uint8)
    img = BinaryImage(256, 256, bits)
    with memory_peak() as mem:
        report = wm.capacity(img, KEY)
    assert mem.peak <= 125 * n
    message = np.ones(report.n_embedded, dtype=np.uint8)
    with memory_peak() as mem:
        wm.embed(img, KEY, message)
    assert mem.peak <= 125 * n


def test_dense_desk_cover_memory_per_pixel():
    """At desk scale the planning keeps one bounded stack of areas at a
    time, not every area's rows: capacity, and embed at capacity, of an
    iid 1024x1024 cover (256 areas of k near 900) stay within 23 B/pixel.
    Each stack is dropped once solved: one kept alive beside the next
    adds about 4.5 B/pixel. Kept at this size: at 512x512 the
    permutation's share of the peak would hide the stacks'."""
    n = 1024 * 1024
    bits = np.random.default_rng(42).integers(0, 2, n, dtype=np.uint8)
    img = BinaryImage(1024, 1024, bits)
    with memory_peak() as mem:
        report = wm.capacity(img, KEY)
    assert report.n_areas == 256 and report.n_flippable > 200_000
    assert mem.peak <= 23 * n
    message = np.ones(report.n_embedded, dtype=np.uint8)
    with memory_peak() as mem:
        wm.embed(img, KEY, message)
    assert mem.peak <= 23 * n


def test_extract_too_small():
    img = synth_image(32, 32, 12)
    with pytest.raises(ImageTooSmallError):
        wm.extract(img, KEY)


@pytest.mark.parametrize("group_areas", [None, 3])
def test_extract_matches_area_by_area_decoding(monkeypatch, rng, group_areas):
    """``extract`` reads the headers a group of areas at a time. Its bits
    are the per-area decoders' in order, on a stego image at capacity, on
    a cover that was never embedded and under a wrong key; in the last
    two the headers announce arbitrary lengths up to 4095."""
    hb_words = 12 * (AREA_SIZE // 64)  # header stream words of one area
    if group_areas is not None:
        monkeypatch.setattr(wpc, "HEADER_GROUP_WORDS", group_areas * hb_words)
    img = synth_image(420, 420, 21)
    n_areas = img.bits.size // AREA_SIZE
    assert n_areas == 43 and n_areas % (wpc.HEADER_GROUP_WORDS // hb_words)
    message = rng.integers(0, 2, wm.capacity(img, KEY).n_embedded,
                           dtype=np.uint8)
    stego, _ = wm.embed(img, KEY, message)
    for image, key, marked in [(stego, KEY, True), (img, KEY, False),
                               (stego, StegoKey(b"wrong"), False)]:
        got = wm.extract(image, key)
        perm = prng.permutation(key, image.bits.size)
        words = wpc.pack_bits(
            image.bits[perm[:n_areas * AREA_SIZE].reshape(n_areas, -1)])
        per_area = [wpc.extract_area(words[a], AreaCodec(key, a))
                    for a in range(n_areas)]
        assert np.array_equal(got, np.concatenate(per_area))
        oracle = [oracle_extract_area(words_to_int(w), key, a, AREA_SIZE)
                  for a, w in enumerate(words)]
        assert got.tolist() == [b for bits in oracle for b in bits]
        if marked:
            assert np.array_equal(got, message)
        else:
            assert max(map(len, oracle)) > 3500


def test_embed_makes_keyed_rows_a_group_of_areas_at_a_time(monkeypatch, rng):
    """``AreaPlan`` makes the planned rows of consecutive areas with one
    keystream call per group, bounded by ``HEADER_GROUP_WORDS``. The stego,
    the report and the capacity do not depend on the bound: down to one
    area per group, the work of making each area's rows on its own, and up
    to whole stacks, whose areas plan different row counts. Nor do they
    depend on ``STACK_WORDS``, down to one area per stack. The areas that
    carry only their header take one call per group of them."""
    hb_words = 12 * (AREA_SIZE // 64)  # header stream words of one area
    img = synth_image(420, 420, 21)
    message = rng.integers(0, 2, 600, dtype=np.uint8)
    keyed_rows = prng.matrix_words
    runs = []
    whole = 43 * AREA_SIZE * (AREA_SIZE // 64)  # every stack in one group
    for group_words, stack_words in [
            (wpc.HEADER_GROUP_WORDS, wpc.STACK_WORDS), (3 * hb_words, None),
            (hb_words, None), (whole, None), (wpc.HEADER_GROUP_WORDS, 1)]:
        calls = []

        def counted(key, areas, rows, *args, **kwargs):
            calls.append((np.size(areas), rows))
            return keyed_rows(key, areas, rows, *args, **kwargs)

        monkeypatch.setattr(wpc, "HEADER_GROUP_WORDS", group_words)
        if stack_words is not None:
            monkeypatch.setattr(wpc, "STACK_WORDS", stack_words)
        monkeypatch.setattr(prng, "matrix_words", counted)
        stego, report = wm.embed(img, KEY, message)
        assert sum(size for size, _ in calls) == report.n_areas == 43
        header_only = [size for size, rows in calls if rows == 12]
        assert sum(header_only) >= 30
        per_call = 1 if stack_words == 1 else group_words // hb_words
        assert len(header_only) == -(-sum(header_only) // per_call)
        runs.append((stego.bits.tobytes(), report.to_json(),
                     wm.capacity(img, KEY).to_json()))
    assert runs[1:] == runs[:1] * 4
    assert np.array_equal(wm.extract(stego, KEY), message)


def test_extract_makes_every_row_through_matrix_words(monkeypatch, rng):
    """Blind extraction of a stego at capacity makes each area's 12 header
    rows and each embedded bit's payload row once, all of them through
    ``prng.matrix_words``."""
    made = []
    keyed_rows = prng.matrix_words

    def counted(*args, **kwargs):
        rows = keyed_rows(*args, **kwargs)
        made.append(len(rows))
        return rows

    img = synth_image(300, 225, 22)
    report = wm.capacity(img, KEY)
    message = rng.integers(0, 2, report.n_embedded, dtype=np.uint8)
    stego, _ = wm.embed(img, KEY, message)
    monkeypatch.setattr(prng, "matrix_words", counted)
    assert np.array_equal(wm.extract(stego, KEY), message)
    assert sum(made) == report.n_areas * 12 + report.n_embedded


@given(st.integers(1, 3), st.sampled_from([64, 93, 128]),
       st.sampled_from([0.0002, 0.004, 0.008, 0.015]),
       st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=4),
       st.floats(0, 1.05))
@settings(max_examples=40, deadline=None)
def test_embed_matches_the_whole_pipeline_oracle(n_areas, width, density,
                                                 seed, key, fill):
    """Toy images of one to three areas, some with leftover pixels: the
    stego and each area's (k, q_p, flips) are those of ``oracle_embed``,
    built from the sequential shuffle, the nine-shift mask, the keyed rows
    and a Python-int solve, however the stacks are cut: at the default
    ``STACK_WORDS`` and at one area per stack. The message fills up to a
    little past the flippable pixels the headers leave; a cover with an
    area without header room, and a message over capacity, raise."""
    height = -(-n_areas * AREA_SIZE // width)
    r = np.random.default_rng(seed)
    img = BinaryImage(width, height,
                      (r.random(width * height) < density).astype(np.uint8))
    room = int(oracle_mask_flags(img).sum()) - 12 * n_areas
    message = r.integers(0, 2, int(fill * max(0, room)), dtype=np.uint8)
    expected = oracle_embed(img, key, message)
    for stack_words in (wpc.STACK_WORDS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wpc, "STACK_WORDS", stack_words)
            if expected is None:
                with pytest.raises(HeaderCapacityError):
                    wm.embed(img, StegoKey(key), message)
                continue
            stego_bits, per_area, embedded = expected
            if embedded < len(message):
                with pytest.raises(MessageTooLongError):
                    wm.embed(img, StegoKey(key), message)
                continue
            stego, report = wm.embed(img, StegoKey(key), message)
        assert np.array_equal(stego.bits, stego_bits)
        assert [(a.k, a.q_p, a.flips) for a in report.per_area] == per_area
