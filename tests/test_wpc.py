import numpy as np
import pytest

from wetmark import gf2, wpc
from wetmark.prng import StegoKey
from wetmark.wpc import (
    AreaCodec,
    AreaPlan,
    HeaderCapacityError,
    embed_area,
    extract_area,
    pack_bits,
    restrict_columns,
    unpack_bits,
)

from reference import (
    bits_to_int,
    mat_vec,
    matrix_rows,
    oracle_extract_area,
    rows_to_words,
    words_to_int,
)


def toy_codec(key=b"toy", area=0, n=16):
    return AreaCodec(StegoKey(key), area, n=n)


def rand_area(rng, codec, k):
    cover = rng.integers(0, 2, codec.n).astype(np.uint8)
    mask = np.sort(rng.choice(codec.n, k, replace=False))
    return cover, mask


def test_header_bits():
    assert toy_codec(n=16).header_bits == 4
    assert AreaCodec(StegoKey(b"k"), 0, n=4096).header_bits == 12


def test_no_flippable_pixels_fails():
    codec = toy_codec()
    cover = np.zeros(16, dtype=np.uint8)
    with pytest.raises(HeaderCapacityError):
        embed_area(pack_bits(cover), np.array([], dtype=np.int64), codec,
                   np.ones(4, dtype=np.uint8))


def test_too_few_flippable_pixels_fails():
    codec = toy_codec()
    rng = np.random.default_rng(0)
    cover, mask = rand_area(rng, codec, 3)  # 3 < 4 header bits
    with pytest.raises(HeaderCapacityError):
        embed_area(pack_bits(cover), mask, codec, np.ones(2, dtype=np.uint8))


def test_empty_message_zero_header():
    rng = np.random.default_rng(1)
    codec = toy_codec(b"hdr")
    cover, mask = rand_area(rng, codec, 10)
    result, used = embed_area(pack_bits(cover), mask, codec,
                              np.zeros(0, dtype=np.uint8))
    assert used == 0 and result.payload_bits_embedded == 0
    assert result.q_total == codec.header_bits
    assert extract_area(result.modified_words, codec).size == 0


def test_roundtrip_and_brute_force_validity():
    """Toy-scale oracle: b' must satisfy the wet paper system exactly.

    Brute force enumerates every flip pattern over the mask and checks
    our output is among the valid ones.
    """
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(120):
        key = bytes(rng.integers(0, 256, 4, dtype=np.uint8))
        codec = toy_codec(key, area=int(rng.integers(0, 5)))
        k = int(rng.integers(4, 11))
        cover, mask = rand_area(rng, codec, k)
        msg = rng.integers(0, 2, int(rng.integers(0, 8))).astype(np.uint8)
        try:
            result, used = embed_area(pack_bits(cover), mask, codec, msg)
        except HeaderCapacityError:
            continue  # rank-deficient restricted header rows; legal outcome
        out = extract_area(result.modified_words, codec)
        assert out.tolist() == msg[:used].tolist()

        # brute-force validation over all 2^k flip patterns
        hb = codec.header_bits
        q = hb + used
        d = matrix_rows(codec.key, codec.area_index, q, codec.n)
        cover_int = bits_to_int(cover)
        header = [(used >> (hb - 1 - i)) & 1 for i in range(hb)]
        m_int = bits_to_int(header + msg[:used].tolist())
        valid = set()
        for pattern in range(1 << k):
            b2 = cover_int
            for j in range(k):
                if (pattern >> j) & 1:
                    b2 ^= 1 << int(mask[j])
            if mat_vec(d, b2) == m_int:
                valid.add(b2)
        got = bits_to_int(unpack_bits(result.modified_words, codec.n))
        assert got in valid
        checked += 1
    assert checked >= 80


def test_modified_only_at_flippable_positions():
    rng = np.random.default_rng(9)
    codec = toy_codec(b"support")
    for _ in range(50):
        cover, mask = rand_area(rng, codec, 9)
        msg = rng.integers(0, 2, 4).astype(np.uint8)
        try:
            result, used = embed_area(pack_bits(cover), mask, codec, msg)
        except HeaderCapacityError:
            continue
        diff = unpack_bits(result.modified_words, codec.n) ^ cover
        assert set(np.nonzero(diff)[0].tolist()) <= set(mask.tolist())
        assert result.flips_made == int(diff.sum())


def test_payload_bound():
    rng = np.random.default_rng(5)
    codec = toy_codec(b"bound")
    for _ in range(30):
        k = int(rng.integers(4, 12))
        cover, mask = rand_area(rng, codec, k)
        msg = rng.integers(0, 2, 30).astype(np.uint8)
        try:
            result, used = embed_area(pack_bits(cover), mask, codec, msg)
        except HeaderCapacityError:
            continue
        assert used <= k - codec.header_bits


def test_header_self_consistent():
    rng = np.random.default_rng(6)
    codec = toy_codec(b"selfhdr")
    cover, mask = rand_area(rng, codec, 10)
    msg = rng.integers(0, 2, 5).astype(np.uint8)
    result, used = embed_area(pack_bits(cover), mask, codec, msg)
    hb = codec.header_bits
    d = matrix_rows(codec.key, codec.area_index, hb, codec.n)
    header = mat_vec(
        d, bits_to_int(unpack_bits(result.modified_words, codec.n)))
    value = 0
    for i in range(hb):
        value = (value << 1) | ((header >> i) & 1)
    assert value == used


def test_single_bit_disturbance_linearity():
    """Flipping received bit t toggles extracted bit i iff D[i] has bit t."""
    rng = np.random.default_rng(8)
    codec = toy_codec(b"noise")
    cover, mask = rand_area(rng, codec, 10)
    msg = rng.integers(0, 2, 4).astype(np.uint8)
    result, used = embed_area(pack_bits(cover), mask, codec, msg)
    base = extract_area(result.modified_words, codec)
    hb = codec.header_bits
    d = matrix_rows(codec.key, codec.area_index, hb + used, codec.n)
    for t in [0, 7, 15]:
        disturbed = result.modified_words.copy()
        disturbed[t // 64] ^= np.uint64(1) << np.uint64(t % 64)
        header_changed = any((d[i] >> t) & 1 for i in range(hb))
        if header_changed:
            continue  # header reads differently; payload comparison undefined
        out = extract_area(disturbed, codec)
        for i in range(used):
            expected = base[i] ^ ((d[hb + i] >> t) & 1)
            assert out[i] == expected


def test_extract_signature_is_blind():
    import inspect
    params = inspect.signature(extract_area).parameters
    assert list(params) == ["received_words", "codec"]


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    for n in [16, 70, 4096]:
        bits = rng.integers(0, 2, n).astype(np.uint8)
        assert unpack_bits(pack_bits(bits), n).tolist() == bits.tolist()
        rows = rng.integers(0, 2, (3, n)).astype(np.uint8)  # row by row
        assert unpack_bits(pack_bits(rows), n).tolist() == rows.tolist()


@pytest.mark.parametrize("n", [16, 70, 100, 4096])
def test_restrict_columns_matches_per_bit_reference(rng, n):
    """Restricted row i holds, in order, the bits of row i at the columns
    the boolean row marks: none, some or all of them."""
    rows = matrix_rows(StegoKey(b"restrict"), 3, 12, n)
    for k in (0, 1, n // 3, n - 1, n):
        flippable = np.zeros(n, dtype=bool)
        flippable[rng.choice(n, k, replace=False)] = True
        got = restrict_columns(rows_to_words(rows, n), flippable)
        assert got.shape == (12, (k + 63) // 64) and got.flags.c_contiguous
        cols = np.flatnonzero(flippable).tolist()
        assert [words_to_int(w) for w in got] == [
            sum(((row >> c) & 1) << j for j, c in enumerate(cols))
            for row in rows]


def test_area_codec_validation():
    with pytest.raises(ValueError):
        AreaCodec(StegoKey(b"k"), 0, n=1)


def _toy_areas(rng, ks):
    codecs, covers, masks = [], [], []
    for area, k in enumerate(ks):
        codec = toy_codec(b"batch", area=area)
        cover, mask = rand_area(rng, codec, k)
        codecs.append(codec)
        covers.append(pack_bits(cover))
        masks.append(mask)
    return codecs, covers, masks


def _flippable(masks, n=16):
    """The boolean rows ``AreaPlan`` takes, from within-area positions."""
    rows = np.zeros((len(masks), n), dtype=bool)
    for row, mask in zip(rows, masks):
        row[mask] = True
    return rows


def test_batched_areas_match_area_by_area(monkeypatch):
    """Areas planned in stacks embed exactly as they do one at a time."""
    rng = np.random.default_rng(21)
    codecs, covers, masks = _toy_areas(rng, (12, 6, 9, 16, 5, 10, 7))
    msg = rng.integers(0, 2, 20).astype(np.uint8)
    expected, pos = [], 0
    for codec, cover, mask in zip(codecs, covers, masks):
        result, used = embed_area(cover, mask, codec, msg[pos:])
        expected.append((used, result.modified_words.tolist()))
        pos += used
    assert pos == len(msg)

    # Observed from outside: each area's planned rows as they are
    # restricted, each group's areas as their keyed rows are made, and
    # each stack as it is eliminated and solved.
    planned, groups, stacks, solves = [], [], [], []
    restrict, keyed_rows = wpc.restrict_columns, wpc.prng.matrix_words
    eliminate, solve = gf2.Echelon, gf2.Echelon.solve

    def restricted(rows, flippable):
        planned.append(len(rows))
        return restrict(rows, flippable)

    def made(key, areas, *args, **kwargs):
        groups.append(np.size(areas))
        return keyed_rows(key, areas, *args, **kwargs)

    def eliminated(rows, count):
        echelon = eliminate(rows, count)
        stacks.append(echelon.prefix)
        return echelon

    def solved(self, rhs, use):
        solves.append(rhs.reshape(len(self.prefix), -1).copy())
        return solve(self, rhs, use)

    monkeypatch.setattr(wpc, "restrict_columns", restricted)
    monkeypatch.setattr(wpc.prng, "matrix_words", made)
    # solve first: once gf2.Echelon is the wrapper, it names no class
    monkeypatch.setattr(gf2.Echelon, "solve", solved)
    monkeypatch.setattr(gf2, "Echelon", eliminated)
    areas = AreaPlan(codecs[0], covers, _flippable(masks), msg)
    assert len(stacks) == len(solves) > 1  # payload areas, then header-only ones
    got = []
    for codec, q, flip_at in zip(codecs, areas.q_p.tolist(), areas.flips):
        delta = np.zeros(codec.n, dtype=np.uint8)
        delta[flip_at] = 1
        modified = covers[codec.area_index] ^ pack_bits(delta)
        got.append((q, modified.tolist()))
    assert got == expected
    # some area had dependent rows among those planned for it
    assert (np.concatenate(stacks) < planned).any()
    # the right-hand side of each stack holds zeros past each area's
    # planned rows
    start = 0
    for rhs in solves:
        rows = np.array(planned[start:start + len(rhs)])
        assert not rhs[np.arange(rhs.shape[1]) >= rows[:, None]].any()
        start += len(rhs)
    # areas of differing planned rows share a group of keyed rows
    assert min(planned[:groups[0]]) < max(planned[:groups[0]])


def test_each_stack_plans_for_the_bits_still_to_place(monkeypatch):
    """One area a stack: each area is planned its header rows plus one row
    per bit still to place when its stack starts, up to k - hb."""
    rng = np.random.default_rng(24)
    codec = AreaCodec(StegoKey(b"stack"), 0, n=200)
    covers = pack_bits(rng.integers(0, 2, (5, 200)).astype(np.uint8))
    wet = np.zeros((5, 200), dtype=bool)
    for row in wet:
        row[rng.choice(200, 80, replace=False)] = True
    planned, restrict = [], wpc.restrict_columns

    def restricted(rows, flippable):
        planned.append(len(rows))
        return restrict(rows, flippable)

    monkeypatch.setattr(wpc, "restrict_columns", restricted)
    monkeypatch.setattr(wpc, "STACK_WORDS", 1)
    areas = AreaPlan(codec, covers, wet, np.ones(100, dtype=np.uint8))
    assert areas.q_p.sum() == 100
    hb, most = codec.header_bits, 80 - codec.header_bits
    left = 100 - np.cumsum(areas.q_p) + areas.q_p
    assert planned == (hb + np.minimum(most, left)).tolist()
    assert planned[0] == 80 and planned[1] < 80 and planned[2:] == [hb] * 3


def test_batch_names_the_first_area_without_header_room():
    rng = np.random.default_rng(22)
    codecs, covers, masks = _toy_areas(rng, (10, 12, 0, 9, 3))
    msg = np.ones(6, dtype=np.uint8)
    for area in (2, 4):  # k = 0 and k < header bits
        with pytest.raises(HeaderCapacityError):
            embed_area(covers[area], masks[area], codecs[area], msg)
    with pytest.raises(HeaderCapacityError, match="^area 2:"):
        AreaPlan(codecs[0], covers, _flippable(masks))  # capacity
    with pytest.raises(HeaderCapacityError, match="^area 4:"):
        AreaPlan(codecs[3], covers[3:], _flippable(masks[3:]), msg)


def test_header_error_counts_the_areas_without_room(monkeypatch):
    """Areas 2 (k = 0) and 4 (k = 3 < 4 header bits) cannot hold a header;
    the error counts those among the areas eliminated so far, and the
    first stack that holds one raises."""
    rng = np.random.default_rng(22)
    codecs, covers, masks = _toy_areas(rng, (10, 12, 0, 9, 3))
    with pytest.raises(HeaderCapacityError, match=(
            r"^area 2: .*; 2 of the 5 areas eliminated so far lack room")):
        AreaPlan(codecs[0], covers, _flippable(masks))  # capacity, one stack
    # one bit to place: a first stack of areas 1 and 2, and area 4 unseen
    with pytest.raises(HeaderCapacityError, match=(
            r"^area 2: .*; 1 of the 2 areas eliminated so far lack room")):
        AreaPlan(codecs[1], covers[1:], _flippable(masks[1:]),
                 np.ones(1, dtype=np.uint8))
    # one area a stack: the third stack raises, and areas 3 and 4 are unseen
    monkeypatch.setattr(wpc, "STACK_WORDS", 1)
    with pytest.raises(HeaderCapacityError, match=(
            r"^area 2: .*; 1 of the 3 areas eliminated so far lack room")):
        AreaPlan(codecs[0], covers, _flippable(masks))


def test_inconsistent_area_system_raises(monkeypatch):
    """The solution is checked by code that ``python -O`` keeps."""
    solve = gf2.Echelon.solve

    def inconsistent(self, rhs, use):
        v, consistent = solve(self, rhs, use)
        return v, np.zeros_like(consistent)

    monkeypatch.setattr(gf2.Echelon, "solve", inconsistent)
    rng = np.random.default_rng(23)
    cover, mask = rand_area(rng, toy_codec(), 10)
    with pytest.raises(RuntimeError, match="inconsistent"):
        embed_area(pack_bits(cover), mask, toy_codec(), np.ones(3, np.uint8))


@pytest.mark.parametrize("message", [
    np.frombuffer(b"hi", np.uint8), [1, 255, 3], [-1], [0.5], [[0, 1]]])
def test_embed_area_rejects_non_bit_messages(monkeypatch, message):
    """The message is checked on entry, before any elimination."""
    def unreachable(*args):
        raise AssertionError("eliminated for a message that is not bits")

    monkeypatch.setattr(gf2, "Echelon", unreachable)
    cover, mask = rand_area(np.random.default_rng(24), toy_codec(), 10)
    with pytest.raises(ValueError,
                       match="^message must be a 1-D array of 0/1 bits$"):
        embed_area(pack_bits(cover), mask, toy_codec(), message)


@pytest.mark.parametrize("flippable", [np.arange(-10, 0), [3, 16], [40]])
def test_embed_area_rejects_positions_outside_the_area(monkeypatch,
                                                       flippable):
    """Negative positions would wrap around to the area's end; positions
    from n on lie past it. Either is refused before any elimination."""
    def unreachable(*args):
        raise AssertionError("eliminated for positions outside the area")

    monkeypatch.setattr(gf2, "Echelon", unreachable)
    cover = np.random.default_rng(25).integers(0, 2, 16).astype(np.uint8)
    with pytest.raises(ValueError, match="0 .. n-1"):
        embed_area(pack_bits(cover), flippable, toy_codec(),
                   np.ones(3, np.uint8))


@pytest.mark.parametrize("words", [
    np.zeros(1, np.uint64), np.zeros(65, np.uint64), np.zeros(4096, np.uint8)],
    ids=["too_few_words", "too_many_words", "unpacked_bits"])
def test_packed_vectors_of_the_wrong_width_are_refused(monkeypatch, words):
    """A 4096-pixel area packs into 64 words. Other widths used to
    broadcast against the keyed rows; they are refused before any
    keystream is made."""
    def unreachable(*args, **kwargs):
        raise AssertionError("keyed rows made for a vector of the wrong width")

    monkeypatch.setattr(wpc.prng, "matrix_words", unreachable)
    codec, refused = AreaCodec(StegoKey(b"width")), "^an area of 4096 bits"
    with pytest.raises(ValueError, match=refused + " packs into 64 words"):
        extract_area(words, codec)
    with pytest.raises(ValueError, match=refused + " packs into 64 words"):
        embed_area(words, np.arange(100), codec, np.ones(3, np.uint8))


@pytest.mark.parametrize("n", [16, 100, 200])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_extract_areas_is_area_by_area(monkeypatch, rng, n, count):
    """Grouped header reads, here two areas a group, from a first area
    other than 0: each area decodes as it would alone."""
    hb = (n - 1).bit_length()
    monkeypatch.setattr(wpc, "HEADER_GROUP_WORDS", 2 * hb * ((n + 63) // 64))
    codec = AreaCodec(StegoKey(b"areas"), 9, n=n)
    words = pack_bits(rng.integers(0, 2, (count, n), dtype=np.uint8))
    got = extract_area(words, codec)
    assert got.dtype == np.uint8
    expected = [oracle_extract_area(words_to_int(w), codec.key, 9 + i, n)
                for i, w in enumerate(words)]
    assert got.tolist() == [b for bits in expected for b in bits]
    alone = [extract_area(w, AreaCodec(codec.key, 9 + i, n))
             for i, w in enumerate(words)]
    assert got.tolist() == [b for bits in alone for b in bits.tolist()]
