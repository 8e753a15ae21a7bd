import hashlib
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wetmark import prng
from wetmark.prng import (
    _CHUNK,
    TAG_MATR,
    TAG_PERM,
    StegoKey,
    derive_seed,
    fnv1a64,
    matrix_words,
    mix64,
    permutation,
    stream_words,
)

from conftest import memory_peak
from reference import (
    KeyedStream,
    matrix_rows,
    oracle_fisher_yates,
    oracle_fnv,
    oracle_splitmix,
    rows_to_words,
)

MASK = (1 << 64) - 1


def test_splitmix_published_vector():
    # Frozen by independent evaluation of the reference recurrence at seed 0.
    assert oracle_splitmix(0, 3) == [0xE220A8397B1DCDAF,
                                     0x6E789E6AA1B965F4,
                                     0x06C45D188009454F]
    s = KeyedStream(0)
    assert [s.next_word() for _ in range(3)] == [0xE220A8397B1DCDAF,
                                                 0x6E789E6AA1B965F4,
                                                 0x06C45D188009454F]


def test_fnv1a64_frozen():
    assert fnv1a64(b"key") == 0x3DC94A19365B10EC  # frozen from oracle
    assert fnv1a64(b"key") == oracle_fnv(b"key")
    assert fnv1a64(b"") == 0xCBF29CE484222325


@given(st.integers(0, MASK), st.integers(1, 40))
def test_stream_words_equals_sequential(seed, count):
    s = KeyedStream(seed)
    seq = [s.next_word() for _ in range(count)]
    vec = stream_words(seed, count)
    assert [int(w) for w in vec] == seq
    assert seq == oracle_splitmix(seed, count)


@given(st.integers(0, MASK), st.integers(0, 20), st.integers(1, 20))
def test_stream_words_offset(seed, offset, count):
    full = stream_words(seed, offset + count)
    assert stream_words(seed, count, offset=offset).tolist() == \
        full[offset:].tolist()


def test_derive_seed_determinism_and_separation():
    key = StegoKey(b"shared")
    assert derive_seed(key, TAG_PERM) == derive_seed(key, TAG_PERM)
    assert derive_seed(key, TAG_PERM) != derive_seed(key, TAG_MATR)
    assert derive_seed(key, TAG_MATR, 0) != derive_seed(key, TAG_MATR, 1)
    # oracle: mix64 of fnv ^ tag ^ area*gamma
    expected = mix64(oracle_fnv(b"shared") ^ TAG_MATR
                     ^ ((3 * 0x9E3779B97F4A7C15) & MASK))
    assert derive_seed(key, TAG_MATR, 3) == expected


def test_key_is_stored_as_bytes():
    """A bytes-like key is copied to bytes: it hashes, and a later change
    to its source changes neither its bytes nor its digest. Text goes
    through ``StegoKey.from_text``. A pickle of a key that shuffled is
    that of a new key: the kept permutation stays behind."""
    source = bytearray(b"ab")
    key = StegoKey(source)
    source[0] = ord("z")
    assert key == StegoKey(b"ab") and hash(key) == hash(StegoKey(b"ab"))
    assert key.digest == oracle_fnv(b"ab")
    key.permutation(10)
    assert pickle.dumps(key) == pickle.dumps(StegoKey(b"ab"))
    revived = pickle.loads(pickle.dumps(key))
    assert revived == key and not revived.permutation(10).flags.writeable
    with pytest.raises(TypeError, match="StegoKey.from_text"):
        StegoKey("ab")


def test_key_is_hashed_once(monkeypatch):
    """Seeds come from the digest taken when the key was made; a long key
    is not hashed again for every area of every embed and extract."""
    data = bytes(range(256)) * 16
    key, twin, short = StegoKey(data), StegoKey(data), StegoKey(b"ab")

    def rehashed(_):
        raise RuntimeError("key hashed again")

    monkeypatch.setattr(prng, "fnv1a64", rehashed)
    seed = mix64(oracle_fnv(data) ^ TAG_MATR
                 ^ ((7 * 0x9E3779B97F4A7C15) & MASK))
    assert derive_seed(key, TAG_MATR, 7) == seed
    assert matrix_words(key, 7, 3, 128).reshape(-1).tolist() == \
        oracle_splitmix(seed, 6)
    # The permutation a key keeps is not part of its value.
    assert key.permutation(10).tolist() == permutation(twin, 10).tolist()
    short.permutation(np.int64(5))
    assert key == twin and hash(key) == hash(twin)
    assert repr(short) == "StegoKey(key_bytes=b'ab')"


def test_threads_sharing_a_key_get_the_size_they_ask_for():
    """A key read by several threads, each asking in turn for two sizes,
    hands every caller the permutation of its own size: the kept size and
    permutation are read and replaced together."""
    key = StegoKey(b"shared")
    want = {n: permutation(key, n) for n in (100, 300)}
    done, wrong = [], []

    def work(first):
        for i in range(300):
            n = (100, 300)[(first + i) % 2]
            if not np.array_equal(key.permutation(n), want[n]):
                wrong.append(n)
        done.append(first)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        StegoKey(b"")


def test_key_from_text():
    assert StegoKey.from_text("abc").key_bytes == b"abc"
    assert StegoKey.from_text("hex:00ff").key_bytes == b"\x00\xff"


@pytest.mark.parametrize("n", [1, 2, 8, 4097, 16384, 16385, 67500])
def test_permutation_matches_fisher_yates_with_long_chains(n):
    # Sizes where many swaps draw the same position, so that the links
    # between swaps run many levels deep, unlike at n = 8; the smallest
    # sizes; and 16385, where the no-op last swap is alone in its chunk.
    key = StegoKey(b"fixed-key")
    assert permutation(key, n).tolist() == oracle_fisher_yates(b"fixed-key", n)


@given(st.binary(min_size=1, max_size=16),
       st.sampled_from([m * _CHUNK + d for m in (1, 2) for d in (-1, 0, 1)]))
@settings(max_examples=12, deadline=None)
def test_permutation_matches_fisher_yates_at_chunk_edges(key_bytes, n):
    # The draws, the run ends that the roots pass reads and the final
    # scatter are all cut into chunks.
    assert permutation(StegoKey(key_bytes), n).tolist() == \
        oracle_fisher_yates(key_bytes, n)


@given(st.binary(min_size=1, max_size=16),
       st.integers(3 * _CHUNK, 5 * _CHUNK))
@settings(max_examples=6, deadline=None)
def test_permutation_matches_fisher_yates_across_chunks(key_bytes, n):
    # Over several chunks of run ends, some swaps link to a swap of their
    # own chunk, whose root is not yet known when the chunk is read.
    assert permutation(StegoKey(key_bytes), n).tolist() == \
        oracle_fisher_yates(key_bytes, n)


@pytest.mark.parametrize("n, digest", [
    (1 << 20,
     "70d7a9fc19a0fea88a5e3bba24fc7d8221bfcfa254eaf40a4922690b0fbb0d9e"),
    ((1 << 21) + 1,
     "795eb315d541b315bd6f164f12343de54b9292bb4af10ecdd2c7b62a05cdbb40"),
])
def test_permutation_is_pinned_at_desk_scale(n, digest):
    # Frozen at sizes of a desk scan, 64 and 129 chunks; the oracle tests
    # stop at a few chunks.
    perm = permutation(StegoKey(b"k"), n)
    assert hashlib.sha256(perm.astype("<u4").tobytes()).hexdigest() == digest


_FEW_KEYS = [b"a", b"b", b"c", b"d", b"e", b"f"]


@pytest.mark.parametrize("key_bytes", _FEW_KEYS)
def test_permutation_without_links(key_bytes):
    # At n = 1 and 2 no swap links to an earlier one: the last swap to
    # draw a position is always the one that makes it final.
    for n in (1, 2):
        assert permutation(StegoKey(key_bytes), n).tolist() == \
            oracle_fisher_yates(key_bytes, n)


def test_permutation_without_links_covers_both_draws():
    # Among those keys, the first swap at n = 2 draws either position.
    assert {tuple(oracle_fisher_yates(k, 2)) for k in _FEW_KEYS} == \
        {(0, 1), (1, 0)}


def test_permutation_is_uint32_in_bounded_memory():
    n = 1 << 20
    with memory_peak() as mem:
        perm = permutation(StegoKey(b"k"), n)
    assert perm.dtype == np.uint32
    assert mem.peak <= 20 * n  # the output itself is 4 bytes per pixel


@pytest.mark.parametrize("n", [1, 2, 3 * _CHUNK + 5])
def test_permutation_owns_its_data(n):
    # A view into the 8 B/pixel sort buffer would keep that buffer alive
    # for as long as the permutation is held, as EmbedPlan holds it.
    perm = permutation(StegoKey(b"k"), n)
    assert perm.dtype == np.uint32
    assert perm.flags.c_contiguous and perm.base is None


def test_permutation_size_limits():
    with pytest.raises(ValueError):
        permutation(StegoKey(b"k"), 0)
    with pytest.raises(ValueError):
        permutation(StegoKey(b"k"), (1 << 32) + 1)
    with pytest.raises(TypeError):
        permutation(StegoKey(b"k"), 10.0)
    assert permutation(StegoKey(b"k"), np.int64(10)).tolist() == \
        permutation(StegoKey(b"k"), 10).tolist()


@given(st.binary(min_size=1, max_size=16), st.integers(1, 500))
@settings(max_examples=60)
def test_permutation_is_bijection(key_bytes, n):
    perm = permutation(StegoKey(key_bytes), n)
    assert sorted(perm.tolist()) == list(range(n))


@given(st.binary(min_size=1, max_size=8), st.integers(0, 5),
       st.integers(0, 30), st.integers(0, 40), st.integers(1, 200))
@settings(max_examples=60)
def test_matrix_prefix_property(key_bytes, area, q1, extra, cols):
    key = StegoKey(key_bytes)
    a = matrix_words(key, area, q1, cols)
    b = matrix_words(key, area, q1 + extra, cols)
    assert np.array_equal(b[:q1], a)
    assert np.array_equal(
        b, rows_to_words(matrix_rows(key, area, q1 + extra, cols), cols))


def test_matrix_rows_match_word_oracle():
    key = StegoKey(b"matrix-key")
    area, q, n = 5, 2, 70
    seed = mix64(oracle_fnv(b"matrix-key") ^ TAG_MATR
                 ^ ((5 * 0x9E3779B97F4A7C15) & MASK))
    words = oracle_splitmix(seed, 4)  # 2 rows x ceil(70/64)=2 words
    expected = []
    for r in range(q):
        row = 0
        for j in range(n):
            w = words[r * 2 + j // 64]
            row |= ((w >> (j % 64)) & 1) << j
        expected.append(row)
    assert matrix_rows(key, area, q, n) == expected


def test_leading_rows_equal_each_areas_matrix():
    """Row i of the grouped keystream call is area i's own matrix, for
    areas out of order and apart, area 0 among them, from the first row
    and from a later one."""
    key = StegoKey(b"leading")
    areas = [7, 0, 3, 12]
    for first_row in (0, 3):
        got = matrix_words(key, areas, 5, 70, first_row).reshape(
            len(areas), 5, -1)
        assert got.shape == (4, 5, 2)
        for rows, area in zip(got, areas):
            assert np.array_equal(
                rows, matrix_words(key, area, 5, 70, first_row=first_row))
            whole = matrix_words(key, area, first_row + 5, 70)
            assert np.array_equal(rows, whole[first_row:])


def test_matrix_words_surplus_bits_cleared():
    w = matrix_words(StegoKey(b"k"), 0, 3, 70)
    assert w.shape == (3, 2)
    assert all(int(x) < (1 << 6) for x in w[:, 1])


def test_no_heavy_repeats_in_long_stream():
    words = stream_words(derive_seed(StegoKey(b"sanity"), TAG_MATR), 1 << 20)
    _, counts = np.unique(words, return_counts=True)
    assert counts.max() <= 3
