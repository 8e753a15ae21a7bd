"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import hashlib
import inspect
import time

import numpy as np
import pytest

import wetmark as wm
from wetmark.bitmap import parse_pbm, serialize_pbm
from wetmark.pipeline import MessageTooLongError, plan
from wetmark.prng import StegoKey
from wetmark.wpc import (
    AREA_SIZE,
    AreaCodec,
    HeaderCapacityError,
    embed_area,
    extract_area,
    pack_bits,
    unpack_bits,
)

from conftest import synth_image
from reference import (
    bits_to_int,
    mat_vec,
    matrix_rows,
    max_independent_prefix,
    solve,
)
from test_flippability import _dihedral_mappings, _transform_code, oracle_is_flippable
from test_gf2 import brute_solutions, oracle_prefix


@contextlib.contextmanager
def criterion(number, description, limit_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None and elapsed > limit_s:
        print(f"[FAIL] criterion {number}: {description} "
              f"({elapsed:.2f}s > {limit_s}s)")
        pytest.fail(f"criterion {number} exceeded {limit_s}s: {elapsed:.2f}s")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_flippability_oracle():
    with criterion(1, "flippability oracle + symmetry on all 512 patterns",
                   limit_s=1.0):
        maps = _dihedral_mappings()
        for code in range(512):
            value = wm.is_flippable(code)
            assert value == oracle_is_flippable(code)
            for m in maps:
                assert wm.is_flippable(_transform_code(code, m)) == value
            assert wm.is_flippable(code ^ 0x1FF) == value


def test_criterion_2_gf2_solver_equivalence():
    with criterion(2, "GF(2) solve vs exhaustive search, prefix vs rank oracle",
                   limit_s=5.0):
        r = np.random.default_rng(2024)
        for _ in range(1000):
            cols = int(r.integers(1, 7))
            n_rows = int(r.integers(1, 7))
            rows = [int(r.integers(0, 1 << cols)) for _ in range(n_rows)]
            rhs = int(r.integers(0, 1 << n_rows))
            sols = brute_solutions(rows, cols, rhs)
            v = solve(rows, cols, rhs)
            if not sols:
                assert v is None
            else:
                assert v in sols
                assert mat_vec(rows, v) == rhs
                if n_rows == cols and oracle_prefix(rows, cols) == cols:
                    assert len(sols) == 1 and v == sols[0]
        for _ in range(200):
            cols = int(r.integers(1, 12))
            n_rows = int(r.integers(1, 12))
            rows = [int(r.integers(0, 1 << cols)) for _ in range(n_rows)]
            assert max_independent_prefix(rows, cols) == \
                oracle_prefix(rows, cols)


def test_criterion_3_toy_wpc_oracle():
    with criterion(3, "toy n=16 WPC roundtrip + brute-force b' validity",
                   limit_s=10.0):
        r = np.random.default_rng(3033)
        successes = 0
        attempts = 0
        while successes < 500:
            attempts += 1
            assert attempts < 1200, "too many rank-deficient draws"
            key = bytes(r.integers(0, 256, 4, dtype=np.uint8))
            codec = AreaCodec(StegoKey(key), int(r.integers(0, 8)), n=16)
            k = int(r.integers(4, 11))
            cover = r.integers(0, 2, 16).astype(np.uint8)
            mask = np.sort(r.choice(16, k, replace=False))
            msg = r.integers(0, 2, int(r.integers(0, 9))).astype(np.uint8)
            try:
                result, used = embed_area(pack_bits(cover), mask, codec, msg)
            except HeaderCapacityError:
                continue
            assert extract_area(result.modified_words,
                                codec).tolist() == msg[:used].tolist()

            # validity: enumerate all 2^k flip patterns by subset-XOR
            hb = codec.header_bits
            q = hb + used
            d = matrix_rows(codec.key, codec.area_index, q, codec.n)
            cover_int = bits_to_int(cover)
            base = mat_vec(d, cover_int)
            cols = [mat_vec(d, 1 << int(mask[j])) for j in range(k)]
            header = [(used >> (hb - 1 - i)) & 1 for i in range(hb)]
            m_int = bits_to_int(header + msg[:used].tolist())
            syn = [0] * (1 << k)
            valid = set()
            for pattern in range(1 << k):
                if pattern:
                    low = pattern & -pattern
                    syn[pattern] = syn[pattern ^ low] ^ cols[low.bit_length() - 1]
                if base ^ syn[pattern] == m_int:
                    flipped = cover_int
                    for j in range(k):
                        if (pattern >> j) & 1:
                            flipped ^= 1 << int(mask[j])
                    valid.add(flipped)
            got = bits_to_int(unpack_bits(result.modified_words, 16))
            assert got in valid
            successes += 1


def _roundtrip_images(count, start_seed):
    key_rng = np.random.default_rng(start_seed)
    for i in range(count):
        img = synth_image(128, 128, start_seed + i)
        key = StegoKey(bytes(key_rng.integers(0, 256, 8, dtype=np.uint8)))
        yield i, img, key


def test_criterion_4_end_to_end_at_capacity():
    with criterion(4, "100 images: roundtrip at 100% capacity; capacity+1 fails",
                   limit_s=30.0):
        msg_rng = np.random.default_rng(404)
        for i, img, key in _roundtrip_images(100, 9000):
            cap = wm.capacity(img, key).n_embedded
            assert cap > 0
            msg = msg_rng.integers(0, 2, cap).astype(np.uint8)
            stego, report = wm.embed(img, key, msg)
            assert report.n_embedded == cap
            assert np.array_equal(wm.extract(stego, key), msg)
            with pytest.raises(MessageTooLongError):
                wm.embed(img, key, np.append(msg, 1).astype(np.uint8))


def test_criterion_5_structural_relations():
    with criterion(5, "report accounting: N_A, N_E = sum q_p, "
                      "N_E <= N_FP - 12*N_A; 300x225 -> 16 areas"):
        rng = np.random.default_rng(505)
        for i, img, key in _roundtrip_images(10, 5050):
            cap = wm.capacity(img, key).n_embedded
            msg = rng.integers(0, 2, int(rng.integers(0, cap + 1))).astype(np.uint8)
            _, report = wm.embed(img, key, msg)
            assert report.n_areas == (img.width * img.height) // AREA_SIZE
            assert report.n_embedded == sum(r.q_p for r in report.per_area)
            assert report.n_embedded <= report.n_flippable - 12 * report.n_areas
        scan_scale = synth_image(300, 225, 777)
        p = plan(scan_scale, StegoKey(b"table"))
        assert p.n_areas == 16


def test_criterion_6_support_and_leftover():
    with criterion(6, "stego-cover diff within mask; leftover pixels inert"):
        rng = np.random.default_rng(606)
        img = synth_image(100, 70, 66)  # 7000 px: 1 area + 2904 leftover
        key = StegoKey(b"support")
        p = plan(img, key)
        cap = wm.capacity(img, key).n_embedded
        msg = rng.integers(0, 2, cap).astype(np.uint8)
        stego, _ = wm.embed(img, key, msg)
        diff = set(np.nonzero(stego.bits ^ img.bits)[0].tolist())
        assert diff <= set(p.mask.indices.tolist())
        leftover = p.permutation[p.n_areas * AREA_SIZE:]
        assert len(leftover) == 2904
        assert np.array_equal(stego.bits[leftover], img.bits[leftover])
        poked = wm.flip_pixel(stego, int(leftover[17]))
        assert np.array_equal(wm.extract(poked, key), msg)


def test_criterion_7_blind_decoding():
    with criterion(7, "extraction takes only (image, key); no mask input"):
        params = list(inspect.signature(wm.extract).parameters)
        assert params == ["img", "key"]
        assert "flippable" not in inspect.signature(wm.extract_area).parameters
        rng = np.random.default_rng(707)
        img = synth_image(128, 128, 70)
        key = StegoKey(b"blind")
        msg = rng.integers(0, 2, 300).astype(np.uint8)
        stego, _ = wm.embed(img, key, msg)
        # round-trip the stego through bytes: all mask/plan metadata discarded
        revived = parse_pbm(serialize_pbm(stego, "P4"))
        assert np.array_equal(wm.extract(revived, key)[:300], msg)


def test_criterion_8_determinism_and_interop():
    with criterion(8, "bit-identical repeated runs + frozen reference digest"):
        img = synth_image(128, 128, 99)
        key = StegoKey(b"interop")
        msg = np.unpackbits(np.frombuffer(b"wet paper", dtype=np.uint8))
        outputs = {serialize_pbm(wm.embed(img, key, msg)[0], "P4")
                   for _ in range(3)}
        assert len(outputs) == 1
        digest = hashlib.sha256(outputs.pop()).hexdigest()
        # Pinned from the normative PRNG/permutation/bit-order definitions;
        # any platform drift breaks interop and must fail here.
        assert digest == ("472838371a8d3478343ff2fe0c6464"
                          "78ceb573efb4787f6d6c0ad70003b82d8d")


def test_criterion_9_desk_scale_performance():
    # A small embed and extract first, so one-time costs of a first call
    # (lazy imports, first allocations) stay out of the timed runs.
    rng = np.random.default_rng(909)
    key = StegoKey(b"speed")
    warm = synth_image(64, 64, 90)
    warm_cap = wm.capacity(warm, key).n_embedded
    wm.extract(wm.embed(warm, key,
                        rng.integers(0, 2, warm_cap).astype(np.uint8))[0], key)

    img = synth_image(1024, 1024, 91)
    cap = wm.capacity(img, key).n_embedded
    msg = rng.integers(0, 2, cap).astype(np.uint8)
    with criterion(9, "1024x1024 embed < 2 s", limit_s=2.0):
        stego, _ = wm.embed(img, key, msg)
    with criterion(9, "1024x1024 extract < 0.5 s", limit_s=0.5):
        out = wm.extract(stego, key)
    assert np.array_equal(out, msg)
