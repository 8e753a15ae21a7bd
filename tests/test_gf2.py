import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wetmark import gf2

from reference import (
    ColumnEchelon,
    bits_to_int,
    brute_solutions,
    int_to_bits,
    int_to_words,
    mat_vec,
    max_independent_prefix,
    oracle_prefix,
    pad_blocks,
    pivot_columns,
    rank,
    rows_to_words,
    solve,
    words_to_int,
)


def test_mat_vec_identity():
    identity = [0b001, 0b010, 0b100]
    assert mat_vec(identity, 0b101) == 0b101


def test_mat_vec_zero():
    rows = [0b110, 0b011, 0b101]
    assert mat_vec(rows, 0) == 0


def test_mat_vec_example():
    # rows (1,1,0) and (0,1,1) times x = (1,1,1): both parities are 0
    rows = [0b011, 0b110]
    assert mat_vec(rows, 0b111) == 0b00


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_mat_vec_linearity(rows_n, cols, seed):
    r = np.random.default_rng(seed)
    rows = [int(r.integers(0, 1 << cols)) for _ in range(rows_n)]
    x = int(r.integers(0, 1 << cols))
    y = int(r.integers(0, 1 << cols))
    assert mat_vec(rows, x ^ y) == mat_vec(rows, x) ^ mat_vec(rows, y)


def test_solve_identity():
    assert solve([0b001, 0b010, 0b100], 3, 0b101) == 0b101


def test_solve_triangular_example():
    # rows (1,1) and (0,1), rhs (0,1) -> v = (1,1); bit 0 = first column
    v = solve([0b11, 0b10], 2, 0b10)
    assert v == 0b11
    assert v in brute_solutions([0b11, 0b10], 2, 0b10)


def test_solve_inconsistent():
    assert solve([0b11, 0b11], 2, 0b01) is None


def test_solve_dimension_checks():
    words = rows_to_words([0b01, 0b10, 0b11], 2)
    with pytest.raises(ValueError, match="blocks"):
        gf2.Echelon(words, 2)  # 3 rows are not 2 blocks of one height
    with pytest.raises(ValueError, match="blocks"):
        gf2.Echelon(words, 0)
    echelon = gf2.Echelon(words, 3)
    with pytest.raises(ValueError, match="rhs"):
        echelon.solve(np.zeros(2, dtype=np.uint8), [1, 1, 1])  # rhs too short
    with pytest.raises(ValueError, match="rhs"):
        gf2.solve_words(words, np.zeros(4, dtype=np.uint8))  # rhs too long


def test_solve_rejects_non_bits():
    # Rows x0 and x1: a full-rank system, which a cast of 2 to uint8
    # would call inconsistent, and 256 would wrap to 0.
    words = rows_to_words([0b01, 0b10], 2)
    with pytest.raises(ValueError, match="0 or 1"):
        gf2.solve_words(words, np.array([2, 0]))
    with pytest.raises(ValueError, match="0 or 1"):
        gf2.Echelon(words, 1).solve([256, 0], [2])
    with pytest.raises(ValueError, match="0 or 1"):
        gf2.Echelon(words, 1).solve(np.array([0.5, 1.0]), [2])
    v, consistent = gf2.Echelon(words, 1).solve([True, False], [2])
    assert consistent[0] and words_to_int(v[0]) == 0b01


def test_solve_underdetermined_free_vars_zero():
    # single equation x0 + x2 = 1 over 3 unknowns; pivot on column 0
    assert solve([0b101], 3, 0b1) == 0b001


def test_prefix_examples():
    assert max_independent_prefix([0b01, 0b10, 0b11], 2) == 2
    assert max_independent_prefix([], 4) == 0
    assert max_independent_prefix([0], 4) == 0
    assert max_independent_prefix([0b1], 1) == 1


def test_prefix_random_64_columns():
    r = np.random.default_rng(7)
    rows = [int(r.integers(0, 1 << 63)) for _ in range(50)]
    assert max_independent_prefix(rows, 64) == oracle_prefix(rows)


def test_words_int_roundtrip():
    for value, nbits in [(0, 1), (1, 1), (0b1011, 4), (1 << 100, 101)]:
        assert words_to_int(int_to_words(value, nbits)) == value


def test_bits_int_roundtrip():
    bits = [1, 0, 1, 1, 0]
    assert int_to_bits(bits_to_int(bits), 5).tolist() == bits


def test_mat_vec_words_agrees_with_ints():
    r = np.random.default_rng(3)
    cols = 130
    rows = [int(r.integers(0, 1 << 63)) << int(r.integers(0, 60)) for _ in range(9)]
    rows = [row & ((1 << cols) - 1) for row in rows]
    x = int(r.integers(0, 1 << 63)) | (int(r.integers(0, 1 << 63)) << 64)
    words = rows_to_words(rows, cols)
    xw = int_to_words(x, cols)
    expected = mat_vec(rows, x)
    got = bits_to_int(gf2.mat_vec_words(words, xw))
    assert got == expected


# --- blocks of 8 columns against the Python-int oracles --------------------

def check_stack(systems, cols, r):
    """Prefix and solves of one stacked elimination against ranks,
    mat-vec products and the pivot columns of each system on its own."""
    sizes = [len(s) for s in systems]
    words = np.concatenate([rows_to_words(rows, cols) for rows in systems])
    echelon = gf2.Echelon(pad_blocks(words, sizes), len(systems))
    for rows, p in zip(systems, echelon.prefix.tolist()):
        assert rank(rows[:p]) == p
        assert p == len(rows) or rank(rows[:p + 1]) == p
    uses = [[len(s) for s in systems], echelon.prefix.tolist()]
    uses += [[int(r.integers(0, len(s) + 1)) for s in systems]
             for _ in range(20)]
    for use in uses:
        rhs = [bits_to_int(r.integers(0, 2, u).tolist()) for u in use]
        rhs_bits = np.concatenate(
            [int_to_bits(b, len(s)) for b, s in zip(rhs, systems)])
        v, consistent = echelon.solve(pad_blocks(rhs_bits, sizes), use)
        for i, rows in enumerate(systems):
            block = rows[:use[i]]
            augmented = [row | ((rhs[i] >> j) & 1) << cols
                         for j, row in enumerate(block)]
            assert consistent[i] == (rank(augmented) == rank(block))
            if consistent[i]:
                x = words_to_int(v[i])
                assert mat_vec(block, x) == rhs[i]
                # free variables 0: only pivot columns are set
                assert x & ~pivot_columns(block, cols) == 0


def rows_over(r, n, columns):
    """n rows, each bit of ``columns`` set with probability 1/2."""
    out = []
    for _ in range(n):
        bits = r.integers(0, 2, len(columns)).tolist()
        out.append(sum(b << c for b, c in zip(bits, columns)))
    return out


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 129])
def test_block_edges_column_counts(cols):
    r = np.random.default_rng(cols)
    every = range(cols)
    systems = [rows_over(r, cols + 2, every), rows_over(r, cols // 2 + 1, every),
               rows_over(r, 5, every), [], rows_over(r, cols, every)]
    check_stack(systems, cols, r)


def test_block_edges_empty_block_between_pivoting_ones():
    # No row has any of columns 8-15, so no system pivots in that block.
    r = np.random.default_rng(1)
    columns = [*range(8), *range(16, 24)]
    systems = [rows_over(r, n, columns) for n in (20, 16, 9, 3)]
    check_stack(systems, 24, r)


def test_block_edges_systems_shorter_than_a_block():
    r = np.random.default_rng(2)
    systems = [rows_over(r, n, range(20)) for n in range(1, 8)]
    systems[3][2] = systems[3][0] ^ systems[3][1]  # a dependent row
    systems[5][4] = systems[5][1]                  # a repeated row
    check_stack(systems, 20, r)


def test_block_edges_across_a_word_boundary():
    # Pivots only in columns 56-71: the last block of word 0 and the
    # first of word 1.
    r = np.random.default_rng(3)
    systems = [rows_over(r, n, range(56, 72)) for n in (20, 16, 12, 1)]
    check_stack(systems, 72, r)


def test_block_edges_one_system_pivots_alone():
    # Only system 0 has columns 8-15, so it pivots there alone.
    r = np.random.default_rng(4)
    alone = rows_over(r, 24, range(24))
    others = [rows_over(r, n, [*range(8), *range(16, 24)]) for n in (24, 10)]
    check_stack([alone] + others, 24, r)


@pytest.mark.parametrize("cols, shapes", [
    # (rows, first column, columns used) per system. Mixed sizes: empty,
    # padded within a stack, rank-deficient.
    (8, [(5, 0, 8), (0, 0, 8), (7, 0, 8), (6, 0, 8), (1, 0, 8), (12, 0, 8),
         (9, 0, 8), (3, 0, 8)]),
    # Rows that start in different words, and pivots spread over several
    # words within one system.
    (200, [(80, 0, 150), (70, 40, 120), (20, 130, 62), (100, 0, 100),
           (65, 64, 64)]),
])
def test_block_edges_mixed_system_shapes(cols, shapes):
    r = np.random.default_rng(cols)
    systems = [rows_over(r, n, range(start, start + width))
               for n, start, width in shapes]
    systems[0][3] = systems[0][1] ^ systems[0][2]  # a dependent row
    check_stack(systems, cols, r)


# --- differential test against the column-at-a-time elimination -----------

def stack_rows(r, kind, sizes, words):
    """Random rows of one kind for stacked systems of the given sizes."""
    total = int(sum(sizes))
    rows = r.integers(0, 1 << 64, (total, words), dtype=np.uint64)
    if kind == "sparse":  # each bit set with probability 1/32
        for _ in range(4):
            rows &= r.integers(0, 1 << 64, (total, words), dtype=np.uint64)
    elif kind == "deficient":  # combinations of a few rows
        base = r.integers(0, 1 << 64, (int(r.integers(1, 12)), words),
                          dtype=np.uint64)
        picks = r.integers(0, 2, (total, len(base))).astype(bool)
        rows = np.array([np.bitwise_xor.reduce(base[p], axis=0) if p.any()
                         else np.zeros(words, dtype=np.uint64) for p in picks],
                        dtype=np.uint64).reshape(total, words)
    elif kind == "repeated":  # zero rows and copies of earlier rows
        for i in range(total):
            pick = r.integers(4)
            if pick == 0:
                rows[i] = 0
            elif pick == 1 and i:
                rows[i] = rows[r.integers(i)]
    return rows


@given(st.lists(st.integers(0, 140), max_size=8), st.integers(1, 4),
       st.sampled_from(["dense", "sparse", "deficient", "repeated"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_echelon_matches_column_elimination(sizes, words, kind, seed):
    r = np.random.default_rng(seed)
    rows = pad_blocks(stack_rows(r, kind, sizes, words), sizes)
    echelon = gf2.Echelon(rows, len(sizes))
    oracle = ColumnEchelon(rows, len(sizes))
    assert np.array_equal(echelon.prefix, oracle.prefix)
    sizes = np.array(sizes, dtype=np.int64)
    for use in (0 * sizes, oracle.prefix, np.minimum(sizes, oracle.prefix + 1),
                sizes, r.integers(0, sizes + 1)):
        rhs = pad_blocks(r.integers(0, 2, sizes.sum(), dtype=np.uint8), sizes)
        v, consistent = echelon.solve(rhs, use)
        v_oracle, consistent_oracle = oracle.solve(rhs, use)
        assert np.array_equal(consistent, consistent_oracle)
        assert np.array_equal(v, v_oracle)


@pytest.mark.parametrize("engine", [gf2.Echelon, ColumnEchelon])
@pytest.mark.parametrize("count, height, words", [
    (1, 6, 1),   # one block of one-word rows: its view is contiguous
    (1, 6, 3),   # one block
    (4, 5, 1),   # one-word rows
    (3, 7, 2),
])
def test_echelon_leaves_its_input_unchanged(engine, count, height, words):
    """Elimination and solves work on copies, whatever the layout."""
    r = np.random.default_rng(count * height * words)
    rows = r.integers(0, 1 << 64, (count * height, words), dtype=np.uint64)
    rhs = r.integers(0, 2, count * height, dtype=np.uint8)
    rows_before, rhs_before = rows.copy(), rhs.copy()
    echelon = engine(rows, count)
    echelon.solve(rhs, np.full(count, height))
    assert np.array_equal(rows, rows_before)
    assert np.array_equal(rhs, rhs_before)
