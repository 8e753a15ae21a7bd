"""Reference implementations that only the tests use.

They are the plain loops the library replaced with whole-array code, kept
as oracles: the tests require the library to agree with them.
``oracle_fisher_yates`` runs the keyed shuffle's swaps one by one, from
its own SplitMix64 and FNV-1a, and ``matrix_rows`` makes the keyed rows
from the same two, so neither calls ``wetmark.prng``'s keystream.
``ColumnEchelon`` is the column-at-a-time elimination that ``gf2.Echelon``
replaced with blocks of 8 columns, and ``pad_blocks`` lays ragged systems
out as the stacked blocks of rows that both take. ``component_counts``
counts the 8-connected components of a whole image for the topology
tests, and ``oracle_mask_flags`` builds the flippability mask from nine
shifted copies of the image, one per window cell. The GF(2) helpers at
the end hold rows as Python ints (bit j of a row int = column j);
``solve`` and ``max_independent_prefix`` among them are not oracles but
thin adapters that run the library's word engine on such rows, while
``oracle_solve`` eliminates on the ints alone. ``oracle_embed`` puts the
shuffle, the mask, the keyed rows and that solve together into the whole
embed, one area after another.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from wetmark import gf2
from wetmark.bitmap import MAX_SIDE, BinaryImage, PbmError
from wetmark.flippability import FLIP_TABLE
from wetmark.prng import MASK64, TAG_MATR, TAG_PERM, StegoKey


# --- the keystream and the keyed shuffle, written out independently --------

GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's state increment


def oracle_mix(z):
    """SplitMix64's output function, on a uint64 array or one int."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):  # products wrap mod 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z if z.ndim else int(z)


def oracle_splitmix(seed, count):
    """Outputs 1..count of the SplitMix64 stream started at ``seed``:
    output i is the mix of seed + i * GOLDEN."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed) + steps * np.uint64(GOLDEN)
    return oracle_mix(state).tolist()


def oracle_fnv(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def oracle_fisher_yates(key_bytes, n):
    """The keyed permutation of 0..n-1, its swaps run one by one in order."""
    seed = oracle_mix(oracle_fnv(key_bytes) ^ TAG_PERM)
    words = oracle_splitmix(seed, n - 1)
    arr = list(range(n))
    t = 0
    for i in range(n - 1, 0, -1):
        j = words[t] % (i + 1)
        arr[i], arr[j] = arr[j], arr[i]
        t += 1
    return arr


class KeyedStream:
    """Sequential SplitMix64 word stream."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_word(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return oracle_mix(self.state)


def matrix_rows(key: StegoKey, area: int, rows: int, cols: int) -> list[int]:
    """Rows as Python ints (bit j of the int = column j).

    The area's stream is seeded with the mix of the key's FNV-1a digest,
    the matrix tag and area * GOLDEN; row r is its words r*w .. r*w+w-1,
    w = ceil(cols/64), least significant first, cut to ``cols`` bits.
    """
    seed = oracle_mix(oracle_fnv(key.key_bytes) ^ TAG_MATR
                      ^ ((area * GOLDEN) & MASK64))
    w = -(-cols // 64)
    data = np.array(oracle_splitmix(seed, rows * w), dtype="<u8").tobytes()
    return [int.from_bytes(data[8 * w * r:8 * w * (r + 1)], "little")
            & ((1 << cols) - 1) for r in range(rows)]


def oracle_extract_area(received: int, key: StegoKey, area: int,
                        n: int) -> list[int]:
    """One area's payload bits, read from Python-int rows one at a time:
    the header's parities, most significant first, give the length q,
    then rows hb .. hb+q-1 give the payload."""
    hb = (n - 1).bit_length()
    q = 0
    for row in matrix_rows(key, area, hb, n):
        q = (q << 1) | ((row & received).bit_count() & 1)
    return [(row & received).bit_count() & 1
            for row in matrix_rows(key, area, hb + q, n)[hb:]]


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    n = len(data)
    while True:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos] == ord("#"):
            while pos < n and data[pos] not in (10, 13):
                pos += 1
            continue
        if pos >= n:
            return
        start = pos
        while pos < n and not data[pos:pos + 1].isspace() and data[pos] != ord("#"):
            pos += 1
        yield start, data[start:pos]


def oracle_parse_pbm(data: bytes) -> BinaryImage:
    """Parse a P1 (ASCII) or P4 (binary) PBM byte stream, byte by byte."""
    if len(data) < 2:
        raise PbmError("truncated header")
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise PbmError(f"unsupported magic {magic!r}")

    toks, dims = _tokens(data[2:]), []
    for _ in range(2):
        try:
            _, tok = next(toks)
        except StopIteration:
            raise PbmError("missing dimensions") from None
        # README: a token over 64 bytes is refused as soon as it is read
        if len(tok) > 64:
            raise PbmError("dimension token longer than 64 bytes")
        dims.append(tok)
    # ASCII digits only: int() alone would take a sign or an underscore
    if not all(tok.isdigit() for tok in dims):
        raise PbmError("non-numeric dimensions")
    width, height = map(int, dims)
    if width < 1 or height < 1:
        raise PbmError("non-positive dimensions")
    if width > MAX_SIDE or height > MAX_SIDE:
        raise PbmError(f"dimensions exceed {MAX_SIDE}")

    # Locate the end of the height token so the payload can be parsed raw.
    toks_raw = _tokens(data[2:])
    next(toks_raw)
    hstart, htok2 = next(toks_raw)
    body_off = 2 + hstart + len(htok2)

    if magic == b"P1":
        pos = body_off
        n = len(data)
        # Comments permitted only before the first sample.
        while pos < n:
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos] == ord("#"):
                while pos < n and data[pos] not in (10, 13):
                    pos += 1
            else:
                break
        need = width * height
        samples = np.empty(need, dtype=np.uint8)
        count = 0
        while pos < n and count < need:
            ch = data[pos]
            if ch == ord("0"):
                samples[count] = 0
                count += 1
            elif ch == ord("1"):
                samples[count] = 1
                count += 1
            elif not data[pos:pos + 1].isspace():
                raise PbmError(f"invalid P1 sample byte {ch:#x}")
            pos += 1
        if count < need:
            raise PbmError("truncated P1 payload")
        return BinaryImage(width, height, samples)

    # P4: exactly one whitespace byte after the height token, then packed rows.
    payload_off = body_off + 1
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    payload = data[payload_off:payload_off + need]
    if len(payload) < need:
        raise PbmError("truncated P4 payload")
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    unpacked = np.unpackbits(rows, axis=1)[:, :width]  # MSB-first, pad dropped
    return BinaryImage(width, height, unpacked.reshape(-1).copy())


def oracle_serialize_p1(img: BinaryImage) -> bytes:
    """P1 text, one row per line, built with str.join."""
    lines = [b"P1", f"{img.width} {img.height}".encode()]
    for y in range(img.height):
        row = img.grid()[y]
        lines.append(" ".join(str(int(b)) for b in row).encode())
    return b"\n".join(lines) + b"\n"


# --- topology of a whole image ----------------------------------------------

def component_counts(grid) -> tuple[int, int]:
    """Numbers of 8-connected components of black (1) and of white (0)
    pixels over the whole image, by breadth-first search."""
    cells = np.asarray(grid).tolist()
    height, width = len(cells), len(cells[0])
    seen = [[False] * width for _ in range(height)]
    counts = [0, 0]
    for y in range(height):
        for x in range(width):
            if seen[y][x]:
                continue
            color = cells[y][x]
            counts[color] += 1
            seen[y][x] = True
            queue = deque([(y, x)])
            while queue:
                cy, cx = queue.popleft()
                for ny in range(max(0, cy - 1), min(height, cy + 2)):
                    for nx in range(max(0, cx - 1), min(width, cx + 2)):
                        if not seen[ny][nx] and cells[ny][nx] == color:
                            seen[ny][nx] = True
                            queue.append((ny, nx))
    return counts[1], counts[0]


def oracle_mask_flags(img: BinaryImage) -> np.ndarray:
    """Flat flippability flags of ``img``: each window code is the sum of
    its nine cells shifted by their bit, one shifted copy per cell."""
    g = img.grid()
    codes = np.zeros((img.height - 2, img.width - 2), dtype=np.int16)
    for bit in range(9):
        dr, dc = divmod(bit, 3)
        codes |= g[dr:dr + img.height - 2, dc:dc + img.width - 2].astype(np.int16) << bit
    flags = np.zeros((img.height, img.width), dtype=bool)
    flags[1:-1, 1:-1] = FLIP_TABLE[codes]
    return flags.reshape(-1)


# --- GF(2) elimination one column at a time --------------------------------

_ONE = np.uint64(1)
_SHIFT = np.arange(64, dtype=np.uint64)


def pad_blocks(ragged: np.ndarray, sizes) -> np.ndarray:
    """Ragged systems, system i the next sizes[i] entries of ``ragged``
    (rows, or right-hand side bits), as the block stack ``gf2.Echelon``
    takes: block i holds system i's entries, then zeros up to the largest
    system."""
    sizes = np.asarray(sizes, dtype=np.int64)
    inside = np.arange(sizes.max(initial=0)) < sizes[:, None]
    out = np.zeros(inside.shape + ragged.shape[1:], dtype=ragged.dtype)
    out[inside] = ragged
    return out.reshape((-1,) + ragged.shape[1:])


class ColumnEchelon:
    """``gf2.Echelon``'s lock-step elimination, one column per step.

    Same constructor, on ``count`` stacked blocks of rows of one height,
    ``.prefix`` and ``solve``. Step c takes the first remaining row with
    column c as the pivot of every system that has one, and adds it to
    every remaining row with that column, itself included; ``solve``
    replays the steps forward for the pivots' carried bits and backward
    for the solution, with free variables 0.
    """

    def __init__(self, rows: np.ndarray, count: int):
        rows = np.asarray(rows, dtype=np.uint64)
        words = self.words = rows.shape[1]
        height = self.height = len(rows) // max(count, 1)
        if count * height != len(rows):
            raise ValueError("rows must be count blocks of equal height")
        h = rows.reshape(count, height, words).transpose(2, 1, 0).copy()
        systems = np.arange(count)
        scratch = np.empty((height, count), dtype=np.uint64)
        # the row after the last never pivots
        pivoted = np.zeros((height + 1, count), dtype=bool)
        # (top, column, pivoting systems, their pivot rows, their pivots
        # from the column's word on, the rows from top on that got the
        # pivot, packed)
        self.steps = []
        top = 0
        for c in range(64 * words):
            while top < height and not h[:, top].any():
                top += 1
            if top == height:
                break
            w = c >> 6
            has = (h[w, top:] >> _SHIFT[c & 63]) & _ONE
            adds = has.astype(bool)
            which = np.flatnonzero(adds.any(axis=0))
            if not which.size:
                continue
            first = top + adds.argmax(axis=0)
            pivot = h[w:, first, systems]
            mask = np.negative(has)
            for v in range(w, words):
                np.bitwise_and(mask, pivot[v - w], out=scratch[top:])
                h[v, top:] ^= scratch[top:]
            rows = first[which]
            pivoted[rows, which] = True
            self.steps.append((top, c, which, rows, pivot.T[which],
                               np.packbits(adds, axis=1)))
        self.prefix = np.argmin(pivoted, axis=0)

    def solve(self, rhs_bits: np.ndarray, use) -> tuple[np.ndarray, np.ndarray]:
        use = np.asarray(use, dtype=np.int64)
        count = len(self.prefix)
        if np.shape(rhs_bits) != (count * self.height,):
            raise ValueError("rhs length must equal row count")
        rhs = np.asarray(rhs_bits, dtype=np.uint8)
        rhs = rhs.reshape(count, self.height).T.copy()
        carried = np.zeros((len(self.steps), count), dtype=np.uint8)
        for bit, (top, _, which, rows, _, adds) in zip(carried, self.steps):
            bit[which] = rhs[rows, which]
            rhs[top:] ^= np.unpackbits(adds, axis=1, count=count) & bit
        inside = np.arange(self.height)[:, None] < use
        consistent = ~(rhs.astype(bool) & inside).any(axis=0)
        v = np.zeros((count, self.words), dtype=np.uint64)
        for (_, c, which, rows, pivot, _), bit in zip(reversed(self.steps),
                                                      reversed(carried)):
            w = c >> 6
            parity = np.bitwise_count(pivot & v[which, w:]).sum(axis=1) & 1
            x = (bit[which] ^ parity) & (rows < use[which])
            v[which, w] |= x.astype(np.uint64) << _SHIFT[c & 63]
        return v, consistent


# --- GF(2) rows as Python ints ----------------------------------------------

def words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(np.ascontiguousarray(words, dtype=np.uint64).tobytes(),
                          "little")


def int_to_words(value: int, nbits: int) -> np.ndarray:
    nwords = max(1, (nbits + 63) // 64)
    return np.frombuffer(value.to_bytes(nwords * 8, "little"),
                         dtype=np.uint64).copy()


def rows_to_words(rows: list[int], cols: int) -> np.ndarray:
    nwords = max(1, (cols + 63) // 64)
    out = np.empty((len(rows), nwords), dtype=np.uint64)
    for i, row in enumerate(rows):
        out[i] = np.frombuffer(row.to_bytes(nwords * 8, "little"),
                               dtype=np.uint64)
    return out


def bits_to_int(bits) -> int:
    """LSB-first: bits[j] becomes bit j."""
    out = 0
    for j, b in enumerate(bits):
        if b:
            out |= 1 << j
    return out


def int_to_bits(value: int, n: int) -> np.ndarray:
    return np.array([(value >> j) & 1 for j in range(n)], dtype=np.uint8)


def mat_vec(rows: list[int], x: int) -> int:
    """M @ x over GF(2); output bit i = parity of row i AND x."""
    out = 0
    for i, row in enumerate(rows):
        if (row & x).bit_count() & 1:
            out |= 1 << i
    return out


def rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        row = _reduce(row, basis)
        if row:
            basis.append(row)
    return len(basis)


def _reduce(row: int, basis: list[int]) -> int:
    for b in basis:
        low = b & -b
        if row & low:
            row ^= b
    return row


def solve(rows: list[int], cols: int, rhs: int) -> int | None:
    """Solve M v = rhs over GF(2) with ``gf2.solve_words``, or None if
    inconsistent.

    Pivots go to the lowest-index nonzero column first; free variables
    are set to 0, so the result is deterministic.
    """
    if rhs < 0 or rhs >> len(rows):
        raise ValueError("rhs has more bits than rows")
    for row in rows:
        if row >> cols:
            raise ValueError("row has more bits than cols")
    rhs_bits = np.array([(rhs >> i) & 1 for i in range(len(rows))],
                        dtype=np.uint8)
    v = gf2.solve_words(rows_to_words(rows, cols), rhs_bits)
    return None if v is None else words_to_int(v)


def max_independent_prefix(rows: list[int], cols: int | None = None) -> int:
    """Largest p such that rows[0:p] are linearly independent, from
    ``gf2.max_independent_prefix_words``."""
    if cols is None:
        cols = max((r.bit_length() for r in rows), default=1)
    words = rows_to_words(rows, max(1, cols))
    return int(gf2.max_independent_prefix_words(words, 1).prefix[0])


def oracle_solve(rows: list[int], rhs: list[int]) -> int | None:
    """Solve M v = rhs over GF(2) on Python ints alone, or None if
    inconsistent: pivots go to the lowest column first, and free variables
    are 0.

    Each row is reduced by the echelon rows kept so far, in the order they
    were kept, and kept with its rhs bit unless it reduces to zero. The
    kept rows' lowest columns are the pivots; back-substitution from the
    highest of them sets each, with the other columns 0.
    """
    kept: list[tuple[int, int]] = []
    for row, bit in zip(rows, rhs):
        for pivot, pivot_bit in kept:
            if row & pivot & -pivot:
                row ^= pivot
                bit ^= pivot_bit
        if row:
            kept.append((row, bit))
        elif bit:
            return None
    v = 0
    for row, bit in sorted(kept, key=lambda rb: rb[0] & -rb[0], reverse=True):
        if bit ^ ((row & v).bit_count() & 1):
            v |= row & -row
    return v


# --- the whole pipeline, one area at a time -----------------------------------

def oracle_embed(img: BinaryImage, key_bytes: bytes, message, n: int = 4096):
    """``pipeline.embed`` from the pieces above: the stego bits and each
    area's (k, q_p, flips), or None when some area lacks room for its
    header.

    The pixels are shuffled by ``oracle_fisher_yates`` and cut into areas
    of n; ``oracle_mask_flags`` marks the flippable ones. Greedy spill:
    each area in turn carries as many of the bits left as its keyed rows,
    restricted to its flippable pixels, stay independent behind its
    big-endian length header, and ``oracle_solve`` finds its flips.
    """
    hb = (n - 1).bit_length()
    key = StegoKey(key_bytes)
    perm = oracle_fisher_yates(key_bytes, img.width * img.height)
    flags = oracle_mask_flags(img).tolist()
    bits = img.bits.tolist()
    out = list(bits)
    message = [int(b) for b in message]
    records, sent = [], 0
    for area in range(len(perm) // n):
        pixels = perm[area * n:(area + 1) * n]
        cover = sum(bits[p] << j for j, p in enumerate(pixels))
        cols = [j for j, p in enumerate(pixels) if flags[p]]
        left = len(message) - sent
        rows = matrix_rows(key, area, hb + min(left, max(0, len(cols) - hb)),
                           n)
        restricted = []
        for row in rows:
            text = format(row, f"0{n}b")[::-1]  # column j at index j
            restricted.append(int("".join(text[c] for c in cols)[::-1] or "0",
                                  2))
        basis: list[int] = []  # the longest independent prefix, reduced
        for row in restricted:
            row = _reduce(row, basis)
            if not row:
                break
            basis.append(row)
        prefix = len(basis)
        if prefix < hb:
            return None
        q = min(left, prefix - hb)
        wanted = [(q >> (hb - 1 - i)) & 1 for i in range(hb)]
        wanted += message[sent:sent + q]
        rhs = [((row & cover).bit_count() & 1) ^ b
               for row, b in zip(rows, wanted)]
        v = oracle_solve(restricted[:hb + q], rhs)
        flipped = [pixels[c] for j, c in enumerate(cols) if (v >> j) & 1]
        for p in flipped:
            out[p] ^= 1
        records.append((len(cols), q, len(flipped)))
        sent += q
    return np.array(out, dtype=np.uint8), records, sent
