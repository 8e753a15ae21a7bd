import mmap
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wetmark import bitmap
from wetmark.bitmap import (
    MAX_PIXELS,
    MAX_SIDE,
    BinaryImage,
    PbmError,
    flip_pixel,
    parse_pbm,
    serialize_pbm,
)
from wetmark.flippability import FlippabilityMask

from conftest import memory_peak
from reference import oracle_parse_pbm, oracle_serialize_p1


def test_parse_p1_basic():
    img = parse_pbm(b"P1\n2 2\n1 0\n0 1\n")
    assert (img.width, img.height) == (2, 2)
    assert img.bits.tolist() == [1, 0, 0, 1]


def test_parse_p1_comments_and_whitespace():
    img = parse_pbm(b"P1 # comment\n# another\n 2 # mid\n2\n1010")
    assert img.bits.tolist() == [1, 0, 1, 0]


def test_parse_p4_pad_bits_discarded():
    img = parse_pbm(b"P4\n10 1\n" + bytes([0xFF, 0xC0]))
    assert (img.width, img.height) == (10, 1)
    assert img.bits.tolist() == [1] * 10


def test_parse_p4_multirow():
    # 9x2: each row takes 2 bytes, MSB first
    data = b"P4\n9 2\n" + bytes([0b10000000, 0b10000000, 0x00, 0x00])
    img = parse_pbm(data)
    g = img.grid()
    assert g[0, 0] == 1 and g[0, 8] == 1
    assert g.sum() == 2


@pytest.mark.parametrize("data", [
    b"P5\n2 2\n0000",          # unsupported magic
    b"P1\n0 2\n",              # non-positive dimension
    b"P1\n2 -1\n",             # negative dimension
    b"P1\n2 2\n1 0 1",         # truncated payload
    b"P1\n2 2\n1 0 2 1",       # non-binary sample
    b"P4\n10 2\n\xff",         # truncated P4 payload
    b"P1\n",                   # missing dimensions
    b"P1\n2 two\n1010",        # non-numeric dimension
    b"P4\n8 1",                # no delimiter after the height
    b"P4\n8 1x\xff",           # no delimiter: "1x" is the height token
    b"P4\n8 1#c",              # unterminated comment after the height
    b"P1 1_0 1\n0000000000",   # an underscore, which int() takes
    b"P4 +8 1\n\x00",          # a sign, which int() takes
    b"P1\n+3 1\n000",
])
def test_parse_errors(data):
    with pytest.raises(PbmError):
        parse_pbm(data)


@pytest.mark.parametrize("bits", [
    np.array([256, 1]), np.array([257, 0]), np.array([0.7, 1.0]), [256, 1],
])
def test_image_rejects_values_other_than_0_and_1(bits):
    """Values are checked as given, not after a cast that wraps them."""
    with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
        BinaryImage(2, 1, bits)


def test_serialize_p4_packing():
    img = BinaryImage(10, 1, np.ones(10, dtype=np.uint8))
    out = serialize_pbm(img, "P4")
    assert out.endswith(bytes([0xFF, 0xC0]))


@pytest.mark.parametrize("fmt", ["P1", "P4"])
def test_roundtrip_examples(fmt):
    img = BinaryImage(2, 2, np.array([1, 0, 0, 1], dtype=np.uint8))
    assert parse_pbm(serialize_pbm(img, fmt)) == img


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["P1", "P4"]))
def test_roundtrip_property(w, h, seed, fmt):
    bits = np.random.default_rng(seed).integers(0, 2, w * h).astype(np.uint8)
    img = BinaryImage(w, h, bits)
    assert parse_pbm(serialize_pbm(img, fmt)) == img
    if fmt == "P1":
        assert serialize_pbm(img, fmt) == oracle_serialize_p1(img)


def test_p4_comment_after_height_is_not_raster_data():
    # The comment's terminating CR or LF is the single delimiter byte.
    assert parse_pbm(b"P4\n8 1#c\n\xff").bits.tolist() == [1] * 8
    assert parse_pbm(b"P4\n8 1#c\r\x0f").bits.tolist() == [0] * 4 + [1] * 4


@pytest.mark.parametrize("data", [
    b"P1 # comment\n# another\n 2 # mid\n2\n1010",
    b"P4\n8 1#c\r\x0f",
    b"P1\n2 2\n1 0 1",
    b"P4\n8 1#c",
])
def test_parse_mapped_file_as_bytes(tmp_path, data):
    def outcome(buffer):
        try:
            return parse_pbm(buffer)
        except PbmError as exc:
            return str(exc)

    path = tmp_path / "image.pbm"
    path.write_bytes(data)
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0,
                                           access=mmap.ACCESS_READ) as mapped:
        assert outcome(mapped) == outcome(data)


@pytest.mark.parametrize("magic", [b"P1", b"P4"])
def test_pixel_cap_checked_before_allocation(magic):
    match = f"exceeds {MAX_PIXELS} pixels"
    with memory_peak() as mem, pytest.raises(PbmError, match=match):
        parse_pbm(magic + b"\n65536 65536\n")
    assert mem.peak < 1 << 20
    # The cap itself is allowed; this image fails on its missing payload.
    with pytest.raises(PbmError, match="truncated"):
        parse_pbm(magic + b"\n8192 8192\n")
    assert 8192 * 8192 == MAX_PIXELS


@pytest.mark.parametrize("fmt, per_byte", [("P1", 2), ("P4", 10)])
@pytest.mark.parametrize("width, height", [(2048, 2048), (2001, 1999)])
def test_pbm_memory_bounded_by_file(fmt, per_byte, width, height):
    """A P1 sample takes at least a byte and a P4 byte holds 8 pixels, so
    one image-sized array per parse stays within ``per_byte`` times the
    file. Serializing holds the file's bytes once beside what it returns."""
    rng = np.random.default_rng(width)
    img = BinaryImage(width, height,
                      rng.integers(0, 2, width * height, dtype=np.uint8))
    with memory_peak() as mem:
        data = serialize_pbm(img, fmt)
    assert mem.peak <= 2 * len(data) + (1 << 20)
    with memory_peak() as mem:
        got = parse_pbm(data)
    assert got == img
    assert mem.peak <= per_byte * len(data) + (1 << 20)


def test_short_p1_body_allocates_no_image():
    """A header that declares 8192x8192 over a one-sample body."""
    data = b"P1\n8192 8192\n0"
    with memory_peak() as mem, pytest.raises(PbmError) as got:
        parse_pbm(data)
    assert str(got.value) == "truncated P1 payload"
    assert mem.peak <= 2 * len(data) + (1 << 20)


def test_dimension_tokens_are_bounded():
    # Zero padding counts: a 64-byte token is read, a 65-byte one is not.
    img = parse_pbm(b"P1 " + b"2".zfill(64) + b" 1\n10")
    assert (img.width, img.height) == (2, 1)
    for data in (b"P1 " + b"2".zfill(65) + b" 1\n10",
                 b"P4 2 " + b"x" * 65 + b"\n\x80"):
        with pytest.raises(PbmError, match="longer than 64 bytes"):
            parse_pbm(data)


# --- differential fuzzing against the byte-by-byte reference parser -------

_PBM_BYTES = st.one_of(st.sampled_from(list(b"01 \t\n\v\f\r#9x")),
                       st.integers(0, 255))


@st.composite
def _mutated_pbm(draw):
    """A valid P1 or P4 file, with random separators for P1, then mutated."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=w * h, max_size=w * h))
    img = BinaryImage(w, h, np.array(bits, dtype=np.uint8))
    if draw(st.booleans()):
        data = bytearray(serialize_pbm(img, "P4"))
    else:
        seps = st.sampled_from([b"", b" ", b"\n", b"\t\r\n", b" # c\n"])
        data = bytearray(draw(seps).join([b"P1", str(w).encode(), str(h).encode()]))
        for b in bits:
            data += draw(seps) + str(b).encode()
        data += draw(seps)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if op == "set" and pos < len(data):
            data[pos] = draw(_PBM_BYTES)
        elif op == "insert":
            data[pos:pos] = bytes(draw(st.lists(_PBM_BYTES, min_size=1, max_size=4)))
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 4))]
        elif op == "truncate":
            del data[pos:]
    return bytes(data)


def _outcome(parse, data):
    try:
        img = parse(data)
    except PbmError as exc:
        return str(exc)
    return img.width, img.height, img.bits.tolist()


@given(st.one_of(
    _mutated_pbm(),
    st.binary(max_size=64),
    st.builds(bytes.__add__, st.sampled_from([b"P1", b"P4"]),
              st.binary(max_size=64)),
))
@settings(max_examples=600)
@example(b"P1116" + b"0" * 66)  # a 69-byte width token and no height
def test_parse_fuzz_against_oracle(data):
    # Any exception other than PbmError fails the test.
    got = _outcome(parse_pbm, data)
    if isinstance(got, tuple):
        img = parse_pbm(data)
        assert img.bits.size == img.width * img.height
        assert set(img.bits.tolist()) <= {0, 1}
        for fmt in ("P1", "P4"):
            assert parse_pbm(serialize_pbm(img, fmt)) == img
        assert serialize_pbm(img, "P1") == oracle_serialize_p1(img)
    # P4 is left out: a comment after its height is no longer raster data.
    # Over the pixel cap, the reference would allocate the image.
    if data.startswith(b"P1") and got != f"image exceeds {MAX_PIXELS} pixels":
        assert got == _outcome(oracle_parse_pbm, data)
        with mock.patch.object(bitmap, "_P1_CHUNK", 3):  # many chunk edges
            assert _outcome(parse_pbm, data) == got


_C = bitmap._P1_CHUNK  # the real chunk size; the tests below do not patch it


def _p1_samples(count: int, sep: bytes = b"") -> bytes:
    """``count`` samples 0, 1, 0, 0, 1, 0, ... joined by ``sep``."""
    return sep.join(b"1" if i % 3 == 1 else b"0" for i in range(count))


def _p1_with(width, height, body: bytes) -> bytes:
    return b"P1\n%d %d\n" % (width, height) + body


def _spaced_body_with(offset: int, byte: bytes) -> bytes:
    """Samples and whitespace of a 256x300 image, two bytes a sample,
    with one byte at ``offset`` from the first sample replaced."""
    body = bytearray(_p1_samples(256 * 300, b" "))
    body[offset:offset + 1] = byte
    return bytes(body)


@pytest.mark.parametrize("data, expected", [
    # an invalid byte as the last and as the first byte of a chunk
    (_p1_with(256, 300, _spaced_body_with(_C - 1, b"x")),
     "invalid P1 sample byte 0x78"),
    (_p1_with(256, 300, _spaced_body_with(_C, b"\xff")),
     "invalid P1 sample byte 0xff"),
    (_p1_with(256, 300, _spaced_body_with(2 * _C - 1, b"2")),
     "invalid P1 sample byte 0x32"),
    (_p1_with(256, 300, _spaced_body_with(2 * _C, b"#")),
     "invalid P1 sample byte 0x23"),
    (_p1_with(256, 300, _p1_samples(_C) + b"x" + _p1_samples(256 * 300)),
     "invalid P1 sample byte 0x78"),
    # a chunk of nothing but whitespace between two samples
    (_p1_with(256, 300, _p1_samples(_C) + b" \t\n\v\f\r" * (_C // 6)
              + b" " * (_C % 6) + _p1_samples(256 * 300 - _C)), None),
    # junk after the last needed sample, in its chunk and in the next one
    (_p1_with(256, 300, _p1_samples(256 * 300) + b"x#\xff 2"), None),
    (_p1_with(256, 256, _p1_samples(_C) + b"#junk\xff"), None),
    (_p1_with(256, 256, _p1_samples(_C - 1, b"\n") + b"\n" * _C + b"1x"),
     None),
    # too few samples once a whole chunk of whitespace is deleted
    (_p1_with(256, 256, _p1_samples(_C - 1) + b"\n" * _C),
     "truncated P1 payload"),
    # comments are allowed before the first sample only
    (b"P1\n2 2\n# c\n1 # c\n0 1 0", "invalid P1 sample byte 0x23"),
], ids=["x-last-of-chunk", "ff-first-of-chunk", "2-last-of-chunk-2",
        "hash-first-of-chunk-3", "x-first-of-chunk-unspaced",
        "whitespace-chunk", "junk-same-chunk", "junk-next-chunk",
        "junk-after-whitespace-chunk", "truncated-after-whitespace-chunk",
        "hash-after-first-sample"])
def test_p1_chunk_edges_against_oracle(data, expected):
    got = _outcome(parse_pbm, data)
    assert got == _outcome(oracle_parse_pbm, data)
    if expected is None:
        assert isinstance(got, tuple)
    else:
        assert got == expected


def test_flip_pixel_involution():
    img = BinaryImage(2, 2, np.array([1, 0, 0, 1], dtype=np.uint8))
    flipped = flip_pixel(img, 0)
    assert flipped.bits.tolist() == [0, 0, 0, 1]
    assert flip_pixel(flipped, 0) == img
    # exactly one bit differs
    assert int((flipped.bits ^ img.bits).sum()) == 1


def test_flip_pixel_bounds():
    img = BinaryImage(2, 2, np.zeros(4, dtype=np.uint8))
    with pytest.raises(IndexError):
        flip_pixel(img, 4)
    with pytest.raises(IndexError):
        flip_pixel(img, -1)


@pytest.mark.parametrize("raster, side", [(BinaryImage, 1),
                                          (FlippabilityMask, 3)])
def test_image_invariants(raster, side):
    """Both 1-bit rasters take sizes and values by one rule; ``side`` is
    the least width and height each accepts."""
    with pytest.raises(ValueError, match="width\\*height"):
        raster(3, 3, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError, match="must be 0 or 1"):
        raster(3, 3, np.array([0, 1, 2] + [0] * 6, dtype=np.uint8))
    for width, height in ((0, 3), (-3, -3), (side - 1, 9), (9, side - 1)):
        with pytest.raises(ValueError):
            raster(width, height, np.zeros(width * height, np.uint8))
    with pytest.raises(ValueError, match="pixels"):
        raster(MAX_SIDE, MAX_SIDE, np.zeros(0, dtype=np.uint8))
    with pytest.raises(TypeError):
        raster(3.0, 3, np.zeros(9, dtype=np.uint8))
    made = raster(np.int64(3), np.uint16(side), np.zeros(3 * side, np.uint8))
    assert type(made.width) is type(made.height) is int


def test_image_is_immutable():
    img = BinaryImage(2, 2, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        img.bits[0] = 1


def test_image_copies_an_array_its_caller_can_write():
    """A writable array stays the caller's: the image neither freezes it
    nor sees later writes to it, also through a view. An array that no
    one can write is kept as it is."""
    a = np.zeros(9, dtype=np.uint8)
    BinaryImage(3, 3, a)
    a[0] = 1
    g = np.zeros((3, 3), dtype=np.uint8)
    img = BinaryImage(3, 3, g.reshape(-1))
    g[1, 1] = 1
    assert img.bits[4] == 0
    a.setflags(write=False)
    assert np.shares_memory(BinaryImage(3, 3, a).bits, a)
