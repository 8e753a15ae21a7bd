import json
import os
import tracemalloc

import numpy as np
import pytest

from wetmark import pipeline
from wetmark.bitmap import parse_pbm, serialize_pbm
from wetmark.cli import main
from wetmark.prng import StegoKey

from conftest import synth_image


@pytest.fixture
def cover(tmp_path):
    img = synth_image(128, 128, 21)
    path = tmp_path / "cover.pbm"
    path.write_bytes(serialize_pbm(img, "P4"))
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_embed_extract_roundtrip(tmp_path, cover, capsys):
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"attack at dawn")
    stego = tmp_path / "stego.pbm"
    out = tmp_path / "out.bin"
    report = tmp_path / "report.json"

    assert run(["embed", "--in", cover, "--key", "swordfish",
                "--msg", msg, "--out", stego, "--report", report]) == 0
    assert run(["extract", "--in", stego, "--key", "swordfish",
                "--out", out]) == 0
    recovered = out.read_bytes()
    assert recovered[:14] == b"attack at dawn"
    assert set(recovered[14:]) <= {0}  # trailing zero-header areas pad

    doc = json.loads(report.read_text())
    assert doc["N_E"] >= 14 * 8
    assert doc["N_E"] == sum(a["q_p"] for a in doc["areas"])


def test_stego_preserves_input_variant(tmp_path, cover):
    p1 = tmp_path / "cover1.pbm"
    p1.write_bytes(serialize_pbm(parse_pbm(cover.read_bytes()), "P1"))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x")
    out4 = tmp_path / "s4.pbm"
    out1 = tmp_path / "s1.pbm"
    assert run(["embed", "--in", cover, "--key", "k", "--msg", msg,
                "--out", out4]) == 0
    assert run(["embed", "--in", p1, "--key", "k", "--msg", msg,
                "--out", out1]) == 0
    assert out4.read_bytes()[:2] == b"P4"
    assert out1.read_bytes()[:2] == b"P1"
    # same stego pixels either way
    assert parse_pbm(out4.read_bytes()) == parse_pbm(out1.read_bytes())


def test_format_override(tmp_path, cover):
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"y")
    out = tmp_path / "s.pbm"
    assert run(["embed", "--in", cover, "--key", "k", "--msg", msg,
                "--out", out, "--format", "p1"]) == 0
    assert out.read_bytes()[:2] == b"P1"


def test_hex_key(tmp_path, cover):
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"z")
    s1 = tmp_path / "s1.pbm"
    s2 = tmp_path / "s2.pbm"
    assert run(["embed", "--in", cover, "--key", "hex:6b", "--msg", msg,
                "--out", s1]) == 0
    assert run(["embed", "--in", cover, "--key", "k", "--msg", msg,
                "--out", s2]) == 0
    assert s1.read_bytes() == s2.read_bytes()  # "k" == hex 6b


def test_capacity_json(cover, capsys):
    assert run(["capacity", "--in", cover, "--key", "k"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N_A"] == (128 * 128) // 4096
    assert doc["N_E"] == sum(a["q_p"] for a in doc["areas"])


def test_capacity_all_white(tmp_path):
    blank = tmp_path / "blank.pbm"
    blank.write_bytes(b"P1\n64 64\n" + b"0 " * 4096)
    assert run(["capacity", "--in", blank, "--key", "k"]) == 2


def test_message_too_long_exit(tmp_path, cover, capsys):
    assert run(["capacity", "--in", cover, "--key", "k"]) == 0
    cap_bits = json.loads(capsys.readouterr().out)["N_E"]
    msg = tmp_path / "big.bin"
    msg.write_bytes(bytes(cap_bits // 8 + 1))
    assert run(["embed", "--in", cover, "--key", "k", "--msg", msg,
                "--out", tmp_path / "s.pbm"]) == 2


def test_missing_key_usage_error(cover, tmp_path):
    assert run(["embed", "--in", cover, "--msg", cover,
                "--out", tmp_path / "x.pbm"]) == 4
    assert run(["bogus"]) == 4


@pytest.mark.parametrize("key", ["", "hex:", "hex:zz"])
def test_malformed_key_usage_error_before_input(tmp_path, capsys, key):
    """A bad key is a usage error, found before the input is opened."""
    assert run(["capacity", "--in", tmp_path / "missing.pbm",
                "--key", key]) == 4
    assert "--key" in capsys.readouterr().err


def test_bad_input_io_error(tmp_path):
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P5\n2 2\nxxxx")
    assert run(["extract", "--in", bad, "--key", "k",
                "--out", tmp_path / "o.bin"]) == 3
    assert run(["extract", "--in", tmp_path / "missing.pbm", "--key", "k",
                "--out", tmp_path / "o.bin"]) == 3


@pytest.mark.parametrize("magic", [b"P1", b"P4"])
def test_pixel_cap_io_error(tmp_path, magic):
    huge = tmp_path / "huge.pbm"
    huge.write_bytes(magic + b"\n65536 65536\n")
    assert run(["capacity", "--in", huge, "--key", "k"]) == 3


def test_images_too_small(tmp_path, capsys):
    """Too few pixels or a side under 3 is a capacity failure; ``analyze``
    of an image under 3x3 is an input error."""
    tiny = tmp_path / "tiny.pbm"
    tiny.write_bytes(b"P1\n2 2\n1 0 0 1")
    thin = tmp_path / "thin.pbm"
    thin.write_bytes(b"P4\n2 3000\n" + bytes(3000))
    assert run(["capacity", "--in", tiny, "--key", "k"]) == 2
    assert run(["capacity", "--in", thin, "--key", "k"]) == 2
    assert run(["analyze", "--in", tiny, "--out", tmp_path / "m.pbm"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: 2x2: need at least 4096 pixels and 3x3 geometry",
        "error: 2x3000: need at least 4096 pixels and 3x3 geometry",
        "error: image must be at least 3x3"]


@pytest.mark.parametrize("data, error", [
    (b"", "truncated header"),
    (b"P1\n64 64\n" + b"0 " * 4095, "truncated P1 payload"),
    (b"P1\n256 256\n" + b"0 " * 40000 + b"2", "invalid P1 sample byte 0x32"),
    (b"P4\n64 64\n" + bytes(511), "truncated P4 payload"),
    (b"P4 +64 64\n" + bytes(512), "non-numeric dimensions"),
], ids=["empty", "short-p1", "bad-p1-sample", "short-p4", "signed-width"])
def test_malformed_input_io_error(tmp_path, capsys, data, error):
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(data)
    assert run(["capacity", "--in", bad, "--key", "k"]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_input_from_a_pipe(capsys):
    """A pipe cannot be mapped; it is read instead."""
    img = synth_image(64, 64, 32)
    read_fd, write_fd = os.pipe()
    os.write(write_fd, serialize_pbm(img, "P4"))
    os.close(write_fd)
    try:
        assert run(["capacity", "--in", f"/dev/fd/{read_fd}", "--key", "k"]) == 0
    finally:
        os.close(read_fd)
    assert json.loads(capsys.readouterr().out)["N_A"] == 1


@pytest.mark.parametrize("fmt", ["P1", "P4"])
def test_trailing_bytes_are_not_read(tmp_path, capsys, fmt):
    """Only the bytes the parser needs come into memory, whatever follows."""
    img = synth_image(64, 64, 31)
    padded = tmp_path / "padded.pbm"
    with open(padded, "wb") as fh:
        fh.write(serialize_pbm(img, fmt))
        fh.write(b"\n" * (60 << 20))
    tracemalloc.start()
    try:
        code = run(["capacity", "--in", padded, "--key", "k"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        padded.unlink()
    assert code == 0
    assert peak < 4 << 20  # reading the 60 MB of trailing bytes would show
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(pipeline.capacity(img, StegoKey.from_text("k"))
                             .to_json())


def test_overlong_dimension_token_is_refused_unread(tmp_path, capsys):
    """A dimension token is refused once it is too long, not copied whole."""
    digits = tmp_path / "digits.pbm"
    with open(digits, "wb") as fh:
        fh.write(b"P1 ")
        fh.write(b"1" * (60 << 20))
    tracemalloc.start()
    try:
        code = run(["capacity", "--in", digits, "--key", "k"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        digits.unlink()
    assert code == 3
    assert peak < 4 << 20  # slicing out the 60 MB token would show
    err = capsys.readouterr().err
    assert "longer than 64 bytes" in err and "non-numeric" not in err


def test_analyze(tmp_path, cover, capsys):
    mask_path = tmp_path / "mask.pbm"
    assert run(["analyze", "--in", cover, "--out", mask_path]) == 0
    err = capsys.readouterr().err
    mask_img = parse_pbm(mask_path.read_bytes())
    cov_img = parse_pbm(cover.read_bytes())
    assert (mask_img.width, mask_img.height) == (cov_img.width, cov_img.height)
    assert f"N_FP = {int(mask_img.bits.sum())}" in err


def test_analyze_all_white(tmp_path, capsys):
    blank = tmp_path / "blank.pbm"
    blank.write_bytes(b"P1\n8 8\n" + b"0 " * 64)
    mask_path = tmp_path / "mask.pbm"
    assert run(["analyze", "--in", blank, "--out", mask_path]) == 0
    assert parse_pbm(mask_path.read_bytes()).bits.sum() == 0
    assert "N_FP = 0" in capsys.readouterr().err


def test_extract_zero_payload(tmp_path, capsys):
    img = synth_image(64, 64, 30)
    cov = tmp_path / "c.pbm"
    cov.write_bytes(serialize_pbm(img, "P4"))
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    stego = tmp_path / "s.pbm"
    assert run(["embed", "--in", cov, "--key", "k", "--msg", empty,
                "--out", stego]) == 0
    out = tmp_path / "o.bin"
    assert run(["extract", "--in", stego, "--key", "k", "--out", out]) == 0
    assert out.read_bytes() == b""
    assert "0 bits" in capsys.readouterr().err
