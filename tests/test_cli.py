import json

import numpy as np
import pytest

from wetmark.bitmap import parse_pbm, serialize_pbm
from wetmark.cli import main

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
