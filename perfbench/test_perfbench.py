"""The benchmark's own tests, on covers small enough to run in seconds."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads
import wetmark
from wetmark import bitmap, cli, flippability, prng
from wetmark.prng import StegoKey

TINY = {
    "paper_text": dict(width=64, height=128, flippable=150),
    "desk_watermark": dict(width=64, height=128, payload_bytes=2),
    "dense_random": dict(width=64, height=64),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep the benchmark's files in tmp_path."""
    monkeypatch.setattr(workloads, "WORKLOADS", {
        name: dataclasses.replace(wl, **TINY[name])
        for name, wl in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def _main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_follow_the_seed(tiny, name):
    wl = workloads.WORKLOADS[name]
    a, b, c = (workloads.make_inputs(wl, s) for s in (7, 7, 8))
    assert a.cover == b.cover and a.key == b.key
    assert np.array_equal(a.bits, b.bits)
    assert a.cover != c.cover and a.key != c.key
    assert not np.array_equal(a.bits, c.bits)


def test_text_grid_is_the_tests_generator():
    spec = importlib.util.spec_from_file_location(
        "tests_conftest", Path(__file__).parent.parent / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for w, h, seed in ((300, 225, 4), (40, 30, 5)):
        assert np.array_equal(workloads.text_grid(w, h, seed),
                              conftest.synth_image(w, h, seed).grid())


def test_pinned_text_cover_reaches_its_flippable_count():
    table = checks.flip_table()
    for seed in (1, 2):
        grid = workloads.text_grid(64, 128, seed, flippable=150)
        assert checks.flippable_count(grid, table) >= 150
        img = bitmap.BinaryImage(64, 128, grid.reshape(-1))
        assert checks.flippable_count(grid, table) == len(
            flippability.compute_mask(img))
    with pytest.raises(ValueError):
        workloads.text_grid(8, 8, 1, flippable=1000)


def test_pbm_writers_match_the_codec():
    grid = workloads.text_grid(37, 11, 5)
    img = bitmap.BinaryImage(37, 11, grid.reshape(-1))
    for fmt, write in (("P1", workloads.p1_bytes), ("P4", workloads.p4_bytes)):
        assert write(grid) == bitmap.serialize_pbm(img, fmt)
        assert np.array_equal(workloads.read_pbm(write(grid)), grid)


def test_oracles_match_the_codec():
    assert np.array_equal(checks.flip_table(), flippability.FLIP_TABLE)
    for n in (2, 4097, 9000):
        assert np.array_equal(checks.keyed_permutation(b"k", n),
                              prng.permutation(StegoKey(b"k"), n))


def test_output_checks_catch_bad_pixels():
    wl = dataclasses.replace(workloads.WORKLOADS["paper_text"], width=70, height=70,
                             flippable=0)
    inp = workloads.make_inputs(wl, 1)
    key = inp.key.encode()
    cover = inp.grid
    stego, _ = wetmark.embed(bitmap.BinaryImage(70, 70, cover.reshape(-1)),
                             StegoKey(key), inp.bits[:40])
    stego = stego.grid().copy()
    table = checks.flip_table()
    assert checks.output_problems(cover, stego, key, table) == []

    border = stego.copy()
    border[0, 5] ^= 1
    assert checks.output_problems(cover, border, key, table)

    solid = np.ones_like(cover)  # no pixel of a uniform cover is flippable
    changed = solid.copy()
    changed[10, 10] = 0
    assert checks.output_problems(solid, changed, key, table)

    leftover = checks.keyed_permutation(key, 70 * 70)[4096:]
    inner = [i for i in leftover if 0 < i // 70 < 69 and 0 < i % 70 < 69]
    moved = stego.copy().reshape(-1)
    moved[inner[0]] ^= 1
    assert "leftover pixels changed" in checks.output_problems(
        cover, moved.reshape(70, 70), key, table)


@pytest.mark.parametrize("workload", ["paper_text", "desk_watermark"])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload):
    code, lines, result = _main(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"].keys() == run.END_TO_END_UNITS.keys()
    for name, unit in run.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name}: ") and f" {unit}" in line
                   for line in lines)
    assert any(line.startswith("stego_sha256: ") for line in lines)
    assert any(line.startswith("env: ") for line in lines)

    code, lines, result = _main(capsys, workload, 1)
    assert code == 0 and result["correct"]
    assert result["metrics"].keys() == tracer.LAYER_UNITS.keys()
    for name, unit in tracer.LAYER_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name}: ") for line in lines)
    assert result["metrics"]["gf2.elims_per_area"]["value"] > 0
    assert not any(line.startswith("missing: ") for line in lines)


def test_wrong_output_fails_the_run(tiny, capsys, monkeypatch):
    real = wetmark.pipeline.extract
    monkeypatch.setattr(wetmark.pipeline, "extract",
                        lambda img, key: 1 - real(img, key))
    code, _, result = _main(capsys, "paper_text", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_no_sources_means_no_result(tiny, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "paper_text", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _iterate(name, seconds, trace, tmp_path):
    wl = workloads.WORKLOADS[name]
    r = run.Run(wl, workloads.make_inputs(wl, 3))
    r.iterate(seconds, trace, str(tmp_path))
    r.check_stego()
    return r


@pytest.mark.parametrize("name", ["paper_text", "desk_watermark"])
def test_only_the_first_iteration_keeps_its_output(tiny, tmp_path, name):
    r = _iterate(name, 0, True, tmp_path)  # a traced run makes two or more
    assert len(r.outcomes) > 1 and r.failed == 0 and not r.problems
    assert r.outcomes[0].stego and r.outcomes[0].extracted
    assert all(out.stego == b"" and out.extracted == [] for out in r.outcomes[1:])


def test_a_bad_stego_fails_every_iteration(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "output_problems",
                        lambda *a: ["leftover pixels changed"])
    r = _iterate("paper_text", 0, True, tmp_path)
    assert r.failed == len(r.outcomes) > 1
    assert r.problems == ["leftover pixels changed"]


def test_layer_totals_do_not_follow_the_extract_budget(tiny, tmp_path,
                                                       monkeypatch):
    values = []
    for budget in (0.0, 0.2):
        monkeypatch.setattr(workloads, "EXTRACT_MIN_S", budget)
        values.append(run.layer_values(_iterate("paper_text", 0, True,
                                                tmp_path))[0])
    for name in ("prng.matrix_words", "bitmap.bytes", "gf2.elim_words"):
        assert values[0][name] == values[1][name] > 0


def test_tracer_wraps_every_alias_and_reports_missing(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "gf2", tracer.TRACED["gf2"] + ("gone",))
    monkeypatch.setitem(tracer.TRACED, "no_such_module", ("f",))
    original = bitmap.parse_pbm
    with tracer.Tracer() as tr:
        assert cli.parse_pbm is bitmap.parse_pbm is wetmark.parse_pbm
        assert cli.parse_pbm is not original
        with tr.span("embed_s"):
            wetmark.parse_pbm(workloads.p4_bytes(np.zeros((3, 3), np.uint8)))
    assert cli.parse_pbm is original
    assert tr.missing == ["gf2.gone", "no_such_module.f"]
    assert [s[0] for s in tr.spans] == ["embed_s", "bitmap.parse_pbm"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= workloads.WORKLOADS.keys()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
