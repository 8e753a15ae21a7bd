"""Workload inputs, made from a seed, and one closed-loop iteration each.

Every input is a pure function of (workload, seed): the cover pixels,
its PBM bytes, the key and the message. The codec receives only these
bytes; the benchmark never hands it anything it computed with the codec.

``paper_text`` and ``dense_random`` go through the library API on P4
bytes; ``desk_watermark`` goes through ``wetmark.cli.main`` on P1 files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks

# Repeat a cheap extract within one iteration until this much time is
# spent, so that a 60 ms extract still yields steady figures. The host's
# speed changes by up to a third for 10 to 30 s at a time, so the extracts
# have to cover a good part of the run, not a few short bursts between
# embeds.
EXTRACT_MIN_S = 2.0


def _stroke(r: np.random.Generator, g: np.ndarray) -> None:
    height, width = g.shape
    y = int(r.integers(1, height - 1))
    x = int(r.integers(1, width - 1))
    length = int(r.integers(3, 15))
    kind = int(r.integers(3))
    if kind == 0:
        g[y, x:min(width, x + length)] = 1
    elif kind == 1:
        g[y:min(height, y + length), x] = 1
    else:
        h2 = int(r.integers(2, 4))
        w2 = int(r.integers(2, 5))
        g[y:min(height, y + h2), x:min(width, x + w2)] = 1


def text_grid(width: int, height: int, seed: int, stroke_density: int = 300,
              flippable: int = 0) -> np.ndarray:
    """Text-like strokes and blobs, the generator of ``tests/conftest.py``.

    With ``flippable`` set, strokes keep coming until the cover has at
    least that many flippable pixels, instead of stopping at the nominal
    count; that pins the capacity, and with it the embed's cost, which
    would otherwise follow the seed.
    """
    r = np.random.default_rng(seed)
    g = np.zeros((height, width), dtype=np.uint8)
    nominal = max(4, width * height // stroke_density)
    for _ in range(nominal * 4 // 5 if flippable else nominal):
        _stroke(r, g)
    if flippable:
        table = checks.flip_table()
        for _ in range(4 * nominal):
            if checks.flippable_count(g, table) >= flippable:
                return g
            _stroke(r, g)
        raise ValueError(f"{width}x{height} text reaches no {flippable} "
                         "flippable pixels")
    return g


def random_grid(width: int, height: int, seed: int) -> np.ndarray:
    """Independent pixels, each black with probability 1/2."""
    r = np.random.default_rng(seed)
    return r.integers(0, 2, (height, width), dtype=np.uint8)


def p4_bytes(grid: np.ndarray) -> bytes:
    h, w = grid.shape
    return f"P4\n{w} {h}\n".encode() + np.packbits(grid, axis=1).tobytes()


def p1_bytes(grid: np.ndarray) -> bytes:
    """Plain PBM, one image row per text line, samples separated by spaces."""
    h, w = grid.shape
    text = np.full((h, 2 * w), ord(" "), dtype=np.uint8)
    text[:, 0::2] = grid + ord("0")
    text[:, -1] = ord("\n")
    return f"P1\n{w} {h}\n".encode() + text.tobytes()


def read_pbm(data: bytes) -> np.ndarray:
    """Pixel grid of the P1/P4 files this benchmark and the codec write.

    Expects a header without comments; kept apart from ``wetmark.bitmap``
    so that the output checks do not trust the parser under test.
    """
    magic, wtok, htok = data.split(maxsplit=3)[:3]
    body_at = data.index(htok, data.index(wtok, 2) + len(wtok)) + len(htok) + 1
    body = data[body_at:]
    w, h = int(wtok), int(htok)
    if magic == b"P1":
        raw = np.frombuffer(body, dtype=np.uint8)
        samples = raw[(raw == ord("0")) | (raw == ord("1"))] - ord("0")
        return samples[:w * h].reshape(h, w)
    rows = np.frombuffer(body, dtype=np.uint8)[:h * ((w + 7) // 8)]
    return np.unpackbits(rows.reshape(h, -1), axis=1)[:, :w]


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    dense: bool            # iid 50% pixels instead of text-like strokes
    via_cli: bool          # P1 files through wetmark.cli, else P4 via the API
    payload_bytes: int     # 0: fill the cover to its capacity
    flippable: int = 0     # text covers: at least this many flippable pixels


# The layer each workload stresses, as measured on a 2-CPU Xeon without
# numba; BENCHMARK.json records why each one is gated.
WORKLOADS = {
    # Paper scale at capacity: 16 areas of k~300; GF(2) elimination ~97%.
    # 5000 flippable pixels is the median of the unpinned generator.
    "paper_text": Workload("paper_text", 300, 225, False, False, 0, 5000),
    # 256-byte mark in a 1024x1024 P1 scan: 7 of 256 areas carry payload,
    # so permutation, P1 I/O and the per-area loop dominate.
    "desk_watermark": Workload("desk_watermark", 1024, 1024, False, True, 256),
    # Two areas of k~900: few large systems, where blocking pays off.
    # Not listed in BENCHMARK.json yet: while an embed takes ~9 s, a run
    # holds 3 of them, and with only two areas the cost (~k^3) follows the
    # seed, so run-to-run spread exceeds any bound the benchmark may set.
    "dense_random": Workload("dense_random", 128, 64, True, False, 0),
}


@dataclass(frozen=True)
class Inputs:
    grid: np.ndarray = field(repr=False)   # cover pixels, 1 = black
    cover: bytes = field(repr=False)       # the cover as a PBM file
    key: str                               # stego key as the CLI takes it
    bits: np.ndarray = field(repr=False)   # the message is a prefix of these


def make_inputs(wl: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, len(wl.name), wl.width, wl.height])
    cover_seed = int(rng.integers(1 << 62))
    if wl.dense:
        grid = random_grid(wl.width, wl.height, cover_seed)
    else:
        grid = text_grid(wl.width, wl.height, cover_seed, flippable=wl.flippable)
    n_bits = wl.payload_bytes * 8 or wl.width * wl.height
    bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
    cover = (p1_bytes if wl.via_cli else p4_bytes)(grid)
    return Inputs(grid, cover, f"perfbench-{wl.name}-{seed}", bits)


@dataclass
class Outcome:
    """What one iteration produced, for the checks and the metrics."""

    times: dict = field(default_factory=dict)  # metric name -> [seconds]
    stego: bytes = b""
    message: np.ndarray | None = None
    extracted: list = field(default_factory=list)
    capacity: int | None = None                # N_E from capacity()
    embedded: int = 0                          # N_E from the embed report
    report_flips: int = 0
    n_areas: int = 0

    def timed(self, metric: str, span, fn, *args):
        with span(metric):
            start = time.perf_counter()
            result = fn(*args)
            self.times.setdefault(metric, []).append(time.perf_counter() - start)
        return result


def _report_totals(out: Outcome, report: dict) -> None:
    out.embedded = report["N_E"]
    out.n_areas = report["N_A"]
    out.report_flips = sum(a["flips"] for a in report["areas"])


def library_iteration(inp: Inputs, span, capacity: int | None = None,
                      repeat_extract: bool = True) -> Outcome:
    """An embed at exactly the cover's capacity, then extracts.

    The capacity call is timed too unless ``capacity`` is already known:
    it costs a third of an iteration, and the other operations need the
    samples more. With ``repeat_extract`` the extract is repeated until
    ``EXTRACT_MIN_S`` is spent; without it, it runs once.
    """
    from wetmark import bitmap, pipeline
    from wetmark.prng import StegoKey

    key = StegoKey.from_text(inp.key)
    out = Outcome()

    def measure_capacity():
        return pipeline.capacity(bitmap.parse_pbm(inp.cover), key).n_embedded

    def embed(message):
        stego, report = pipeline.embed(bitmap.parse_pbm(inp.cover), key, message)
        return bitmap.serialize_pbm(stego, "P4"), report

    def extract(stego):
        return pipeline.extract(bitmap.parse_pbm(stego), key)

    if capacity is None:
        capacity = out.timed("capacity_s", span, measure_capacity)
    out.capacity = capacity
    out.message = inp.bits[:capacity]
    out.stego, report = out.timed("embed_s", span, embed, out.message)
    _report_totals(out, report.to_dict())
    while not out.extracted or (repeat_extract and
                                sum(out.times["extract_s"]) < EXTRACT_MIN_S):
        out.extracted.append(out.timed("extract_s", span, extract, out.stego))
    return out


def cli_iteration(inp: Inputs, span, workdir: str) -> Outcome:
    """``wetmark embed --report`` then ``wetmark extract`` on files."""
    from wetmark import cli

    cover, msg, stego, report, recovered = (
        os.path.join(workdir, f) for f in
        ("cover.pbm", "msg.bin", "stego.pbm", "report.json", "recovered.bin"))
    if not os.path.exists(cover):
        with open(cover, "wb") as fh:
            fh.write(inp.cover)
        with open(msg, "wb") as fh:
            fh.write(np.packbits(inp.bits).tobytes())
    out = Outcome(message=inp.bits)

    def run(*argv):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"wetmark {argv[0]} exited {code}: "
                               f"{err.getvalue().strip()}")

    out.timed("embed_s", span, run, "embed", "--in", cover, "--key", inp.key,
              "--msg", msg, "--out", stego, "--report", report)
    out.timed("extract_s", span, run, "extract", "--in", stego,
              "--key", inp.key, "--out", recovered)
    with open(stego, "rb") as fh:
        out.stego = fh.read()
    with open(report) as fh:
        _report_totals(out, json.load(fh))
    with open(recovered, "rb") as fh:
        out.extracted.append(np.unpackbits(np.frombuffer(fh.read(), np.uint8)))
    return out
