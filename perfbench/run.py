"""Benchmark of the wetmark codec: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload paper_text --seed 1 --seconds 56 --trace 0

Run from the root of a checkout; the codec is imported from its ``src/``.
Each iteration repeats the workload's operations on the same inputs, made
from ``--seed``, and iterations run one after another on one thread until
the next one would end after ``--seconds``. Every output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, timed without tracing; with
``--trace 1`` they are the per-layer ones: totals over one traced
iteration (one capacity, one embed and one extract), median over the
traced iterations, which are every second one (the others are untraced,
to measure the tracing overhead). Timings are medians over the run,
except that the gated embed and extract times are 75th percentiles.

The lines above the JSON repeat every metric with its unit and sample
count, the environment and the SHA-256 of the stego file. The same
record, and with ``--trace 1`` the spans, are written to
``.perfbench_out/``.

Exit status: 0 if every output was correct, 1 if a check failed, 2 if the
checkout holds no wetmark sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median

# End-to-end metric -> unit, as BENCHMARK.json lists them.
#
# The gated embed and extract times are the run's 75th percentiles, not
# its medians. On a shared 2-CPU host the same extract takes about 65 ms
# most of the time and about 40 ms in bursts of 10 to 30 s. How much of a
# one-minute run such bursts take varies from run to run, and the median
# jumps between the two speeds.
# Over two sets of ten paper_text runs, the median extract time spread
# 0.19 and 0.25 (IQR/median), the 75th percentile 0.07 and 0.09. The
# medians are still printed.
END_TO_END_UNITS = {
    "embed_p75_s": "s",
    "extract_p75_s": "s",
    "embed_kbit_per_s": "kbit/s",
    "embedded_bits": "bit",
    "bits_per_flip": "bit/flip",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed on the lines above the JSON only: the median times, capacity_s,
# which does not apply to every workload, and failed_frac, which is 0 on a
# correct run (the JSON carries it as ``failed`` out of ``attempted``).
EXTRA_UNITS = {"embed_s": "s", "extract_s": "s", "capacity_s": "s",
               "failed_frac": "1"}

# One fresh interpreter: import wetmark, embed 32 bits into a 64x64 random
# cover (one area) and extract them again.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import wetmark
from wetmark.prng import StegoKey
rng = np.random.default_rng(int(sys.argv[2]))
img = wetmark.BinaryImage(64, 64, rng.integers(0, 2, 4096, dtype=np.uint8))
msg = rng.integers(0, 2, 32, dtype=np.uint8)
key = StegoKey(b"perfbench-setup")
stego, _ = wetmark.embed(img, key, msg)
sys.exit(0 if np.array_equal(wetmark.extract(stego, key), msg) else 1)
"""


def tail(samples: list[float]) -> str:
    """Sample count, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    fitting = [p for p in (50, 90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10]
    if not fitting:
        return f"n={n}, too few samples for a tail percentile"
    p = fitting[-1]
    return f"n={n}, p{p:g}={np.percentile(samples, p):.6g}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    from wetmark import gf2

    numba = getattr(gf2, "_HAVE_NUMBA", None)
    if numba is None:
        numba = importlib.util.find_spec("numba") is not None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numba": bool(numba), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model()}


def measure_setup(seed: int) -> tuple[list[float], int]:
    """Times of SETUP_RUNS fresh interpreters, and how many of them failed."""
    times, failed = [], 0
    for i in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(seed + i)], cwd=ROOT, capture_output=True,
                              timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr.decode(errors="replace"))
    return times, failed


class Run:
    """The iterations of one workload and the verdict on their outputs.

    Each iteration is checked as soon as it ends. Only the first one keeps
    its stego and extracts, so that memory held by the benchmark does not
    grow with the number of iterations and ``peak_rss_mb`` follows the
    codec.
    """

    def __init__(self, wl: workloads.Workload, inp: workloads.Inputs):
        self.wl = wl
        self.inp = inp
        self.outcomes: list[workloads.Outcome] = []
        self.traced: list[tracer.Tracer | None] = []
        self.attempted = 0
        self.failed = 0
        self.clean = 0  # iterations without a failure of their own
        self.problems: list[str] = []
        self.flips = 0  # pixels where the first stego differs from the cover

    def iterate(self, seconds: float, trace: bool, workdir: str) -> None:
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            tr = tracer.Tracer() if trace and len(self.outcomes) % 2 else None
            try:
                if tr is None:
                    # nullcontext(name) records nothing
                    out = self._iteration(contextlib.nullcontext, workdir,
                                          traced=False)
                else:
                    with tr:
                        out = self._iteration(tr.span, workdir, traced=True)
            except Exception:
                traceback.print_exc()
                self._problem("an operation raised; see stderr")
                self.attempted += 1
                self.failed += 1
                return
            self._account(out)
            self.traced.append(tr)
            longest = max(longest, time.perf_counter() - began)
            done = time.perf_counter() - start
            if (not trace or len(self.outcomes) >= 2) and done + longest > seconds:
                return

    def _iteration(self, span, workdir, traced):
        if self.wl.via_cli:
            return workloads.cli_iteration(self.inp, span, workdir)
        # Capacity is measured once, and in every traced iteration, which
        # also runs a single extract so that its layer totals are per call.
        known = None if traced or not self.outcomes else self.outcomes[0].capacity
        return workloads.library_iteration(self.inp, span, known,
                                           repeat_extract=not traced)

    def _problem(self, why: str) -> None:
        if why not in self.problems:
            self.problems.append(why)

    def _account(self, out: workloads.Outcome) -> None:
        """Count the iteration's operations and its wrong outputs, then keep it."""
        first = self.outcomes[0] if self.outcomes else out
        self.attempted += sum(len(t) for t in out.times.values())
        bad = [why for why, failed in (
            (f"N_E {out.embedded} != {len(out.message)} bits requested",
             out.embedded != len(out.message)),
            ("capacity changed between iterations",
             out.capacity != first.capacity),
            ("stego differs between iterations", out.stego != first.stego))
            if failed]
        wrong = sum(not np.array_equal(x, out.message) for x in out.extracted)
        self.failed += bool(bad) + wrong
        self.clean += not bad
        if wrong:
            bad.append(f"{wrong} extracts differ from the message")
        for why in bad:
            self._problem(why)
        if out is not first:
            out.stego, out.message, out.extracted = b"", None, []
        self.outcomes.append(out)

    def check_stego(self) -> None:
        """Check the stego against the cover; every iteration made the same one."""
        if not self.outcomes:
            return
        first = self.outcomes[0]
        cover = self.inp.grid
        stego = workloads.read_pbm(first.stego)
        bad = checks.output_problems(cover, stego, self.inp.key.encode(),
                                     checks.flip_table())
        if not bad:
            self.flips = int((stego != cover).sum())
            if self.flips != first.report_flips:
                bad.append(f"report counts {first.report_flips} flips, "
                           f"stego differs in {self.flips} pixels")
        if bad:
            # each iteration that had no failure of its own embedded it
            self.failed += self.clean
            self.problems += bad

    def samples(self, metric: str, traced: bool = False) -> list[float]:
        return [x for out, tr in zip(self.outcomes, self.traced)
                if (tr is not None) == traced for x in out.times.get(metric, [])]


def summarize(run: Run, samples: dict[str, list[float]],
              peak_rss_mb: float) -> dict[str, float]:
    """End-to-end values: medians of the ``samples``, and the gated percentiles."""
    first = run.outcomes[0]
    values = {m: statistics.median(v) for m, v in samples.items() if v}
    for m in ("embed", "extract"):
        values[f"{m}_p75_s"] = float(np.percentile(samples[f"{m}_s"], 75))
    values.update({
        "embed_kbit_per_s": first.embedded / 1000 / values["embed_p75_s"],
        "embedded_bits": first.embedded,
        "bits_per_flip": first.embedded / max(1, run.flips),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": run.failed / max(1, run.attempted),
    })
    return values


def layer_values(run: Run) -> tuple[dict[str, float], list[str]]:
    """Per-layer medians over traced iterations, and what could not be traced."""
    traced = [(out, tr) for out, tr in zip(run.outcomes, run.traced) if tr]
    per_iter = [tracer.layer_metrics(tr.spans, out.n_areas) for out, tr in traced]
    values = {m: statistics.median(v[m] for v in per_iter) for m in per_iter[0]}
    values["trace.overhead_s"] = (statistics.median(run.samples("embed_s", True))
                                  - statistics.median(run.samples("embed_s")))
    missing = sorted({n for _, tr in traced for n in tr.missing})
    broken = sorted({n for _, tr in traced for n in tr.probe_errors})
    notes = [f"missing: {n}" for n in missing] + [f"count failed: {n}" for n in broken]
    for metric, sources in tracer.SOURCES.items():
        if any(s in missing or s in broken for s in sources):
            notes.append(f"{metric} is incomplete: it depends on {', '.join(sources)}")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wetmark" / "__init__.py").is_file():
        print(f"error: no wetmark sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wetmark

    if Path(wetmark.__file__).resolve().parent != SRC / "wetmark":
        print(f"error: imported wetmark from {wetmark.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    inp = workloads.make_inputs(wl, args.seed)
    run = Run(wl, inp)
    setup, setup_failed = [], 0
    if not args.trace:
        setup, setup_failed = measure_setup(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        run.iterate(args.seconds, bool(args.trace), workdir)
    # before the checks, whose own arrays are not the codec's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.check_stego()
    run.attempted += len(setup)
    run.failed += setup_failed
    if setup_failed:
        run.problems.append(f"{setup_failed} of {len(setup)} set-up runs failed")

    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "problems": run.problems}
    print(f"workload {wl.name}, seed {args.seed}, {len(run.outcomes)} "
          f"iterations in a closed loop with one client")
    print("env: " + json.dumps(env))
    metrics = {}
    if run.outcomes:
        record["stego_sha256"] = hashlib.sha256(run.outcomes[0].stego).hexdigest()
        print(f"stego_sha256: {record['stego_sha256']}")
        samples = {"setup_s": setup, **{m: run.samples(m) for m in
                                        ("embed_s", "extract_s", "capacity_s")}}
        e2e = summarize(run, samples, peak_rss_mb)
        units = {**END_TO_END_UNITS, **EXTRA_UNITS}
        for name, value in e2e.items():
            of = samples.get(name.replace("_p75_s", "_s"))
            extra = f" ({tail(of)})" if of else ""
            print(f"{name}: {value:.6g} {units[name]}{extra}")
        record["samples"] = samples
        if args.trace:
            layers, notes = layer_values(run)
            for name, value in layers.items():
                print(f"{name}: {value:.6g} {tracer.LAYER_UNITS[name]}")
            print("wait: not applicable, every layer runs on one thread")
            for note in notes:
                print(note)
            metrics = {m: {"value": layers[m], "unit": u}
                       for m, u in tracer.LAYER_UNITS.items()}
            record["notes"] = notes
            spans = [s for tr in run.traced if tr for s in tr.spans]
            with open(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
                json.dump([dict(zip(("name", "start", "end", "parent", "count"), s))
                           for s in spans], fh)
        else:
            metrics = {m: {"value": e2e[m], "unit": u}
                       for m, u in END_TO_END_UNITS.items()}
    for problem in run.problems:
        print(f"check failed: {problem}")
    correct = not run.problems and run.failed == 0 and bool(run.outcomes)
    record["metrics"] = metrics
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
