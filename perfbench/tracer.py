"""Spans around calls into each wetmark layer, recorded from outside.

The tracer replaces each traced function at every module attribute that
holds it (``wetmark.cli`` imports ``parse_pbm`` by name, for instance)
and puts the originals back on exit, so nothing under ``src/`` changes.
Everything runs on one thread, so spans nest strictly and no layer ever
waits on another.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

# Public functions whose calls are timed, per wetmark module.
TRACED = {
    "bitmap": ("parse_pbm", "serialize_pbm"),
    "flippability": ("compute_mask",),
    "prng": ("permutation", "matrix_words"),
    "wpc": ("pack_bits", "unpack_bits", "restrict_columns",
            "embed_area", "extract_area"),
    "gf2": ("max_independent_prefix_words", "solve_words", "mat_vec_words"),
    "pipeline": ("capacity", "embed", "extract"),
    "cli": ("main",),
}

ELIMINATIONS = ("gf2.max_independent_prefix_words", "gf2.solve_words")

# The count each span records, taken from the call's arguments or result.
_PROBES = {
    "gf2.max_independent_prefix_words": lambda a, r: a[0].shape,
    "gf2.solve_words": lambda a, r: a[0].shape,
    "prng.matrix_words": lambda a, r: r.shape,
    "bitmap.parse_pbm": lambda a, r: len(a[0]),
    "bitmap.serialize_pbm": lambda a, r: len(r),
    "flippability.compute_mask": lambda a, r: len(r),
    "wpc.embed_area": lambda a, r: r[0].q_total,
}

# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "gf2.prefix_s": "s",
    "gf2.solve_s": "s",
    "gf2.elim_rows": "rows",
    "gf2.elim_words": "words",
    "gf2.elims_per_area": "calls/area",
    "gf2.matvec_s": "s",
    "prng.matrix_s": "s",
    "prng.matrix_words": "words",
    "prng.permutation_s": "s",
    "bitmap.parse_s": "s",
    "bitmap.serialize_s": "s",
    "bitmap.bytes": "bytes",
    "flippability.mask_s": "s",
    "flippability.flippable_px": "px",
    "wpc.restrict_s": "s",
    "wpc.pack_s": "s",
    "wpc.embed_area_self_s": "s",
    "wpc.extract_area_self_s": "s",
    "wpc.rows_used_ratio": "ratio",
    "pipeline.embed_self_s": "s",
    "pipeline.extract_self_s": "s",
    "pipeline.capacity_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Which traced functions each per-layer metric is derived from.
SOURCES = {
    "gf2.prefix_s": ("gf2.max_independent_prefix_words",),
    "gf2.solve_s": ("gf2.solve_words",),
    "gf2.elim_rows": ELIMINATIONS,
    "gf2.elim_words": ELIMINATIONS,
    "gf2.elims_per_area": ELIMINATIONS,
    "gf2.matvec_s": ("gf2.mat_vec_words",),
    "prng.matrix_s": ("prng.matrix_words",),
    "prng.matrix_words": ("prng.matrix_words",),
    "prng.permutation_s": ("prng.permutation",),
    "bitmap.parse_s": ("bitmap.parse_pbm",),
    "bitmap.serialize_s": ("bitmap.serialize_pbm",),
    "bitmap.bytes": ("bitmap.parse_pbm", "bitmap.serialize_pbm"),
    "flippability.mask_s": ("flippability.compute_mask",),
    "flippability.flippable_px": ("flippability.compute_mask",),
    "wpc.restrict_s": ("wpc.restrict_columns",),
    "wpc.pack_s": ("wpc.pack_bits", "wpc.unpack_bits"),
    "wpc.embed_area_self_s": ("wpc.embed_area",),
    "wpc.extract_area_self_s": ("wpc.extract_area",),
    "wpc.rows_used_ratio": ("wpc.embed_area", "prng.matrix_words"),
    "pipeline.embed_self_s": ("pipeline.embed",),
    "pipeline.extract_self_s": ("pipeline.extract",),
    "pipeline.capacity_self_s": ("pipeline.capacity",),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    """Records spans ``[name, start, end, parent, count]`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []       # traced names not found
        self.probe_errors: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, None])
        self._stack.append(i)
        try:
            yield self.spans[i]
        finally:
            self._stack.pop()
            self.spans[i][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if probe is not None:
                try:
                    record[4] = probe(args, result)
                except Exception:  # a changed signature must not stop the run
                    self.probe_errors.add(name)
            return result
        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wetmark" or n.startswith("wetmark.")]
        for mod_name, names in TRACED.items():
            try:
                mod = importlib.import_module(f"wetmark.{mod_name}")
            except ImportError:
                self.missing += [f"{mod_name}.{n}" for n in names]
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, fn))
        return self

    def __exit__(self, *exc):
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()


def layer_metrics(spans: list[list], areas_embedded: int) -> dict[str, float]:
    """Per-layer totals over ``spans`` (one iteration's worth).

    A span's self time is its duration minus its child spans' durations.
    """
    incl = defaultdict(float)
    child = defaultdict(float)
    counts = defaultdict(list)
    root = []
    for i, (name, start, end, parent, count) in enumerate(spans):
        incl[name] += end - start
        if parent is not None:
            child[parent] += end - start
        root.append(i if parent is None else root[parent])
        if count is not None:
            counts[name].append(count)
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[i]

    elims = [s[4] for s in spans if s[0] in ELIMINATIONS and s[4] is not None]
    embed_elims = sum(1 for i, s in enumerate(spans)
                      if s[0] in ELIMINATIONS and spans[root[i]][0] == "embed_s")
    rows_generated = sum(s[4][0] for s in spans
                         if s[0] == "prng.matrix_words" and s[4] is not None
                         and s[3] is not None
                         and spans[s[3]][0] == "wpc.embed_area")
    q_used = sum(counts["wpc.embed_area"])
    return {
        "gf2.prefix_s": incl["gf2.max_independent_prefix_words"],
        "gf2.solve_s": incl["gf2.solve_words"],
        "gf2.elim_rows": sum(q for q, _ in elims),
        "gf2.elim_words": sum(q * w for q, w in elims),
        "gf2.elims_per_area": embed_elims / areas_embedded if areas_embedded else 0.0,
        "gf2.matvec_s": incl["gf2.mat_vec_words"],
        "prng.matrix_s": incl["prng.matrix_words"],
        "prng.matrix_words": sum(r * w for r, w in counts["prng.matrix_words"]),
        "prng.permutation_s": incl["prng.permutation"],
        "bitmap.parse_s": incl["bitmap.parse_pbm"],
        "bitmap.serialize_s": incl["bitmap.serialize_pbm"],
        "bitmap.bytes": sum(counts["bitmap.parse_pbm"])
        + sum(counts["bitmap.serialize_pbm"]),
        "flippability.mask_s": incl["flippability.compute_mask"],
        "flippability.flippable_px": sum(counts["flippability.compute_mask"]),
        "wpc.restrict_s": incl["wpc.restrict_columns"],
        "wpc.pack_s": incl["wpc.pack_bits"] + incl["wpc.unpack_bits"],
        "wpc.embed_area_self_s": self_s["wpc.embed_area"],
        "wpc.extract_area_self_s": self_s["wpc.extract_area"],
        "wpc.rows_used_ratio": q_used / rows_generated if rows_generated else 0.0,
        "pipeline.embed_self_s": self_s["pipeline.embed"],
        "pipeline.extract_self_s": self_s["pipeline.extract"],
        "pipeline.capacity_self_s": self_s["pipeline.capacity"],
        "cli.self_s": self_s["cli.main"],
    }
