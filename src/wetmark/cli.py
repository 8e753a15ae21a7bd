"""Command-line front end: embed, extract, capacity, analyze.

Exit codes: 0 success, 2 capacity failure (message too long, an area
cannot hold a header, or an image under 4096 pixels or with a side under
3), 3 parse/IO error (``analyze`` of an image under 3x3 included), 4
usage error (a malformed ``--key`` included).
"""

from __future__ import annotations

import argparse
import contextlib
import mmap
import os
import sys

import numpy as np

from . import pipeline
from .bitmap import BinaryImage, PbmError, parse_pbm, serialize_pbm
from .flippability import compute_mask
from .prng import StegoKey
from .wpc import HeaderCapacityError

EXIT_CAPACITY = 2
EXIT_IO = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wetmark",
                     description="Blind watermarking of 1-bit PBM images "
                                 "via wet paper codes")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_common(p, key=True):
        p.add_argument("--in", dest="inp", required=True, metavar="PATH",
                       help="input PBM (P1 or P4)")
        if key:
            p.add_argument("--key", required=True, type=StegoKey.from_text,
                           help="stego key: UTF-8 text, or hex:<hexbytes>")

    p = sub.add_parser("embed", help="embed a message file into a cover image")
    add_common(p)
    p.add_argument("--msg", required=True, metavar="PATH",
                   help="message file (bytes, embedded MSB-first)")
    p.add_argument("--out", required=True, metavar="PATH", help="stego PBM")
    p.add_argument("--report", metavar="PATH", help="write JSON embed report")
    p.add_argument("--format", choices=["p1", "p4"],
                   help="override output PBM variant (default: same as input)")

    p = sub.add_parser("extract", help="blindly extract the message")
    add_common(p)
    p.add_argument("--out", required=True, metavar="PATH",
                   help="recovered message file")

    p = sub.add_parser("capacity", help="report embedding capacity as JSON")
    add_common(p)

    p = sub.add_parser("analyze", help="write the flippability mask as PBM")
    add_common(p, key=False)
    p.add_argument("--out", required=True, metavar="PATH",
                   help="mask PBM (flippable = black)")
    p.add_argument("--format", choices=["p1", "p4"], default="p4")
    return parser


def _read_image(path: str) -> tuple[BinaryImage, str]:
    """Parse a PBM file, mapped so that trailing bytes are never read."""
    with open(path, "rb") as fh:
        # An empty file cannot be mapped, and a pipe has no size: read them.
        if os.fstat(fh.fileno()).st_size:
            source = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            source = contextlib.nullcontext(fh.read())
        with source as data:
            return parse_pbm(data), data[:2].decode("ascii")


def _run(args) -> int:
    img, variant = _read_image(args.inp)
    if args.command == "embed":
        with open(args.msg, "rb") as fh:
            message = np.unpackbits(np.frombuffer(fh.read(), dtype=np.uint8))
        stego, report = pipeline.embed(img, args.key, message)
        fmt = args.format.upper() if args.format else variant
        with open(args.out, "wb") as fh:
            fh.write(serialize_pbm(stego, fmt))
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(report.to_json() + "\n")
        print(f"embedded {report.n_embedded} bits into "
              f"{report.n_areas} areas", file=sys.stderr)
        return 0

    if args.command == "extract":
        bits = pipeline.extract(img, args.key)
        with open(args.out, "wb") as fh:
            fh.write(np.packbits(bits).tobytes())
        print(f"{len(bits)} bits", file=sys.stderr)
        return 0

    if args.command == "capacity":
        report = pipeline.capacity(img, args.key)
        print(report.to_json())
        return 0

    if args.command == "analyze":
        mask = compute_mask(img)
        with open(args.out, "wb") as fh:
            fh.write(serialize_pbm(mask.to_image(), args.format.upper()))
        print(f"N_FP = {len(mask)}", file=sys.stderr)
        return 0

    raise AssertionError(args.command)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _run(args)
    except (pipeline.MessageTooLongError, HeaderCapacityError,
            pipeline.ImageTooSmallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PbmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
