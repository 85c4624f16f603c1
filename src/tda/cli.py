"""Command-line surface.

Exit codes: 0 on success, 1 on domain errors (bad geometry, invalid
cosheaf data, ...), 2 on usage errors (unknown flags, missing files,
non-prime field).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable

from . import cosheaf as cosheaf_mod
from . import fields, formats, leray, persistence, zigzag
from .errors import NonlinearNerveError
from .homology import _quotients

_FORMATS_HELP = """\
file formats:
  point cloud    one point per line, comma- or whitespace-separated
                 decimal floats; --header skips the first line
  distances      lower-triangular text, row i has i entries
  complex        one simplex per line, space-separated vertex ids
  values         one `vertex value` pair per line
  cover          command-line string "lo,hi;lo,hi;..." of open intervals
  filtration     one `value v0 v1 ... vk` line per simplex
  cosheaf        complex lines, then `stalk <simplex> <dim>` lines, then
                 `map <face> <coface> <row-major entries>` lines; simplices
                 inside stalk/map lines are comma-separated vertex ids
  zigzag         header `dims d0 d1 ...`, then one `fwd|bwd <entries>`
                 line per arrow (row-major matrix entries)
  barcode JSON   {"field": p, "bars": [{"dim": i, "birth": b,
                 "death": d-or-null}, ...]} sorted by (dim, birth, death)
"""


def _prime(text: str) -> int:
    value = int(text)
    try:
        return fields.check_prime(value)  # its bound comes before any trial division
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value} is not prime" if value < fields.MAX_FIELD else str(exc))


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _thresholds(text: str) -> list[float]:
    try:
        ts = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad thresholds {text!r}") from exc
    if not ts:
        raise argparse.ArgumentTypeError("thresholds list is empty")
    return ts


class _DeferredParser:
    """A subcommand parser that records its ``add_argument`` calls and
    builds the real ArgumentParser on its first ``parse_known_args``, so a
    run builds the parser of the one command it runs, not all of them."""

    def __init__(self, **kwargs):
        self._kwargs, self._arguments, self._parser = kwargs, [], None

    def add_argument(self, *args, **kwargs) -> None:
        self._arguments.append((args, kwargs))

    def parse_known_args(self, args=None, namespace=None):
        if self._parser is None:
            self._parser = argparse.ArgumentParser(**self._kwargs)
            for a, k in self._arguments:
                self._parser.add_argument(*a, **k)
        return self._parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tda",
        description="Simplicial homology, persistence barcodes, zigzag and cosheaf homology.",
        epilog=_FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_DeferredParser)

    def add_common(p, output=False):
        p.add_argument("--field", type=_prime, default=2, help="prime field (default 2)")
        if output:
            p.add_argument("--output", help="output path (default: stdout)")

    p = sub.add_parser("rips", help="Rips filtration barcode as JSON")
    p.add_argument("--input", help="point cloud CSV")
    p.add_argument("--distances", help="lower-triangular distance matrix file")
    p.add_argument("--max-dim", type=_nonneg_int, default=2)
    p.add_argument("--max-radius", type=_positive, required=True)
    p.add_argument("--include-zero-bars", action="store_true")
    p.add_argument("--header", action="store_true", help="skip the first input line")
    add_common(p, output=True)

    p = sub.add_parser("cech", help="Čech filtration barcode as JSON")
    p.add_argument("--input", required=True, help="point cloud CSV")
    p.add_argument("--max-dim", type=_nonneg_int, default=2)
    p.add_argument("--max-radius", type=_positive, required=True)
    p.add_argument("--include-zero-bars", action="store_true")
    p.add_argument("--header", action="store_true")
    add_common(p, output=True)

    p = sub.add_parser("homology", help="homology dimensions of a complex")
    p.add_argument("--complex", required=True, help="complex file")
    add_common(p)

    p = sub.add_parser("cosheaf", help="cosheaf homology dimensions and bar census")
    p.add_argument("--input", required=True, help="cosheaf file")
    add_common(p)

    p = sub.add_parser("leray", help="Leray cosheaf stalks and global homology")
    p.add_argument("--complex", required=True, help="complex file")
    p.add_argument("--values", required=True, help="vertex values file")
    p.add_argument("--cover", required=True, help='cover string "lo,hi;lo,hi;..."')
    p.add_argument("--degree", type=_nonneg_int, default=1)
    add_common(p)

    p = sub.add_parser("sublevel", help="sublevel persistence module dims/ranks as JSON")
    p.add_argument("--complex", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--degree", type=_nonneg_int, default=0)
    p.add_argument("--thresholds", type=_thresholds, required=True, help='"t1,t2,..."')
    add_common(p, output=True)

    p = sub.add_parser("zigzag", help="interval decomposition of a zigzag module")
    p.add_argument("--input", required=True, help="zigzag file")
    add_common(p)

    p = sub.add_parser("plot", help="render a barcode JSON file as SVG")
    p.add_argument("--input", required=True, help="barcode JSON file")
    p.add_argument("--output", required=True, help="SVG output path")
    p.add_argument("--width", type=int, default=720)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`parse_args`, built on first use and then reused:
    building it costs more than a small command's work, and doing so at
    import would charge every importer."""
    return build_parser()


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate a command line; usage errors exit with code 2."""
    parser = _parser()
    ns = parser.parse_args(argv)
    for attr in ("input", "distances", "complex", "values"):
        path = getattr(ns, attr, None)
        if path is not None and not os.path.exists(path):
            parser.error(f"{attr} file not found: {path}")
    if getattr(ns, "command", None) == "rips":
        if (ns.input is None) == (ns.distances is None):
            parser.error("rips needs exactly one of --input or --distances")
    return ns


def _emit(blocks: Iterable[str], output: str | None) -> None:
    """Write the text blocks in order to the output file, or to stdout."""
    if output is None:
        sys.stdout.writelines(blocks)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)


def _barcode_command(args: argparse.Namespace) -> int:
    if args.command == "rips":
        if args.input is not None:
            data = formats.parse_point_cloud(formats.read_text(args.input), args.header)
            fc = persistence.rips_filtration(data, args.max_dim, args.max_radius, precomputed=False)
        else:
            data = formats.parse_distance_matrix(formats.read_text(args.distances))
            fc = persistence.rips_filtration(data, args.max_dim, args.max_radius, precomputed=True)
    else:
        points = formats.parse_point_cloud(formats.read_text(args.input), args.header)
        fc = persistence.cech_filtration(points, args.max_dim, args.max_radius)
    bc = persistence.compute_barcode(fc, args.field, args.include_zero_bars)
    _emit(formats._barcode_json_blocks(bc, args.field), args.output)
    return 0


def _homology_command(args: argparse.Namespace) -> int:
    K = formats.parse_complex(formats.read_text(args.complex))
    quotients = _quotients(K, range(max(K.dimension, 0) + 1), args.field)
    _emit([f"H_{p}={q.dimension}\n" for p, q in enumerate(quotients)], None)
    return 0


def _cosheaf_command(args: argparse.Namespace) -> int:
    """H_p for p up to the base's dimension, then the bar census. Over a
    base of dimension <= 1 the census's closed and open bars count H_0 and
    H_1 (and there is no square to validate); other bases are reduced."""
    F = formats.parse_cosheaf(formats.read_text(args.input))
    degrees = range(max(F.base.dimension, 0) + 1)
    try:
        census = cosheaf_mod.bar_census(F, args.field)
        dims, last = census[: len(degrees)], f"census={census}"
    except NonlinearNerveError:
        dims = [q.dimension for q in cosheaf_mod._quotients(F, degrees, args.field)]
        last = "census=unavailable (base not linear)"
    lines = [f"H_{p}={dim}" for p, dim in enumerate(dims)] + [last]
    _emit(["\n".join(lines) + "\n"], None)
    return 0


def _mapped_complex_and_cover(args: argparse.Namespace):
    M = leray.MappedComplex(
        formats.parse_complex(formats.read_text(args.complex)),
        formats.parse_vertex_values(formats.read_text(args.values)),
    )
    return M, formats.parse_cover(args.cover)


def _leray_command(args: argparse.Namespace) -> int:
    M, cover = _mapped_complex_and_cover(args)
    degrees = range(max(M.complex.dimension, args.degree) + 1)
    cosheaves = [F for F, _ in leray._leray_cosheaves(cover, leray._leray_pieces(M, cover), degrees, args.field)]
    stalks = cosheaves[args.degree].stalks
    lines = []
    for ns in sorted(stalks, key=lambda s: (len(s), s)):
        label = ",".join(str(v) for v in ns)
        lines.append(f"stalk[{label}]={stalks[ns]}")
    for i, top in enumerate(cosheaves):
        below = cosheaves[i - 1] if i > 0 else None
        lines.append(f"H_{i}={leray.leray_formula(top, below, args.field)}")
    _emit(["\n".join(lines) + "\n"], None)
    return 0


def _sublevel_command(args: argparse.Namespace) -> int:
    M, cover = _mapped_complex_and_cover(args)
    module = leray.sublevel_module(M, cover, args.degree, args.thresholds, args.field)
    ranks = [int(fields.rank(Mx, args.field)) for Mx in module.maps]
    payload = {
        "degree": args.degree,
        "dims": module.dims,
        "field": args.field,
        "ranks": ranks,
        "thresholds": args.thresholds,
    }
    _emit([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.output)
    return 0


def _zigzag_command(args: argparse.Namespace) -> int:
    z = formats.parse_zigzag(formats.read_text(args.input))
    bars = zigzag.decompose_zigzag(z, args.field)
    lines = [f"bar [{b.lo},{b.hi}] multiplicity {b.multiplicity}" for b in bars]
    _emit(["\n".join(lines) + ("\n" if lines else "")], None)
    return 0


def _plot_command(args: argparse.Namespace) -> int:
    from . import svg  # only this command draws

    _, bc = formats.parse_barcode_json(formats.read_text(args.input))
    svg.render_svg(bc, args.output, width=args.width)
    return 0


_COMMANDS = {
    "rips": _barcode_command,
    "cech": _barcode_command,
    "homology": _homology_command,
    "cosheaf": _cosheaf_command,
    "leray": _leray_command,
    "sublevel": _sublevel_command,
    "zigzag": _zigzag_command,
    "plot": _plot_command,
}


def run(args: argparse.Namespace) -> int:
    """Execute parsed arguments; domain errors become exit code 1."""
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
