"""Command-line surface.

Exit codes: 0 on success, 1 on domain errors (bad geometry, invalid
cosheaf data, ...), 2 on usage errors (unknown flags, missing files,
non-prime field).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import cosheaf as cosheaf_mod
from . import fields, formats, leray, persistence, svg, zigzag
from .errors import NonlinearNerveError
from .fields import is_prime
from .homology import homology

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


@dataclass
class RunConfig:
    """Everything a subcommand needs, validated at parse time."""

    command: str
    input: str | None = None
    distances: str | None = None
    complex: str | None = None
    values: str | None = None
    cover: str | None = None
    thresholds: list[float] | None = None
    degree: int = 0
    field: int = 2
    max_dim: int = 2
    max_radius: float = math.inf
    output: str | None = None
    include_zero_bars: bool = False
    header: bool = False
    width: int = 720


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tda",
        description="Simplicial homology, persistence barcodes, zigzag and cosheaf homology.",
        epilog=_FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, field=True, output=False):
        if field:
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


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    for attr in ("input", "distances", "complex", "values"):
        path = getattr(ns, attr, None)
        if path is not None and not os.path.exists(path):
            parser.error(f"{attr} file not found: {path}")
    if getattr(ns, "command", None) == "rips":
        if (ns.input is None) == (ns.distances is None):
            parser.error("rips needs exactly one of --input or --distances")
    cfg = RunConfig(command=ns.command)
    for key, value in vars(ns).items():
        if key != "command" and hasattr(cfg, key):
            setattr(cfg, key, value)
    return cfg


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _barcode_command(cfg: RunConfig) -> int:
    if cfg.command == "rips":
        if cfg.input is not None:
            data = formats.parse_point_cloud(formats.read_text(cfg.input), cfg.header)
            fc = persistence.rips_filtration(data, cfg.max_dim, cfg.max_radius, precomputed=False)
        else:
            data = formats.parse_distance_matrix(formats.read_text(cfg.distances))
            fc = persistence.rips_filtration(data, cfg.max_dim, cfg.max_radius, precomputed=True)
    else:
        points = formats.parse_point_cloud(formats.read_text(cfg.input), cfg.header)
        fc = persistence.cech_filtration(points, cfg.max_dim, cfg.max_radius)
    bc = persistence.compute_barcode(fc, cfg.field, cfg.include_zero_bars)
    _emit(formats.barcode_to_json(bc, cfg.field), cfg.output)
    return 0


def _homology_command(cfg: RunConfig) -> int:
    K = formats.parse_complex(formats.read_text(cfg.complex))
    lines = []
    for p in range(max(K.dimension, 0) + 1):
        lines.append(f"H_{p}={homology(K, p, cfg.field).dimension}")
    _emit("\n".join(lines) + "\n", None)
    return 0


def _cosheaf_command(cfg: RunConfig) -> int:
    F = formats.parse_cosheaf(formats.read_text(cfg.input))
    lines = []
    for p in range(max(F.base.dimension, 0) + 1):
        lines.append(f"H_{p}={cosheaf_mod.cosheaf_homology(F, p, cfg.field).dimension}")
    try:
        census = cosheaf_mod.bar_census(F, cfg.field)
        lines.append(f"census={census}")
    except NonlinearNerveError:
        lines.append("census=unavailable (base not linear)")
    _emit("\n".join(lines) + "\n", None)
    return 0


def _mapped_complex_and_cover(cfg: RunConfig):
    M = leray.MappedComplex(
        formats.parse_complex(formats.read_text(cfg.complex)),
        formats.parse_vertex_values(formats.read_text(cfg.values)),
    )
    return M, formats.parse_cover(cfg.cover)


def _leray_command(cfg: RunConfig) -> int:
    M, cover = _mapped_complex_and_cover(cfg)
    cosheaves = [
        leray.build_leray_cosheaf(M, cover, i, cfg.field).cosheaf
        for i in range(max(M.complex.dimension, cfg.degree) + 1)
    ]
    stalks = cosheaves[cfg.degree].stalks
    lines = []
    for ns in sorted(stalks, key=lambda s: (len(s), s)):
        label = ",".join(str(v) for v in ns)
        lines.append(f"stalk[{label}]={stalks[ns]}")
    for i, top in enumerate(cosheaves):
        below = cosheaves[i - 1] if i > 0 else None
        lines.append(f"H_{i}={leray.leray_formula(top, below, cfg.field)}")
    _emit("\n".join(lines) + "\n", None)
    return 0


def _sublevel_command(cfg: RunConfig) -> int:
    M, cover = _mapped_complex_and_cover(cfg)
    module = leray.sublevel_module(M, cover, cfg.degree, cfg.thresholds, cfg.field)
    ranks = [int(fields.rank(Mx, cfg.field)) for Mx in module.maps]
    payload = {
        "degree": cfg.degree,
        "dims": module.dims,
        "field": cfg.field,
        "ranks": ranks,
        "thresholds": cfg.thresholds,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.output)
    return 0


def _zigzag_command(cfg: RunConfig) -> int:
    z = formats.parse_zigzag(formats.read_text(cfg.input))
    bars = zigzag.decompose_zigzag(z, cfg.field)
    lines = [f"bar [{b.lo},{b.hi}] multiplicity {b.multiplicity}" for b in bars]
    _emit("\n".join(lines) + ("\n" if lines else ""), None)
    return 0


def _plot_command(cfg: RunConfig) -> int:
    _, bc = formats.parse_barcode_json(formats.read_text(cfg.input))
    svg.render_svg(bc, cfg.output, width=cfg.width)
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


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; domain errors become exit code 1."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
