"""Parsers and serializers for the package's text file formats.

Formats:
  point cloud   one point per line, comma- or whitespace-separated floats
  distances     lower-triangular text, row i has i entries
  complex       one simplex per line, space-separated vertex ids
  values        one `vertex value` pair per line
  filtration    one `value v0 v1 ... vk` line per simplex
  cover         "lo,hi;lo,hi;..." on the command line
  cosheaf       complex lines, then `stalk <simplex> <dim>` lines, then
                `map <face> <coface> <row-major entries>` lines, where a
                simplex is written as comma-separated vertex ids
  zigzag        header `dims d0 d1 ...`, then per arrow `fwd|bwd` followed
                by row-major matrix entries
  barcode JSON  {"field": p, "bars": [{"dim": i, "birth": b, "death":
                d-or-null}, ...]}, bars sorted by (dim, birth, death)
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from . import fields
from .complexes import IntervalCover, SimplicialComplex, build_complex, simplex
from .cosheaf import SimplicialCosheaf, _check_stalks, codim1_pairs
from .errors import TdaError
from .persistence import _NONE, Bar, Barcode, FilteredComplex
from .zigzag import BACKWARD, FORWARD, ZigzagModule, _check_dims


def _nonblank_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def parse_point_cloud(text: str, header: bool = False) -> np.ndarray:
    lines = _nonblank_lines(text)
    if header:
        lines = lines[1:]
    rows = []
    for line in lines:
        parts = line.replace(",", " ").split()
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise TdaError(f"bad point line {line!r}") from exc
    if not rows:
        raise TdaError("point cloud file has no points")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise TdaError(f"points have inconsistent dimensions {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def parse_distance_matrix(text: str) -> np.ndarray:
    """Lower-triangular rows; line j (0-based) must hold j+1 entries."""
    lines = _nonblank_lines(text)
    n = len(lines) + 1
    D = np.zeros((n, n), dtype=float)
    for j, line in enumerate(lines):
        parts = line.replace(",", " ").split()
        if len(parts) != j + 1:
            raise TdaError(
                f"distance row {j} has {len(parts)} entries, expected {j + 1}"
            )
        for i, x in enumerate(parts):
            D[j + 1, i] = D[i, j + 1] = float(x)
    return D


def parse_complex(text: str) -> SimplicialComplex:
    simplices = []
    for line in _nonblank_lines(text):
        simplices.append([int(v) for v in line.split()])
    return build_complex(simplices)


def parse_vertex_values(text: str) -> dict[int, float]:
    values: dict[int, float] = {}
    for line in _nonblank_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise TdaError(f"bad values line {line!r}; expected `vertex value`")
        values[int(parts[0])] = float(parts[1])
    return values


def parse_cover(spec: str) -> IntervalCover:
    intervals = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise TdaError(f"bad cover interval {chunk!r}; expected `lo,hi`")
        intervals.append((float(parts[0]), float(parts[1])))
    if not intervals:
        raise TdaError("cover specification is empty")
    return IntervalCover(intervals)


def parse_filtration(text: str) -> FilteredComplex:
    entries = []
    for line in _nonblank_lines(text):
        parts = line.split()
        if len(parts) < 2:
            raise TdaError(f"bad filtration line {line!r}; expected `value v0 ...`")
        entries.append(([int(v) for v in parts[1:]], float(parts[0])))
    return FilteredComplex(entries)


def _matrix(entries: list[str], shape: tuple[int, int], name: str, *args) -> np.ndarray:
    """The row-major integer entries, each converted before they are counted, as
    an int64 matrix of this shape; ``name % args`` names the line, in an error only."""
    values = [int(x) for x in entries]
    if len(values) != shape[0] * shape[1]:
        raise TdaError(f"{name % args} needs {shape[0] * shape[1]} entries, got {len(values)}")
    return np.asarray(values, dtype=np.int64).reshape(shape)


def parse_cosheaf(text: str) -> SimplicialCosheaf:
    """Cosheaf file: complex section, stalk lines, map lines.

    Unlisted stalks default to dimension 0 and unlisted extension maps to
    zero matrices, so zero-stalk simplices need no explicit lines. Each
    distinct simplex token is parsed once, at its first use. The shapes of
    the :func:`codim1_pairs`, kept in their order, bound the maps' size and
    give the pairs a map line may name; only the pairs no line names get a zero map.
    """
    parse_token = functools.cache(lambda token: simplex(int(v) for v in token.split(",")))
    complex_lines: list[str] = []
    stalk_lines: list[list[str]] = []
    map_lines: list[list[str]] = []
    for line in _nonblank_lines(text):
        parts = line.split()
        if parts[0] == "stalk":
            stalk_lines.append(parts)
        elif parts[0] == "map":
            map_lines.append(parts)
        else:
            complex_lines.append(line)
    base = parse_complex("\n".join(complex_lines))
    stalks = {s: 0 for s in base.simplices}
    for parts in stalk_lines:
        if len(parts) != 3:
            raise TdaError(f"bad stalk line {parts!r}; expected `stalk <simplex> <dim>`")
        s = parse_token(parts[1])
        if s not in base:
            raise TdaError(f"stalk given for {s}, which is not in the complex")
        stalks[s] = int(parts[2])
    _check_stalks(base, stalks, "cosheaf")
    shapes = {(f, c): (stalks[f], stalks[c]) for f, c in codim1_pairs(base)}
    if (size := 8 * sum(m * n for m, n in shapes.values())) > fields.MAX_DENSE_BYTES:
        raise TdaError(f"the extension maps would take {size:,} bytes, over {fields.MAX_DENSE_BYTES:,}")
    maps = dict.fromkeys(shapes)
    for parts in map_lines:
        if len(parts) < 3:
            raise TdaError("bad map line; expected `map <face> <coface> <entries>`")
        pair = (parse_token(parts[1]), parse_token(parts[2]))
        if (shape := shapes.get(pair)) is None:
            raise TdaError(f"map {pair[0]} <- {pair[1]} is not a face/coface pair of the complex")
        maps[pair] = _matrix(parts[3:], shape, "map %s <- %s", *pair)
    for pair, M in maps.items():
        if M is None:
            maps[pair] = np.zeros(shapes[pair], dtype=np.int64)
    return SimplicialCosheaf(base=base, stalks=stalks, maps=maps)


def parse_zigzag(text: str) -> ZigzagModule:
    lines = _nonblank_lines(text)
    if not lines or not lines[0].startswith("dims"):
        raise TdaError("zigzag file must start with a `dims d0 d1 ...` header")
    dims = [int(x) for x in lines[0].split()[1:]]
    _check_dims(dims)
    arrows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        direction = parts[0]
        if direction not in (FORWARD, BACKWARD):
            raise TdaError(f"arrow direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
        if i + 1 >= len(dims):
            raise TdaError("more arrows than dims allow")
        shape = (dims[i + 1], dims[i]) if direction == FORWARD else (dims[i], dims[i + 1])
        arrows.append((direction, _matrix(parts[1:], shape, "arrow %d", i)))
    return ZigzagModule(dims=dims, arrows=arrows)


_BAR_JSON = '    {\n      "birth": %s,\n      "death": %s,\n      "dim": %s\n    }'
_BLOCK_BARS = 4096  # bars per block of barcode JSON
_HEAD_BREAK = "\0"  # between the texts of a block's heads: no spelling holds it


def _barcode_json_blocks(bc: Barcode, field: int) -> Iterator[str]:
    """The text of ``barcode_to_json`` in blocks of at most _BLOCK_BARS
    bars, so that no full-size template, result or copy is ever held.
    Equal bars sit next to each other in canonical order, so each run of
    them is spelled once, at its head: a bar starts a run when it differs
    from the one before in degree or in the bit pattern of birth or death
    (0.0 == -0.0, but their spellings differ), and at every block start.
    Each distinct degree is spelled once by json.dumps. Each block spells
    each distinct float among its heads once, as json.dumps spells it, by
    repr or an infinite death as null, so no float's spelling outlives its
    block. A block's heads fill one template in one formatting, and each
    head's text is repeated over its run."""
    degrees, births, deaths = bc._columns
    n = len(degrees)
    birth_bits, death_bits = births.view(np.int64), deaths.view(np.int64)
    head = np.ones(n, dtype=bool)
    head[1:] = degrees[1:] != degrees[:-1]
    codes = np.sort(degrees[head])  # each degree starts some run of equal degrees
    head[1:] |= (birth_bits[1:] != birth_bits[:-1]) | (death_bits[1:] != death_bits[:-1])
    head[::_BLOCK_BARS] = True
    dims = np.array([json.dumps(None if d == _NONE else d) for d in codes.tolist()], dtype=object)
    # k heads fill the first k * (len(_BAR_JSON) + 1) - 1 characters of the template
    template = _HEAD_BREAK.join([_BAR_JSON] * _BLOCK_BARS)
    opening = '{\n  "bars": [\n'
    for a in range(0, n, _BLOCK_BARS):
        heads = a + np.flatnonzero(head[a : a + _BLOCK_BARS])
        m = len(heads)
        bits, which = np.unique(np.concatenate([birth_bits[heads], death_bits[heads]]), return_inverse=True)
        numbers = np.array(["null" if x == math.inf else repr(x) for x in bits.view(float).tolist()], dtype=object)
        spelled = np.stack([numbers[which[:m]], numbers[which[m:]], dims[np.searchsorted(codes, degrees[heads])]], axis=1)
        texts = template[: m * (len(_BAR_JSON) + 1) - 1] % tuple(spelled.ravel().tolist())
        runs = np.diff(heads, append=min(a + _BLOCK_BARS, n)).tolist()
        yield opening + ",\n".join(chain.from_iterable(map(repeat, texts.split(_HEAD_BREAK), runs)))
        opening = ",\n"
    yield ("\n  ]" if n else '{\n  "bars": []') + f',\n  "field": {json.dumps(field)}\n}}\n'


def barcode_to_json(bc: Barcode, field: int) -> str:
    """The bytes of ``json.dumps({"bars": [...], "field": field}, indent=2,
    sort_keys=True)`` plus a newline: the blocks appended to one string in place."""
    text = ""
    for block in _barcode_json_blocks(bc, field):
        text += block
    return text


def parse_barcode_json(text: str) -> tuple[int, Barcode]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TdaError(f"bad barcode JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("bars"), list):
        raise TdaError("barcode JSON must be an object with a `bars` list")
    bars = []
    try:
        for item in obj["bars"]:
            if not isinstance(item, dict) or not {"dim", "birth", "death"} <= item.keys():
                raise TdaError(f"bar {item!r} must be an object with `dim`, `birth` and `death`")
            death = item["death"]
            bars.append(Bar(item["dim"], float(item["birth"]), math.inf if death is None else float(death)))
        field = int(obj.get("field", 2))
    except TypeError as exc:  # a null or non-numeric birth, death or field
        raise TdaError(f"bad barcode JSON: {exc}") from exc
    return field, Barcode(bars)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()
