"""File formats, SVG rendering, and the command-line surface."""

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tda
from conftest import FIXTURES, linear_cosheaves, octagon_circle, random_complex, small_zigzags, twisted_constant_cosheaf
from tda import cli, fields, formats, zigzag
from tda import cosheaf as C
from tda.errors import NonlinearNerveError, TdaError
from tda.persistence import Bar, Barcode
from tda.svg import svg_document

CIRCLE = os.path.join(FIXTURES, "circle60.csv")
GOLDEN = os.path.join(FIXTURES, "golden")
PATH16 = os.path.join(GOLDEN, "path16.cosheaf")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_public_name_resolves_once():
    """Each name in ``tda.__all__`` is an attribute of the package, and none repeats."""
    assert len(set(tda.__all__)) == len(tda.__all__)
    assert [name for name in tda.__all__ if not hasattr(tda, name)] == []


def test_parse_point_cloud_separators_and_header():
    text = "x,y\n0.5, 1.5\n2 3\n"
    pts = formats.parse_point_cloud(text, header=True)
    assert pts.tolist() == [[0.5, 1.5], [2.0, 3.0]]


def test_parse_distance_matrix_lower_triangular():
    D = formats.parse_distance_matrix("1.0\n2.0 3.0\n")
    assert D.tolist() == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    with pytest.raises(tda.TdaError):
        formats.parse_distance_matrix("1.0 2.0\n")


def test_parse_complex_and_values():
    K = formats.parse_complex("0 1\n1 2\n")
    assert (0, 1) in K and (1,) in K
    vals = formats.parse_vertex_values("0 0.5\n1 -1\n")
    assert vals == {0: 0.5, 1: -1.0}


def test_parse_cover_and_filtration():
    cover = formats.parse_cover("0,2;1,4;3,6")
    assert len(cover) == 3
    fc = formats.parse_filtration("0 0\n0 1\n1 0 1\n")
    assert fc.values() == {(0,): 0.0, (1,): 0.0, (0, 1): 1.0}


def test_parse_cosheaf_with_defaults():
    text = "0 1\nstalk 0,1 1\n"  # open-interval cosheaf: zero vertex stalks
    F = formats.parse_cosheaf(text)
    assert F.stalks == {(0,): 0, (1,): 0, (0, 1): 1}
    from tda.cosheaf import cosheaf_homology

    assert cosheaf_homology(F, 1).dimension == 1


def test_parse_cosheaf_parses_each_distinct_token_once():
    """A simplex token repeated across stalk and map lines is turned into
    a simplex once: the constant cosheaf over a path of 30 vertices has
    30 + 29 distinct tokens among its 30 + 29 + 2 * 29 uses."""
    n = 30
    lines = [f"{i} {i + 1}" for i in range(n - 1)] + [f"stalk {i} 1" for i in range(n)]
    lines += [f"stalk {i},{i + 1} 1" for i in range(n - 1)]
    lines += [f"map {v} {i},{i + 1} 1" for i in range(n - 1) for v in (i, i + 1)]
    with mock.patch.object(formats, "simplex", wraps=formats.simplex) as parse:
        F = formats.parse_cosheaf("\n".join(lines))
    assert parse.call_count == 2 * n - 1
    assert F.stalks == {s: 1 for s in F.base.simplices}
    assert all(M.tolist() == [[1]] for M in F.maps.values())


@pytest.mark.parametrize(
    "lines, message",
    [
        (["map 0 0,1 1", "map 1 0,1 1", "map 0,x 0,1 1", "map 1,y 0,1 1"], "invalid literal for int() with base 10: 'x'"),
        (["map 0 0,1 1", "map 0 0,0 1", "map 1 1,1 1"], "duplicate vertices in (0, 0)"),
    ],
    ids=["not-an-integer", "repeated-vertex"],
)
def test_parse_cosheaf_names_the_first_bad_token(lines, message):
    """A bad token is reported as its first use fails, after good tokens
    that were already parsed and reused."""
    with pytest.raises(ValueError) as info:
        formats.parse_cosheaf("\n".join(["0 1", "stalk 0 1", "stalk 1 1", "stalk 0,1 1", *lines]))
    assert str(info.value) == message


def test_parse_zigzag():
    z = formats.parse_zigzag("dims 1 2 1\nfwd 1 1\nbwd 1 0\n")
    assert z.dims == [1, 2, 1]
    assert z.arrows[0][0] == "fwd"
    assert z.arrows[1][1].shape == (2, 1)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (formats.parse_cosheaf, "0 1\nstalk 0 1\nstalk 0,1 2\nmap 0 0,1 1\n", "map (0,) <- (0, 1) needs 2 entries, got 1"),
        (formats.parse_zigzag, "dims 1 2 1\nfwd 1 1\nbwd 1 0 1\n", "arrow 1 needs 2 entries, got 3"),
        (formats.parse_cosheaf, "0 1\nstalk 0 1\nstalk 0,1 2\nmap 0 0,1 1 x 1\n", "invalid literal for int() with base 10: 'x'"),
        (formats.parse_zigzag, "dims 1 2 1\nfwd 1 1\nbwd 1 x 0\n", "invalid literal for int() with base 10: 'x'"),
    ],
    ids=["map-count", "arrow-count", "map-not-an-integer", "arrow-not-an-integer"],
)
def test_matrix_lines_name_their_line(parse, text, message):
    """A map or arrow line of the wrong length is named with the count it
    needs; a non-integer entry is reported first, even on a line of the
    wrong length."""
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_cosheaf_makes_zero_maps_only_for_pairs_without_a_map_line():
    """Over a path of 8 vertices with stalks 1, dropping the map lines of the
    first k of its 14 pairs makes exactly k more zero matrices, and those
    maps are zero, in their place in the order of ``codim1_pairs``."""
    n = 8
    lines = [f"{i} {i + 1}" for i in range(n - 1)] + [f"stalk {i} 1" for i in range(n)]
    lines += [f"stalk {i},{i + 1} 1" for i in range(n - 1)]
    maps = [f"map {v} {i},{i + 1} 1" for i in range(n - 1) for v in (i, i + 1)]  # in codim1_pairs order
    counts = []
    for k in (0, 5):
        with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
            F = formats.parse_cosheaf("\n".join(lines + maps[k:]))
        counts.append(zeros.call_count)
        assert list(F.maps) == C.codim1_pairs(F.base)
        assert [M.tolist() for M in F.maps.values()] == [[[0]]] * k + [[[1]]] * (len(maps) - k)
    assert counts[1] - counts[0] == 5


def test_barcode_json_round_trip_is_byte_identical():
    bc = Barcode([Bar(0, 0.0, math.inf), Bar(1, 0.25, 1.5), Bar(0, 0.0, 0.75)])
    text = formats.barcode_to_json(bc, 3)
    field, parsed = formats.parse_barcode_json(text)
    assert field == 3
    assert formats.barcode_to_json(parsed, field) == text


@st.composite
def any_bars(draw):
    """A bar with any finite birth, a death at or above it (or infinite),
    and a degree that may be None."""
    birth = draw(st.floats(allow_nan=False, allow_infinity=False))
    death = draw(st.one_of(st.just(math.inf), st.floats(min_value=birth, allow_nan=False)))
    return Bar(draw(st.one_of(st.none(), st.integers(0, 5))), birth, death)


@st.composite
def pooled_bars(draw):
    """Up to 200 bars whose births and deaths come from a pool of 0.0,
    -0.0 and up to four other floats, so that spellings repeat."""
    pool = st.sampled_from([0.0, -0.0] + draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)))
    ends = st.tuples(st.one_of(st.none(), st.integers(0, 3)), pool, st.one_of(pool, st.just(math.inf)))
    return [Bar(d, min(a, b), max(a, b)) for d, a, b in draw(st.lists(ends, max_size=200))]


@given(st.one_of(st.lists(any_bars(), max_size=8), pooled_bars()), st.sampled_from([2, 3, 5, 32749]))
@example([], 2)
@example([Bar(None, -0.0, math.inf), Bar(0, -1e308, 1e308), Bar(2, 5e-324, 2.5e-308)], 3)
@example([Bar(0, 0.0, 1.0), Bar(0, -0.0, 1.0), Bar(1, -0.0, 0.0)], 2)
@example([Bar(1, 0.25, 0.5)] * 50 + [Bar(0, 0.25, 0.5)] * 3, 2)
@example([Bar(0, 0.0, math.inf), Bar(0, 0.0, 0.5), Bar(1, 0.5, math.inf), Bar(1, 0.5, 0.75)], 3)
@example([Bar(None, 0.0, 1.0), Bar(0, 0.0, 1.0), Bar(2, 1.0, 2.0), Bar(None, 1.0, 2.0)], 5)
def test_barcode_json_equals_json_dumps(bars, field):
    bc = Barcode(bars)
    obj = {
        "bars": [{"dim": b.degree, "birth": b.birth, "death": None if b.infinite else b.death} for b in bc],
        "field": field,
    }
    text = formats.barcode_to_json(bc, field)
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert formats.parse_barcode_json(text) == (field, bc)


def block_bars(count: int) -> list[Bar]:
    """count bars over degrees 0-2 whose ends cycle through -0.0 and 0.0
    births, infinite, -0.0 and 0.0 deaths, and distinct finite floats."""
    ends = [(-0.0, math.inf), (0.0, -0.0), (-0.0, 0.0), (0.0, math.inf)]
    return [Bar(i % 3, *ends[i % 5]) if i % 5 < 4 else Bar(i % 3, i / 3, i / 2) for i in range(count)]


BLOCK = formats._BLOCK_BARS


@pytest.mark.parametrize(
    "bars",
    [pytest.param(block_bars(count), id=str(count)) for count in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)]
    + [
        pytest.param(
            [Bar(0, 0.0, 1.0)] + [Bar(2, 0.5, math.inf)] * (3 * BLOCK + 7) + [Bar(2, 0.75, math.inf)],
            id="one-run-over-3-block-boundaries",
        ),
        pytest.param(
            [Bar(1, 0.0, 1.0), Bar(1, -0.0, 1.0)] * 5 + [Bar(1, -0.0, 2.0)] * 3 + [Bar(1, 0.0, 2.0)] * 3,
            id="zero-and-minus-zero-births-side-by-side",
        ),
        pytest.param(
            [Bar(3, 1.0, 2.0)] * 4 + [Bar(None, 1.0, 2.0)] * 5 + [Bar(None, 1.5, 2.0)] * 2 + [Bar(None, 1.5, math.inf)],
            id="runs-of-degree-none",
        ),
        pytest.param([Bar(i % 3, i / 7, i / 5 + 1) for i in range(BLOCK + 10)], id="all-distinct"),
    ],
)
def test_barcode_json_blocks_join_to_json_dumps(bars):
    """The blocks hold at most _BLOCK_BARS bars each, and their join, which
    is ``barcode_to_json``, is the json.dumps text at and around every
    block boundary, over runs of equal bars and distinct ones."""
    bc = Barcode(bars)
    obj = {
        "bars": [{"dim": b.degree, "birth": b.birth, "death": None if b.infinite else b.death} for b in bc],
        "field": 3,
    }
    blocks = list(formats._barcode_json_blocks(bc, 3))
    assert len(blocks) == -(-len(bars) // BLOCK) + 1
    assert max(block.count('"dim"') for block in blocks) <= BLOCK
    assert "".join(blocks) == formats.barcode_to_json(bc, 3) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_barcode_to_json_holds_its_text_about_once():
    """120,000 bars at radii on a grid of 1/64, in runs of equal bars as a
    Rips barcode has them (9 MB of JSON): the traced peak inside the call
    stays under 1.5 times the text, where holding every block and their
    join at once would take twice it."""
    rng = np.random.default_rng(0)
    n = 120_000
    births = rng.integers(0, 100, n) / 64
    bc = Barcode.from_columns(rng.integers(0, 3, n), births, births + rng.integers(1, 40, n) / 64)
    tracemalloc.start()
    try:
        text = formats.barcode_to_json(bc, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count('"dim"') == n and text == "".join(formats._barcode_json_blocks(bc, 2))
    assert peak < 1.5 * len(text), f"peak {peak:,} bytes for {len(text):,} characters"


def test_barcode_to_json_of_distinct_bars_holds_its_text_about_once():
    """100,000 bars whose births are all distinct (9.7 MB of JSON): each
    block spells only its own floats, so the traced peak inside the call
    stays under 1.5 times the text."""
    draw = random.Random(0)
    n = 100_000
    births = np.array([draw.random() for _ in range(n)])
    deaths = np.where(np.arange(n) % 10 == 0, math.inf, births + np.array([draw.random() for _ in range(n)]))
    bc = Barcode.from_columns(np.arange(n) % 3, births, deaths)
    tracemalloc.start()
    try:
        text = formats.barcode_to_json(bc, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count('"dim"') == n and text == "".join(formats._barcode_json_blocks(bc, 2))
    assert peak < 1.5 * len(text), f"peak {peak:,} bytes for {len(text):,} characters"


def test_svg_document_shapes():
    empty = svg_document(Barcode([]))
    assert "<svg" in empty and "<line" in empty  # the axis line
    one = svg_document(Barcode([Bar(0, 0.0, 1.0)]))
    assert one.count('stroke-width="3"') == 1
    infinite = svg_document(Barcode([Bar(0, 0.0, math.inf)]))
    assert "<polygon" in infinite  # the arrowhead
    assert svg_document(Barcode([Bar(0, 0.0, 1.0)])) == one


def test_svg_torus_layout():
    bars = [Bar(0, -3.0, math.inf), Bar(1, -1.0, math.inf), Bar(1, 1.0, math.inf), Bar(2, 3.0, math.inf)]
    doc = svg_document(Barcode(bars))
    assert doc.count('stroke-width="3"') == 4
    for label in (">H0<", ">H1<", ">H2<"):
        assert label in doc


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_homology_interval(tmp_path, capsys):
    path = tmp_path / "interval.txt"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "homology", "--complex", str(path))
    assert code == 0
    assert out.splitlines() == ["H_0=1", "H_1=0"]


def test_cli_homology_of_k100_keeps_representatives_sparse(tmp_path, capsys):
    """The complete graph on 100 vertices has dim H_1 = 4,851. Its dense
    representatives, 4,950 x 4,851 int64, would take 192 MB; the sparse
    tracks keep the traced peak far below that."""
    path = tmp_path / "k100.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in itertools.combinations(range(100), 2)))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "homology", "--complex", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "H_0=1\nH_1=4851\n")
    assert peak < 64 * 2**20, f"peak {peak:,} bytes"


def test_parse_cosheaf_refuses_maps_over_the_dense_bound(tmp_path, capsys, monkeypatch):
    """The zero maps of a cosheaf file are sized before any is allocated:
    stalks 2 and 3 on the vertices of an edge with stalk 4 give maps of
    (2 + 3) * 4 * 8 = 160 bytes, which pass a bound of 160 and are refused
    under 159, by the parser and by the CLI with exit code 1."""
    path = tmp_path / "edge.cosheaf"
    path.write_text("0 1\nstalk 0 2\nstalk 1 3\nstalk 0,1 4\n")
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 160)
    assert formats.parse_cosheaf(path.read_text()).maps[((1,), (0, 1))].shape == (3, 4)
    monkeypatch.setattr(fields, "MAX_DENSE_BYTES", 159)
    message = "the extension maps would take 160 bytes, over 159"
    with pytest.raises(TdaError, match=f"^{message}$"):
        formats.parse_cosheaf(path.read_text())
    assert run_cli(capsys, "cosheaf", "--input", str(path)) == (1, "", f"error: {message}\n")


def test_dimension_totals_are_bounded(tmp_path, capsys, monkeypatch):
    """Dims, or stalks, in total over ``zigzag.MAX_TOTAL_DIMENSION`` are
    refused by the parsers, the constructors and the CLI (exit code 1),
    and a total exactly at the bound passes."""
    monkeypatch.setattr(zigzag, "MAX_TOTAL_DIMENSION", 6)
    over = "the dimensions total 7, over 6"
    assert zigzag.ZigzagModule([2, 4], [(zigzag.FORWARD, np.zeros((4, 2)))]).dims == [2, 4]
    assert zigzag.FiniteDiagram([2, 4], []).dims == [2, 4]
    assert zigzag.ExplicitModule([6]).dims == [6]
    for make in (
        lambda: zigzag.ZigzagModule([3, 4], [(zigzag.FORWARD, np.zeros((4, 3)))]),
        lambda: zigzag.FiniteDiagram([3, 4], []),
        lambda: zigzag.ExplicitModule([7]),
        lambda: formats.parse_zigzag("dims 3 4\n"),
    ):
        with pytest.raises(TdaError, match=f"^{over}$"):
            make()
    edge = tda.build_complex([[0, 1]])
    for kind, make in (("cosheaf", C.SimplicialCosheaf), ("sheaf", C.SimplicialSheaf)):
        zero = {((0,), (0, 1)): [], ((1,), (0, 1)): []}  # an empty map takes the shape of its block
        assert make(edge, {(0,): 0, (1,): 0, (0, 1): 6}, zero).stalks[(0, 1)] == 6
        with pytest.raises(TdaError, match=f"^the {kind} stalks total 7, over 6$"):
            make(edge, {(0,): 0, (1,): 0, (0, 1): 7}, zero)
    at_zigzag, at_cosheaf = "dims 2 4\nfwd" + " 1" * 8, "0 1\nstalk 0 2\nstalk 1 1\nstalk 0,1 3"
    over_cosheaf = "0 1\nstalk 0 2\nstalk 1 1\nstalk 0,1 4"
    assert formats.parse_zigzag(at_zigzag).dims == [2, 4]
    assert sum(formats.parse_cosheaf(at_cosheaf).stalks.values()) == 6
    with pytest.raises(TdaError, match="^the cosheaf stalks total 7, over 6$"):
        formats.parse_cosheaf(over_cosheaf)
    runs = [
        ("zigzag", at_zigzag, 0, "bar [0,0] multiplicity 1\nbar [0,1] multiplicity 1\nbar [1,1] multiplicity 3\n", ""),
        ("zigzag", "dims 3 4", 1, "", f"error: {over}\n"),
        ("cosheaf", at_cosheaf, 0, "H_0=3\nH_1=3\ncensus=(3, 3, 0)\n", ""),
        ("cosheaf", over_cosheaf, 1, "", "error: the cosheaf stalks total 7, over 6\n"),
    ]
    for command, text, *result in runs:
        path = tmp_path / f"input.{command}"
        path.write_text(text + "\n")
        assert run_cli(capsys, command, "--input", str(path)) == tuple(result), text


def test_cli_cosheaf_open_interval(tmp_path, capsys):
    path = tmp_path / "open.cosheaf"
    path.write_text("0 1\nstalk 0,1 1\n")
    code, out, _ = run_cli(capsys, "cosheaf", "--input", str(path))
    assert code == 0
    assert out.splitlines() == ["H_0=0", "H_1=1", "census=(0, 1, 0)"]


INVALID_TRIANGLE_COSHEAF = "0 1 2\n" + "".join(
    f"stalk {s} 1\n" for s in ("0", "1", "2", "0,1", "0,2", "1,2", "0,1,2")
) + "map 0 0,1 1\nmap 0,1 0,1,2 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\nstalk 0 -1\n", "negative stalk dimension at (0,)"),
        ("0 1\nstalk 0 1\nmap 5 5,6 1\n", "map (5,) <- (5, 6) is not a face/coface pair of the complex"),
        (INVALID_TRIANGLE_COSHEAF, "extension maps (0, 1, 2) -> (0,) disagree via (0, 2) and (0, 1)"),
    ],
    ids=["negative-stalk", "not-a-face-pair", "invalid-over-a-triangle"],
)
def test_cli_cosheaf_input_errors_exit_1(tmp_path, capsys, text, message):
    """Bad stalk and map lines are named as such, and an invalid cosheaf over
    a 2-dimensional base reports its failing square, not its base."""
    path = tmp_path / "bad.cosheaf"
    path.write_text(text)
    code, out, err = run_cli(capsys, "cosheaf", "--input", str(path), "--field", "5")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def cosheaf_text(F) -> str:
    """F as a cosheaf file: every simplex as a complex line, then every
    stalk and every map."""
    def token(s):
        return ",".join(map(str, s))

    lines = [" ".join(map(str, s)) for s in sorted(F.base.simplices)]
    lines += [f"stalk {token(s)} {d}" for s, d in F.stalks.items()]
    lines += [f"map {token(a)} {token(b)} " + " ".join(map(str, np.ravel(M).tolist())) for (a, b), M in F.maps.items()]
    return "\n".join(lines) + "\n"


@st.composite
def cli_cosheaves(draw):
    """(cosheaf, field) over F2 or F3: a random cosheaf over paths and
    isolated vertices; any stalks and maps over the 1-skeleton of a random
    complex, whose vertices may branch or close a cycle; a twisted constant
    cosheaf over a random 2-dimensional complex; or any stalks over 0-6
    isolated vertices."""
    field = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["paths", "graph", "complex", "vertices"]))
    if kind == "paths":
        return draw(linear_cosheaves())[0], field
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "complex":
        K = random_complex(rng)
        return twisted_constant_cosheaf(rng, K, int(rng.integers(1, 3)), field), field
    if kind == "graph":
        K = tda.build_complex([s for s in random_complex(rng).simplices if len(s) <= 2])
    else:
        K = tda.build_complex([[v] for v in range(draw(st.integers(0, 6)))])
    stalks = {s: int(rng.integers(0, 4)) for s in K.simplices}
    maps = {(a, b): rng.integers(0, field, (stalks[a], stalks[b])) for a, b in C.codim1_pairs(K)}
    return C.SimplicialCosheaf(K, stalks, maps), field


@given(cli_cosheaves())
def test_cli_cosheaf_prints_cosheaf_homology(case):
    """``tda cosheaf`` prints dim H_p(K; F) from ``cosheaf_homology`` for
    every p up to the base's dimension, whether it reads them off the bar
    census (a base of paths and isolated vertices) or reduces the block
    boundaries (any other base), then the census or its absence."""
    F, field = case
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "F.cosheaf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cosheaf_text(F))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["cosheaf", "--input", path, "--field", str(field)])
    try:
        census = f"census={C.bar_census(F, field)}"
    except NonlinearNerveError:
        census = "census=unavailable (base not linear)"
    degrees = range(max(F.base.dimension, 0) + 1)
    expected = [f"H_{p}={C.cosheaf_homology(F, p, field).dimension}" for p in degrees] + [census]
    assert (code, out.getvalue().splitlines()) == (0, expected)


@given(cli_cosheaves(), st.randoms(use_true_random=False))
def test_cosheaf_files_round_trip(case, random):
    """A cosheaf written as a file, with some of its zero maps left out and
    its map lines shuffled, parses to the same stalks and maps, keyed in
    the order of ``codim1_pairs``."""
    F, _ = case
    lines = cosheaf_text(F).splitlines()
    n = len(lines) - len(F.maps)
    map_lines = [line for line, M in zip(lines[n:], F.maps.values()) if M.any() or random.random() < 0.5]
    random.shuffle(map_lines)
    G = formats.parse_cosheaf("\n".join(lines[:n] + map_lines))
    assert (G.base.simplices, G.stalks) == (F.base.simplices, F.stalks)
    assert list(G.maps) == list(F.maps) == C.codim1_pairs(F.base)
    assert all(G.maps[pair].shape == M.shape and np.array_equal(G.maps[pair], M) for pair, M in F.maps.items())


@given(small_zigzags())
def test_zigzag_files_round_trip(case):
    """A zigzag written as a file parses to the same dims and arrows."""
    z, _ = case
    lines = ["dims " + " ".join(map(str, z.dims))]
    lines += [" ".join([direction, *map(str, M.ravel().tolist())]) for direction, M in z.arrows]
    y = formats.parse_zigzag("\n".join(lines))
    assert y.dims == z.dims
    assert [(d, M.shape, M.tolist()) for d, M in y.arrows] == [(d, M.shape, M.tolist()) for d, M in z.arrows]


def test_cli_rips_circle_fixture(tmp_path, capsys):
    out_path = tmp_path / "bars.json"
    code, _, _ = run_cli(
        capsys,
        "rips",
        "--input",
        CIRCLE,
        "--max-dim",
        "2",
        "--max-radius",
        "1.1",
        "--output",
        str(out_path),
    )
    assert code == 0
    field, bc = formats.parse_barcode_json(out_path.read_text())
    assert field == 2
    long_h1 = [b for b in bc.in_degree(1) if b.death - b.birth > 0.5]
    assert len(long_h1) == 1


@pytest.mark.parametrize("field", [2, 3])
def test_cli_rips_output_file_equals_stdout(tmp_path, capsys, field):
    """The streamed barcode JSON is the same bytes in a file and on stdout."""
    argv = ["rips", "--input", os.path.join(GOLDEN, "cloud37.csv"), "--max-dim", "2",
            "--max-radius", "0.4", "--field", str(field)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "bars.json"
    assert run_cli(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


def assert_reproduces_golden(tmp_path, capsys, argv, golden):
    out_path = tmp_path / "bars.json"
    code, _, _ = run_cli(capsys, *argv, "--output", str(out_path))
    assert code == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out_path.read_bytes() == fh.read()


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("zero_bars", [False, True])
def test_cli_rips_reproduces_golden_output(tmp_path, capsys, field, zero_bars):
    """Byte for byte against files written by the boundary-reduction
    barcode and the json.dumps writer: 28 noisy circle points plus a 3x3
    grid of tied distances, `--max-dim 2 --max-radius 0.4`."""
    suffix = "_zero" if zero_bars else ""
    argv = ["rips", "--input", os.path.join(GOLDEN, "cloud37.csv"), "--max-dim", "2",
            "--max-radius", "0.4", "--field", str(field), *(["--include-zero-bars"] if zero_bars else [])]
    assert_reproduces_golden(tmp_path, capsys, argv, f"rips_f{field}{suffix}.json")


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("zero_bars", [False, True])
def test_cli_cech_reproduces_golden_output(tmp_path, capsys, field, zero_bars):
    """Byte for byte against files written by the per-simplex tuple
    filtration, on the same cloud and arguments as the Rips golden files."""
    suffix = "_zero" if zero_bars else ""
    argv = ["cech", "--input", os.path.join(GOLDEN, "cloud37.csv"), "--max-dim", "2",
            "--max-radius", "0.4", "--field", str(field), *(["--include-zero-bars"] if zero_bars else [])]
    assert_reproduces_golden(tmp_path, capsys, argv, f"cech_f{field}{suffix}.json")


def test_cli_rips_distances_reproduces_golden_output(tmp_path, capsys):
    """Byte for byte against the per-simplex tuple filtration's output on
    the golden cloud's distance matrix (math.dist, written by repr)."""
    argv = ["rips", "--distances", os.path.join(GOLDEN, "cloud37_distances.txt"), "--max-dim", "2",
            "--max-radius", "0.4", "--field", "3", "--include-zero-bars"]
    assert_reproduces_golden(tmp_path, capsys, argv, "rips_distances_f3_zero.json")


@pytest.mark.parametrize(
    "command, source, field, golden",
    [
        ("zigzag", "zigzag80.txt", 2, "zigzag80_f2.txt"),
        ("zigzag", "zigzag80.txt", 3, "zigzag80_f3.txt"),
        ("cosheaf", "path16.cosheaf", 3, "path16_f3.txt"),
    ],
)
def test_cli_zigzag_and_cosheaf_reproduce_golden_stdout(capsys, command, source, field, golden):
    """Byte for byte against the standard output of the numpy row
    elimination. zigzag80.txt has 80 slots of dimension 5 with random
    directions; path16.cosheaf has 4-dimensional stalks over a 16-vertex
    path. Both have entries 0..2 drawn by numpy's default_rng."""
    argv = [command, "--input", os.path.join(GOLDEN, source), "--field", str(field)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.encode("utf-8") == fh.read()


def golden_bytes(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


SURFACE = [  # argv, exit code, golden standard output, golden standard error
    (["--help"], 0, "help_tda.txt", None),
    (["rips", "--help"], 0, "help_rips.txt", None),
    (["cosheaf", "--help"], 0, "help_cosheaf.txt", None),
    (["cosheaf", "--input", PATH16, "--field", "4"], 2, None, "usage_field4.txt"),
    (["cosheaf", "--input", PATH16, "--no-such-flag"], 2, None, "usage_unknown_flag.txt"),
]


def assert_surface(capsys, argv, code, out, err):
    """``cli.main(argv)`` exits with ``code`` and writes the golden streams
    (empty where None), byte for byte."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == code
    written = capsys.readouterr()
    assert written.out.encode("utf-8") == (golden_bytes(out) if out else b"")
    assert written.err.encode("utf-8") == (golden_bytes(err) if err else b"")


@pytest.mark.parametrize("argv, code, out, err", SURFACE)
def test_cli_help_and_usage_errors_reproduce_golden(monkeypatch, capsys, argv, code, out, err):
    """Byte for byte against the help texts and usage errors of the parser
    as built afresh on every call, at an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    assert_surface(capsys, argv, code, out, err)


def test_cli_main_reuses_one_parser_in_process(monkeypatch, capsys):
    """One process: a usage error, two commands and a help text each
    reproduce their golden output, and the parser is built only once."""
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        assert_surface(capsys, *SURFACE[3])
        for argv, golden in [
            (["cosheaf", "--input", PATH16, "--field", "3"], "path16_f3.txt"),
            (["zigzag", "--input", os.path.join(GOLDEN, "zigzag80.txt"), "--field", "2"], "zigzag80_f2.txt"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out.encode("utf-8"), err) == (0, golden_bytes(golden), "")
        assert_surface(capsys, *SURFACE[0])
    assert build.call_count == 1


def test_importing_the_cli_builds_no_parser():
    """``import tda.cli`` constructs no ArgumentParser (a worker's import
    time stays free of it); the first parse builds the parser and later
    parses construct none."""
    script = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)",
        "import tda.cli",
        "counts = [len(built)]",
        "for _ in range(2):",
        f"    tda.cli.parse_args(['cosheaf', '--input', {PATH16!r}])",
        "    counts.append(len(built))",
        "print(*counts)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    at_import, first, second = map(int, done.stdout.split())
    assert at_import == 0 and first > 0 and second == first


def test_a_run_builds_the_parsers_of_its_commands_only():
    """In a fresh process, ``tda zigzag`` constructs two ArgumentParsers,
    the top level and its own; a second command adds its own, and
    repeating a command adds none."""
    zigzag80 = os.path.join(GOLDEN, "zigzag80.txt")
    script = "\n".join([
        "import argparse, io",
        "from contextlib import redirect_stdout",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(k.get('prog')) or init(self, *a, **k)",
        "import tda.cli",
        "runs = []",
        f"for argv in (['zigzag', '--input', {zigzag80!r}], ['cosheaf', '--input', {PATH16!r}], ['zigzag', '--input', {zigzag80!r}]):",
        "    with redirect_stdout(io.StringIO()):",
        "        assert tda.cli.main(argv) == 0",
        "    runs.append(list(built))",
        "print(runs)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    two = ["tda", "tda zigzag"]
    assert done.stdout == f"{[two, two + ['tda cosheaf'], two + ['tda cosheaf']]}\n"


TORUS18_COVER = "-4.2,-1.05;-2.95,0.97;-0.97,2.95;1.05,4.2;3.3,5.5"


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("command", ["leray", "sublevel"])
def test_cli_leray_and_sublevel_reproduce_golden_stdout(capsys, command, degree, field):
    """Byte for byte against the standard output written when the
    sublevel check clipped the cover at each threshold, on the 18x18 grid
    torus with relabelled and shuffled lines (the levelset benchmark's
    seed-1 input). The thresholds -5 and -3.5 lie below every value, so
    every piece there is empty."""
    argv = [command, "--complex", os.path.join(GOLDEN, "torus18.complex"),
            "--values", os.path.join(GOLDEN, "torus18.values"), f"--cover={TORUS18_COVER}",
            "--degree", str(degree), "--field", str(field)]
    if command == "sublevel":
        argv.append("--thresholds=-5,-3.5,-2,-1,0,1,2,3,3.5,5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    with open(os.path.join(GOLDEN, f"torus18_{command}_f{field}_d{degree}.txt"), "rb") as fh:
        assert out.encode("utf-8") == fh.read()


def test_cli_rips_from_distances(tmp_path, capsys):
    dm = tmp_path / "d.txt"
    dm.write_text("3.0\n")
    code, out, _ = run_cli(capsys, "rips", "--distances", str(dm), "--max-radius", "2")
    assert code == 0
    _, bc = formats.parse_barcode_json(out)
    assert bc.counter() == {(0, 0.0, math.inf): 1, (0, 0.0, 1.5): 1}


def test_cli_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out_path in (a, b):
        code, _, _ = run_cli(
            capsys, "cech", "--input", CIRCLE, "--max-dim", "1",
            "--max-radius", "0.4", "--output", str(out_path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_leray_octagon(tmp_path, capsys):
    K, values = octagon_circle()
    cpath = tmp_path / "octagon.txt"
    cpath.write_text("\n".join(" ".join(map(str, s)) for s in K.p_simplices(1)))
    vpath = tmp_path / "values.txt"
    vpath.write_text("\n".join(f"{v} {values[v]!r}" for v in sorted(values)))
    code, out, _ = run_cli(
        capsys, "leray", "--complex", str(cpath), "--values", str(vpath),
        "--cover=-1.5,-0.3;-0.8,0.8;0.3,1.5", "--degree", "0",
    )
    assert code == 0
    assert out.splitlines() == [
        "stalk[0]=1",
        "stalk[1]=2",
        "stalk[2]=1",
        "stalk[0,1]=2",
        "stalk[1,2]=2",
        "H_0=1",
        "H_1=1",
    ]


def test_cli_sublevel_json(tmp_path, capsys):
    K, values = octagon_circle()
    cpath = tmp_path / "octagon.txt"
    cpath.write_text("\n".join(" ".join(map(str, s)) for s in K.p_simplices(1)))
    vpath = tmp_path / "values.txt"
    vpath.write_text("\n".join(f"{v} {values[v]!r}" for v in sorted(values)))
    code, out, _ = run_cli(
        capsys, "sublevel", "--complex", str(cpath), "--values", str(vpath),
        "--cover=-1.5,-0.3;-0.8,0.8;0.3,1.5", "--degree", "0",
        "--thresholds=-0.9,0.5,1.2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 1, 1]
    assert payload["ranks"] == [1, 1]


def test_cli_sublevel_nan_threshold_is_not_finite(tmp_path, capsys):
    K, values = octagon_circle()
    cpath = tmp_path / "octagon.txt"
    cpath.write_text("\n".join(" ".join(map(str, s)) for s in K.p_simplices(1)))
    vpath = tmp_path / "values.txt"
    vpath.write_text("\n".join(f"{v} {values[v]!r}" for v in sorted(values)))
    code, out, err = run_cli(
        capsys, "sublevel", "--complex", str(cpath), "--values", str(vpath),
        "--cover=-1.5,-0.3;-0.8,0.8;0.3,1.5", "--degree", "0", "--thresholds=0,nan",
    )
    assert (code, out, err) == (1, "", "error: thresholds must be finite\n")


@pytest.mark.parametrize("command", ["rips", "cech"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_non_finite_point_exits_1(tmp_path, capsys, command, bad):
    path = tmp_path / "points.csv"
    path.write_text(f"0,0\n1,0\n0,{bad}\n1,1\n")
    code, out, err = run_cli(capsys, command, "--input", str(path), "--max-radius", "2")
    assert (code, out) == (1, "")
    assert err == f"error: point 2 (counting from 0) has a non-finite coordinate [0.0, {bad}]\n"


def test_cli_nan_distance_exits_1(tmp_path, capsys):
    dm = tmp_path / "d.txt"
    dm.write_text("1.0\nnan 1.0\n")
    code, out, err = run_cli(capsys, "rips", "--distances", str(dm), "--max-radius", "2")
    assert (code, out, err) == (1, "", "error: distance matrix has a NaN entry at (0, 2)\n")


def test_cli_zigzag(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text("dims 1 1\nfwd 1\n")
    code, out, _ = run_cli(capsys, "zigzag", "--input", str(path))
    assert code == 0
    assert out.strip() == "bar [0,1] multiplicity 1"


def test_cli_zigzag_bare_dims_prints_nothing(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text("dims\n")
    assert run_cli(capsys, "zigzag", "--input", str(path)) == (0, "", "")


@pytest.mark.parametrize("text", ["dims -1\n", "dims 2 -1\nfwd\n"])
def test_cli_zigzag_negative_dim_exits_1(tmp_path, capsys, text):
    path = tmp_path / "z.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "zigzag", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err and len(err.splitlines()) == 1
    assert "non-negative" in err


def test_cli_plot(tmp_path, capsys):
    bars = Barcode([Bar(0, 0.0, math.inf), Bar(1, 0.5, 1.0)])
    jpath = tmp_path / "bars.json"
    jpath.write_text(formats.barcode_to_json(bars, 2))
    spath = tmp_path / "bars.svg"
    code, _, _ = run_cli(capsys, "plot", "--input", str(jpath), "--output", str(spath))
    assert code == 0
    assert spath.read_text().startswith("<svg")


def test_cli_plot_width_must_exceed_the_margins(tmp_path, capsys):
    jpath = tmp_path / "bars.json"
    jpath.write_text(formats.barcode_to_json(Barcode([Bar(0, 0.0, math.inf), Bar(1, 0.5, 1.0)]), 2))
    spath = tmp_path / "bars.svg"
    for width in (-5, 0, 80):
        code, _, err = run_cli(capsys, "plot", "--input", str(jpath), "--output", str(spath), "--width", str(width))
        assert code == 1 and err == f"error: width must be at least 81, got {width}\n"
        assert not spath.exists()
    code, _, _ = run_cli(capsys, "plot", "--input", str(jpath), "--output", str(spath), "--width", "81")
    assert code == 0 and spath.read_text().startswith('<svg xmlns="http://www.w3.org/2000/svg" width="81" ')


@pytest.mark.parametrize(
    "text",
    [
        '{"bars": [{"birth": 0.0}]}',
        '{"bars": 5}',
        '{"bars": [5]}',
        '{"bars": [{"dim": 0, "birth": null, "death": 1.0}]}',
        '{"bars": [{"dim": "x", "birth": 0.0, "death": 1.0}, {"dim": 1, "birth": 0.0, "death": 1.0}]}',
        '{"bars": [], "field": null}',
        '{"bars": [{"dim": 1, "birth": 0.5, "death": 1.0}, {"dim": 0, "birth": 0.0, "death": NaN}]}',
        '{"bars": [{"dim": -1, "birth": 0.0, "death": 1.0}]}',
        '{"bars": [{"dim": true, "birth": 0.0, "death": 1.0}]}',
        '{"bars": [{"dim": %d, "birth": 0.0, "death": 1.0}]}' % 2**70,
    ],
)
def test_cli_plot_malformed_barcode_exits_1(tmp_path, capsys, text):
    with pytest.raises(tda.TdaError):
        formats.parse_barcode_json(text)
    jpath = tmp_path / "bars.json"
    jpath.write_text(text)
    code, _, err = run_cli(capsys, "plot", "--input", str(jpath), "--output", str(tmp_path / "bars.svg"))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and not (tmp_path / "bars.svg").exists()


def test_cli_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["rips", "--input", "missing.csv", "--max-radius", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["rips", "--max-radius", "1"])  # neither input nor distances
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["homology", "--complex", CIRCLE, "--field", "4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["homology", "--complex", CIRCLE, "--no-such-flag"])
    assert err.value.code == 2


@pytest.mark.parametrize("field", ["32771", "2305843009213693951"])  # 2^15 + 3 and 2^61 - 1, both prime
def test_cli_field_over_the_bound_is_a_usage_error(capsys, field):
    """The bound of ``fields.check_prime`` comes before any trial division,
    so even 2^61 - 1 exits 2 at once."""
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["homology", "--complex", CIRCLE, "--field", field])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"field characteristic must be a prime < 2^15, got {field}\n")


def test_cli_rips_predicted_oversize_exits_1(tmp_path, capsys):
    pts = np.random.default_rng(0).random((3000, 2))
    path = tmp_path / "big.csv"
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    code, out, err = run_cli(capsys, "rips", "--input", str(path), "--max-radius", "100")
    assert code == 1 and out == ""
    assert "simplices" in err


def test_cli_homology_vertex_id_beyond_int64_exits_1(tmp_path, capsys):
    path = tmp_path / "big_ids.txt"
    path.write_text(f"0 1\n1 {2**63}\n")
    code, out, err = run_cli(capsys, "homology", "--complex", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: vertex ids must fit in 64-bit integers"]


def test_cli_domain_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")  # duplicate vertex in one simplex
    code, _, err = run_cli(capsys, "homology", "--complex", str(bad))
    assert code == 1
    assert "error" in err
