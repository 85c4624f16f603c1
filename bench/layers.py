"""Traced passes: time each layer's public functions, called from outside.

Usage: python3 bench/layers.py SPEC_JSON

SPEC_JSON names the input files of every workload and how many passes to
make. Each pass runs the three groups below on those files and records
the seconds spent in each timed call (summed when a name is timed more
than once in a pass) and exact counts. The script prints one JSON line
with one record per pass.

Some timed calls contain others, so their times must not be added up;
bench/README.md lists which.
"""

import json
import sys
import time
from collections import Counter, defaultdict

from tda import cosheaf, fields, formats, leray, persistence, zigzag
from tda.complexes import squared_distance_matrix
from tda.homology import homology
from workloads import (
    COSHEAF_FIELD,
    RIPS_FIELDS,
    RIPS_MAX_DIM,
    RIPS_RADIUS,
    TORUS_BETTI,
    TORUS_COVER,
    TORUS_DEGREE,
    TORUS_SUBLEVEL_DIMS,
    TORUS_SUBLEVEL_RANKS,
    TORUS_THRESHOLDS,
    ZIGZAG_FIELDS,
)


class Trace:
    """Seconds per span name and exact counts for one pass."""

    def __init__(self):
        self.values = defaultdict(float)

    def time(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.values[name] += time.perf_counter() - t0
        return out

    def count(self, name, value):
        self.values[name] = value


def rips_layers(files, tr):
    text = formats.read_text(files["points"])
    pts = tr.time("formats.parse_s", formats.parse_point_cloud, text)
    tr.time("complexes.distance_s", squared_distance_matrix, pts, False)
    fc = tr.time("persistence.build_s", persistence.rips_filtration, pts, RIPS_MAX_DIM,
                 RIPS_RADIUS, precomputed=False)
    tr.time("persistence.validate_s", persistence.FilteredComplex, fc.entries)
    barcodes = {}
    out_bytes = 0
    for p in RIPS_FIELDS:
        barcodes[p] = tr.time(f"persistence.reduce_s.f{p}", persistence.compute_barcode, fc, p)
        out = tr.time("formats.serialize_s", formats.barcode_to_json, barcodes[p], p)
        out_bytes += len(out.encode("utf-8"))
    tr.count("formats.output_bytes", out_bytes)

    dims = Counter(len(s) - 1 for s, _ in fc.entries)
    for d in range(RIPS_MAX_DIM + 1):
        tr.count(f"persistence.simplices.d{d}", dims[d])
    every = persistence.compute_barcode(fc, 2, include_zero_bars=True)
    pairs = sum(1 for b in every if not b.infinite)
    zero = len(every) - len(barcodes[2])
    tr.count("persistence.bars", len(barcodes[2]))
    tr.count("persistence.zero_bars", zero)
    tr.count("persistence.kept_pair_ratio", (pairs - zero) / pairs)
    same = all(barcodes[p] == barcodes[2] for p in RIPS_FIELDS)
    return [] if same else ["barcodes differ between fields"]


def levelset_layers(files, tr):
    K = formats.parse_complex(formats.read_text(files["complex"]))
    values = formats.parse_vertex_values(formats.read_text(files["values"]))
    cover = formats.parse_cover(TORUS_COVER)
    problems = []

    betti = tuple(tr.time(f"homology.s.d{p}", homology, K, p).dimension for p in range(3))
    sizes = [len(K.p_simplices(p)) for p in range(K.dimension + 1)]
    tr.count("homology.dense_bytes", 8 * sum(a * b for a, b in zip(sizes, sizes[1:])))

    M = leray.MappedComplex(K, values)
    tr.time("leray.granularity_s", leray.check_cover_granularity, M, cover)
    built = tr.time("leray.cosheaf_s", leray.build_leray_cosheaf, M, cover, TORUS_DEGREE)
    tr.count("leray.piece_simplices", sum(len(P) for P in built.pieces.values()))
    lerays = tuple(tr.time("leray.global_s", leray.global_homology, M, cover, i) for i in range(3))
    thresholds = [float(t) for t in TORUS_THRESHOLDS.split(",")]
    module = tr.time("leray.sublevel_s", leray.sublevel_module, M, cover, TORUS_DEGREE, thresholds)
    ranks = [tr.time("fields.rank_s", fields.rank, A, 2) for A in module.maps]
    if betti != TORUS_BETTI or lerays != TORUS_BETTI:
        problems.append(f"homology {betti} and Leray reconstruction {lerays}, expected {TORUS_BETTI}")
    if (module.dims, ranks) != (TORUS_SUBLEVEL_DIMS, TORUS_SUBLEVEL_RANKS):
        problems.append(f"sublevel dims, ranks {module.dims}, {ranks}")
    return problems


def zigzag_layers(files, tr):
    z = formats.parse_zigzag(formats.read_text(files["zigzag"]))
    F = formats.parse_cosheaf(formats.read_text(files["cosheaf"]))
    bars = {p: tr.time(f"zigzag.decompose_s.f{p}", zigzag.decompose_zigzag, z, p)
            for p in ZIGZAG_FIELDS}
    n = len(z.dims)
    tr.count("zigzag.rank_calls", n * (n + 1) // 2)
    tr.count("zigzag.bars", sum(b.multiplicity for b in bars[2]))

    tr.time("cosheaf.validate_s", cosheaf.validate, F, COSHEAF_FIELD)
    betti = tuple(
        tr.time("cosheaf.homology_s", cosheaf.cosheaf_homology, F, p, COSHEAF_FIELD).dimension
        for p in range(2)
    )
    closed, opened, _ = tr.time("cosheaf.census_s", cosheaf.bar_census, F, COSHEAF_FIELD)
    return [] if (closed, opened) == betti else [f"census ({closed}, {opened}) != H {betti}"]


GROUPS = {"rips": rips_layers, "levelset": levelset_layers, "zigzag": zigzag_layers}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    passes = []
    for _ in range(spec["passes"]):
        tr = Trace()
        group_s = {}
        problems = []
        for name, layers in GROUPS.items():
            t0 = time.perf_counter()
            problems += layers(spec["files"][name], tr)
            group_s[name] = time.perf_counter() - t0
        passes.append({"values": dict(tr.values), "group_s": group_s, "problems": problems})
    print(json.dumps(passes))


if __name__ == "__main__":
    main(sys.argv[1])
