"""Seeded inputs, CLI jobs and output checks for the benchmark workloads.

Each workload writes its inputs as files, lists the `tda` command lines
that run on them, and checks what those commands printed. The checks use
only numpy and the values fixed here, never the `tda` package, so a bug in
the code being timed cannot also hide itself from the check.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

# Vietoris-Rips on a noisy circle.
RIPS_POINTS = 200
RIPS_NOISE = 0.05
RIPS_RADIUS = 0.3
RIPS_MAX_DIM = 2
RIPS_FIELDS = (2, 3)
TOL = 1e-9  # the library's closed-ball tolerance on squared distances

# The upright grid torus with its height function and a five-piece cover.
TORUS_N = 18
TORUS_COVER = "-4.2,-1.05;-2.95,0.97;-0.97,2.95;1.05,4.2;3.3,5.5"
TORUS_THRESHOLDS = "-2,0,2,3.5"
TORUS_DEGREE = 1
TORUS_BETTI = (1, 2, 1)
# Degree-1 sublevel homology of the upright torus at the thresholds above:
# a disk, a cylinder, a torus minus a disk, the torus.
TORUS_SUBLEVEL_DIMS = [0, 1, 2, 2]
TORUS_SUBLEVEL_RANKS = [0, 1, 2]

# A random zigzag and a random cosheaf over a path.
ZIGZAG_SLOTS = 28
ZIGZAG_DIM = 5
ZIGZAG_FIELDS = (2, 3)
PATH_VERTICES = 16
STALK_DIM = 4
COSHEAF_FIELD = 3
ENTRY_BOUND = 3  # matrix entries are drawn from 0..ENTRY_BOUND-1


@dataclass
class Job:
    """One `tda` command line; `output` names the file it writes, if any."""

    argv: list[str]
    output: str | None = None


@dataclass
class Inputs:
    """The files of one workload, its jobs, and the facts its checks need."""

    jobs: list[Job]
    files: dict[str, str]
    expected: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank over F_p by plain Gaussian elimination."""
    M = np.array(A, dtype=np.int64) % p
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        M[[r, i]] = M[[i, r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        col = M[:, c].copy()
        col[r] = 0
        M = (M - np.outer(col, M[r])) % p
        r += 1
        if r == rows:
            break
    return r


# ---------------------------------------------------------------- rips


def noisy_circle(rng: np.random.Generator, n: int = RIPS_POINTS) -> np.ndarray:
    """Evenly spaced angles on the unit circle plus N(0, RIPS_NOISE) noise."""
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    return pts + rng.normal(0.0, RIPS_NOISE, size=pts.shape)


def rips_euler(points: np.ndarray, radius: float) -> int:
    """V - E + T of the Rips 2-skeleton, with T = trace(A^3) / 6."""
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    A = (d2 <= 4.0 * radius * radius + TOL).astype(np.int64)
    np.fill_diagonal(A, 0)
    edges = int(A.sum()) // 2
    triangles = int(np.trace(A @ A @ A)) // 6
    return len(points) - edges + triangles


def rips_inputs(rng: np.random.Generator, workdir: str) -> Inputs:
    pts = noisy_circle(rng)
    points = _write(
        os.path.join(workdir, "points.csv"), [f"{_fmt(x)},{_fmt(y)}" for x, y in pts]
    )
    jobs = []
    for p in RIPS_FIELDS:
        out = os.path.join(workdir, f"bars_f{p}.json")
        argv = ["rips", "--input", points, "--max-dim", str(RIPS_MAX_DIM),
                "--max-radius", str(RIPS_RADIUS), "--field", str(p), "--output", out]
        jobs.append(Job(argv, out))
    return Inputs(jobs, {"points": points}, {"euler": rips_euler(pts, RIPS_RADIUS)})


def _check_bars(bars: list, euler: int) -> str | None:
    long_h1 = sum(
        1 for b in bars
        if b["dim"] == 1 and (b["death"] is None or b["death"] - b["birth"] > 0.5)
    )
    if long_h1 != 1:
        return f"{long_h1} H_1 bars longer than 0.5, expected 1"
    alternating = sum((-1) ** b["dim"] for b in bars if b["death"] is None)
    if alternating != euler:
        return f"alternating sum of infinite bars {alternating} != V - E + T = {euler}"
    return None


def check_rips(inputs: Inputs, texts: list[str]) -> list[str | None]:
    problems: list[str | None] = []
    parsed = []
    for text in texts:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            problems.append(f"bad barcode JSON: {exc}")
            parsed.append(None)
            continue
        parsed.append(obj["bars"])
        problems.append(_check_bars(obj["bars"], inputs.expected["euler"]))
    for i in range(1, len(parsed)):
        if problems[i] is None and parsed[0] is not None and parsed[i] != parsed[0]:
            problems[i] = f"bars over F{RIPS_FIELDS[i]} differ from F{RIPS_FIELDS[0]}"
    return problems


# ---------------------------------------------------------------- levelset


def grid_torus(n: int = TORUS_N, big: float = 2.0, small: float = 1.0):
    """Triangles and vertex heights of the upright grid torus.

    Samples are spaced evenly in sin (tube-centre angle) and cos (tube
    angle), so the four critical vertices sit exactly on the grid.
    """
    m = n // 2
    ks = [i if i <= m else n - i for i in range(n)]
    sins = [-1.0 + 2.0 * k / m for k in ks]
    coss = [1.0 - 2.0 * k / m for k in ks]

    def vid(i, j):
        return (i % n) * n + (j % n)

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            tris.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    values = {vid(i, j): (big + small * coss[j]) * sins[i] for i in range(n) for j in range(n)}
    return tris, values


def levelset_inputs(rng: np.random.Generator, workdir: str) -> Inputs:
    """The torus with its vertex ids relabelled and its lines shuffled by the seed."""
    tris, values = grid_torus()
    label = rng.permutation(len(values))
    tri_lines = [" ".join(str(label[v]) for v in t) for t in tris]
    value_lines = [f"{label[v]} {_fmt(x)}" for v, x in values.items()]
    rng.shuffle(tri_lines)
    rng.shuffle(value_lines)
    cpx = _write(os.path.join(workdir, "torus.complex"), tri_lines)
    vals = _write(os.path.join(workdir, "torus.values"), value_lines)
    shared = ["--complex", cpx, "--values", vals, f"--cover={TORUS_COVER}",
              "--degree", str(TORUS_DEGREE)]
    jobs = [
        Job(["homology", "--complex", cpx]),
        Job(["leray", *shared]),
        Job(["sublevel", *shared, f"--thresholds={TORUS_THRESHOLDS}"]),
    ]
    return Inputs(jobs, {"complex": cpx, "values": vals})


def _betti(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in re.findall(r"^H_\d+=(\d+)$", text, re.MULTILINE))


def check_levelset(inputs: Inputs, texts: list[str]) -> list[str | None]:
    problems: list[str | None] = []
    for name, text in zip(("homology", "leray"), texts[:2]):
        got = _betti(text)
        problems.append(None if got == TORUS_BETTI else f"{name} gave H = {got}, expected {TORUS_BETTI}")
    try:
        obj = json.loads(texts[2])
        got = (obj["dims"], obj["ranks"])
    except (json.JSONDecodeError, KeyError) as exc:
        problems.append(f"bad sublevel JSON: {exc!r}")
        return problems
    want = (TORUS_SUBLEVEL_DIMS, TORUS_SUBLEVEL_RANKS)
    problems.append(None if got == want else f"sublevel dims, ranks {got}, expected {want}")
    return problems


# ---------------------------------------------------------------- zigzag


def _entries(M: np.ndarray) -> str:
    return " ".join(str(int(x)) for x in M.ravel())


def path_cosheaf_boundary(maps: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Signed extension boundary C_1 -> C_0 of a cosheaf over a path.

    maps[i] holds the maps from edge (i, i+1) to vertices i and i+1. The
    face that deletes vertex k of the edge gets sign (-1)^k.
    """
    d = STALK_DIM
    D = np.zeros((d * (len(maps) + 1), d * len(maps)), dtype=np.int64)
    for i, (to_lo, to_hi) in enumerate(maps):
        D[d * i : d * (i + 1), d * i : d * (i + 1)] = -to_lo
        D[d * (i + 1) : d * (i + 2), d * i : d * (i + 1)] = to_hi
    return D


def zigzag_inputs(rng: np.random.Generator, workdir: str) -> Inputs:
    dims = [ZIGZAG_DIM] * ZIGZAG_SLOTS
    lines = ["dims " + " ".join(map(str, dims))]
    for _ in range(ZIGZAG_SLOTS - 1):
        direction = "fwd" if rng.random() < 0.5 else "bwd"
        lines.append(f"{direction} {_entries(rng.integers(0, ENTRY_BOUND, (ZIGZAG_DIM, ZIGZAG_DIM)))}")
    zz = _write(os.path.join(workdir, "module.zigzag"), lines)

    lines = [f"{i} {i + 1}" for i in range(PATH_VERTICES - 1)]
    lines += [f"stalk {i} {STALK_DIM}" for i in range(PATH_VERTICES)]
    lines += [f"stalk {i},{i + 1} {STALK_DIM}" for i in range(PATH_VERTICES - 1)]
    maps = []
    for i in range(PATH_VERTICES - 1):
        to_lo, to_hi = (rng.integers(0, ENTRY_BOUND, (STALK_DIM, STALK_DIM)) for _ in range(2))
        maps.append((to_lo, to_hi))
        lines.append(f"map {i} {i},{i + 1} {_entries(to_lo)}")
        lines.append(f"map {i + 1} {i},{i + 1} {_entries(to_hi)}")
    csh = _write(os.path.join(workdir, "path.cosheaf"), lines)

    r = rank_mod_p(path_cosheaf_boundary(maps), COSHEAF_FIELD)
    homology = (STALK_DIM * PATH_VERTICES - r, STALK_DIM * (PATH_VERTICES - 1) - r)
    jobs = [Job(["zigzag", "--input", zz, "--field", str(p)]) for p in ZIGZAG_FIELDS]
    jobs.append(Job(["cosheaf", "--input", csh, "--field", str(COSHEAF_FIELD)]))
    return Inputs(jobs, {"zigzag": zz, "cosheaf": csh}, {"dims": dims, "homology": homology})


def _check_zigzag_bars(text: str, dims: list[int]) -> str | None:
    cover = [0] * len(dims)
    for lo, hi, mult in re.findall(r"^bar \[(\d+),(\d+)\] multiplicity (\d+)$", text, re.MULTILINE):
        if int(hi) >= len(dims):
            return f"bar [{lo},{hi}] ends past the last slot {len(dims) - 1}"
        for slot in range(int(lo), int(hi) + 1):
            cover[slot] += int(mult)
    return None if cover == dims else f"bars cover slots {cover}, slot dims are {dims}"


def check_zigzag(inputs: Inputs, texts: list[str]) -> list[str | None]:
    problems = [_check_zigzag_bars(t, inputs.expected["dims"]) for t in texts[:-1]]
    text = texts[-1]
    betti = _betti(text)
    census = re.search(r"^census=\((\d+), (\d+), (\d+)\)$", text, re.MULTILINE)
    want = inputs.expected["homology"]
    if betti != want:
        problems.append(f"cosheaf H = {betti}, rank-nullity gives {want}")
    elif census is None:
        problems.append("cosheaf printed no census")
    elif (int(census[1]), int(census[2])) != betti:
        problems.append(f"{census[0]} does not match H = {betti}")
    else:
        problems.append(None)
    return problems


WORKLOADS = {
    "rips": (rips_inputs, check_rips),
    "levelset": (levelset_inputs, check_levelset),
    "zigzag": (zigzag_inputs, check_zigzag),
}


def make_inputs(name: str, seed: int, workdir: str) -> Inputs:
    """Inputs of one workload; the same seed writes the same files."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name][0](np.random.default_rng(seed), workdir)


def check(name: str, inputs: Inputs, texts: list[str]) -> list[str | None]:
    """One problem message per job, or None where the job's output is right."""
    return WORKLOADS[name][1](inputs, texts)
