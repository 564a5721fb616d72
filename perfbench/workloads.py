"""Seeded inputs for the three benchmark workloads.

Everything here is generated from the workload seed with numpy's PCG64, so a
seed names one fixed set of files. The program under test only ever sees the
files; the `Request` records keep the geometry the output checks need.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import positive_bars, rips_order

# Jitter as a share of the grid spacing: enough to break distance ties
# between sites, small enough that no triangle degenerates.
MESH_JITTER = 0.15


@dataclass
class Request:
    """One CLI request and what its output checks need."""

    name: str
    argv: list[str]           # arguments after `python -m cyclerad`
    problem: str
    size: int                 # simplex count, the x axis of doubling_rel
    coords: np.ndarray
    triangles: list = field(default_factory=list)
    cycle: list = field(default_factory=list)   # localize input loop
    holes: int = 0                              # basis: expected betti
    scale: float = 0.0                          # rips scale


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# -- holed meshes ------------------------------------------------------------


def holed_grid(k: int, hole_cells: list[tuple[int, int]], rng: np.random.Generator):
    """Jittered k-by-k vertex grid, every cell split along its rising
    diagonal, with the 2x2 cell block at each (i, j) in `hole_cells` removed
    together with the vertex it isolates. Returns (coords, triangles,
    outer loop edges), vertices renumbered densely."""
    removed_cells = set()
    removed_vertices = set()
    for i, j in hole_cells:
        removed_cells |= {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)}
        removed_vertices.add((i + 1, j + 1))
    index = {}
    coords = []
    jitter = rng.uniform(-MESH_JITTER, MESH_JITTER, size=(k, k, 2))
    for j in range(k):
        for i in range(k):
            if (i, j) in removed_vertices:
                continue
            index[(i, j)] = len(coords)
            coords.append((i + jitter[i, j, 0], j + jitter[i, j, 1]))
    triangles = []
    for j in range(k - 1):
        for i in range(k - 1):
            if (i, j) in removed_cells:
                continue
            a, b = index[(i, j)], index[(i + 1, j)]
            c, d = index[(i, j + 1)], index[(i + 1, j + 1)]
            triangles.append(tuple(sorted((a, b, d))))
            triangles.append(tuple(sorted((a, c, d))))
    ring = (
        [(i, 0) for i in range(k - 1)]
        + [(k - 1, j) for j in range(k - 1)]
        + [(i, k - 1) for i in range(k - 1, 0, -1)]
        + [(0, j) for j in range(k - 1, 0, -1)]
    )
    outer = [
        tuple(sorted((index[u], index[v]))) for u, v in zip(ring, ring[1:] + ring[:1])
    ]
    return np.asarray(coords), triangles, sorted(outer)


def _mesh_simplices(coords: np.ndarray, triangles: list) -> int:
    edges = {e for t in triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
    return len(coords) + len(edges) + len(triangles)


def write_off(path: Path, coords: np.ndarray, triangles: list) -> None:
    lines = ["OFF", f"{len(coords)} {len(triangles)} 0"]
    lines += [f"{x!r} {y!r}" for x, y in coords.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in triangles]
    path.write_text("\n".join(lines) + "\n")


def write_simplices(path: Path, simplices: list) -> None:
    path.write_text("".join(" ".join(map(str, s)) + "\n" for s in simplices))


def write_points(path: Path, coords: np.ndarray) -> None:
    path.write_text("".join(",".join(repr(x) for x in row) + "\n" for row in coords.tolist()))


# -- annulus samples ---------------------------------------------------------


def annulus_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in area on the annulus 0.8 <= r <= 1.2."""
    r = np.sqrt(rng.uniform(0.8**2, 1.2**2, size=n))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def pick_rips_input(n: int, scale: float, min_bars: int, target: int, seed: int, stream: int):
    """Among CANDIDATES annulus samples drawn for this seed, the one with at
    least `min_bars` positive-length 1-bars whose summed bar birth index is
    closest to `target`. Work per request grows with that sum (every bar
    re-solves its birth prefix at every site), so this keeps the cost of a
    request steady from seed to seed. Returns (coords, simplex count)."""
    best = None
    for attempt in range(CANDIDATES):
        coords = annulus_points(n, _rng(seed, stream, attempt))
        order, values = rips_order(coords, scale)
        bars = positive_bars(order, values, 1)
        if len(bars) < min_bars:
            continue
        miss = abs(sum(b for b, _ in bars) - target)
        if best is None or miss < best[0]:
            best = (miss, coords, len(order))
    if best is None:
        raise RuntimeError(f"no annulus sample with {min_bars} bars for seed {seed}")
    return best[1], best[2]


# -- oracle pre-flight inputs ------------------------------------------------


def jittered_ring(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points near the unit circle, evenly spaced up to a small jitter; at
    Rips scale 0.9 only neighbours connect, so the ring keeps its bar."""
    theta = 2.0 * math.pi * (np.arange(n) + rng.uniform(-0.05, 0.05, size=n)) / n
    r = 1.0 + rng.uniform(-0.03, 0.03, size=n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def write_preflight_inputs(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """Inputs of the oracle pre-flight: the package's annulus fixture (two
    squares, triangulated between, plus a bare centre vertex) and a 12-point
    ring. Returns (name, verify arguments) pairs."""
    work.mkdir(parents=True, exist_ok=True)
    o, i = 2.0, 0.5
    coords = np.array([(-o, -o), (o, -o), (o, o), (-o, o),
                       (-i, -i), (i, -i), (i, i), (-i, i), (0.0, 0.0)])
    tris = []
    for a in range(4):
        b = (a + 1) % 4
        tris += [tuple(sorted((a, b, 4 + a))), tuple(sorted((b, 4 + a, 4 + b)))]
    off, cyc, ring = work / "annulus.off", work / "annulus_outer.cyc", work / "ring.csv"
    write_off(off, coords, tris)
    write_simplices(cyc, [(0, 1), (1, 2), (2, 3), (0, 3)])
    write_points(ring, jittered_ring(12, _rng(seed, 9)))
    return [
        ("annulus-localize", ["verify", "--complex", str(off), "--cycle", str(cyc)]),
        ("annulus-basis", ["verify", "--complex", str(off)]),
        ("ring-persistent", ["verify", "--points", str(ring), "--rips", "0.9"]),
    ]


# -- workloads ---------------------------------------------------------------

# A seed per workload kept back for confirming a claimed gain on inputs the
# change was not tuned on. Why each workload is here is recorded beside it in
# BENCHMARK.json.
CONFIRM_SEEDS = {"mesh-localize": 7001, "mesh-basis": 7002, "rips-persistent": 7003}

# Grid sides k of mesh-localize and mesh-basis.
LOCALIZE_GRIDS = [5, 7, 12]
BASIS_GRIDS = [9, 14]
# (points, rips scale, minimum positive bars, target summed birth index)
RIPS_SAMPLES = [(40, 0.42, 2, 200), (80, 0.3, 4, 1200)]
CANDIDATES = 32


def _centre_hole(k: int) -> list[tuple[int, int]]:
    c = (k - 2) // 2
    return [(c, c)]


def _four_holes(k: int) -> list[tuple[int, int]]:
    a, b = k // 4 - 1, k - k // 4 - 2
    return [(a, a), (a, b), (b, a), (b, b)]


def build(workload: str, seed: int, work: Path) -> list[Request]:
    """Write the workload's input files under `work` and return its requests,
    smallest first."""
    work.mkdir(parents=True, exist_ok=True)
    requests = []
    if workload == "mesh-localize":
        for stream, k in enumerate(LOCALIZE_GRIDS):
            coords, tris, outer = holed_grid(k, _centre_hole(k), _rng(seed, 1, stream))
            off, cyc = work / f"localize_{k}.off", work / f"localize_{k}.cyc"
            write_off(off, coords, tris)
            write_simplices(cyc, outer)
            requests.append(Request(
                f"localize_{len(coords)}v",
                ["localize", "--complex", str(off), "--cycle", str(cyc)],
                "localize", _mesh_simplices(coords, tris), coords, tris, outer,
            ))
    elif workload == "mesh-basis":
        for stream, k in enumerate(BASIS_GRIDS):
            coords, tris, _ = holed_grid(k, _four_holes(k), _rng(seed, 2, stream))
            off = work / f"basis_{k}.off"
            write_off(off, coords, tris)
            requests.append(Request(
                f"basis_{len(coords)}v", ["basis", "--complex", str(off)],
                "basis", _mesh_simplices(coords, tris), coords, tris, holes=4,
            ))
    elif workload == "rips-persistent":
        for stream, (n, scale, min_bars, target) in enumerate(RIPS_SAMPLES):
            coords, size = pick_rips_input(n, scale, min_bars, target, seed, 3 + stream)
            pts = work / f"rips_{n}.csv"
            write_points(pts, coords)
            requests.append(Request(
                f"rips_{n}p", ["persistent", "--points", str(pts), "--rips", repr(scale)],
                "persistent", size, coords, scale=scale,
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests
