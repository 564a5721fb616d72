"""Output checks that do not go through the solver's code path.

The linear algebra is a separate Z2 elimination on Python int bitmasks, and
the Rips filtration is rebuilt here from the points, so a defect in
`cyclerad.z2` or `cyclerad.filtrations` cannot hide itself. Each check
returns a list of human-readable problems; an empty list means the report
passed.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

TOL = 1e-9


class Span:
    """Column space over Z2, kept with one stored vector per leading row."""

    def __init__(self):
        self.rows: dict[int, int] = {}

    def reduce(self, mask: int) -> int:
        while mask:
            top = self.rows.get(mask.bit_length() - 1)
            if top is None:
                break
            mask ^= top
        return mask

    def add(self, mask: int) -> bool:
        mask = self.reduce(mask)
        if mask:
            self.rows[mask.bit_length() - 1] = mask
        return bool(mask)

    def contains(self, mask: int) -> bool:
        return self.reduce(mask) == 0


def rips_order(coords: np.ndarray, scale: float):
    """Rips filtration up to triangles, ordered by (value, dimension,
    vertices) so indices line up with the ones the program reports."""
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    n = len(coords)
    value = {(v,): 0.0 for v in range(n)}
    for i, j in combinations(range(n), 2):
        if dist[i, j] <= scale:
            value[(i, j)] = float(dist[i, j])
    for i, j, k in combinations(range(n), 3):
        if (i, j) in value and (i, k) in value and (j, k) in value:
            value[(i, j, k)] = max(value[(i, j)], value[(i, k)], value[(j, k)])
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return order, [value[s] for s in order]


def persistence_pairs(order, p):
    """(birth index, death index or None) of every p-dimensional class of the
    filtration, by left-to-right reduction of its boundary matrix."""
    index = {s: i for i, s in enumerate(order)}
    owner: dict[int, int] = {}
    reduced: list[int] = []
    for j, s in enumerate(order):
        col = 0
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                col ^= 1 << index[f]
        while col:
            low = col.bit_length() - 1
            if low not in owner:
                owner[low] = j
                break
            col ^= reduced[owner[low]]
        reduced.append(col)
    return [(j, owner.get(j)) for j, s in enumerate(order) if len(s) - 1 == p and not reduced[j]]


def positive_bars(order, values, p):
    """The (birth, death) index pairs of positive value-length, the bars
    the CLI reports by default."""
    return [(b, d) for b, d in persistence_pairs(order, p) if d is None or values[d] > values[b]]


def _edge_mask(edges, edge_index) -> int:
    mask = 0
    for e in edges:
        mask ^= 1 << edge_index[e]
    return mask


def _triangle_mask(t, edge_index) -> int:
    a, b, c = t
    return _edge_mask([(a, b), (a, c), (b, c)], edge_index)


def _cycle_problems(edges, edge_index) -> list[str]:
    if not edges:
        return ["empty cycle"]
    missing = [e for e in edges if e not in edge_index]
    if missing:
        return [f"edges not in the complex: {missing[:3]}"]
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    odd = [v for v, d in degree.items() if d % 2]
    return [f"not a cycle: odd vertices {odd[:4]}"] if odd else []


def _radius_problems(result, coords, edges, *, two_approx: bool) -> list[str]:
    """r_v recomputed from the site; the sphere encloses the cycle and is at
    least half its diameter; r_exact <= r_v (<= 2 r_exact by the paper)."""
    verts = sorted({v for e in edges for v in e})
    pts = coords[verts]
    site = result["site"]
    r_v, r_exact = result["r_v"], result["r_exact"]
    out = []
    recomputed = float(np.max(np.linalg.norm(pts - coords[site], axis=1)))
    if abs(recomputed - r_v) > TOL * max(1.0, r_v):
        out.append(f"r_v {r_v} but site {site} gives {recomputed}")
    center = np.asarray(result["sphere"]["center"], dtype=float)
    if float(np.max(np.linalg.norm(pts - center, axis=1))) > r_exact * (1 + TOL) + TOL:
        out.append("reported sphere misses a cycle vertex")
    diam = float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=2)))
    if r_exact < diam / 2 * (1 - TOL):
        out.append(f"r_exact {r_exact} below half the diameter {diam / 2}")
    if r_exact > r_v * (1 + TOL):
        out.append(f"r_exact {r_exact} above r_v {r_v}")
    if two_approx and r_v > 2 * r_exact * (1 + TOL):
        out.append(f"r_v {r_v} above twice r_exact {r_exact}")
    return out


def _mesh_index(triangles):
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    return {e: i for i, e in enumerate(edges)}


def _edges(result):
    return [tuple(sorted(e)) for e in result["cycle"]]


def check_localize(req, report) -> list[str]:
    results = report.get("results", [])
    if report.get("problem") != "localize" or len(results) != 1:
        return ["expected one localize result"]
    res = results[0]
    edge_index = _mesh_index(req.triangles)
    edges = _edges(res)
    out = _cycle_problems(edges, edge_index)
    if out:
        return out
    bounds = Span()
    for t in req.triangles:
        bounds.add(_triangle_mask(t, edge_index))
    diff = _edge_mask(edges, edge_index) ^ _edge_mask(req.cycle, edge_index)
    if not bounds.contains(diff):
        out.append("output is not homologous to the input")
    return out + _radius_problems(res, req.coords, edges, two_approx=True)


def check_basis(req, report) -> list[str]:
    results = report.get("results", [])
    if report.get("problem") != "basis":
        return ["expected a basis report"]
    out = []
    if report.get("betti") != req.holes or len(results) != req.holes:
        out.append(f"betti {report.get('betti')} with {len(results)} cycles, "
                   f"expected {req.holes}")
    edge_index = _mesh_index(req.triangles)
    span = Span()
    for t in req.triangles:
        span.add(_triangle_mask(t, edge_index))
    for i, res in enumerate(results):
        edges = _edges(res)
        problems = _cycle_problems(edges, edge_index)
        if problems:
            out += [f"cycle {i}: {p}" for p in problems]
            continue
        if not span.add(_edge_mask(edges, edge_index)):
            out.append(f"cycle {i} depends on the earlier cycles and boundaries")
        out += [f"cycle {i}: {p}" for p in
                _radius_problems(res, req.coords, edges, two_approx=False)]
    total = math.fsum(r["r_v"] for r in results)
    if abs(report.get("total_weight", math.nan) - total) > TOL * max(1.0, total):
        out.append(f"total_weight {report.get('total_weight')} is not the sum {total}")
    return out


def _bar_problems(order, position, birth, death, edges) -> list[str]:
    """The representative holds its creator, lives in the birth prefix, and
    its death index is in range."""
    creator = order[birth] if 0 <= birth < len(order) else None
    if creator is None or len(creator) != 2:
        return [f"birth index {birth} is not an edge"]
    if creator not in edges:
        return [f"representative misses its creator {creator}"]
    if any(position[e] > birth for e in edges):
        return ["representative uses an edge born after its bar"]
    if death != "inf" and not birth < death < len(order):
        return [f"death index {death} is out of range"]
    return []


def check_persistent(req, report) -> list[str]:
    if report.get("problem") != "persistent":
        return ["expected a persistent report"]
    order, values = rips_order(req.coords, req.scale)
    out = []
    if report.get("n_simplices") != len(order):
        out.append(f"{report.get('n_simplices')} simplices, expected {len(order)}")
    expected = sorted((values[b], math.inf if d is None else values[d])
                      for b, d in positive_bars(order, values, 1))
    got = sorted((b, math.inf if d == "inf" else d) for b, d in report.get("barcode", []))
    if len(got) != len(expected) or any(
        abs(gb - eb) > TOL or (gd != ed and abs(gd - ed) > TOL)
        for (gb, gd), (eb, ed) in zip(got, expected)
    ):
        return out + [f"barcode {got} differs from the reference {expected}"]
    results = report.get("results", [])
    if len(results) != len(expected):
        out.append(f"{len(results)} representatives for {len(expected)} bars")

    edge_index = {e: i for i, e in enumerate(sorted(s for s in order if len(s) == 2))}
    position = {s: i for i, s in enumerate(order)}
    deaths = {}
    for i, res in enumerate(results):
        birth, death = res["interval"]["birth"], res["interval"]["death"]
        edges = _edges(res)
        problems = _cycle_problems(edges, edge_index) or _bar_problems(order, position, birth, death, edges)
        if problems:
            out += [f"bar {i}: {p}" for p in problems]
            continue
        out += [f"bar {i}: {p}" for p in
                _radius_problems(res, req.coords, edges, two_approx=True)]
        deaths[i] = (len(order) if death == "inf" else death, _edge_mask(edges, edge_index))

    # Walk the filtration: a representative must not be a boundary before
    # its death index and must be one once the death triangle is in.
    span = Span()
    pending = sorted(deaths.items(), key=lambda t: t[1][0])
    k = 0
    for j, s in enumerate(order + [None]):
        due = []
        while k < len(pending) and pending[k][1][0] == j:
            due.append(pending[k])
            k += 1
        for i, (_, mask) in due:
            if span.contains(mask):
                out.append(f"bar {i} is a boundary before its death index")
        if s is None:
            break
        if len(s) == 3:
            span.add(_triangle_mask(s, edge_index))
        for i, (_, mask) in due:
            if len(s) != 3 or not span.contains(mask):
                out.append(f"bar {i} does not bound at its death index {j}")
    return out


CHECKS = {"localize": check_localize, "basis": check_basis, "persistent": check_persistent}
