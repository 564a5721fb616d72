"""Radius measures for chains: the site-restricted radius (farthest vertex
from a chosen site) and the unrestricted minimum enclosing sphere.

The enclosing-sphere solver is Welzl's deterministic algorithm over the
points in index order, with the recursion on the points unrolled into a
loop, so it nests at most d+2 calls deep whatever the point count. Each
boundary set's circumsphere solves its Gram system of at most d x d by
Gaussian elimination with partial pivoting; a pivot at rounding level marks
the set affinely dependent, and such a set is repaired by enumerating its
own subsets (at most d+1 points). Welzl's boundary sets are independent in
exact arithmetic, and no test input reaches the repair through the solver.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from .complexes import MEMBERSHIP_REL_TOL, EmbeddedComplex, Point, _check_spread, as_rows, distances_from, within_radius
from .z2 import ChainVector


class SphereCertificate(NamedTuple):
    """A sphere together with the point ids that pin it down. An empty chain
    has radius zero and no center."""

    center: Optional[tuple[float, ...]]
    radius: float
    support: tuple[int, ...]

    def contains(self, point) -> bool:
        if self.center is None:
            return False
        return within_radius(distances_from(self.center, zip(map(float, point)))[0], self.radius)


def chain_vertices(complex_like: EmbeddedComplex, chain: ChainVector, p: int) -> tuple[int, ...]:
    """Sorted vertex ids touched by the chain's support simplices."""
    seen: set[int] = set()
    for s in complex_like.chain_simplices(chain, p):
        seen.update(s)
    return tuple(sorted(seen))


def site_radius(complex_like: EmbeddedComplex, site: int, chain: ChainVector, p: int) -> float:
    """Radius of the smallest sphere centered at the site's point that
    contains every vertex of the chain."""
    vertices = chain_vertices(complex_like, chain, p)
    if not vertices:
        raise ValueError("the empty chain has no radius from a site")
    coords = complex_like.cloud.coords
    return max(distances_from(coords[site], zip(*[coords[v] for v in vertices])))


def _dot(a, b) -> float:
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _circumsphere(points: tuple[Point, ...], ids: list[int]):
    """Smallest sphere with the given points on its boundary, or None when
    they are affinely dependent: base + sum_j x_j u_j for the edge vectors u_j
    from the first point, where 2 (u_i . u_j) x = |u_i|^2. A pivot at the Gram
    matrix's rounding level means its rank is short."""
    base = points[ids[0]]
    if len(ids) == 1:
        return base, 0.0
    u = [[a - b for a, b in zip(points[i], base)] for i in ids[1:]]
    k = len(u)
    rows = [[2.0 * _dot(ui, uj) for uj in u] + [_dot(ui, ui)] for ui in u]
    tiny = 4 * k * 2.0**-52 * max(abs(x) for row in rows for x in row[:k])
    for c in range(k):
        pivot = max(range(c, k), key=lambda i: abs(rows[i][c]))
        if abs(rows[pivot][c]) <= tiny:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for row in rows[c + 1 :]:
            f = row[c] / rows[c][c]
            row[:] = [a - f * b for a, b in zip(row, rows[c])]
    x = [0.0] * k
    for c in reversed(range(k)):
        x[c] = (rows[c][k] - _dot(rows[c][c + 1 : k], x[c + 1 :])) / rows[c][c]
    center = tuple(b + _dot(x, column) for b, column in zip(base, zip(*u)))
    return center, max(distances_from(center, zip(*[points[i] for i in ids])))


def _sphere_of_boundary(points: tuple[Point, ...], boundary: list[int]):
    """Minimal sphere with the boundary set on or inside it. Affinely
    independent sets go through the circumsphere directly; dependent ones
    fall back to enumerating the set's own subsets."""
    if not boundary:
        return None
    direct = _circumsphere(points, boundary)
    if direct is not None:
        return direct
    columns = list(zip(*[points[i] for i in boundary]))
    best = None
    for k in range(1, len(boundary) + 1):
        for subset in combinations(boundary, k):
            sphere = _circumsphere(points, list(subset))
            if sphere and all(within_radius(r, sphere[1]) for r in distances_from(sphere[0], columns)):
                if best is None or sphere[1] < best[1]:
                    best = sphere
    return best


def min_enclosing_sphere(points) -> SphereCertificate:
    """Deterministic minimum enclosing sphere. Support indices refer to the
    input rows; at most d+1 of them. Raises ValueError, as PointCloud does, on a non-finite
    value or too wide a spread; unlike PointCloud, it accepts coincident and close points."""
    pts = as_rows(points)
    _check_spread(zip(*pts), 0.0)
    n, d = len(pts), len(pts[0])

    def solve(i: int, boundary: list[int]):
        # Welzl's recursion on the points i..n-1 unrolled from the last point
        # back: the same calls in the same order, nested only once per
        # boundary point, so at most d+2 deep
        sphere = _sphere_of_boundary(pts, boundary)
        if len(boundary) == d + 1:
            return sphere
        for k in range(n - 1, i - 1, -1):
            if sphere is None or not within_radius(distances_from(sphere[0], zip(pts[k]))[0], sphere[1]):
                sphere = solve(k + 1, boundary + [k])
        return sphere

    sphere = solve(0, [])
    assert sphere is not None
    center, radius = sphere
    distances = distances_from(center, zip(*pts))
    if not all(within_radius(x, radius) for x in distances):
        raise RuntimeError("enclosing-sphere solver failed to cover its input")
    tol = MEMBERSHIP_REL_TOL * radius
    support = tuple(i for i, x in enumerate(distances) if x >= radius - tol)[: d + 1]
    return SphereCertificate(center, radius, support)


def exact_radius(complex_like: EmbeddedComplex, chain: ChainVector, p: int) -> SphereCertificate:
    """Minimum enclosing sphere of the chain's vertices; support reported as
    vertex ids of the complex. The empty chain gets radius zero."""
    vertices = chain_vertices(complex_like, chain, p)
    if not vertices:
        return SphereCertificate(None, 0.0, ())
    cert = min_enclosing_sphere([complex_like.cloud.coords[v] for v in vertices])
    return SphereCertificate(
        cert.center, cert.radius, tuple(vertices[i] for i in cert.support)
    )
