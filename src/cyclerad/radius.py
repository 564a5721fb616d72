"""Radius measures for chains: the site-restricted radius (farthest vertex
from a chosen site) and the unrestricted minimum enclosing sphere.

The enclosing-sphere solver is Welzl's deterministic algorithm over the
points in index order, with the recursion on the points unrolled into a
loop, so it nests at most d+2 calls deep whatever the point count. Boundary
sets that end up affinely dependent (exactly collinear inputs can force
this) are repaired locally by enumerating the dependent set's own subsets,
which is cheap because boundary sets never exceed d+1 points.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .complexes import MEMBERSHIP_REL_TOL, EmbeddedComplex, within_radius
from .z2 import ChainVector


@dataclass(frozen=True)
class SphereCertificate:
    """A sphere together with the point ids that pin it down. An empty chain
    has radius zero and no center."""

    center: Optional[tuple[float, ...]]
    radius: float
    support: tuple[int, ...]

    def contains(self, point) -> bool:
        if self.center is None:
            return False
        d = float(np.linalg.norm(np.asarray(point, dtype=float) - self.center))
        return within_radius(d, self.radius)


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
    center = complex_like.cloud.point(site)
    coords = complex_like.cloud.coords[list(vertices)]
    return float(np.max(np.linalg.norm(coords - center, axis=1)))


def _circumsphere(points: np.ndarray, ids: list[int]):
    """Smallest sphere with the given points on its boundary, or None when
    they are affinely dependent. Center solves the Gram system of edge
    vectors from the first point."""
    base = points[ids[0]]
    if len(ids) == 1:
        return base.copy(), 0.0
    u = points[ids[1:]] - base
    gram = 2.0 * (u @ u.T)
    rhs = np.sum(u * u, axis=1)
    solution, _, rank_, _ = np.linalg.lstsq(gram, rhs, rcond=None)
    if rank_ < len(ids) - 1:
        return None
    center = base + solution @ u
    radius = float(np.max(np.linalg.norm(points[ids] - center, axis=1)))
    return center, radius


def _sphere_of_boundary(points: np.ndarray, boundary: list[int]):
    """Minimal sphere with the boundary set on or inside it. Affinely
    independent sets go through the circumsphere directly; dependent ones
    fall back to enumerating the set's own subsets."""
    if not boundary:
        return None
    direct = _circumsphere(points, boundary)
    if direct is not None:
        return direct
    best = None
    for k in range(1, len(boundary) + 1):
        for subset in combinations(boundary, k):
            sphere = _circumsphere(points, list(subset))
            if sphere is None:
                continue
            center, radius = sphere
            if all(
                within_radius(float(np.linalg.norm(points[i] - center)), radius)
                for i in boundary
            ):
                if best is None or radius < best[1]:
                    best = (center, radius)
    return best


def min_enclosing_sphere(points) -> SphereCertificate:
    """Deterministic minimum enclosing sphere. Support indices refer to rows
    of the input array; at most d+1 of them."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) point array")
    n, d = pts.shape

    def solve(i: int, boundary: list[int]):
        # Welzl's recursion on the points i..n-1 unrolled from the last point
        # back: the same calls in the same order, nested only once per
        # boundary point, so at most d+2 deep
        sphere = _sphere_of_boundary(pts, boundary)
        if len(boundary) == d + 1:
            return sphere
        for k in range(n - 1, i - 1, -1):
            if sphere is None or not within_radius(float(np.linalg.norm(pts[k] - sphere[0])), sphere[1]):
                sphere = solve(k + 1, boundary + [k])
        return sphere

    sphere = solve(0, [])
    assert sphere is not None
    center, radius = sphere
    distances = np.linalg.norm(pts - center, axis=1)
    if not all(within_radius(float(x), radius) for x in distances):
        raise RuntimeError("enclosing-sphere solver failed to cover its input")
    tol = MEMBERSHIP_REL_TOL * max(1.0, radius)
    support = tuple(int(i) for i in np.flatnonzero(distances >= radius - tol)[: d + 1])
    return SphereCertificate(tuple(float(x) for x in center), radius, support)


def exact_radius(complex_like: EmbeddedComplex, chain: ChainVector, p: int) -> SphereCertificate:
    """Minimum enclosing sphere of the chain's vertices; support reported as
    vertex ids of the complex. The empty chain gets radius zero."""
    vertices = chain_vertices(complex_like, chain, p)
    if not vertices:
        return SphereCertificate(None, 0.0, ())
    cert = min_enclosing_sphere(complex_like.cloud.coords[list(vertices)])
    return SphereCertificate(
        cert.center, cert.radius, tuple(vertices[i] for i in cert.support)
    )
