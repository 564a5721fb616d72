"""Embedded simplicial complexes over Z2.

Simplices are strictly increasing tuples of vertex indices into a point
cloud. Within each dimension the simplices are kept sorted lexicographically;
(dimension, lexicographic tuple) is the canonical order used for every matrix
row/column in the package. A boundary matrix is a list of column masks over
the canonical positions (``boundary_columns``).

Complexes are immutable once built. A subcomplex, such as a filtration
prefix or the part of a complex inside a ball, is not a complex of its own:
it is a flag per canonical position of the complex it lies in, so its chains
need no re-indexing. The site kernel takes a prefix that way, and the exact
oracle its balls and prefixes.

Geometry is plain Python: points are float tuples, and every distance comes
from ``distances_from``, whose float operations are fixed, so radii do not
depend on the interpreter or on an array library.
"""
from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add, eq, index, lt, mul, xor
from typing import Iterable, Optional, Sequence

from .z2 import ChainVector

# relative tolerance for sphere membership tests
MEMBERSHIP_REL_TOL = 1e-9

# the largest squared bounding-box diagonal a cloud may have: every squared
# distance is at most that, the circumsphere's Gram entries reach twice one,
# and its elimination may grow them further
MAX_SQUARED_DIAGONAL = sys.float_info.max / 2**10


def within_radius(distance: float, radius: float) -> bool:
    return distance <= radius + MEMBERSHIP_REL_TOL * abs(radius)


Point = tuple[float, ...]


def as_rows(coords) -> tuple[Point, ...]:
    """A nonempty sequence of equal-length, nonempty rows (lists, tuples, a
    2-d array) of finite values as a tuple of float tuples."""
    rows = tuple(tuple(map(float, row)) for row in coords)
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("points must be a nonempty sequence of equal-length rows")
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError("point coordinates must be finite")
    return rows


def _check_spread(columns: Iterable[Sequence[float]], narrowest: float) -> None:
    """Raise ValueError unless the points' squared bounding-box diagonal, summed left to right (sum() of
    floats is compensated from Python 3.12 on), lies in [narrowest, MAX_SQUARED_DIAGONAL]."""
    spread = [max(c) - min(c) for c in columns]
    diagonal = reduce(add, map(mul, spread, spread), 0.0)
    if not narrowest <= diagonal <= MAX_SQUARED_DIAGONAL:
        # squared distances would overflow, or lose their bits below the normal floats
        raise ValueError(
            f"point coordinates span too {'wide' if diagonal > 1 else 'narrow'} a range: the squared"
            f" bounding-box diagonal, {diagonal!r}, must lie in [{narrowest!r}, {MAX_SQUARED_DIAGONAL!r}]"
        )


def distances_from(center: Point, columns: Iterable[Sequence[float]]) -> list[float]:
    """Euclidean distance from the center to each point, given as coordinate
    columns (``PointCloud.columns`` or ``zip(*rows)``): squared differences
    summed left to right (0.0 + x is x, so the first is taken as is), then a
    correctly rounded sqrt, as numpy's row norms do below eight columns."""
    acc = None
    for c, column in zip(center, columns, strict=True):
        t = [x - c for x in column]
        acc = list(map(mul, t, t) if acc is None else map(add, acc, map(mul, t, t)))
    return list(map(math.sqrt, acc))


class PointCloud:
    """Finite set of distinct points in R^d, d >= 1: ``coords`` holds a float
    tuple per point, ``columns`` one per coordinate. Two or more points must
    have a squared bounding-box diagonal from the smallest normal float to
    ``MAX_SQUARED_DIAGONAL``, so that every squared distance is finite and
    the largest is not subnormal."""

    __slots__ = ("coords", "columns")

    def __init__(self, coords):
        rows = as_rows(coords)
        seen = {}
        for i, row in enumerate(rows):
            if row in seen:
                raise ValueError(f"duplicate point at indices {seen[row]} and {i}")
            seen[row] = i
        self.coords = rows
        self.columns = tuple(zip(*rows))
        if len(rows) > 1:
            _check_spread(self.columns, sys.float_info.min)

    @property
    def n_points(self) -> int:
        return len(self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords[0])

    def point(self, i: int) -> Point:
        return self.coords[i]

    def distance(self, i: int, j: int) -> float:
        return distances_from(self.coords[i], zip(self.coords[j]))[0]


Simplex = tuple[int, ...]


def faces_of(simplex: Simplex) -> list[Simplex]:
    """Codimension-one faces, in lexicographic order of the dropped position."""
    if len(simplex) == 1:
        return []
    return [simplex[:k] + simplex[k + 1 :] for k in range(len(simplex))]


def face_columns(complex_like, d: int) -> tuple[tuple[int, ...], ...]:
    """The canonical (d-1)-positions of the d-simplices' faces, d >= 1:
    column k holds the faces without vertex k (faces_of order), and entry i
    of each column belongs to the simplex at canonical position i. Built once
    per complex and dimension, so per-site work only indexes these columns."""
    cached = complex_like._tables.get(d)
    if cached is None:
        positions, simplices = complex_like._positions, complex_like.simplices(d)
        columns = (tuple([positions[s[:k] + s[k + 1 :]][1] for s in simplices]) for k in range(d + 1))
        cached = complex_like._tables[d] = tuple(columns)
    return cached


def face_masks(faces: Sequence[Sequence[int]], row_bits: Sequence[int], positions: Sequence[int]) -> list[int]:
    """Per simplex at these positions, the OR of row_bits over its faces (face_columns)."""
    first, *rest = faces
    masks = [row_bits[first[i]] for i in positions]
    for column in rest:
        masks = [m | row_bits[column[i]] for m, i in zip(masks, positions)]
    return masks


def _normalize_simplex(simplex: Iterable[int]) -> Simplex:
    s = tuple(map(index, simplex))
    if all(map(lt, s, s[1:])):
        return s
    ordered = tuple(sorted(s))
    if any(map(eq, ordered, ordered[1:])):
        raise ValueError(f"simplex {s} has repeated vertices")
    return ordered


class EmbeddedComplex:
    """A finite simplicial complex whose vertices index into a point cloud:
    the given simplices and all of their faces."""

    __slots__ = ("cloud", "_by_dim", "_positions", "_tables", "_powers")

    def __init__(self, cloud: PointCloud, simplices: Iterable[Iterable[int]]):
        collected: set[Simplex] = set()
        for raw in simplices:
            s = _normalize_simplex(raw)
            if not s:
                raise ValueError("empty simplex")
            if s[-1] >= cloud.n_points or s[0] < 0:
                raise ValueError(f"simplex {s} references a vertex outside the cloud")
            collected.add(s)
        levels = [set() for _ in range(max(map(len, collected), default=0))]
        for s in collected:
            levels[len(s) - 1].add(s)
        for d in range(len(levels) - 1, 0, -1):
            levels[d - 1] |= {s[:k] + s[k + 1 :] for s in levels[d] for k in range(d + 1)}
        self.cloud = cloud
        self._by_dim = [tuple(sorted(level)) for level in levels]
        self._positions: dict[Simplex, tuple[int, int]] = {
            s: (d, i) for d, group in enumerate(self._by_dim) for i, s in enumerate(group)
        }
        self._tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._powers: list[int] = []

    def __repr__(self) -> str:
        top = self.maximal_simplices()
        shown = ", ".join(map(str, top[:12])) + (", ..." if len(top) > 12 else "")
        counts = [len(g) for g in self._by_dim]
        return f"{type(self).__name__}(points={self.cloud.n_points}, simplices={counts}, top=[{shown}])"

    # -- structure queries -------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self._by_dim) - 1

    def n_simplices(self, p: int) -> int:
        return len(self.simplices(p))

    def simplices(self, p: int) -> tuple[Simplex, ...]:
        if p < 0 or p > self.max_dim:
            return ()
        return self._by_dim[p]

    def all_simplices(self):
        for group in self._by_dim:
            yield from group

    def total_simplices(self) -> int:
        return len(self._positions)

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are no face of another, in canonical order; they
        generate the complex."""
        top = []
        for d, group in enumerate(self._by_dim):
            covered = set().union(*face_columns(self, d + 1))
            top += [s for q, s in enumerate(group) if q not in covered]
        return top

    def has(self, simplex: Iterable[int]) -> bool:
        return tuple(simplex) in self._positions

    def position(self, simplex: Iterable[int]) -> int:
        """Canonical index of the simplex within its own dimension."""
        s = tuple(simplex)
        if s not in self._positions:
            raise KeyError(f"simplex {s} not in complex")
        return self._positions[s][1]

    def powers(self, n: int) -> list[int]:
        """A list whose first n entries are 1 << k, kept with the complex since
        allocating them was a large share of the per-site work; n is at most
        one dimension's size, so the table is no larger than one call's list."""
        self._powers.extend(map((1).__lshift__, range(len(self._powers), n)))
        return self._powers

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices(0))

    # -- chains and matrices ----------------------------------------------

    def chain(self, simplices: Iterable[Iterable[int]], p: Optional[int] = None) -> ChainVector:
        """Build a p-chain from vertex tuples (all of the same dimension)."""
        indices = []
        for raw in simplices:
            s = _normalize_simplex(raw)
            d, i = self._positions.get(s, (None, None))
            if d is None:
                raise KeyError(f"simplex {s} not in complex")
            if p is None:
                p = d
            elif d != p:
                raise ValueError("chain mixes dimensions")
            indices.append(i)
        if p is None:
            raise ValueError("cannot infer dimension of an empty chain")
        return ChainVector(self.n_simplices(p), sorted(set(indices)))

    def chain_simplices(self, chain: ChainVector, p: int) -> list[Simplex]:
        group = self.simplices(p)
        return [group[i] for i in chain.support]

    def is_cycle(self, chain: ChainVector, p: int) -> bool:
        """Whether the chain's boundary vanishes, summed over its own support
        rather than through the full boundary matrix."""
        if p == 0 or chain.is_zero():
            return True
        if chain.ambient_size != self.n_simplices(p):
            raise ValueError("chain does not live in the complex's p-basis")
        masks = face_masks(face_columns(self, p), self.powers(self.n_simplices(p - 1)), chain.support)
        return reduce(xor, masks) == 0


def boundary_columns(complex_like: EmbeddedComplex, p: int) -> list[int]:
    """Boundaries of the (p+1)-simplices as masks over the canonical
    p-positions, in canonical order; [] when there are no (p+1)-simplices.
    The boundary of the p-simplices is boundary_columns(complex_like, p - 1)."""
    n_cols = complex_like.n_simplices(p + 1)
    if p < 0 or not n_cols:
        return []
    row_bits = complex_like.powers(complex_like.n_simplices(p))
    return face_masks(face_columns(complex_like, p + 1), row_bits, range(n_cols))
