"""Embedded simplicial complexes over Z2.

Simplices are strictly increasing tuples of vertex indices into a point
cloud. Within each dimension the simplices are kept sorted lexicographically;
(dimension, lexicographic tuple) is the canonical order used for every matrix
row/column in the package. A boundary matrix is a list of column masks over
the canonical positions (``boundary_columns``).

Complexes are immutable once built, apart from ``powers``, which grows on
demand. A subcomplex, such as a filtration prefix or the part of a complex
inside a ball, is not a complex of its own: it is a flag per canonical position
of the complex it lies in, so its chains need no re-indexing. The site kernel
takes a prefix that way, and the exact oracle its balls and prefixes.

The package's one persistence kernel, ``_clearing_reduction``, reduces a
subcomplex in the order its caller ranks: ``filtrations.compute_persistence``
ranks by filtration index, and the solvers' ``site_essential_cycles`` by
distance from a site, reading only the essential cycles. Both live here, by
the face table they read, so a request that builds no filtration never
loads ``filtrations``.

Geometry is plain Python: points are float tuples, and every distance comes
from ``distances_from``, whose float operations are fixed, so radii do not
depend on the interpreter or on an array library.
"""
from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import compress
from operator import add, eq, index, lt, mul, xor
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


def left_to_right_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0: every float sum in the package folds so, since sum() of
    floats is compensated from Python 3.12 on, and a report must keep its bits on every interpreter."""
    return reduce(add, values, 0.0)


def _check_spread(columns: Iterable[Sequence[float]], narrowest: float) -> None:
    """Raise ValueError unless the points' squared bounding-box diagonal lies
    in [narrowest, MAX_SQUARED_DIAGONAL]."""
    spread = [max(c) - min(c) for c in columns]
    diagonal = left_to_right_sum(map(mul, spread, spread))
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


def face_masks(faces: Sequence[Sequence[int]], row_bits: Sequence[int], positions: Sequence[int]) -> list[int]:
    """Per simplex at these positions, the OR of row_bits over its faces (EmbeddedComplex.faces)."""
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
    the given simplices and all of their faces. ``faces[d][k][i]``, built
    with the complex, is the canonical position of the face without vertex k
    (faces_of order) of the d-simplex at position i; ``faces[0]`` is empty."""

    __slots__ = ("cloud", "_by_dim", "_positions", "faces", "_powers")

    def __init__(self, cloud: PointCloud, simplices: Iterable[Iterable[int]]):
        levels: list[set[Simplex]] = []  # the simplices with d + 1 vertices at index d
        for raw in simplices:
            s = _normalize_simplex(raw)
            if not s:
                raise ValueError("empty simplex")
            if s[-1] >= cloud.n_points or s[0] < 0:
                raise ValueError(f"simplex {s} references a vertex outside the cloud")
            while len(levels) < len(s):
                levels.append(set())
            levels[len(s) - 1].add(s)
        self.cloud = cloud
        self._by_dim: list[tuple[Simplex, ...]] = [()] * len(levels)
        self._positions: dict[Simplex, int] = {}
        faces: list[tuple[tuple[int, ...], ...]] = [()] * len(levels)
        sliced: list[list[Simplex]] = []  # sliced out of level d + 1, they close level d, then get its positions
        for d in reversed(range(len(levels))):
            group = self._by_dim[d] = tuple(sorted(levels[d]))
            self._positions.update(zip(group, range(len(group))))
            if sliced:
                faces[d + 1] = tuple(tuple(map(self._positions.__getitem__, column)) for column in sliced)
            sliced = [[s[:k] + s[k + 1 :] for s in group] for k in range(d + 1)] if d else []
            for column in sliced:
                levels[d - 1].update(column)
        self.faces = tuple(faces)
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
        covered = [set().union(*columns) for columns in self.faces[1:]] + [()]
        return [s for group, cover in zip(self._by_dim, covered) for q, s in enumerate(group) if q not in cover]

    def has(self, simplex: Iterable[int]) -> bool:
        return tuple(simplex) in self._positions

    def position(self, simplex: Iterable[int]) -> int:
        """Canonical index of the simplex within its own dimension."""
        s = tuple(simplex)
        if s not in self._positions:
            raise KeyError(f"simplex {s} not in complex")
        return self._positions[s]

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
            i = self._positions.get(s)
            if i is None:
                raise KeyError(f"simplex {s} not in complex")
            if p is None:
                p = len(s) - 1
            elif len(s) - 1 != p:
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
        masks = face_masks(self.faces[p], self.powers(self.n_simplices(p - 1)), chain.support)
        return reduce(xor, masks) == 0


def boundary_columns(complex_like: EmbeddedComplex, p: int) -> list[int]:
    """Boundaries of the (p+1)-simplices as masks over the canonical
    p-positions, in canonical order; [] when there are no (p+1)-simplices.
    The boundary of the p-simplices is boundary_columns(complex_like, p - 1)."""
    n_cols = complex_like.n_simplices(p + 1)
    if p < 0 or not n_cols:
        return []
    row_bits = complex_like.powers(complex_like.n_simplices(p))
    return face_masks(complex_like.faces[p + 1], row_bits, range(n_cols))


# -- the clearing reduction ------------------------------------------------


def _clearing_reduction(
    complex_like: EmbeddedComplex, p: int, rank: Callable[[int], list[int]]
) -> tuple[Iterator[tuple[int, int]], dict[int, int]]:
    """Z2 persistence in dimension p of a face-closed subcomplex, in the
    order its caller ranks it: rank(d), called for the dimensions p - 1 to
    p + 1 that the complex has, lists the canonical positions of the
    subcomplex's d-simplices in filtration order.

    The (p+1)-columns are reduced first. The p-simplices their pivots name
    are cleared: their p-columns would reduce to zero, and a zero column
    never owns a pivot, so skipping them changes no other column (Chen &
    Kerber, "Persistent homology computation with a twist", 2011). The kept
    p-columns are then reduced with their basis change. Returns, with
    simplices named by canonical position:
    - the pairs, a lazy iterator of (birth, death): the (p+1)-simplex at
      death kills the class the p-simplex at birth created;
    - the essential p-cycles: position -> basis change in canonical
      p-positions, in rank order (the kept p-columns that reduce to zero)."""

    def columns(d: int, below: Sequence[int], kept: Sequence[int]) -> list[int]:
        """Boundary masks of the d-simplices at the kept positions: bit j for the face ranked j in below."""
        if not d or not kept:
            return [0] * len(kept)
        row_bits = [0] * complex_like.n_simplices(d - 1)
        for position, bit in zip(below, complex_like.powers(len(below))):
            row_bits[position] = bit
        return face_masks(complex_like.faces[d], row_bits, kept)

    below, order, above = (rank(d) if 0 <= d <= complex_like.max_dim else [] for d in (p - 1, p, p + 1))
    owners: dict = {}
    deaths = []  # the position of each (p+1)-column that stored a pivot, as owners gains it
    for c, q in zip(columns(p + 1, order, above), above):
        while c:
            low = c.bit_length() - 1
            other = owners.get(low)
            if other is None:
                owners[low] = c
                deaths.append(q)
                break
            c ^= other
    kept = [q for j, q in enumerate(order) if j not in owners] if owners else order
    cycles: dict[int, int] = {}
    reduced: dict = {}  # pivot rank -> (reduced p-column, its basis change)
    bit_at = complex_like.powers(complex_like.n_simplices(p))
    for c, q in zip(columns(p, below, kept), kept):
        v = bit_at[q]
        while c:
            low = c.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = (c, v)
                break
            c ^= other[0]
            v ^= other[1]
        else:
            cycles[q] = v
    return zip(map(order.__getitem__, owners), deaths), cycles


def site_essential_cycles(
    complex_like: EmbeddedComplex, dist: Sequence[float], p: int, members: Optional[Sequence[Sequence[bool]]] = None,
    radius: float = math.inf,
) -> tuple[tuple[ChainVector, ...], tuple[float, ...]]:
    """The essential p-cycles of the site's filtration, earliest first, as
    chains in the complex's canonical p-basis, with the r value each is born
    at. dist holds the site's distance to each cloud point; the kernel
    computes none. The site's filtration ranks a simplex by its farthest
    vertex's distance, ties broken by (dimension, lexicographic tuple).

    Only the p- and (p+1)-columns are reduced. Each dimension is ranked on
    its own: a stable sort of the canonical (lexicographic) order by r is the
    filtration's rule within one dimension. Given members (per dimension, a
    flag per canonical position), it is the filtration of the face-closed
    subcomplex they flag, such as a birth prefix: a stable sort of the
    members is their share of the complex's ranking.

    Given a finite radius, only the simplices with r <= radius (the site's
    ball, face-closed since no face has a larger r) are ranked and reduced,
    and the zero p-columns of that reduction come back. A column's reduction
    reads only earlier columns, and clearing skips only columns that reduce
    to zero, so every essential cycle born by the radius comes back with the
    same chain and r, in the same relative order. The others are cycles that
    a simplex beyond the radius kills: each lies in the span of the
    boundaries and the essential cycles returned before it, and filtering
    them out is the caller's part. So the first returned cycle outside the
    boundary span is the first essential cycle."""
    if p < 0:
        raise ValueError("dimension must be non-negative")
    n_p = complex_like.n_simplices(p)
    top = min(p + 1, complex_like.max_dim)
    r = [[dist[v] for v, in complex_like.simplices(0)]]  # per dimension, canonical order
    for d in range(1, top + 1):
        # a simplex's first and last faces hold all its vertices
        below, faces = r[-1], complex_like.faces[d]
        r.append([below[i] if below[i] >= below[j] else below[j] for i, j in zip(faces[0], faces[-1])])

    def rank(d: int) -> list[int]:
        """The d-simplices of the site's call by r: the members (all when None) with r <= radius."""
        rd = r[d]
        kept = range(len(rd)) if members is None else compress(range(len(rd)), members[d])
        return sorted([q for q in kept if rd[q] <= radius] if radius < math.inf else kept, key=rd.__getitem__)

    _, cycles = _clearing_reduction(complex_like, p, rank)
    return (
        tuple(ChainVector(n_p, mask=v) for v in cycles.values()),
        tuple(r[p][q] for q in cycles),
    )
