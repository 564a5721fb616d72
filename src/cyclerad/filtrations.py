"""Simplexwise filtrations, barcodes, and persistence computation over Z2.

A filtration is a total order on the simplices of a complex (faces first)
together with non-decreasing real values. ``Filtration.indices`` holds the
index of each canonical position, and ``Filtration.prefix(i)`` flags the
simplices born by index i. One kernel computes persistence,
``_clearing_reduction``: it reduces the boundary columns one dimension at a
time, from the top down, with clearing. Pairs of the reduction become finite
intervals, unpaired simplices essential classes; ``PersistenceResult.bars``
names the ones that get representatives. All interval bookkeeping is
index-based; values are carried along for reporting.

``compute_persistence`` ranks each dimension by filtration index, reduces
every dimension and keeps only the pairs: the barcode needs no basis change,
since a bar's representative comes from the site search. The solvers read
only the essential p-cycles of each site's filtration, so
``site_essential_cycles`` ranks by distance from the site, reduces just the
(p+1)- and p-columns, and tracks the basis change of the p-columns alone.
"""
from __future__ import annotations

import math
from itertools import compress
from operator import lt
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .complexes import (
    EmbeddedComplex,
    PointCloud,
    Simplex,
    distances_from,
    face_columns,
    face_masks,
)
from .z2 import ChainVector


class Filtration:
    """Total order on all simplices of a complex, faces before cofaces, with
    finite, non-decreasing values; checked on construction."""

    __slots__ = ("complex", "order", "values", "indices")

    def __init__(
        self,
        complex_like: EmbeddedComplex,
        order: Sequence[Iterable[int]],
        values: Sequence[float],
    ):
        self.complex = complex_like
        self.order: tuple[Simplex, ...] = tuple(tuple(s) for s in order)
        self.values: tuple[float, ...] = tuple(float(v) for v in values)
        # the checks run in a fixed order; of the simplices out of place, the first in order is named
        order, values = self.order, self.values
        if len(order) != len(values):
            raise ValueError("order and values must have equal length")
        if len(set(order)) != len(order):
            raise ValueError("filtration repeats a simplex")
        total = complex_like.total_simplices()
        if len(order) != total:
            raise ValueError(f"filtration covers {len(order)} simplices, complex has {total}")
        if not all(map(math.isfinite, values)):
            raise ValueError("filtration values must be finite")
        # per dimension, the filtration index of each canonical position;
        # total, above every index, where the position is not listed
        self.indices = indices = [[total] * complex_like.n_simplices(d) for d in range(complex_like.max_dim + 1)]
        located = list(map(complex_like._positions.get, order))
        for i, at in enumerate(located):
            if at is not None:
                indices[at[0]][at[1]] = i
        # (index, its first late face), or (index, None) for a simplex not in the complex
        late = [(located.index(None), None)] if None in located else []
        for d in range(1, len(indices)):
            below, index, faces = indices[d - 1], indices[d], face_columns(complex_like, d)
            if not all(all(map(lt, map(below.__getitem__, column), index)) for column in faces):
                # column k of face_columns holds the faces without vertex k, in faces_of order
                for i, face_positions in zip(index, zip(*faces)):
                    k = next((k for k, f in enumerate(face_positions) if below[f] > i), None)
                    if k is not None and i < total:
                        late.append((i, order[i][:k] + order[i][k + 1 :]))
        if late:
            i, f = min(late)
            s = order[i]
            raise ValueError(f"simplex {s} not in the complex" if f is None else f"face {f} of {s} does not precede it")
        if any(map(lt, values[1:], values)):
            raise ValueError("filtration values must be non-decreasing")

    def __len__(self) -> int:
        return len(self.order)

    def index_of(self, simplex: Iterable[int]) -> int:
        s = tuple(simplex)
        return self.indices[len(s) - 1][self.complex.position(s)]

    def prefix(self, i: int) -> list[list[bool]]:
        """Per dimension, a flag per canonical position: the simplices born by
        index i, a face-closed subcomplex."""
        return [list(map(i.__ge__, index)) for index in self.indices]


class Interval(NamedTuple):
    """A barcode interval [birth, death) in filtration indices; death None
    means the class is essential."""

    dim: int
    birth: int
    death: Optional[int]
    creator: Simplex
    destroyer: Optional[Simplex]
    birth_value: float
    death_value: Optional[float]

    def value_length(self) -> float:
        if self.death_value is None:
            return float("inf")
        return self.death_value - self.birth_value


class Barcode(NamedTuple("Barcode", [("intervals", tuple)])):
    """Intervals, each creator and destroyer used once; a subclass so that
    the constructor can check them."""

    __slots__ = ()

    def __new__(cls, intervals: tuple[Interval, ...]):
        creators: set[tuple[int, Simplex]] = set()
        destroyers: set[Simplex] = set()
        for iv in intervals:
            if len(iv.creator) - 1 != iv.dim:
                raise ValueError("creator dimension does not match the interval")
            if iv.destroyer is not None and len(iv.destroyer) - 1 != iv.dim + 1:
                raise ValueError("destroyer must be one dimension above the interval")
            key = (iv.dim, iv.creator)
            if key in creators:
                raise ValueError(f"{iv.creator} creates two intervals")
            creators.add(key)
            if iv.destroyer is not None:
                if iv.destroyer in destroyers:
                    raise ValueError(f"{iv.destroyer} destroys two intervals")
                destroyers.add(iv.destroyer)
        return super().__new__(cls, intervals)

    def in_dim(self, p: int) -> list[Interval]:
        return [iv for iv in self.intervals if iv.dim == p]

    def betti(self, p: int) -> int:
        return sum(1 for iv in self.intervals if iv.dim == p and iv.death is None)

    def value_pairs(self, p: int) -> list[tuple[float, Optional[float]]]:
        """(birth value, death value) pairs of the dimension-p intervals of
        positive value length, by birth: the bars PersistenceResult.bars
        ranks, as a coarse (value-level) barcode reads them."""
        alive = [iv for iv in self.in_dim(p) if iv.value_length() > 0]
        return [(iv.birth_value, iv.death_value) for iv in sorted(alive, key=lambda iv: iv.birth)]


class PersistenceResult(NamedTuple):
    """The barcode of a filtration in every dimension, and the dimension p
    whose bars are asked for."""

    filtration: Filtration
    dim: int
    barcode: Barcode

    def bars(self, top: Optional[int] = None) -> list[Interval]:
        """The dimension-p intervals of positive value length, longest first
        (essential bars lead), ties by birth; only the first top when given."""
        alive = [iv for iv in self.barcode.in_dim(self.dim) if iv.value_length() > 0]
        alive.sort(key=lambda iv: (-iv.value_length(), iv.birth))
        return alive if top is None else alive[:top]


def compute_persistence(filtration: Filtration, p: int) -> PersistenceResult:
    """The barcode of every dimension, by the clearing reduction with each
    dimension ranked by filtration index."""
    if p < 0:
        raise ValueError("dimension must be non-negative")
    complex_like = filtration.complex
    order, values, indices = filtration.order, filtration.values, filtration.indices
    # per dimension, the positions in rank order
    ranked = [sorted(range(len(index)), key=index.__getitem__) for index in indices]
    pairs, _ = _clearing_reduction(complex_like, ranked, complex_like.max_dim, 0, None)

    def interval(d: int, i: int, k: Optional[int]) -> Interval:
        if k is None:
            return Interval(d, i, None, order[i], None, values[i], None)
        return Interval(d, i, k, order[i], order[k], values[i], values[k])

    intervals: list[Interval] = []
    unpaired = [set(range(len(index))) for index in indices]
    for d, pairing in pairs:
        for birth, death in pairing:
            unpaired[d].discard(birth)
            unpaired[d + 1].discard(death)
            intervals.append(interval(d, indices[d][birth], indices[d + 1][death]))
    for d, positions in enumerate(unpaired):
        intervals += [interval(d, indices[d][q], None) for q in positions]
    intervals.sort(key=lambda iv: (iv.dim, iv.birth))
    return PersistenceResult(filtration, p, Barcode(tuple(intervals)))


# -- filtration constructors ----------------------------------------------


def rips_filtration(cloud: PointCloud, max_scale: float, max_dim: int) -> Filtration:
    """Vietoris-Rips filtration: a simplex enters at its diameter; simplices
    with diameter above max_scale or dimension above max_dim are excluded.
    Dimension-p bars die by (p+1)-simplices, so they need max_dim >= p + 1.
    Ties are ordered by (value, dimension, lexicographic vertex tuple)."""
    if not max_scale >= 0:
        raise ValueError("max_scale must be non-negative")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    n = cloud.n_points
    coords = cloud.coords
    max_scale = float(max_scale)

    value: dict[Simplex, float] = {(v,): 0.0 for v in range(n)}
    edges: list[Simplex] = []
    for i in range(n):
        row = distances_from(coords[i], [column[i + 1 :] for column in cloud.columns])
        for j in compress(range(i + 1, n), map(max_scale.__ge__, row)):
            edges.append((i, j))
            value[(i, j)] = row[j - i - 1]
    adjacency = [set() for _ in range(n)]
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)

    previous = edges
    for d in range(2, max_dim + 1):
        current: list[Simplex] = []
        for s in previous:
            common = set.intersection(*(adjacency[v] for v in s)) if s else set()
            for w in sorted(common):
                if w > s[-1]:
                    t = s + (w,)
                    current.append(t)
                    value[t] = max(value[s], max(value[(v, w)] for v in s))
        previous = current

    complex_ = EmbeddedComplex(cloud, value.keys())
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return Filtration(complex_, order, [value[s] for s in order])


def lower_star_filtration(complex_like: EmbeddedComplex, vertex_values) -> Filtration:
    """Lower-star filtration of a vertex scalar field: a simplex enters at the
    maximum value over its vertices."""
    if isinstance(vertex_values, Mapping):
        lookup = dict(vertex_values)
    else:
        lookup = dict(enumerate(map(float, vertex_values)))
    for v in complex_like.vertex_ids():
        if v not in lookup:
            raise ValueError(f"missing scalar value for vertex {v}")
    value = {
        s: max(lookup[v] for v in s) for s in complex_like.all_simplices()
    }
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return Filtration(complex_like, order, [value[s] for s in order])


# -- the clearing reduction ------------------------------------------------


def _clearing_reduction(
    complex_like: EmbeddedComplex, ranked: Sequence[Sequence[int]], top: int, bottom: int, p: Optional[int]
) -> tuple[list[tuple[int, Iterator[tuple[int, int]]]], dict[int, int]]:
    """Z2 persistence of the boundary columns of dimensions top down to
    bottom, where ranked[d] lists the canonical positions of the d-simplices
    of a face-closed subcomplex (all of them, or a prefix) in the order of
    the filtration (it is read for bottom - 1 to top).

    A reduction only ever adds a column into a later one of its own
    dimension, so each dimension is reduced on its own, left to right. The
    simplices a d-column's pivot names are cleared: their (d-1)-columns would
    reduce to zero, and a zero column never owns a pivot, so skipping them
    changes no other column (Chen & Kerber, "Persistent homology computation
    with a twist", 2011). Returns, with simplices named by canonical
    position:
    - the pairs, per reduced dimension d + 1 as (d, iterator of (birth,
      death)): the (d+1)-simplex at death kills the class the d-simplex at
      birth created;
    - the essential p-cycles: position -> basis change in canonical
      p-positions, in rank order (the zero p-columns, when the
      (p+1)-columns were reduced or p is the top dimension); empty when p
      is None, and then no dimension tracks a basis change."""
    pairs = []
    cycles: dict[int, int] = {}
    cleared: dict = {}  # pivot rank -> reduced column, of the dimension above
    for d in range(top, bottom - 1, -1):
        order = ranked[d]
        kept = [q for j, q in enumerate(order) if j not in cleared] if cleared else order
        if d:
            below = ranked[d - 1]
            row_bits = [0] * complex_like.n_simplices(d - 1)
            for position, bit in zip(below, complex_like.powers(len(below))):
                row_bits[position] = bit
            columns = face_masks(face_columns(complex_like, d), row_bits, kept)
        else:
            columns = [0] * len(kept)
        owners: dict = {}
        deaths = []  # the position of each column that stored a pivot, as owners gains it
        if d == p:
            bit_at = complex_like.powers(complex_like.n_simplices(d))
            for c, q in zip(columns, kept):
                v = bit_at[q]
                while c:
                    low = c.bit_length() - 1
                    other = owners.get(low)
                    if other is None:
                        owners[low] = (c, v)
                        deaths.append(q)
                        break
                    c ^= other[0]
                    v ^= other[1]
                else:
                    cycles[q] = v
        else:
            for c, q in zip(columns, kept):
                while c:
                    low = c.bit_length() - 1
                    other = owners.get(low)
                    if other is None:
                        owners[low] = c
                        deaths.append(q)
                        break
                    c ^= other
        if d:
            pairs.append((d - 1, zip(map(below.__getitem__, owners), deaths)))
        cleared = owners
    return pairs, cycles


def site_essential_cycles(
    complex_like: EmbeddedComplex, site: int, p: int, members: Optional[Sequence[Sequence[bool]]] = None
) -> tuple[tuple[ChainVector, ...], tuple[float, ...]]:
    """The essential p-cycles of the site's filtration, earliest first, as
    chains in the complex's canonical p-basis, with the r value each is born
    at. The site's filtration ranks a simplex by the distance from the site
    to its farthest vertex, ties broken by (dimension, lexicographic tuple).

    Only the p- and (p+1)-columns are reduced. Each dimension is ranked on
    its own: a stable sort of the canonical (lexicographic) order by r is the
    filtration's rule within one dimension. Given members (per dimension, a
    flag per canonical position), it is the filtration of the face-closed
    subcomplex they flag, such as a birth prefix: the complex's ranks, filtered."""
    if p < 0:
        raise ValueError("dimension must be non-negative")
    n_p = complex_like.n_simplices(p)
    if n_p == 0:
        return (), ()
    dist = distances_from(complex_like.cloud.point(site), complex_like.cloud.columns)
    top = min(p + 1, complex_like.max_dim)
    r = [[dist[v] for v, in complex_like.simplices(0)]]  # per dimension, canonical order
    for d in range(1, top + 1):
        # a simplex's first and last faces hold all its vertices
        below, faces = r[-1], face_columns(complex_like, d)
        r.append([below[i] if below[i] >= below[j] else below[j] for i, j in zip(faces[0], faces[-1])])
    ranked = []
    for d, rd in enumerate(r):
        # a stable sort of the members alone is their share of the full ranking
        kept = range(len(rd)) if members is None else compress(range(len(rd)), members[d])
        ranked.append(sorted(kept, key=rd.__getitem__) if d >= p - 1 else ())
    _, cycles = _clearing_reduction(complex_like, ranked, top, p, p)
    return (
        tuple(ChainVector(n_p, mask=v) for v in cycles.values()),
        tuple(r[p][q] for q in cycles),
    )
