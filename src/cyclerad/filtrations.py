"""Simplexwise filtrations, barcodes, and persistence computation over Z2.

A filtration is a total order on the simplices of a complex (faces first)
together with non-decreasing real values. ``Filtration.indices`` holds the
index of each canonical position, and ``Filtration.prefix(i)`` flags the
simplices born by index i. One kernel computes persistence in one
dimension p, ``_clearing_reduction``: it reduces the (p+1)-columns, clears
the p-columns their pivots name, and reduces the rest with their basis
change. Its pairs become finite intervals, its zero p-columns essential
classes. All interval bookkeeping is index-based; values are carried along
for reporting.

Both callers make the same call. ``compute_persistence`` ranks by filtration
index and returns the dimension-p barcode as a ``PersistenceResult``: the
intervals from the pairs and the essential positions, by birth. Its
``bars`` are the intervals of positive value length, the ones that get
representatives from the site search. The solvers read only the essential
p-cycles of each site's filtration, so ``site_essential_cycles`` ranks by
distance from the site and never builds the pairs.
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


class PersistenceResult(NamedTuple):
    """The dimension-p barcode of a filtration: its intervals by birth."""

    filtration: Filtration
    dim: int
    intervals: tuple[Interval, ...]

    def betti(self) -> int:
        return sum(1 for iv in self.intervals if iv.death is None)

    def bars(self, top: Optional[int] = None) -> list[Interval]:
        """The dimension-p intervals of positive value length, longest first
        (essential bars lead), ties by birth; only the first top when given."""
        alive = [iv for iv in self.intervals if iv.value_length() > 0]
        alive.sort(key=lambda iv: (-iv.value_length(), iv.birth))
        return alive if top is None else alive[:top]

    def value_pairs(self) -> list[tuple[float, Optional[float]]]:
        """(birth value, death value) of each bar, by birth, as a coarse
        (value-level) barcode reads them."""
        return [(iv.birth_value, iv.death_value) for iv in sorted(self.bars(), key=lambda iv: iv.birth)]


def compute_persistence(filtration: Filtration, p: int) -> PersistenceResult:
    """The dimension-p barcode, by the clearing reduction with each
    dimension ranked by filtration index."""
    if p < 0:
        raise ValueError("dimension must be non-negative")
    order, values, at = filtration.order, filtration.values, filtration.indices
    pairs, cycles = _clearing_reduction(filtration.complex, at, p)
    # (birth, death) filtration indices, death None for an essential class
    ends = [(at[p][birth], at[p + 1][death]) for birth, death in pairs] + [(at[p][q], None) for q in cycles]
    intervals = tuple(
        Interval(p, i, k, order[i], None if k is None else order[k], values[i], None if k is None else values[k])
        for i, k in sorted(ends)
    )
    return PersistenceResult(filtration, p, intervals)


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
    for i in range(n if max_dim else 0):  # max_dim 0 excludes every edge
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
    complex_like: EmbeddedComplex,
    keys: Sequence[Sequence],
    p: int,
    members: Optional[Sequence[Sequence[bool]]] = None,
) -> tuple[Iterator[tuple[int, int]], dict[int, int]]:
    """Z2 persistence in dimension p of a face-closed subcomplex: all of the
    complex, or the simplices members flags (per dimension, a flag per
    canonical position). keys[d] holds a sort key per canonical position,
    read for dimensions p - 1 to p + 1; each dimension is ranked by a stable
    sort of its canonical order by key, over the members alone when given:
    a stable sort of the members is their share of the full ranking.

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

    def ranked(d: int) -> list[int]:
        n = complex_like.n_simplices(d)
        if not n:
            return []
        kept = range(n) if members is None else compress(range(n), members[d])
        return sorted(kept, key=keys[d].__getitem__)

    def columns(d: int, below: Sequence[int], kept: Sequence[int]) -> list[int]:
        """Boundary masks of the d-simplices at the kept positions: bit j for the face ranked j in below."""
        if not d or not kept:
            return [0] * len(kept)
        row_bits = [0] * complex_like.n_simplices(d - 1)
        for position, bit in zip(below, complex_like.powers(len(below))):
            row_bits[position] = bit
        return face_masks(face_columns(complex_like, d), row_bits, kept)

    below, order, above = ranked(p - 1), ranked(p), ranked(p + 1)
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
    _, cycles = _clearing_reduction(complex_like, r, p, members)
    return (
        tuple(ChainVector(n_p, mask=v) for v in cycles.values()),
        tuple(r[p][q] for q in cycles),
    )
