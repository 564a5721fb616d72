"""Simplexwise filtrations, barcodes, and the Rips and lower-star builders.

A filtration is a total order on the simplices of a complex (faces first)
together with non-decreasing real values. ``Filtration.indices`` holds the
index of each canonical position, and ``Filtration.prefix(i)`` flags the
simplices born by index i. All interval bookkeeping is index-based; values
are carried along for reporting.

``compute_persistence`` returns the dimension-p barcode as a
``PersistenceResult``, from the package's one persistence kernel
(``complexes._clearing_reduction``) ranked by filtration index. Its ``bars``
are the intervals of positive value length, the ones that get
representatives from the site search. A CLI request loads this module only
when it builds a filtration.
"""
from __future__ import annotations

import math
from itertools import compress
from operator import lt
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .complexes import (
    EmbeddedComplex,
    PointCloud,
    Simplex,
    _clearing_reduction,
    distances_from,
)


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
        for i, (s, at) in enumerate(zip(order, located)):
            if at is not None:
                indices[len(s) - 1][at] = i
        # (index, None) for a simplex not in the complex, (index, k) for its face without vertex k
        # (column k of faces[d]) born after it; an unlisted simplex's index, total, is above every face's
        late = [(located.index(None), None)] if None in located else []
        for d in range(1, len(indices)):
            below, index = indices[d - 1], indices[d]
            late += [(i, k) for k, faces in enumerate(complex_like.faces[d])
                     for f, i in zip(faces, index) if below[f] > i]
        if late:
            i, k = min(late)
            s = order[i]
            raise ValueError(f"simplex {s} not in the complex" if k is None
                             else f"face {s[:k] + s[k + 1 :]} of {s} does not precede it")
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
        if top is not None and top < 0:
            raise ValueError("top must be non-negative")
        alive = [iv for iv in self.intervals if iv.value_length() > 0]
        alive.sort(key=lambda iv: (-iv.value_length(), iv.birth))
        return alive if top is None else alive[:top]

    def value_pairs(self) -> list[tuple[float, Optional[float]]]:
        """(birth value, death value) of each bar, by birth, as a coarse
        (value-level) barcode reads them."""
        return [(iv.birth_value, iv.death_value) for iv in self.intervals if iv.value_length() > 0]


def compute_persistence(filtration: Filtration, p: int) -> PersistenceResult:
    """The dimension-p barcode, by the clearing reduction with each
    dimension ranked by filtration index."""
    if p < 0:
        raise ValueError("dimension must be non-negative")
    order, values, at = filtration.order, filtration.values, filtration.indices
    pairs, cycles = _clearing_reduction(
        filtration.complex, p, lambda d: sorted(range(len(at[d])), key=at[d].__getitem__))
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
    max_scale = float(max_scale)

    value: dict[Simplex, float] = {(v,): 0.0 for v in range(n)}
    edges: list[Simplex] = []
    upper = [set() for _ in range(n)]  # each vertex's neighbors of larger index
    for i in range(n if max_dim else 0):  # max_dim 0 excludes every edge
        row = distances_from(cloud.coords[i], [column[i + 1 :] for column in cloud.columns])
        for j in compress(range(i + 1, n), map(max_scale.__ge__, row)):
            edges.append((i, j))
            upper[i].add(j)
            value[(i, j)] = row[j - i - 1]

    previous = edges
    for _ in range(2, max_dim + 1):
        # a clique's extensions are the common neighbors above all its vertices, in order
        previous = [s + (w,) for s in previous for w in sorted(set.intersection(*(upper[v] for v in s)))]
        for t in previous:
            value[t] = max(value[t[:-1]], max(value[(v, t[-1])] for v in t[:-1]))

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
