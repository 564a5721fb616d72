"""Simplexwise filtrations, barcodes, and persistence computation over Z2.

A filtration is a total order on the simplices of a complex (faces first)
together with non-decreasing real values. Persistence reduces the one square
boundary matrix over all simplices in filtration order; pairs of the
reduction become finite intervals, unpaired positions become essential
classes. All interval bookkeeping is index-based; values are carried along
for reporting.

The solvers read only the essential p-cycles of each site ordering, so
``site_essential_cycles`` reduces just the p and p+1 columns, with clearing;
``compute_persistence`` over ``site_ordering`` is its reference.
"""
from __future__ import annotations

import math
from itertools import combinations, compress
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .complexes import (
    EmbeddedComplex,
    PointCloud,
    Simplex,
    SubcomplexView,
    distances_from,
    face_columns,
    face_masks,
    faces_of,
)
from .z2 import ChainVector, Z2Matrix, standard_reduction


class Filtration:
    """Total order on all simplices of a complex, faces before cofaces, with
    non-decreasing values."""

    __slots__ = ("complex", "order", "values", "_index")

    def __init__(
        self,
        complex_like: EmbeddedComplex,
        order: Sequence[Iterable[int]],
        values: Sequence[float],
        validate: bool = True,
    ):
        self.complex = complex_like
        self.order: tuple[Simplex, ...] = tuple(tuple(s) for s in order)
        self.values: tuple[float, ...] = tuple(float(v) for v in values)
        self._index = {s: i for i, s in enumerate(self.order)}
        if validate:
            self._validate()

    def _validate(self) -> None:
        if len(self.order) != len(self.values):
            raise ValueError("order and values must have equal length")
        if len(self._index) != len(self.order):
            raise ValueError("filtration repeats a simplex")
        total = self.complex.total_simplices()
        if len(self.order) != total:
            raise ValueError(
                f"filtration covers {len(self.order)} simplices, complex has {total}"
            )
        for i, s in enumerate(self.order):
            if not self.complex.has(s):
                raise ValueError(f"simplex {s} not in the complex")
            for f in faces_of(s):
                j = self._index.get(f)
                if j is None or j > i:
                    raise ValueError(f"face {f} of {s} does not precede it")
        if not all(map(math.isfinite, self.values)):
            raise ValueError("filtration values must be finite")
        for a, b in zip(self.values, self.values[1:]):
            if b < a:
                raise ValueError("filtration values must be non-decreasing")

    def __len__(self) -> int:
        return len(self.order)

    def simplex_at(self, i: int) -> Simplex:
        return self.order[i]

    def value_at(self, i: int) -> float:
        return self.values[i]

    def index_of(self, simplex: Iterable[int]) -> int:
        return self._index[tuple(simplex)]

    def prefix_view(self, i: int) -> SubcomplexView:
        """The complex formed by the first i+1 simplices, as a view on the
        root complex."""
        return SubcomplexView(self.complex.parent or self.complex, self.order[: i + 1], validate=False)

    def boundary_matrix(self) -> Z2Matrix:
        """The square boundary matrix over all simplices in filtration order."""
        cols = []
        for s in self.order:
            mask = 0
            for f in faces_of(s):
                mask |= 1 << self._index[f]
            cols.append(mask)
        return Z2Matrix(len(self.order), cols)


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

    @property
    def finite(self) -> bool:
        return self.death is not None

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

    def value_pairs(self, p: int, drop_zero_length: bool = True) -> list[tuple[float, Optional[float]]]:
        """(birth value, death value) pairs; zero-length intervals dropped by
        default, matching how coarse (value-level) barcodes are read."""
        out = []
        for iv in sorted(self.in_dim(p), key=lambda iv: iv.birth):
            if iv.death is None:
                out.append((iv.birth_value, None))
            elif not drop_zero_length and iv.death_value == iv.birth_value:
                out.append((iv.birth_value, iv.death_value))
            elif iv.death_value > iv.birth_value:
                out.append((iv.birth_value, iv.death_value))
        return out


class PersistenceResult(NamedTuple):
    """Barcode of a filtration plus, for one dimension p, a representative
    cycle per interval and the essential cycles in order of appearance.

    Finite intervals are represented by the reduced destroyer column (it
    contains the creator, bounds once the destroyer is in, and is not a
    boundary before that); essential intervals by the basis-change column at
    the creator. Chains live in the filtration complex's canonical p-basis.
    """

    filtration: Filtration
    dim: int
    barcode: Barcode
    representatives: Mapping[Interval, ChainVector]
    essential_cycles: tuple[ChainVector, ...]

    def intervals(self) -> list[Interval]:
        return sorted(self.barcode.in_dim(self.dim), key=lambda iv: iv.birth)


def compute_persistence(filtration: Filtration, p: int) -> PersistenceResult:
    if p < 0:
        raise ValueError("dimension must be non-negative")
    order = filtration.order
    values = filtration.values
    complex_like = filtration.complex
    reduction = standard_reduction(filtration.boundary_matrix())

    intervals: list[Interval] = []
    for row, col in reduction.pairs:
        d = len(order[row]) - 1
        intervals.append(
            Interval(
                dim=d,
                birth=row,
                death=col,
                creator=order[row],
                destroyer=order[col],
                birth_value=values[row],
                death_value=values[col],
            )
        )
    for j in reduction.unpaired:
        d = len(order[j]) - 1
        intervals.append(
            Interval(
                dim=d,
                birth=j,
                death=None,
                creator=order[j],
                destroyer=None,
                birth_value=values[j],
                death_value=None,
            )
        )
    intervals.sort(key=lambda iv: (iv.dim, iv.birth))
    barcode = Barcode(tuple(intervals))

    n_p = complex_like.n_simplices(p)

    def chain_from_positions(mask: int) -> ChainVector:
        out = 0
        while mask:
            lowbit = mask & -mask
            pos = lowbit.bit_length() - 1
            s = order[pos]
            # reduction only mixes columns of equal dimension
            assert len(s) - 1 == p
            out |= 1 << complex_like.position(s)
            mask ^= lowbit
        return ChainVector(n_p, mask=out)

    representatives: dict[Interval, ChainVector] = {}
    essentials: list[tuple[int, ChainVector]] = []
    for iv in barcode.in_dim(p):
        if iv.death is not None:
            rep = chain_from_positions(reduction.reduced.column_mask(iv.death))
        else:
            rep = chain_from_positions(reduction.basis_change.column_mask(iv.birth))
            essentials.append((iv.birth, rep))
        representatives[iv] = rep
    essentials.sort(key=lambda t: t[0])

    return PersistenceResult(
        filtration=filtration,
        dim=p,
        barcode=barcode,
        representatives=representatives,
        essential_cycles=tuple(c for _, c in essentials),
    )


# -- filtration constructors ----------------------------------------------


def rips_filtration(cloud: PointCloud, max_scale: float, max_dim: int = 2) -> Filtration:
    """Vietoris-Rips filtration: a simplex enters at its diameter; simplices
    with diameter above max_scale are excluded. Ties are ordered by
    (value, dimension, lexicographic vertex tuple)."""
    if max_scale < 0:
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

    complex_ = EmbeddedComplex(cloud, value.keys(), close=False)
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return Filtration(complex_, order, [value[s] for s in order], validate=False)


def lower_star_filtration(complex_like: EmbeddedComplex, vertex_values) -> Filtration:
    """Lower-star filtration of a vertex scalar field: a simplex enters at the
    maximum value over its vertices."""
    if isinstance(vertex_values, Mapping):
        lookup = dict(vertex_values)
    else:
        lookup = {v: float(vertex_values[v]) for v in complex_like.vertex_ids()}
    for v in complex_like.vertex_ids():
        if v not in lookup:
            raise ValueError(f"missing scalar value for vertex {v}")
    value = {
        s: max(lookup[v] for v in s) for s in complex_like.all_simplices()
    }
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return Filtration(complex_like, order, [value[s] for s in order], validate=False)


# -- site orderings --------------------------------------------------------


class SiteOrdering(NamedTuple):
    """Total order of a complex's simplices around one site: a simplex is
    ranked by the farthest distance from the site to its vertices, with faces
    always preceding cofaces; ties break by (dimension, lexicographic
    tuple)."""

    site: int
    complex: EmbeddedComplex
    order: tuple[Simplex, ...]
    r_values: tuple[float, ...]

    def as_filtration(self) -> Filtration:
        return Filtration(self.complex, self.order, self.r_values, validate=False)


def site_ordering(complex_like: EmbeddedComplex, site: int) -> SiteOrdering:
    dist = distances_from(complex_like.cloud.point(site), complex_like.cloud.columns)
    entries = []
    for s in complex_like.all_simplices():
        r = max(dist[v] for v in s)
        entries.append((r, len(s), s))
    entries.sort()
    return SiteOrdering(
        site=site,
        complex=complex_like,
        order=tuple(s for _, _, s in entries),
        r_values=tuple(r for r, _, _ in entries),
    )


def site_essential_cycles(
    complex_like: EmbeddedComplex, site: int, p: int
) -> tuple[tuple[ChainVector, ...], tuple[float, ...]]:
    """The essential p-cycles of site_ordering(complex_like, site), earliest
    first, as chains in the complex's canonical p-basis, with the r value each
    is born at: the same chains as compute_persistence on that ordering, from
    the p and p+1 columns alone.

    A reduction only ever mixes columns of one dimension, so each dimension is
    ranked on its own; a stable sort of the canonical (lexicographic) order by
    r is the ordering's (r, dimension, tuple) rule. The (p+1)-columns are
    reduced first, and the p-simplices their pivots name are cleared: they
    reduce to zero and are paired, so they are skipped (Chen & Kerber,
    "Persistent homology computation with a twist", 2011). The remaining
    p-columns are reduced with their basis change, which is kept in canonical
    positions; the zero ones are the essential cycles."""
    if p < 0:
        raise ValueError("dimension must be non-negative")
    n_p = complex_like.n_simplices(p)
    if n_p == 0:
        return (), ()
    dist = distances_from(complex_like.cloud.point(site), complex_like.cloud.columns)
    r = [[dist[v] for v in complex_like.vertex_ids()]]  # per dimension, canonical order
    for d in range(1, min(p + 1, complex_like.max_dim) + 1):
        # a simplex's first and last faces hold all its vertices
        below, faces = r[-1], face_columns(complex_like, d)
        r.append([below[i] if below[i] >= below[j] else below[j] for i, j in zip(faces[0], faces[-1])])

    def site_order(d: int) -> list[int]:
        return sorted(range(len(r[d])), key=r[d].__getitem__)

    def columns(d: int, positions: list[int], row_order: list[int]) -> list[int]:
        """Boundary columns of the d-simplices at these canonical positions,
        the (d-1)-simplices ranked by row_order."""
        bits = [0] * len(row_order)
        for j, bit in zip(row_order, complex_like.powers(len(row_order))):
            bits[j] = bit
        return face_masks(face_columns(complex_like, d), bits, positions)

    order_p = site_order(p)
    cleared: dict[int, int] = {}  # pivot rank -> reduced (p+1)-column
    if p < complex_like.max_dim:
        for c in columns(p + 1, site_order(p + 1), order_p):
            while c:
                low = c.bit_length() - 1
                other = cleared.get(low)
                if other is None:
                    cleared[low] = c
                    break
                c ^= other
    owners: dict[int, tuple[int, int]] = {}  # pivot rank -> (reduced column, basis change)
    cycles, radii = [], []
    survivors = [position for j, position in enumerate(order_p) if j not in cleared]
    columns_p = columns(p, survivors, site_order(p - 1)) if p else [0] * len(survivors)
    bit_at = complex_like.powers(n_p)
    for c, position in zip(columns_p, survivors):
        v = bit_at[position]
        while c:
            low = c.bit_length() - 1
            other = owners.get(low)
            if other is None:
                owners[low] = (c, v)
                break
            c ^= other[0]
            v ^= other[1]
        if not c:
            cycles.append(ChainVector(n_p, mask=v))
            radii.append(r[p][position])
    return tuple(cycles), tuple(radii)
