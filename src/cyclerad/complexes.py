"""Embedded simplicial complexes over Z2.

Simplices are strictly increasing tuples of vertex indices into a point
cloud. Within each dimension the simplices are kept sorted lexicographically;
(dimension, lexicographic tuple) is the canonical order used for every matrix
row/column in the package, so moving chains between a complex and a
subcomplex is a pure re-indexing.

Complexes are immutable once built; restricted views (``SubcomplexView``)
overlay membership flags on a parent complex instead of copying it.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .z2 import ChainVector, Z2Matrix

# relative tolerance for sphere membership tests
MEMBERSHIP_REL_TOL = 1e-9


def within_radius(distance: float, radius: float) -> bool:
    return distance <= radius + MEMBERSHIP_REL_TOL * max(1.0, abs(radius))


class PointCloud:
    """Finite set of distinct points in R^d, d >= 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] < 1:
            raise ValueError("point cloud must be a nonempty (n, d) array with d >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("point coordinates must be finite")
        seen = {}
        for i, row in enumerate(arr):
            key = tuple(row.tolist())
            if key in seen:
                raise ValueError(f"duplicate point at indices {seen[key]} and {i}")
            seen[key] = i
        self.coords = arr
        self.coords.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.coords[i]

    def distance(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self.coords[i] - self.coords[j]))


Simplex = tuple[int, ...]


def faces_of(simplex: Simplex) -> list[Simplex]:
    """Codimension-one faces, in lexicographic order of the dropped position."""
    if len(simplex) == 1:
        return []
    return [simplex[:k] + simplex[k + 1 :] for k in range(len(simplex))]


def _is_cycle(complex_like, chain: ChainVector, p: int) -> bool:
    """Whether the chain's boundary vanishes, summed over its own support
    rather than through the full boundary matrix."""
    if p == 0 or chain.is_zero():
        return True
    if chain.ambient_size != complex_like.n_simplices(p):
        raise ValueError("chain does not live in the complex's p-basis")
    mask = 0
    for s in complex_like.chain_simplices(chain, p):
        for f in faces_of(s):
            mask ^= 1 << complex_like.position(f)
    return mask == 0


def simplex_tables(complex_like, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (vertex ids, face positions) of the d-simplices in canonical
    order, built once per complex and dimension. Row i of the face table holds
    the canonical (d-1)-positions of faces_of(simplex i), so per-site work only
    re-ranks these arrays."""
    cached = complex_like._tables.get(d)
    if cached is None:
        group = complex_like.simplices(d)
        vertices = np.array(group, dtype=np.intp).reshape(len(group), d + 1)
        faces = np.array(
            [[complex_like.position(f) for f in faces_of(s)] for s in group], dtype=np.intp
        ).reshape(len(group), d + 1 if d else 0)
        vertices.setflags(write=False)
        faces.setflags(write=False)
        cached = complex_like._tables[d] = (vertices, faces)
    return cached


def _boundary_matrix(complex_like, p: int) -> Z2Matrix:
    """Boundary operator from p-chains to (p-1)-chains in canonical order."""
    if p < 1 or p > complex_like.max_dim:
        raise ValueError(f"boundary matrix needs 1 <= p <= {complex_like.max_dim}, got {p}")
    _, faces = simplex_tables(complex_like, p)
    return Z2Matrix(complex_like.n_simplices(p - 1), face_masks(faces))


def face_masks(rows: np.ndarray) -> list[int]:
    """One bitmask column per row of an (n, k) index array, k >= 1."""
    return np.bitwise_or.reduce(np.left_shift(1, rows.astype(object)), axis=1).tolist()


def _describe(complex_like) -> str:
    """Point count, simplex count per dimension, and the maximal simplices
    (the first 12 of them), which generate the complex."""
    groups = [complex_like.simplices(d) for d in range(complex_like.max_dim + 1)]
    top = []
    for d, group in enumerate(groups):
        covered = set() if d == len(groups) - 1 else {f for s in groups[d + 1] for f in faces_of(s)}
        top += [s for s in group if s not in covered]
    shown = ", ".join(map(str, top[:12])) + (", ..." if len(top) > 12 else "")
    counts = [len(g) for g in groups]
    return f"points={complex_like.cloud.n_points}, simplices={counts}, top=[{shown}]"


def _normalize_simplex(simplex: Iterable[int]) -> Simplex:
    s = tuple(int(v) for v in simplex)
    if len(set(s)) != len(s):
        raise ValueError(f"simplex {s} has repeated vertices")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        s = tuple(sorted(s))
    return s


class EmbeddedComplex:
    """A finite simplicial complex whose vertices index into a point cloud."""

    __slots__ = ("cloud", "_by_dim", "_positions", "_tables")

    def __init__(self, cloud: PointCloud, simplices: Iterable[Iterable[int]], close: bool = True):
        self.cloud = cloud
        collected: set[Simplex] = set()
        for raw in simplices:
            s = _normalize_simplex(raw)
            if not s:
                raise ValueError("empty simplex")
            if s[-1] >= cloud.n_points or s[0] < 0:
                raise ValueError(f"simplex {s} references a vertex outside the cloud")
            if close:
                stack = [s]
                while stack:
                    t = stack.pop()
                    if t in collected:
                        continue
                    collected.add(t)
                    stack.extend(faces_of(t))
            else:
                collected.add(s)
        if not close:
            for s in collected:
                for f in faces_of(s):
                    if f not in collected:
                        raise ValueError(f"complex is not closed under faces: {s} misses {f}")
        max_dim = max((len(s) - 1 for s in collected), default=-1)
        self._by_dim: list[tuple[Simplex, ...]] = [
            tuple(sorted(s for s in collected if len(s) - 1 == d))
            for d in range(max_dim + 1)
        ]
        self._positions: dict[Simplex, tuple[int, int]] = {}
        for d, group in enumerate(self._by_dim):
            for i, s in enumerate(group):
                self._positions[s] = (d, i)
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __repr__(self) -> str:
        return f"EmbeddedComplex({_describe(self)})"

    # -- structure queries -------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self._by_dim) - 1

    def n_simplices(self, p: int) -> int:
        if p < 0 or p > self.max_dim:
            return 0
        return len(self._by_dim[p])

    def simplices(self, p: int) -> tuple[Simplex, ...]:
        if p < 0 or p > self.max_dim:
            return ()
        return self._by_dim[p]

    def all_simplices(self):
        for group in self._by_dim:
            yield from group

    def total_simplices(self) -> int:
        return sum(len(g) for g in self._by_dim)

    def has(self, simplex: Iterable[int]) -> bool:
        return tuple(simplex) in self._positions

    def position(self, simplex: Iterable[int]) -> int:
        """Canonical index of the simplex within its own dimension."""
        s = tuple(simplex)
        if s not in self._positions:
            raise KeyError(f"simplex {s} not in complex")
        return self._positions[s][1]

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices(0))

    def vertex_point(self, v: int) -> np.ndarray:
        return self.cloud.point(v)

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

    def boundary_matrix(self, p: int) -> Z2Matrix:
        return _boundary_matrix(self, p)

    def is_cycle(self, chain: ChainVector, p: int) -> bool:
        return _is_cycle(self, chain, p)


class SubcomplexView:
    """A face-closed subset of a parent complex, stored as membership flags."""

    __slots__ = ("parent", "_member", "_local", "_parent_index", "_tables")

    def __init__(self, parent: EmbeddedComplex, members: Iterable[Iterable[int]], validate: bool = True):
        self.parent = parent
        chosen: set[Simplex] = set()
        for raw in members:
            s = tuple(raw)
            if not parent.has(s):
                raise ValueError(f"simplex {s} is not in the parent complex")
            chosen.add(s)
        if validate:
            for s in chosen:
                for f in faces_of(s):
                    if f not in chosen:
                        raise ValueError(f"view is not closed under faces: {s} misses {f}")
        self._member = chosen
        # local canonical order per dimension = subsequence of the parent's
        self._local: list[tuple[Simplex, ...]] = [
            tuple(s for s in parent.simplices(d) if s in chosen)
            for d in range(parent.max_dim + 1)
        ]
        self._parent_index: dict[Simplex, int] = {}
        for d, group in enumerate(self._local):
            for i, s in enumerate(group):
                self._parent_index[s] = i
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __repr__(self) -> str:
        return f"SubcomplexView({_describe(self)})"

    @property
    def cloud(self) -> PointCloud:
        return self.parent.cloud

    @property
    def max_dim(self) -> int:
        for d in range(len(self._local) - 1, -1, -1):
            if self._local[d]:
                return d
        return -1

    def n_simplices(self, p: int) -> int:
        if p < 0 or p >= len(self._local):
            return 0
        return len(self._local[p])

    def simplices(self, p: int) -> tuple[Simplex, ...]:
        if p < 0 or p >= len(self._local):
            return ()
        return self._local[p]

    def all_simplices(self):
        for group in self._local:
            yield from group

    def total_simplices(self) -> int:
        return len(self._member)

    def has(self, simplex: Iterable[int]) -> bool:
        return tuple(simplex) in self._member

    def position(self, simplex: Iterable[int]) -> int:
        s = tuple(simplex)
        if s not in self._parent_index:
            raise KeyError(f"simplex {s} not in view")
        return self._parent_index[s]

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices(0))

    def vertex_point(self, v: int) -> np.ndarray:
        return self.parent.cloud.point(v)

    def boundary_matrix(self, p: int) -> Z2Matrix:
        return _boundary_matrix(self, p)

    def is_cycle(self, chain: ChainVector, p: int) -> bool:
        return _is_cycle(self, chain, p)

    def chain(self, simplices: Iterable[Iterable[int]], p: Optional[int] = None) -> ChainVector:
        indices = []
        for raw in simplices:
            s = tuple(raw)
            if s not in self._member:
                raise KeyError(f"simplex {s} not in view")
            d = len(s) - 1
            if p is None:
                p = d
            elif d != p:
                raise ValueError("chain mixes dimensions")
            indices.append(self._parent_index[s])
        if p is None:
            raise ValueError("cannot infer dimension of an empty chain")
        return ChainVector(self.n_simplices(p), sorted(set(indices)))

    def chain_simplices(self, chain: ChainVector, p: int) -> list[Simplex]:
        group = self.simplices(p)
        return [group[i] for i in chain.support]

    # -- moving chains between the view's basis and the parent's -----------

    def extend(self, chain: ChainVector, p: int) -> ChainVector:
        """Re-index a p-chain of the view into the parent's canonical basis."""
        if chain.ambient_size != self.n_simplices(p):
            raise ValueError("chain does not live in the view's p-basis")
        group = self.simplices(p)
        mask = 0
        for i in chain.support:
            mask |= 1 << self.parent.position(group[i])
        return ChainVector(self.parent.n_simplices(p), mask=mask)

    def contract(self, chain: ChainVector, p: int) -> ChainVector:
        """Re-index a parent p-chain into the view; errors if any support
        simplex is missing from the view."""
        if chain.ambient_size != self.parent.n_simplices(p):
            raise ValueError("chain does not live in the parent's p-basis")
        parent_group = self.parent.simplices(p)
        mask = 0
        for i in chain.support:
            s = parent_group[i]
            if s not in self._member:
                raise ValueError(f"chain support {s} lies outside the view")
            mask |= 1 << self._parent_index[s]
        return ChainVector(self.n_simplices(p), mask=mask)


ComplexLike = Union[EmbeddedComplex, SubcomplexView]


def induced_subcomplex(parent: EmbeddedComplex, vertices: Iterable[int]) -> SubcomplexView:
    """Subcomplex of all simplices whose vertices lie in the given set."""
    allowed = set(int(v) for v in vertices)
    members = [s for s in parent.all_simplices() if all(v in allowed for v in s)]
    return SubcomplexView(parent, members, validate=False)


def ball_induced_subcomplex(parent: EmbeddedComplex, center, radius: float) -> SubcomplexView:
    """Subcomplex induced by the vertices inside the closed ball, with a
    relative membership tolerance so on-sphere vertices are kept."""
    c = np.asarray(center, dtype=float)
    inside = [
        v
        for v in parent.vertex_ids()
        if within_radius(float(np.linalg.norm(parent.cloud.point(v) - c)), radius)
    ]
    return induced_subcomplex(parent, inside)


def boundary_columns(complex_like: ComplexLike, p: int) -> Z2Matrix:
    """Boundaries of the (p+1)-simplices as columns over the p-basis; the
    empty matrix when there are no (p+1)-simplices."""
    if p + 1 <= complex_like.max_dim:
        return complex_like.boundary_matrix(p + 1)
    return Z2Matrix(complex_like.n_simplices(p), [])
