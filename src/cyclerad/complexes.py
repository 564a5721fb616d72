"""Embedded simplicial complexes over Z2.

Simplices are strictly increasing tuples of vertex indices into a point
cloud. Within each dimension the simplices are kept sorted lexicographically;
(dimension, lexicographic tuple) is the canonical order used for every matrix
row/column in the package, so moving chains between a complex and a
subcomplex is a pure re-indexing.

Complexes are immutable once built. A view (``SubcomplexView``) is a
complex cut from a parent: its canonical order is the parent's, restricted to
its members, so it answers every query as a complex built from those members
would, and ``extend``/``contract`` move chains to and from the parent.
"""
from __future__ import annotations

from typing import Iterable, Optional

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


def face_masks(rows: np.ndarray) -> list[int]:
    """One bitmask column per row of an (n, k) index array, k >= 1."""
    return np.bitwise_or.reduce(np.left_shift(1, rows.astype(object)), axis=1).tolist()


def _normalize_simplex(simplex: Iterable[int]) -> Simplex:
    s = tuple(int(v) for v in simplex)
    if len(set(s)) != len(s):
        raise ValueError(f"simplex {s} has repeated vertices")
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        s = tuple(sorted(s))
    return s


class EmbeddedComplex:
    """A finite simplicial complex whose vertices index into a point cloud.
    A root complex has ``parent`` None; a ``SubcomplexView`` names the
    complex it was cut from."""

    __slots__ = ("cloud", "parent", "_by_dim", "_positions", "_tables")

    def __init__(self, cloud: PointCloud, simplices: Iterable[Iterable[int]], close: bool = True):
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
        self.parent = None
        self._index(cloud, [
            tuple(sorted(s for s in collected if len(s) - 1 == d)) for d in range(max_dim + 1)
        ])

    def _index(self, cloud: PointCloud, by_dim: list[tuple[Simplex, ...]]) -> None:
        """Adopt the simplices in canonical order, one tuple per dimension
        with no trailing empty ones."""
        self.cloud = cloud
        self._by_dim = by_dim
        self._positions: dict[Simplex, tuple[int, int]] = {
            s: (d, i) for d, group in enumerate(by_dim) for i, s in enumerate(group)
        }
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
            covered = {f for s in self.simplices(d + 1) for f in faces_of(s)}
            top += [s for s in group if s not in covered]
        return top

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
        """Boundary operator from p-chains to (p-1)-chains in canonical order."""
        if p < 1 or p > self.max_dim:
            raise ValueError(f"boundary matrix needs 1 <= p <= {self.max_dim}, got {p}")
        _, faces = simplex_tables(self, p)
        return Z2Matrix(self.n_simplices(p - 1), face_masks(faces))

    def is_cycle(self, chain: ChainVector, p: int) -> bool:
        """Whether the chain's boundary vanishes, summed over its own support
        rather than through the full boundary matrix."""
        if p == 0 or chain.is_zero():
            return True
        if chain.ambient_size != self.n_simplices(p):
            raise ValueError("chain does not live in the complex's p-basis")
        mask = 0
        for s in self.chain_simplices(chain, p):
            for f in faces_of(s):
                mask ^= 1 << self.position(f)
        return mask == 0


class SubcomplexView(EmbeddedComplex):
    """A face-closed subset of a parent complex. Its canonical order is the
    parent's restricted to the members, so chains move between the two by
    re-indexing alone."""

    __slots__ = ()

    def __init__(self, parent: EmbeddedComplex, members: Iterable[Iterable[int]], validate: bool = True):
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
        n_dims = max((len(s) for s in chosen), default=0)
        self.parent = parent
        self._index(parent.cloud, [
            tuple(s for s in parent.simplices(d) if s in chosen) for d in range(n_dims)
        ])

    def extend(self, chain: ChainVector, p: int) -> ChainVector:
        """Re-index a p-chain of the view into the parent's canonical basis."""
        if chain.ambient_size != self.n_simplices(p):
            raise ValueError("chain does not live in the view's p-basis")
        mask = 0
        for s in self.chain_simplices(chain, p):
            mask |= 1 << self.parent.position(s)
        return ChainVector(self.parent.n_simplices(p), mask=mask)

    def contract(self, chain: ChainVector, p: int) -> ChainVector:
        """Re-index a parent p-chain into the view; errors if any support
        simplex is missing from the view."""
        if chain.ambient_size != self.parent.n_simplices(p):
            raise ValueError("chain does not live in the parent's p-basis")
        mask = 0
        for s in self.parent.chain_simplices(chain, p):
            if s not in self._positions:
                raise ValueError(f"chain support {s} lies outside the view")
            mask |= 1 << self._positions[s][1]
        return ChainVector(self.n_simplices(p), mask=mask)


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


def boundary_columns(complex_like: EmbeddedComplex, p: int) -> Z2Matrix:
    """Boundaries of the (p+1)-simplices as columns over the p-basis; the
    empty matrix when there are no (p+1)-simplices."""
    if p + 1 <= complex_like.max_dim:
        return complex_like.boundary_matrix(p + 1)
    return Z2Matrix(complex_like.n_simplices(p), [])
