"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written against plain Python lists (dense
0/1 rows, or columns as integer bitmasks) and brute force, sharing no code
path with the package under test.
"""
from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple


def dense_from_columns(n_rows: int, columns: list[list[int]]) -> list[list[int]]:
    """Column support lists -> dense row-major 0/1 matrix."""
    mat = [[0] * len(columns) for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i in col:
            mat[i][j] = 1
    return mat


def gf2_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination rank of a dense 0/1 row-major matrix."""
    work = [row[:] for row in rows]
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(n_rows):
            if i != r and work[i][c]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        r += 1
        if r == n_rows:
            break
    return r


def gf2_solve(rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One solution of A x = b over GF(2), or None. Free variables are 0."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    work = [rows[i][:] + [rhs[i]] for i in range(n_rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(n_rows):
            if i != r and work[i][c]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, n_rows):
        if work[i][n_cols] and not any(work[i][:n_cols]):
            return None
    for i in range(n_rows):
        if work[i][n_cols] and not any(work[i][:n_cols]):
            return None
    x = [0] * n_cols
    for i, c in pivots:
        x[c] = work[i][n_cols]
    return x


def gf2_in_span(columns: list[list[int]], n_rows: int, target: list[int]) -> bool:
    rows = dense_from_columns(n_rows, columns)
    rhs = [0] * n_rows
    for i in target:
        rhs[i] = 1
    return gf2_solve(rows, rhs) is not None


def boundary_support(simplex: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Codimension-one faces of a vertex tuple."""
    if len(simplex) == 1:
        return []
    return [simplex[:k] + simplex[k + 1 :] for k in range(len(simplex))]


def betti_by_rank(simplices: list[tuple[int, ...]], p: int) -> int:
    """beta_p = dim ker(d_p) - rank(d_{p+1}), all ranks by dense elimination."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d])

    def rank_of_boundary(q: int) -> int:
        if q <= 0 or q not in by_dim or (q - 1) not in by_dim:
            return 0
        row_index = {s: i for i, s in enumerate(by_dim[q - 1])}
        cols = []
        for s in by_dim[q]:
            cols.append(sorted(row_index[f] for f in boundary_support(s)))
        return gf2_rank(dense_from_columns(len(by_dim[q - 1]), cols))

    n_p = len(by_dim.get(p, []))
    if n_p == 0:
        return 0
    ker_p = n_p - rank_of_boundary(p)
    return ker_p - rank_of_boundary(p + 1)


def brute_min_enclosing_radius(points: list[tuple[float, ...]]) -> tuple[float, tuple[float, ...]]:
    """Smallest enclosing sphere by trying every subset of size <= d+1 as the
    support set: candidate = smallest sphere through the subset (center in its
    affine hull), kept iff it encloses everything. Returns (radius, center)."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    best: tuple[float, tuple[float, ...]] | None = None
    for k in range(1, min(n, d + 1) + 1):
        for subset in combinations(range(n), k):
            sub = pts[list(subset)]
            base = sub[0]
            rel = sub[1:] - base
            if k == 1:
                center = base
            else:
                gram = rel @ rel.T
                rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
                try:
                    lam = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    continue
                center = base + lam @ rel
            radius = float(np.max(np.linalg.norm(pts[list(subset)] - center, axis=1)))
            if np.max(np.linalg.norm(pts - center, axis=1)) <= radius + 1e-9 * max(1.0, radius):
                if best is None or radius < best[0] - 1e-15:
                    best = (radius, tuple(float(x) for x in center))
    assert best is not None
    return best


def bounds_in_prefix(filtration, i: int, chain, p: int) -> bool:
    """Whether the chain (in the filtration complex's p-basis) is a
    (p+1)-boundary of the first i+1 simplices of the filtration, by dense
    elimination."""
    prefix = filtration.order[: i + 1]
    lower = sorted(s for s in prefix if len(s) == p + 1)
    index = {s: k for k, s in enumerate(lower)}
    cols = [sorted(index[f] for f in boundary_support(s)) for s in prefix if len(s) == p + 2]
    target = [index[s] for s in filtration.complex.chain_simplices(chain, p)]
    return gf2_in_span(cols, len(lower), target)


# -- numpy references for the package's plain-Python geometry ---------------
# These are the numpy formulations the package used before it dropped numpy;
# the differential tests hold the plain-Python code to them.


def numpy_distances(center, points) -> list[float]:
    """np.linalg.norm(points - center, axis=1)."""
    import numpy as np

    return np.linalg.norm(np.asarray(points, dtype=float) - np.asarray(center, dtype=float), axis=1).tolist()


def numpy_rips(coords, max_scale: float, max_dim: int):
    """(order, values) of the Rips filtration from the dense distance matrix
    sqrt(sum(diff * diff, axis=2)); ties by (value, dimension, tuple)."""
    import numpy as np

    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    value = {(v,): 0.0 for v in range(n)}
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] <= max_scale]
    adjacency = [set() for _ in range(n)]
    for i, j in edges:
        value[(i, j)] = float(dist[i, j])
        adjacency[i].add(j)
        adjacency[j].add(i)
    previous = edges
    for _ in range(2, max_dim + 1):
        current = []
        for s in previous:
            for w in sorted(set.intersection(*(adjacency[v] for v in s))):
                if w > s[-1]:
                    current.append(s + (w,))
                    value[s + (w,)] = max(value[s], max(float(dist[v, w]) for v in s))
        previous = current
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return order, [value[s] for s in order]


def numpy_site_essential_cycles(complex_, site: int, p: int):
    """The per-site kernel with numpy ranking: each dimension's r from a
    vertex table, a stable argsort over canonical order, and face masks from
    the ranked face table. Returns (cycle masks, radii)."""
    import numpy as np

    coords = np.asarray(complex_.cloud.coords, dtype=float)
    dist = np.linalg.norm(coords - coords[site], axis=1)

    def tables(d):
        group = complex_.simplices(d)
        vertices = np.array(group, dtype=np.intp).reshape(len(group), d + 1)
        faces = np.array([[complex_.position(f) for f in boundary_support(s)] for s in group],
                         dtype=np.intp).reshape(len(group), d + 1 if d else 0)
        return vertices, faces

    def ranked(d):
        r = dist[tables(d)[0]].max(axis=1)
        order = np.argsort(r, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return r, order, rank

    def columns(d, order, row_rank):
        rows = row_rank[tables(d)[1][order]]
        return np.bitwise_or.reduce(np.left_shift(1, rows.astype(object)), axis=1).tolist()

    n_p = complex_.n_simplices(p)
    if n_p == 0:
        return [], []
    r_p, order_p, rank_p = ranked(p)
    cleared = {}
    if p < complex_.max_dim:
        for c in columns(p + 1, ranked(p + 1)[1], rank_p):
            while c:
                low = c.bit_length() - 1
                if low not in cleared:
                    cleared[low] = c
                    break
                c ^= cleared[low]
    owners = {}
    cycles, radii = [], []
    columns_p = columns(p, order_p, ranked(p - 1)[2]) if p else [0] * n_p
    for j, (c, position) in enumerate(zip(columns_p, order_p.tolist())):
        if j in cleared:
            continue
        v = 1 << position
        while c:
            low = c.bit_length() - 1
            if low not in owners:
                owners[low] = (c, v)
                break
            c ^= owners[low][0]
            v ^= owners[low][1]
        if not c:
            cycles.append(v)
            radii.append(float(r_p[position]))
    return cycles, radii


def lstsq_min_enclosing_sphere(points) -> tuple[tuple[float, ...], float]:
    """Welzl's loop with each boundary set's circumsphere from
    np.linalg.lstsq on its Gram system: (center, radius)."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    n, d = pts.shape

    def covers(center, radius, i):
        return float(np.linalg.norm(pts[i] - center)) <= radius + 1e-9 * max(1.0, abs(radius))

    def circumsphere(ids):
        base = pts[ids[0]]
        if len(ids) == 1:
            return base.copy(), 0.0
        u = pts[ids[1:]] - base
        solution, _, rank, _ = np.linalg.lstsq(2.0 * (u @ u.T), np.sum(u * u, axis=1), rcond=None)
        if rank < len(ids) - 1:
            return None
        center = base + solution @ u
        return center, float(np.max(np.linalg.norm(pts[ids] - center, axis=1)))

    def of_boundary(boundary):
        if not boundary:
            return None
        direct = circumsphere(boundary)
        if direct is not None:
            return direct
        best = None
        for k in range(1, len(boundary) + 1):
            for subset in combinations(boundary, k):
                sphere = circumsphere(list(subset))
                if sphere is not None and all(covers(*sphere, i) for i in boundary):
                    if best is None or sphere[1] < best[1]:
                        best = sphere
        return best

    def solve(i, boundary):
        sphere = of_boundary(boundary)
        if len(boundary) == d + 1:
            return sphere
        for k in range(n - 1, i - 1, -1):
            if sphere is None or not covers(*sphere, k):
                sphere = solve(k + 1, boundary + [k])
        return sphere

    center, radius = solve(0, [])
    return tuple(float(x) for x in center), radius


# -- the square-matrix persistence reference --------------------------------
# The package reduces one dimension at a time with clearing; these reduce the
# one square boundary matrix over all simplices, with a full basis change.
# Matrices are lists of column masks (bit i set: row i is nonzero).


def mask_support(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def matmul(a: list[int], b: list[int]) -> list[int]:
    """a @ b over Z2: column j of the product sums the columns of a that
    column j of b names."""
    out = []
    for mask in b:
        acc = 0
        for i in mask_support(mask):
            acc ^= a[i]
        out.append(acc)
    return out


class ReductionResult(NamedTuple):
    """Outcome of the left-to-right column reduction.

    ``reduced`` is the reduced matrix, ``basis_change`` the unitriangular V
    with reduced = matrix @ V. ``pairs`` lists (low row, column) for every
    nonzero reduced column. ``unpaired`` lists the zero columns whose index is
    not the low row of any pair; when the input is the square boundary matrix
    of a filtration these are exactly the essential columns.
    """

    reduced: list[int]
    basis_change: list[int]
    pairs: tuple[tuple[int, int], ...]
    unpaired: tuple[int, ...]


def standard_reduction(columns: list[int]) -> ReductionResult:
    """Reduce columns left to right; whenever a column shares its low row with
    an earlier one, add the earlier column into it (and track the same
    operation in V)."""
    cols = list(columns)
    basis = [1 << j for j in range(len(cols))]
    owner: dict[int, int] = {}
    pairs = []
    for j in range(len(cols)):
        while cols[j] and cols[j].bit_length() - 1 in owner:
            j0 = owner[cols[j].bit_length() - 1]
            cols[j] ^= cols[j0]
            basis[j] ^= basis[j0]
        if cols[j]:
            owner[cols[j].bit_length() - 1] = j
            pairs.append((cols[j].bit_length() - 1, j))
    low_rows = {r for r, _ in pairs}
    unpaired = tuple(j for j in range(len(cols)) if not cols[j] and j not in low_rows)
    return ReductionResult(cols, basis, tuple(pairs), unpaired)


def solve_by_reduction(n_rows: int, columns: list[int], rhs: int) -> list[int] | None:
    """Indices of columns whose Z2 sum is rhs, read off the basis change of
    the reduced [columns | rhs] with the appended index dropped, or None when
    the appended column does not reduce to zero."""
    if rhs >> n_rows:
        raise ValueError("rhs exceeds the row count")
    result = standard_reduction(list(columns) + [rhs])
    last = len(columns)
    if result.reduced[last]:
        return None
    support = mask_support(result.basis_change[last])
    assert support[-1] == last  # V is unitriangular
    return support[:-1]


def in_span(n_rows: int, columns: list[int], vector: int) -> bool:
    return solve_by_reduction(n_rows, columns, vector) is not None


def rank(columns: list[int]) -> int:
    return len(standard_reduction(columns).pairs)


def square_boundary_matrix(filtration) -> list[int]:
    """The boundary matrix over all simplices in filtration order."""
    index = {s: i for i, s in enumerate(filtration.order)}
    return [sum(1 << index[f] for f in boundary_support(s)) for s in filtration.order]


def square_persistence(filtration, p: int):
    """Persistence of the filtration by the square reduction:
    (intervals as sorted (dim, birth, death) index triples, death None when
    essential; the essential p-cycles in birth order, each the basis-change
    column at its birth as a mask in the complex's canonical p-positions)."""
    order = filtration.order
    result = standard_reduction(square_boundary_matrix(filtration))
    triples = sorted([(len(order[i]) - 1, i, j) for i, j in result.pairs]
                     + [(len(order[j]) - 1, j, None) for j in result.unpaired],
                     key=lambda t: t[:2])

    def canonical(mask: int) -> int:
        return sum(1 << filtration.complex.position(order[i]) for i in mask_support(mask))

    essential = [canonical(result.basis_change[i]) for d, i, j in triples if d == p and j is None]
    return triples, essential


class SiteOrdering(NamedTuple):
    """Total order of a complex's simplices around one site: a simplex is
    ranked by the farthest distance from the site to its vertices, with faces
    always preceding cofaces; ties break by (dimension, lexicographic
    tuple)."""

    site: int
    complex: object
    order: tuple
    r_values: tuple

    def as_filtration(self):
        from cyclerad.filtrations import Filtration

        return Filtration(self.complex, self.order, self.r_values)


def site_distances(cloud, site: int) -> list[float]:
    """Distance from the site to every point: squared differences summed left
    to right, then sqrt, the float operations the package's ranking uses."""
    center = cloud.point(site)
    out = []
    for point in cloud.coords:
        acc = 0.0
        for x, c in zip(point, center):
            acc += (x - c) * (x - c)
        out.append(math.sqrt(acc))
    return out


def site_ordering(complex_, site: int) -> SiteOrdering:
    dist = site_distances(complex_.cloud, site)
    entries = sorted((max(dist[v] for v in s), len(s), s) for s in complex_.all_simplices())
    return SiteOrdering(
        site=site,
        complex=complex_,
        order=tuple(s for _, _, s in entries),
        r_values=tuple(r for r, _, _ in entries),
    )
