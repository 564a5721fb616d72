import math
import os
import random
import sys
from collections import Counter
from itertools import combinations, permutations

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
from hypothesis import strategies as st

from cyclerad.complexes import EmbeddedComplex, PointCloud, distances_from
from cyclerad.filtrations import Filtration

# the vertices of the octahedron, +-e1, +-e2, +-e3: at Rips scale 2.5 its one
# positive-length 2-bar is [sqrt(2), 2), the hollow octahedron until its
# antipodal edges fill it
OCTAHEDRON = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
              (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))


def site_row(complex_like, site):
    """The site's distance to each point of the complex's cloud: the row the
    site kernel ranks by, as the site search computes it."""
    return distances_from(complex_like.cloud.point(site), complex_like.cloud.columns)


def holed_mesh(k, holes, seed):
    """A k x k grid of jittered unit cells, two triangles each, with the
    cells in holes left open, and the grid's outer loop as edges."""
    rng = random.Random(seed)
    coords = [(i + rng.uniform(-0.25, 0.25), j + rng.uniform(-0.25, 0.25)) for j in range(k) for i in range(k)]
    triangles = []
    for j in range(k - 1):
        for i in range(k - 1):
            if (i, j) not in holes:
                a = j * k + i
                triangles += [(a, a + 1, a + k + 1), (a, a + k, a + k + 1)]
    ring = [*range(k), *range(2 * k - 1, k * k, k), *range(k * k - 2, k * k - k - 1, -1), *range(k * k - 2 * k, 0, -k)]
    return coords, triangles, [tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])]


def _segment_distance(p, a, b):
    """Distance from p to the segment ab."""
    u, w = (b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])
    t = max(0.0, min(1.0, (u[0] * w[0] + u[1] * w[1]) / (u[0] * u[0] + u[1] * u[1])))
    return math.dist(p, (a[0] + t * u[0], a[1] + t * u[1]))


def _triangle_meets_disk(corners, centre, radius):
    """Whether a triangle, given by its corners, meets a closed disk: the
    centre lies inside it, or an edge comes within the radius."""
    sides = [(b[0] - a[0]) * (centre[1] - a[1]) - (b[1] - a[1]) * (centre[0] - a[0])
             for a, b in zip(corners, corners[1:] + corners[:1])]
    if all(x >= 0 for x in sides) or all(x <= 0 for x in sides):
        return True
    return any(_segment_distance(centre, a, b) <= radius for a, b in zip(corners, corners[1:] + corners[:1]))


def disk_holed_mesh(k, disks, seed):
    """holed_mesh's k x k jittered grid with no cell left open, less every
    triangle that meets one of the disks, each given as (centre, radius).
    Returns the points, the triangles kept, and per disk the boundary of the
    triangles it removed as sorted edges: a loop around that hole. The disks
    must lie inside the grid, far enough apart that no kept triangle lies
    between two of them."""
    coords, triangles, _ = holed_mesh(k, set(), seed)
    removed = [[t for t in triangles if _triangle_meets_disk([coords[v] for v in t], c, r)] for c, r in disks]
    gone = {t for ts in removed for t in ts}
    loops = [sorted(e for e, n in Counter(e for t in ts for e in combinations(t, 2)).items() if n % 2) for ts in removed]
    return coords, [t for t in triangles if t not in gone], loops


def _simplex_distance(point, corners):
    """Distance from a point to the convex hull of affinely independent
    corners: the least distance to a face's affine hull, over the faces
    whose hull the point projects into."""
    point, best = np.asarray(point, dtype=float), math.inf
    for k in range(1, len(corners) + 1):
        for face in combinations(np.asarray(corners, dtype=float), k):
            edges = np.array(face[1:]).reshape(k - 1, len(point)) - face[0]
            x = np.linalg.lstsq(edges.T, point - face[0], rcond=None)[0] if k > 1 else np.zeros(0)
            if (x >= 0).all() and x.sum() <= 1:
                best = min(best, float(np.linalg.norm(point - face[0] - x @ edges)))
    return best


def cavity_mesh(k, centre, radius, seed):
    """A k x k x k grid of jittered unit cubes, each split into six
    tetrahedra along its main diagonal (the Freudenthal triangulation), less
    every tetrahedron that meets the closed ball (centre, radius). Returns
    the points, the tetrahedra kept, and the cavity surface: the triangles
    on one kept and one removed tetrahedron. The ball must lie far enough
    inside the grid that no removed tetrahedron touches its boundary."""
    rng = random.Random(seed)
    coords = [(i + rng.uniform(-0.15, 0.15), j + rng.uniform(-0.15, 0.15), h + rng.uniform(-0.15, 0.15))
              for h in range(k) for j in range(k) for i in range(k)]
    steps = (1, k, k * k)  # the index offsets of the three axes
    tetrahedra = []
    for h in range(k - 1):
        for j in range(k - 1):
            for i in range(k - 1):
                a = h * k * k + j * k + i
                for x, y, _ in permutations(steps):
                    tetrahedra.append(tuple(sorted((a, a + x, a + x + y, a + sum(steps)))))

    def meets_ball(t):
        corners = [coords[v] for v in t]
        mid = [sum(c) / 4 for c in zip(*corners)]
        # no point of the tetrahedron is farther from its centroid than a corner
        if math.dist(mid, centre) > radius + max(math.dist(mid, c) for c in corners):
            return False
        return _simplex_distance(centre, corners) <= radius

    removed = list(filter(meets_ball, tetrahedra))
    gone = set(removed)
    surface = sorted(f for f, n in Counter(f for t in removed for f in combinations(t, 3)).items() if n % 2)
    return coords, [t for t in tetrahedra if t not in gone], surface


def annulus_points(n, seed):
    """n points in the annulus 0.8 <= r <= 1.2, point k at a uniform angle
    in the k-th of n equal sectors and a uniform radius."""
    rng = random.Random(seed)
    points = []
    for k in range(n):
        r, t = rng.uniform(0.8, 1.2), 2.0 * math.pi * (k + rng.random()) / n
        points.append((r * math.cos(t), r * math.sin(t)))
    return points


@st.composite
def point_clouds(draw, min_points=3, max_points=10, dim=2):
    n = draw(st.integers(min_points, max_points))
    # distinct jittered grid points keep geometry non-degenerate enough
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    jitter = draw(
        st.lists(
            st.tuples(
                st.floats(-0.2, 0.2, allow_nan=False),
                st.floats(-0.2, 0.2, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    coords = [
        tuple(float(c) + e for c, e in zip(cell, eps))[:dim]
        for cell, eps in zip(cells, jitter)
    ]
    return PointCloud(coords)


def scaled_rows(rows, exponent):
    """Every coordinate multiplied by 2^exponent, exactly unless it leaves
    the normal floats."""
    return [[math.ldexp(x, exponent) for x in row] for row in rows]


def accepted_by_point_cloud(rows):
    try:
        PointCloud(rows)
    except ValueError:
        return False
    return True


@st.composite
def coordinate_rows(draw, min_dim=1, max_dim=12, min_points=2, max_points=9, cloud=False):
    """Distinct points in R^d for a drawn d, as tuples: uniform floats of
    mixed magnitude, or half-integers, which make exact distance ties. With
    cloud, only rows a PointCloud accepts: not points so close together that
    every squared distance underflows."""
    d = draw(st.integers(min_dim, max_dim))
    if draw(st.booleans()):
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    else:
        coord = st.integers(-8, 8).map(lambda k: k / 2)
    rows = st.lists(st.tuples(*[coord] * d), min_size=min_points, max_size=max_points, unique=True)
    return draw(rows.filter(accepted_by_point_cloud) if cloud else rows)


@st.composite
def embedded_complexes(draw, min_points=3, max_points=8, max_dim=2, max_top_cells=10):
    cloud = draw(point_clouds(min_points=min_points, max_points=max_points))
    n = cloud.n_points
    top = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=max_dim + 1),
            min_size=1,
            max_size=max_top_cells,
        )
    )
    # every vertex participates so sites cover the cloud
    simplices = [tuple(sorted(s)) for s in top] + [(v,) for v in range(n)]
    return EmbeddedComplex(cloud, simplices)


@st.composite
def loopy_complexes(draw, min_points=6, max_points=14):
    """A random graph on short edges of a point cloud, with some of the
    triangles it spans filled in: several holes of different sizes, so a
    minimum basis has more than one cycle to choose."""
    cloud = draw(point_clouds(min_points=min_points, max_points=max_points))
    n = cloud.n_points
    coords = cloud.coords
    near = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if math.dist(coords[a], coords[b]) <= 2.5
    ]
    mostly = st.sampled_from([True, True, True, False])
    keep = draw(st.lists(mostly, min_size=len(near), max_size=len(near)))
    edges = {e for e, k in zip(near, keep) if k}
    spanned = [
        (a, b, c)
        for a, b in sorted(edges)
        for c in range(b + 1, n)
        if (a, c) in edges and (b, c) in edges
    ]
    rarely = st.sampled_from([False, False, True])
    fill = draw(st.lists(rarely, min_size=len(spanned), max_size=len(spanned)))
    triangles = [t for t, f in zip(spanned, fill) if f]
    return EmbeddedComplex(cloud, sorted(edges) + triangles + [(v,) for v in range(n)])


@st.composite
def four_hole_meshes(draw, min_k=8, max_k=12):
    """A holed_mesh of k x k vertices with four single-cell holes placed as
    the benchmark's basis meshes place them, k and the jitter seed drawn.
    The first hole may be coned off from an apex at a drawn half-integer
    point: from a site nearer the hole than the apex, its loop is born
    before the simplices that kill it."""
    k = draw(st.integers(min_k, max_k))
    a, b = k // 4 - 1, k - k // 4 - 2
    coords, triangles, _ = holed_mesh(k, {(a, a), (a, b), (b, a), (b, b)}, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        apex, corner = len(coords), a * k + a
        coords.append(tuple(x + 0.5 for x in draw(st.tuples(*[st.integers(-k, 2 * k)] * 2))))
        loop = [corner, corner + 1, corner + k + 1, corner + k]
        triangles += [(u, w, apex) for u, w in zip(loop, loop[1:] + loop[:1])]
    return EmbeddedComplex(PointCloud(coords), triangles)


@st.composite
def hollow_octahedra(draw):
    """One to three jittered octahedron surfaces of drawn sizes, 5 apart,
    some coned off from an apex at their centre or 2.5 above it: 2-cycles
    of different sizes, some born before the simplices that kill them."""
    places = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3, unique=True))
    jitter = st.floats(-0.1, 0.1, allow_nan=False)
    coords, cells = [], []
    for place in places:
        size, base = draw(st.floats(0.5, 2.0)), len(coords)
        for axis in range(3):
            for sign in (1.0, -1.0):
                coords.append(tuple(5.0 * c + (sign * size if a == axis else 0.0) + draw(jitter) for a, c in enumerate(place)))
        surface = [(base + i, base + 2 + j, base + 4 + k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        height = draw(st.sampled_from((None, 0.0, 2.5)))
        if height is not None:
            coords.append((5.0 * place[0], 5.0 * place[1], 5.0 * place[2] + height))
            surface = [t + (len(coords) - 1,) for t in surface]
        cells += surface
    return EmbeddedComplex(PointCloud(coords), cells)


@st.composite
def filtered_complexes(draw, min_points=3, max_points=8, max_dim=2, max_top_cells=10):
    """A random complex together with a random valid simplexwise filtration."""
    complex_ = draw(
        embedded_complexes(
            min_points=min_points,
            max_points=max_points,
            max_dim=max_dim,
            max_top_cells=max_top_cells,
        )
    )
    raw = {}
    for s in complex_.all_simplices():
        raw[s] = draw(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
    # push values up the face poset so every coface appears no earlier
    value = {}
    for s in sorted(raw, key=lambda t: (len(t), t)):
        value[s] = raw[s]
        for k in range(len(s)):
            f = s[:k] + s[k + 1 :]
            if f:
                value[s] = max(value[s], value.get(f, 0.0))
    order = sorted(value, key=lambda t: (value[t], len(t), t))
    return Filtration(complex_, order, [value[s] for s in order])


@st.composite
def prefix_filtrations(draw):
    """The first simplices of a drawn filtration, as a filtration of the
    complex they form on their own."""
    filtration = draw(filtered_complexes())
    i = draw(st.integers(0, len(filtration) - 1))
    order = filtration.order[: i + 1]
    prefix = EmbeddedComplex(filtration.complex.cloud, order)
    return Filtration(prefix, order, filtration.values[: i + 1])


@st.composite
def complex_with_cycle(draw):
    """A complex plus a 1-cycle assembled from essential cycles and
    boundaries of the lowest site's ordering."""
    from cyclerad.complexes import boundary_columns
    from cyclerad.optimize import _site_essential_cycles
    from cyclerad.z2 import ChainVector

    complex_ = draw(embedded_complexes())
    essential, _ = _site_essential_cycles(complex_, site_row(complex_, 0), 1)
    n_1 = complex_.n_simplices(1)
    parts = list(essential) + [ChainVector(n_1, mask=m) for m in boundary_columns(complex_, 1)]
    chosen = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    cycle = ChainVector(n_1, [])
    for flag, part in zip(chosen, parts):
        if flag:
            cycle = cycle ^ part
    return complex_, cycle
