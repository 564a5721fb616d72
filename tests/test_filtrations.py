import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from conftest import (
    OCTAHEDRON,
    annulus_points,
    coordinate_rows,
    embedded_complexes,
    filtered_complexes,
    four_hole_meshes,
    hollow_octahedra,
    loopy_complexes,
    point_clouds,
    site_row,
)
from oracles import (
    betti_by_rank,
    mask_support,
    numpy_rips,
    numpy_site_essential_cycles,
    site_ordering,
    square_boundary_matrix,
    square_persistence,
)

from cyclerad.complexes import (
    EmbeddedComplex,
    PointCloud,
    boundary_columns,
    distances_from,
    face_masks,
    faces_of,
    site_essential_cycles,
)
from cyclerad.filtrations import (
    Filtration,
    Interval,
    PersistenceResult,
    compute_persistence,
    lower_star_filtration,
    rips_filtration,
)
from cyclerad.optimize import opt_persistent_basis
from cyclerad.z2 import ChainVector, IncrementalSpan


def hollow_triangle_filtration():
    complex_ = fixtures.hollow_triangle().complex
    order = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]
    return Filtration(complex_, order, [0, 0, 0, 1, 1, 2])


# -- validation -----------------------------------------------------------


def test_filtration_length_mismatch():
    complex_ = fixtures.hollow_triangle().complex
    with pytest.raises(ValueError, match="order and values must have equal length"):
        Filtration(complex_, [(0,), (1,)], [0.0])


def test_filtration_must_cover_complex():
    complex_ = fixtures.hollow_triangle().complex
    with pytest.raises(ValueError, match="filtration covers 3 simplices, complex has 6"):
        Filtration(complex_, [(0,), (1,), (0, 1)], [0, 0, 0])


def test_filtration_rejects_repeats():
    complex_ = fixtures.hollow_triangle().complex
    order = [(0,), (1,), (2,), (0, 1), (0, 1), (0, 2)]
    with pytest.raises(ValueError, match="filtration repeats a simplex"):
        Filtration(complex_, order, [0] * 6)


def test_filtration_faces_must_precede():
    complex_ = fixtures.hollow_triangle().complex
    order = [(0,), (1,), (0, 1), (1, 2), (2,), (0, 2)]
    with pytest.raises(ValueError, match=r"face \(2,\) of \(1, 2\) does not precede it"):
        Filtration(complex_, order, [0] * 6)


def test_filtration_values_must_be_monotone():
    complex_ = fixtures.hollow_triangle().complex
    order = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="filtration values must be non-decreasing"):
        Filtration(complex_, order, [0, 0, 0, 2, 1, 2])


@pytest.mark.parametrize(
    "shape, order, message",
    [
        # the first simplex in order with a late face is named, not the first in canonical order
        ("hollow", [(0,), (1,), (1, 2), (0, 2), (0, 1), (2,)], r"face \(2,\) of \(1, 2\) does not precede it"),
        # of a triangle's late faces, the first in faces_of order is named
        ("filled", [(0,), (1,), (2,), (0, 1), (0, 1, 2), (0, 2), (1, 2)], r"face \(1, 2\) of \(0, 1, 2\) does not precede it"),
        ("hollow", [(0,), (1,), (2,), (0, 1), (1, 2), (3,)], r"simplex \(3,\) not in the complex"),
        # a stray simplex and a late face: the earlier in order is named
        ("hollow", [(0,), (1,), (0, 2), (0, 1), (1, 2), (3,)], r"face \(2,\) of \(0, 2\) does not precede it"),
        ("hollow", [(3,), (0,), (1,), (0, 2), (0, 1), (1, 2)], r"simplex \(3,\) not in the complex"),
    ],
)
def test_filtration_names_the_first_simplex_out_of_place(shape, order, message):
    complex_ = (fixtures.hollow_triangle() if shape == "hollow" else fixtures.filled_triangle()).complex
    with pytest.raises(ValueError, match=message):
        Filtration(complex_, order, [0] * len(order))


def face_by_face_rejection(complex_, order, values):
    """The message Filtration raises for this input, or None: the checks in
    their order, with faces looked up simplex by simplex in a dict."""
    index = {s: i for i, s in enumerate(order)}
    if len(order) != len(values):
        return "order and values must have equal length"
    if len(index) != len(order):
        return "filtration repeats a simplex"
    if len(order) != complex_.total_simplices():
        return f"filtration covers {len(order)} simplices, complex has {complex_.total_simplices()}"
    if not all(map(math.isfinite, values)):
        return "filtration values must be finite"
    for i, s in enumerate(order):
        if not complex_.has(s):
            return f"simplex {s} not in the complex"
        for f in faces_of(s):
            if index.get(f, len(order)) > i:
                return f"face {f} of {s} does not precede it"
    if any(b < a for a, b in zip(values, values[1:])):
        return "filtration values must be non-decreasing"
    return None


@settings(max_examples=150, deadline=None)
@given(filtered_complexes(max_dim=3), st.data())
def test_filtration_accepts_and_rejects_as_the_face_by_face_check(filtration, data):
    """Orders with a few simplices swapped, replaced by a stray or a repeat,
    or cut short: accepted or rejected with the same message."""
    order = list(filtration.order)
    n = len(order)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        order[i], order[j] = order[j], order[i]
    edit = data.draw(st.sampled_from(["none", "stray", "repeat", "drop"]))
    at = data.draw(st.integers(0, n - 1))
    if edit == "stray":
        order[at] = (filtration.complex.cloud.n_points,)
    elif edit == "repeat":
        order[at] = order[data.draw(st.integers(0, n - 1))]
    elif edit == "drop":
        del order[at]
    values = list(filtration.values[: len(order)])
    expect = face_by_face_rejection(filtration.complex, order, values)
    try:
        Filtration(filtration.complex, order, values)
    except ValueError as exc:
        assert str(exc) == expect
    else:
        assert expect is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_filtration_values_must_be_finite(bad):
    complex_ = fixtures.hollow_triangle().complex
    order = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]
    with pytest.raises(ValueError, match="filtration values must be finite"):
        Filtration(complex_, order, [0, 0, 0, 1, 1, bad])


def test_square_boundary_matrix():
    f = hollow_triangle_filtration()
    m = square_boundary_matrix(f)
    assert len(m) == 6 and max(m).bit_length() <= 6
    assert mask_support(m[3]) == [0, 1]
    assert mask_support(m[4]) == [1, 2]
    assert mask_support(m[5]) == [0, 2]
    assert mask_support(m[0]) == []


# -- persistence ----------------------------------------------------------


def test_hollow_triangle_barcode():
    assert compute_persistence(hollow_triangle_filtration(), 0).betti() == 1
    res = compute_persistence(hollow_triangle_filtration(), 1)
    assert res.betti() == 1
    ones = res.intervals
    assert len(ones) == 1
    iv = ones[0]
    assert iv.death is None and iv.creator == (0, 2) and iv.birth_value == 2.0


@settings(max_examples=60, deadline=None)
@given(filtered_complexes())
def test_betti_matches_rank_oracle(filtration):
    complex_ = filtration.complex
    all_simplices = list(complex_.all_simplices())
    for p in range(complex_.max_dim + 1):
        assert compute_persistence(filtration, p).betti() == betti_by_rank(all_simplices, p)


@settings(max_examples=60, deadline=None)
@given(filtered_complexes())
def test_every_position_is_birth_or_death_once(filtration):
    """Over the barcodes of every dimension."""
    intervals = [
        iv for p in range(filtration.complex.max_dim + 1) for iv in compute_persistence(filtration, p).intervals
    ]
    births = [iv.birth for iv in intervals]
    deaths = [iv.death for iv in intervals if iv.death is not None]
    assert len(set(births)) == len(births)
    assert len(set(deaths)) == len(deaths)
    assert sorted(births + deaths) == list(range(len(filtration)))


@st.composite
def any_filtrations(draw):
    """Random simplexwise filtrations, Rips builds and lower-star fields."""
    kind = draw(st.sampled_from(["random", "rips", "lower-star"]))
    if kind == "random":
        return draw(filtered_complexes(max_dim=3))
    if kind == "rips":
        rows = draw(coordinate_rows(max_points=8, cloud=True))
        diameter = max(math.dist(a, b) for a in rows for b in rows)
        return rips_filtration(PointCloud(rows), draw(st.floats(0.0, 1.5)) * diameter, draw(st.integers(1, 3)))
    complex_ = draw(st.one_of(embedded_complexes(max_dim=3, max_top_cells=12), loopy_complexes()))
    field = st.integers(0, 4).map(float) | st.floats(-10.0, 10.0, allow_nan=False)
    return lower_star_filtration(complex_, {v: draw(field) for v in complex_.vertex_ids()})


@settings(max_examples=80, deadline=None)
@given(any_filtrations())
def test_persistence_matches_the_square_reduction(filtration):
    """Every interval of every dimension, one dimension per call, as the
    square reduction of the whole boundary matrix gives them."""
    order, values = filtration.order, filtration.values
    intervals, _ = square_persistence(filtration, 0)
    for p in range(filtration.complex.max_dim + 2):
        result = compute_persistence(filtration, p)
        expect = [
            Interval(d, i, j, order[i], None if j is None else order[j],
                     values[i], None if j is None else values[j])
            for d, i, j in intervals
            if d == p
        ]
        assert list(result.intervals) == expect


def test_two_loop_value_barcode():
    res = compute_persistence(fixtures.two_loop_filtration(), 1)
    assert res.value_pairs() == [(1.0, 4.0), (2.0, 3.0)]
    assert res.betti() == 0


def test_annulus_bar_filtration():
    filtration, _ = fixtures.annulus_bar_filtration()
    res = compute_persistence(filtration, 1)
    long_bars = [iv for iv in res.intervals if iv.value_length() > 0]
    assert [(iv.birth_value, iv.death_value) for iv in long_bars] == [(1.0, 3.0)]
    iv = long_bars[0]
    assert iv.creator == (6, 7)


def test_value_pairs_zero_length_handling():
    ivs = (
        Interval(1, 0, 1, (0, 1), (0, 1, 2), 3.0, 3.0),
        Interval(1, 2, 5, (0, 2), (0, 2, 3), 3.0, 4.0),
    )
    res = PersistenceResult(None, 1, ivs)
    assert res.value_pairs() == [(3.0, 4.0)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    filtered_complexes(max_dim=3),
    st.builds(rips_filtration, point_clouds(), st.floats(0.0, 3.0), st.integers(1, 3)),
))
def test_prefix_flags_the_simplices_born_by_each_index(filtration):
    complex_ = filtration.complex
    for i in range(len(filtration)):
        expect = [
            [filtration.index_of(s) <= i for s in complex_.simplices(d)]
            for d in range(complex_.max_dim + 1)
        ]
        assert filtration.prefix(i) == expect


def test_bars_keep_positive_length_most_persistent_first():
    res = compute_persistence(fixtures.two_loop_filtration(), 1)
    assert len(res.intervals) == 7
    assert [(iv.birth_value, iv.death_value) for iv in res.bars()] == [(1.0, 4.0), (2.0, 3.0)]
    assert res.bars(1) == res.bars()[:1]
    triangle = lower_star_filtration(fixtures.hollow_triangle().complex, {0: 0.0, 1: 1.0, 2: 2.0})
    assert [iv.death for iv in compute_persistence(triangle, 1).bars()] == [None]


def test_bars_refuse_a_negative_top():
    """A negative top would slice off the shortest bars: on the 12-point
    circle's 0-dimensional Rips barcode at 0.9, bars(-1) kept 11 of 12."""
    res = compute_persistence(rips_filtration(fixtures.circle_cloud(12), 0.9, 1), 0)
    assert len(res.bars()) == 12
    assert res.bars(0) == []
    for call in (res.bars, lambda top: opt_persistent_basis(res, top)):
        with pytest.raises(ValueError, match="^top must be non-negative$"):
            call(-1)


# -- constructors ---------------------------------------------------------


def unit_square_cloud():
    return PointCloud([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_rips_at_side_scale():
    f = rips_filtration(unit_square_cloud(), 1.0, max_dim=2)
    assert f.complex.n_simplices(1) == 4  # diagonals exceed the scale
    assert f.complex.max_dim == 1
    res = compute_persistence(f, 1)
    assert res.betti() == 1
    # re-validate the constructed order and values
    Filtration(f.complex, f.order, f.values)


@pytest.mark.parametrize("scale", [math.nan, -1.0])
def test_rips_rejects_a_negative_or_nan_scale(scale):
    with pytest.raises(ValueError, match="max_scale must be non-negative"):
        rips_filtration(unit_square_cloud(), scale, max_dim=2)


def test_negative_dimensions_rejected():
    with pytest.raises(ValueError, match="^dimension must be non-negative$"):
        compute_persistence(rips_filtration(unit_square_cloud(), 1.0, max_dim=2), -1)
    with pytest.raises(ValueError, match="^max_dim must be non-negative$"):
        rips_filtration(unit_square_cloud(), 1.0, max_dim=-1)


def test_rips_at_diagonal_scale():
    scale = math.sqrt(2) + 1e-9
    f = rips_filtration(unit_square_cloud(), scale, max_dim=2)
    assert f.complex.n_simplices(1) == 6
    assert f.complex.n_simplices(2) == 4
    for t in f.complex.simplices(2):
        assert f.values[f.index_of(t)] == pytest.approx(math.sqrt(2))
    res = compute_persistence(f, 1)
    assert res.betti() == 0
    Filtration(f.complex, f.order, f.values)


def test_rips_includes_distance_exactly_at_scale():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0)])
    f = rips_filtration(cloud, 1.0, max_dim=2)
    assert f.complex.has((0, 1))


def test_rips_max_dim_zero_builds_no_edges():
    f = rips_filtration(PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), 2.0, max_dim=0)
    assert f.complex.max_dim == 0
    assert f.order == ((0,), (1,), (2,))


def test_rips_higher_dimension():
    f = rips_filtration(unit_square_cloud(), math.sqrt(2) + 1e-9, max_dim=3)
    assert f.complex.n_simplices(3) == 1
    assert f.values[f.index_of((0, 1, 2, 3))] == pytest.approx(math.sqrt(2))
    # built to dimension p + 1, the hollow octahedron's 2-bar dies when its
    # antipodal edges and their tetrahedra fill it
    f = rips_filtration(PointCloud(OCTAHEDRON), 2.5, max_dim=3)
    assert compute_persistence(f, 2).value_pairs() == [(math.sqrt(2), 2.0)]


@settings(max_examples=150, deadline=None)
@given(coordinate_rows(max_points=8, cloud=True), st.floats(0.0, 1.5), st.integers(1, 3))
def test_rips_matches_the_numpy_build(rows, share, max_dim):
    """The same simplices, order and values as from numpy's dense distance
    matrix: bit for bit up to seven coordinates, to rounding from eight."""
    diameter = max(math.dist(a, b) for a in rows for b in rows)
    filtration = rips_filtration(PointCloud(rows), share * diameter, max_dim)
    if len(rows[0]) <= 7:
        assert (list(filtration.order), list(filtration.values)) == numpy_rips(rows, share * diameter, max_dim)
    else:
        # past the diameter no distance sits at the scale, so the sets agree
        filtration = rips_filtration(PointCloud(rows), 2 * diameter, max_dim)
        order, values = numpy_rips(rows, 2 * diameter, max_dim)
        expect = dict(zip(order, values))
        assert set(filtration.order) == set(expect)
        for s, value in zip(filtration.order, filtration.values):
            assert value == pytest.approx(expect[s], rel=1e-15, abs=0.0)


def rips_with_full_adjacency(cloud, max_scale, max_dim):
    """rips_filtration's order and values as its builder made them before it
    kept upper-neighbor sets: a full adjacency set per vertex, and each clique
    extended by the common neighbors above its last vertex."""
    n = cloud.n_points
    max_scale = float(max_scale)
    value = {(v,): 0.0 for v in range(n)}
    edges = []
    for i in range(n if max_dim else 0):
        row = distances_from(cloud.coords[i], [column[i + 1 :] for column in cloud.columns])
        for j in itertools.compress(range(i + 1, n), map(max_scale.__ge__, row)):
            edges.append((i, j))
            value[(i, j)] = row[j - i - 1]
    adjacency = [set() for _ in range(n)]
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    previous = edges
    for d in range(2, max_dim + 1):
        current = []
        for s in previous:
            common = set.intersection(*(adjacency[v] for v in s)) if s else set()
            for w in sorted(common):
                if w > s[-1]:
                    t = s + (w,)
                    current.append(t)
                    value[t] = max(value[s], max(value[(v, w)] for v in s))
        previous = current
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return order, [value[s] for s in order]


@settings(max_examples=200, deadline=None)
@given(coordinate_rows(max_dim=3, max_points=9, cloud=True), st.data())
def test_rips_matches_the_builder_with_full_adjacency(rows, data):
    """Cliques grown from upper-neighbor sets give the order and values of the
    full-adjacency builder: d = 1 to 3, half-integer rows with tied distances,
    scale 0, a scale at exactly a pairwise distance, scales up to and past the
    diameter, and max_dim 0 to 3."""
    cloud = PointCloud(rows)
    distances = sorted({cloud.distance(i, j) for i in range(cloud.n_points) for j in range(i)})
    scale = data.draw(st.one_of(st.just(0.0), st.sampled_from(distances),
                                st.floats(0.0, 1.5).map(lambda share: share * distances[-1])))
    max_dim = data.draw(st.integers(0, 3))
    filtration = rips_filtration(cloud, scale, max_dim)
    assert (list(filtration.order), list(filtration.values)) == rips_with_full_adjacency(cloud, scale, max_dim)


def test_lower_star_hollow_triangle():
    complex_ = fixtures.hollow_triangle().complex
    f = lower_star_filtration(complex_, {0: 0.0, 1: 1.0, 2: 2.0})
    assert f.index_of((0,)) == 0
    assert f.index_of((0, 1)) == 2  # enters with vertex 1
    assert f.index_of((1, 2)) == 5
    res = compute_persistence(f, 1)
    ones = res.intervals
    assert len(ones) == 1 and ones[0].death is None
    assert ones[0].birth_value == 2.0
    Filtration(f.complex, f.order, f.values)


def test_lower_star_accepts_array_and_rejects_missing():
    complex_ = fixtures.hollow_triangle().complex
    f = lower_star_filtration(complex_, [0.0, 1.0, 2.0])
    assert f.values[-1] == 2.0
    with pytest.raises(ValueError, match="missing scalar value for vertex 2"):
        lower_star_filtration(complex_, {0: 0.0, 1: 1.0})
    with pytest.raises(ValueError, match="missing scalar value for vertex 2"):
        lower_star_filtration(complex_, [0.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lower_star_rejects_a_non_finite_value(bad):
    """Every filtration is checked, so a NaN or infinite vertex value never
    reaches a barcode."""
    complex_ = fixtures.annulus().complex
    values = [float(v) for v in range(complex_.n_simplices(0))]
    values[0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        lower_star_filtration(complex_, values)


# -- site orderings -------------------------------------------------------


def test_site_ordering_annulus_center():
    inst = fixtures.annulus()
    so = site_ordering(inst.complex, inst.center_vertex)
    assert so.order[0] == (8,)
    assert so.r_values[0] == 0.0
    # inner square enters at sqrt(1/2), before anything touching the outside
    k = so.order.index((4, 7))
    assert so.r_values[k] == pytest.approx(math.sqrt(0.5))
    Filtration(inst.complex, so.order, so.r_values)  # faces precede, monotone


def test_site_ordering_r_value_is_farthest_vertex():
    complex_ = fixtures.hollow_triangle().complex
    so = site_ordering(complex_, 0)
    f = so.as_filtration()
    assert f.values[f.index_of((1, 2))] == pytest.approx(1.0)
    assert f.values[f.index_of((0,))] == 0.0


@settings(max_examples=40, deadline=None)
@given(embedded_complexes())
def test_site_ordering_valid_for_every_site(complex_):
    for site in range(complex_.cloud.n_points):
        so = site_ordering(complex_, site)
        Filtration(complex_, so.order, so.r_values)
        for s, r in zip(so.order, so.r_values):
            assert r == pytest.approx(
                max(
                    float(
                        math.dist(complex_.cloud.point(v), complex_.cloud.point(site))
                    )
                    for v in s
                )
            )


# -- the per-site essential-cycle kernel ------------------------------------


def essential_by_full_persistence(complex_like, site, p):
    """The reference: the square reduction of the site ordering, essential
    intervals only."""
    filtration = site_ordering(complex_like, site).as_filtration()
    intervals, essential = square_persistence(filtration, p)
    radii = tuple(filtration.values[i] for d, i, j in intervals if d == p and j is None)
    return tuple(ChainVector(complex_like.n_simplices(p), mask=m) for m in essential), radii


def assert_kernel_matches_full_persistence(complex_like, dims=(0, 1, 2, 3)):
    # every point is a site, also those outside a view, as for bar prefixes
    for site in range(complex_like.cloud.n_points):
        for p in dims:
            expect = essential_by_full_persistence(complex_like, site, p)
            assert site_essential_cycles(complex_like, site_row(complex_like, site), p) == expect


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedded_complexes(max_dim=3, max_top_cells=12), loopy_complexes()))
def test_site_essential_cycles_match_full_persistence(complex_):
    """Same cycles, in the same order, with bitwise-equal birth radii."""
    assert_kernel_matches_full_persistence(complex_)


@settings(max_examples=40, deadline=None)
@given(filtered_complexes(max_dim=3), st.data())
def test_site_essential_cycles_match_on_prefix_views(filtration, data):
    i = data.draw(st.integers(0, len(filtration) - 1))
    root = filtration.complex
    prefix = EmbeddedComplex(root.cloud, filtration.order[: i + 1])
    assert_kernel_matches_full_persistence(prefix)
    # the same prefix as membership flags: the prefix complex's cycles, in the root's basis,
    # also when both are cut at a radius
    members = [[filtration.index_of(s) <= i for s in root.simplices(d)] for d in range(root.max_dim + 1)]
    cut = data.draw(st.floats(0.0, 9.0))
    for site, p, radius in itertools.product(range(root.cloud.n_points), (0, 1, 2, 3), (math.inf, cut)):
        cycles, radii = site_essential_cycles(prefix, site_row(prefix, site), p, radius=radius)
        masked, masked_radii = site_essential_cycles(root, site_row(root, site), p, members, radius)
        assert masked == tuple(root.chain(prefix.chain_simplices(c, p), p) for c in cycles)
        assert list(map(float.hex, masked_radii)) == list(map(float.hex, radii))


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedded_complexes(max_dim=3, max_top_cells=12), loopy_complexes()))
def test_site_essential_cycles_match_the_numpy_kernel(complex_):
    """Plain-Python ranking gives the numpy-ranked kernel's cycles and radii."""
    for site in range(complex_.cloud.n_points):
        for p in (0, 1, 2, 3):
            cycles, radii = site_essential_cycles(complex_, site_row(complex_, site), p)
            assert ([c.mask for c in cycles], list(radii)) == numpy_site_essential_cycles(complex_, site, p)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.one_of(embedded_complexes(max_dim=3, max_top_cells=12), loopy_complexes(), four_hole_meshes()),
                  st.just(1)),
        st.tuples(hollow_octahedra(), st.just(2)),
    ),
    st.data(),
)
def test_site_essential_cycles_cut_at_a_radius(args, data):
    """Cut at R, the kernel returns every essential cycle born by R, in order
    and bit for bit; each other cycle it returns lies in the span of the
    boundaries and the cycles returned before it, so the first returned cycle
    outside the boundary span is the first essential one. R is drawn below
    the first essential radius and at a simplex's r, and is also inf."""
    complex_, p = args
    site = data.draw(st.sampled_from(sorted(complex_.vertex_ids())))
    dist = site_row(complex_, site)
    cycles, radii = site_essential_cycles(complex_, dist, p)
    births = sorted({max(dist[v] for v in s) for d in (p - 1, p, p + 1) for s in complex_.simplices(d)})
    below = [x for x in births if x < radii[0]] + [math.nextafter(radii[0], -math.inf)] if radii else births
    for cut in (data.draw(st.sampled_from(below)), data.draw(st.sampled_from(births)), math.inf):
        got, got_radii = site_essential_cycles(complex_, dist, p, radius=cut)
        if cut == math.inf:
            assert (got, got_radii) == (cycles, radii)
        assert all(r <= cut for r in got_radii)

        born = [(c, r.hex()) for c, r in zip(cycles, radii) if r <= cut]
        span = IncrementalSpan(complex_.n_simplices(p), boundary_columns(complex_, p))
        first_outside, matched = None, 0
        for c, r in zip(got, got_radii):
            if first_outside is None and not span.contains(c.mask):
                first_outside = c, r.hex()
            if matched < len(born) and (c, r.hex()) == born[matched]:
                matched += 1
            else:
                assert span.contains(c.mask)  # a cycle a simplex beyond the cut kills
            span.add(c.mask)
        assert matched == len(born)
        assert first_outside == (born[0] if born else None)


def test_site_essential_cycles_cut_returns_a_cycle_killed_beyond_the_cut():
    # the loop 0-1-2 is born at r = 1 and filled only by the cone from the far vertex 3
    complex_ = EmbeddedComplex(PointCloud([(0, 0), (1, 0), (0, 1), (5, 5)]), [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    loop = complex_.chain([(0, 1), (1, 2), (0, 2)], 1)
    assert site_essential_cycles(complex_, site_row(complex_, 0), 1) == ((), ())
    assert site_essential_cycles(complex_, site_row(complex_, 0), 1, radius=2.0) == ((loop,), (1.0,))
    assert site_essential_cycles(complex_, site_row(complex_, 0), 1, radius=0.5) == ((), ())


def test_site_essential_cycles_keep_the_lexicographic_tie_break():
    # at side 3 every edge is bitwise 3.0 from every site
    inst = fixtures.hollow_triangle(3.0)
    assert_kernel_matches_full_persistence(inst.complex)
    assert site_essential_cycles(inst.complex, site_row(inst.complex, 0), 1) == ((inst.loop,), (3.0,))


def test_site_essential_cycles_at_and_above_the_top_dimension():
    filled = fixtures.filled_triangle().complex
    annulus = fixtures.annulus().complex
    hollow = fixtures.hollow_triangle().complex
    # p = max_dim has no (p+1)-columns to clear with
    assert_kernel_matches_full_persistence(filled, dims=(2,))
    assert_kernel_matches_full_persistence(annulus, dims=(2,))
    assert site_essential_cycles(filled, site_row(filled, 0), 2) == ((), ())
    assert site_essential_cycles(hollow, site_row(hollow, 1), 2) == ((), ())
    with pytest.raises(ValueError, match="dimension must be non-negative"):
        site_essential_cycles(filled, site_row(filled, 0), -1)


# -- the kernel against its earlier form, where it ranked its callers' subcomplexes --


def kernel_with_keys(complex_like, keys, p, members=None):
    """The clearing reduction as it ranked each dimension itself: a stable
    sort of keys[d] over all positions, or over those members flags."""

    def ranked(d):
        n = complex_like.n_simplices(d)
        if not n:
            return []
        kept = range(n) if members is None else itertools.compress(range(n), members[d])
        return sorted(kept, key=keys[d].__getitem__)

    def columns(d, below, kept):
        if not d or not kept:
            return [0] * len(kept)
        row_bits = [0] * complex_like.n_simplices(d - 1)
        for position, bit in zip(below, complex_like.powers(len(below))):
            row_bits[position] = bit
        return face_masks(complex_like.faces[d], row_bits, kept)

    below, order, above = ranked(p - 1), ranked(p), ranked(p + 1)
    owners, deaths = {}, []
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
    cycles, reduced = {}, {}
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


def site_cycles_by_flags(complex_like, site, p, members=None, radius=math.inf):
    """Essential cycles of a site's filtration, the ball and the members
    ANDed into one flag list per dimension before the kernel ranks them."""
    n_p = complex_like.n_simplices(p)
    if n_p == 0:
        return (), ()
    dist = distances_from(complex_like.cloud.point(site), complex_like.cloud.columns)
    r = [[dist[v] for v, in complex_like.simplices(0)]]
    for d in range(1, min(p + 1, complex_like.max_dim) + 1):
        below, faces = r[-1], complex_like.faces[d]
        r.append([below[i] if below[i] >= below[j] else below[j] for i, j in zip(faces[0], faces[-1])])
    if radius < math.inf:
        ball = [[x <= radius for x in rd] for rd in r]
        members = ball if members is None else [[m and b for m, b in zip(*mb)] for mb in zip(members, ball)]
    _, cycles = kernel_with_keys(complex_like, r, p, members)
    return tuple(ChainVector(n_p, mask=v) for v in cycles.values()), tuple(r[p][q] for q in cycles)


def intervals_by_keys(filtration, p):
    at = filtration.indices
    pairs, cycles = kernel_with_keys(filtration.complex, at, p)
    ends = [(at[p][b], at[p + 1][d]) for b, d in pairs] + [(at[p][q], None) for q in cycles]
    return sorted(ends)


@st.composite
def ranked_inputs(draw):
    """(filtration, p): small filtered complexes at p = 0, 1, 2, four-hole
    meshes in a lower-star filtration along a drawn direction, and Rips
    filtrations of annulus samples."""
    kind = draw(st.sampled_from(["filtered", "mesh", "annulus"]))
    if kind == "filtered":
        return draw(filtered_complexes(max_dim=3)), draw(st.sampled_from((0, 1, 2)))
    if kind == "mesh":
        complex_ = draw(four_hole_meshes())
        a, b = draw(st.tuples(*[st.integers(-3, 3)] * 2))
        return lower_star_filtration(complex_, [a * x + b * y for x, y in complex_.cloud.coords]), 1
    cloud = PointCloud(annulus_points(draw(st.integers(8, 30)), draw(st.integers(0, 2**16))))
    return rips_filtration(cloud, draw(st.sampled_from((0.4, 0.6, 0.8))), 2), draw(st.sampled_from((0, 1)))


@settings(max_examples=60, deadline=None)
@given(ranked_inputs(), st.data())
def test_kernel_ranked_by_its_callers_matches_the_flag_kernel(args, data):
    """Unrestricted, in a birth prefix, in a ball, and in both: the same
    chains and bitwise the same radii as the kernel that took keys and
    flags; and compute_persistence gives the same intervals."""
    filtration, p = args
    complex_ = filtration.complex
    site = data.draw(st.sampled_from(sorted(complex_.vertex_ids())))
    members = filtration.prefix(data.draw(st.integers(0, len(filtration) - 1)))
    dist = site_row(complex_, site)
    # the cut sits exactly at a simplex's r, where <= and < part
    radius = data.draw(st.sampled_from(sorted({max(dist[v] for v in s) for s in complex_.all_simplices()})))
    for given_members, given_radius in itertools.product((None, members), (math.inf, radius)):
        cycles, radii = site_essential_cycles(complex_, dist, p, given_members, given_radius)
        expect, expect_radii = site_cycles_by_flags(complex_, site, p, given_members, given_radius)
        assert cycles == expect
        assert [r.hex() for r in radii] == [r.hex() for r in expect_radii]
    assert [(iv.birth, iv.death) for iv in compute_persistence(filtration, p).intervals] == intervals_by_keys(filtration, p)
