import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coordinate_rows, embedded_complexes, filtered_complexes, loopy_complexes
from oracles import boundary_support, columns_of, dense_from_columns, gf2_rank, matmul, numpy_distances, rank

from cyclerad.complexes import (
    EmbeddedComplex,
    PointCloud,
    SubcomplexView,
    ball_induced_subcomplex,
    boundary_columns,
    distances_from,
    faces_of,
    induced_subcomplex,
)
from cyclerad import fixtures
from cyclerad.z2 import ChainVector


def test_point_cloud_rejects_duplicates():
    with pytest.raises(ValueError):
        PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_point_cloud_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        PointCloud([(0.0, 0.0), (1.0, bad)])


def test_point_cloud_distance():
    cloud = PointCloud([(0.0, 0.0), (3.0, 4.0)])
    assert cloud.distance(0, 1) == pytest.approx(5.0)
    assert cloud.distance(1, 0) == pytest.approx(5.0)
    assert cloud.distance(0, 0) == 0.0


def test_point_cloud_takes_any_equal_length_rows():
    rows = [(0.0, 0.0), (3.0, 4.0)]
    for given_rows in (rows, [list(r) for r in rows], np.array(rows), (r for r in rows)):
        cloud = PointCloud(given_rows)
        assert cloud.coords == ((0.0, 0.0), (3.0, 4.0))
        assert all(type(x) is float for x in cloud.coords[1])
    for bad in ([], [(0.0, 0.0), (1.0,)], [()]):
        with pytest.raises(ValueError):
            PointCloud(bad)


@settings(max_examples=300, deadline=None)
@given(coordinate_rows())
def test_distances_match_numpy_row_norms(rows):
    """Bit for bit up to seven coordinates; from eight on numpy sums the
    squares pairwise in eight lanes, so only to rounding."""
    got = distances_from(rows[0], zip(*rows))
    expect = numpy_distances(rows[0], rows)
    if len(rows[0]) <= 7:
        assert got == expect
    else:
        assert got == pytest.approx(expect, rel=1e-15, abs=0.0)


def test_distances_reject_points_of_another_dimension():
    with pytest.raises(ValueError):
        distances_from((0.0, 0.0), zip(*[(1.0, 2.0, 3.0)]))


def test_point_cloud_coords_read_only():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(TypeError):
        cloud.coords[0, 0] = 7.0
    with pytest.raises(TypeError):
        cloud.coords[0][0] = 7.0


def test_faces_of():
    assert faces_of((0, 3, 5)) == [(3, 5), (0, 5), (0, 3)]
    assert faces_of((2,)) == []


def test_closure_builds_all_faces():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    complex_ = EmbeddedComplex(cloud, [(0, 1, 2)])
    assert complex_.simplices(0) == ((0,), (1,), (2,))
    assert complex_.simplices(1) == ((0, 1), (0, 2), (1, 2))
    assert complex_.simplices(2) == ((0, 1, 2),)
    assert complex_.total_simplices() == 7


def test_missing_face_rejected_without_closure():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        EmbeddedComplex(cloud, [(0, 1, 2), (0,), (1,), (2,)], close=False)


def test_repeated_vertex_rejected():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        EmbeddedComplex(cloud, [(0, 0, 1)])


def test_position_and_has():
    inst = fixtures.hollow_triangle()
    complex_ = inst.complex
    assert complex_.has((0, 2))
    assert not complex_.has((0, 1, 2))
    assert complex_.position((0, 1)) == 0
    assert complex_.position((1, 2)) == 2
    with pytest.raises(KeyError):
        complex_.position((0, 1, 2))


def test_boundary_matrix_hollow_triangle():
    complex_ = fixtures.hollow_triangle().complex
    d1 = complex_.boundary_matrix(1)
    assert d1.n_rows == 3 and d1.n_cols == 3
    # columns follow edge order (0,1), (0,2), (1,2)
    assert d1.column_support(0) == [0, 1]
    assert d1.column_support(1) == [0, 2]
    assert d1.column_support(2) == [1, 2]


def test_boundary_matrix_filled_triangle():
    complex_ = fixtures.filled_triangle().complex
    d2 = complex_.boundary_matrix(2)
    assert d2.n_rows == 3 and d2.n_cols == 1
    assert d2.column_support(0) == [0, 1, 2]


def test_boundary_matrix_bad_dimension():
    complex_ = fixtures.hollow_triangle().complex
    with pytest.raises(ValueError):
        complex_.boundary_matrix(0)
    with pytest.raises(ValueError):
        complex_.boundary_matrix(2)


@settings(max_examples=60, deadline=None)
@given(embedded_complexes())
def test_boundary_of_boundary_vanishes(complex_):
    for p in range(2, complex_.max_dim + 1):
        dp = complex_.boundary_matrix(p)
        dp1 = complex_.boundary_matrix(p - 1)
        composed = matmul(columns_of(dp1), columns_of(dp))
        assert all(mask == 0 for mask in composed)


@settings(max_examples=60, deadline=None)
@given(embedded_complexes())
def test_boundary_matrix_matches_face_enumeration(complex_):
    for p in range(1, complex_.max_dim + 1):
        dp = complex_.boundary_matrix(p)
        lower = complex_.simplices(p - 1)
        for j, s in enumerate(complex_.simplices(p)):
            expect = sorted(lower.index(f) for f in faces_of(s))
            assert list(dp.column_support(j)) == expect


def test_chain_roundtrip():
    complex_ = fixtures.annulus().complex
    edges = [(0, 1), (4, 5), (6, 7)]
    chain = complex_.chain(edges)
    assert complex_.chain_simplices(chain, 1) == sorted(edges)
    with pytest.raises(ValueError):
        complex_.chain([(0, 1), (0, 1, 4)])  # mixed dimensions
    with pytest.raises(KeyError):
        complex_.chain([(0, 2)])  # not a simplex of the annulus


def test_is_cycle():
    inst = fixtures.annulus()
    assert inst.complex.is_cycle(inst.outer_loop, 1)
    assert inst.complex.is_cycle(inst.inner_loop, 1)
    broken = inst.complex.chain([(0, 1), (1, 2)])
    assert not inst.complex.is_cycle(broken, 1)


def test_induced_subcomplex_inner_square():
    inst = fixtures.annulus()
    view = induced_subcomplex(inst.complex, [4, 5, 6, 7])
    assert view.n_simplices(0) == 4
    assert view.simplices(1) == ((4, 5), (4, 7), (5, 6), (6, 7))
    assert view.max_dim == 1  # every triangle uses an outer vertex


def test_view_extend_reindexes_into_the_parent():
    inst = fixtures.annulus()
    view = induced_subcomplex(inst.complex, [4, 5, 6, 7])
    local = view.chain([(4, 5), (5, 6)])
    parent = view.extend(local, 1)
    assert inst.complex.chain_simplices(parent, 1) == [(4, 5), (5, 6)]


def test_view_chain_accepts_unsorted_vertex_tuples():
    view = induced_subcomplex(fixtures.annulus().complex, [4, 5, 6, 7])
    assert view.chain([(5, 4), (6, 5)]) == view.chain([(4, 5), (5, 6)])


def test_view_boundary_matrix_is_restriction():
    inst = fixtures.annulus()
    view = induced_subcomplex(inst.complex, [0, 1, 4, 5])
    d2 = view.boundary_matrix(2)
    # triangles on these vertices: (0,1,4) and (1,4,5)
    assert view.simplices(2) == ((0, 1, 4), (1, 4, 5))
    edges = view.simplices(1)
    for j, t in enumerate(view.simplices(2)):
        expect = sorted(edges.index(f) for f in faces_of(t))
        assert list(d2.column_support(j)) == expect


def test_complexes_print_counts_and_maximal_simplices():
    assert repr(fixtures.filled_triangle().complex) == (
        "EmbeddedComplex(points=3, simplices=[3, 3, 1], top=[(0, 1, 2)])"
    )
    annulus = fixtures.annulus().complex
    assert repr(annulus) == (
        "EmbeddedComplex(points=9, simplices=[9, 16, 8], top=[(8,), (0, 1, 4), (0, 3, 7), "
        "(0, 4, 7), (1, 2, 5), (1, 4, 5), (2, 3, 6), (2, 5, 6), (3, 6, 7)])"
    )
    assert repr(induced_subcomplex(annulus, [0, 1, 4, 8])) == (
        "SubcomplexView(points=9, simplices=[4, 3, 1], top=[(8,), (0, 1, 4)])"
    )
    ring = EmbeddedComplex(PointCloud([(float(i), float(i * i)) for i in range(14)]),
                           [(i, i + 1) for i in range(13)])
    assert repr(ring).endswith("(10, 11), (11, 12), ...])")



@st.composite
def views(draw):
    """A prefix of a drawn filtration, or the subcomplex induced by a drawn
    vertex subset of a drawn complex."""
    if draw(st.booleans()):
        filtration = draw(filtered_complexes(max_dim=3))
        return filtration.prefix_view(draw(st.integers(0, len(filtration) - 1)))
    parent = draw(st.one_of(embedded_complexes(max_dim=3), loopy_complexes()))
    return induced_subcomplex(parent, draw(st.sets(st.sampled_from(parent.vertex_ids()))))


@settings(max_examples=80, deadline=None)
@given(views(), st.data())
def test_views_answer_like_the_complex_of_their_members(view, data):
    alone = EmbeddedComplex(view.cloud, list(view.all_simplices()), close=False)
    assert view.max_dim == alone.max_dim
    assert view.total_simplices() == alone.total_simplices()
    assert view.maximal_simplices() == alone.maximal_simplices()
    for s in view.parent.all_simplices():
        assert view.has(s) == alone.has(s)
        if alone.has(s):
            assert view.position(s) == alone.position(s)
    for p in range(-1, view.max_dim + 2):
        assert view.simplices(p) == alone.simplices(p)
        assert view.n_simplices(p) == alone.n_simplices(p)

    def some(n):
        return sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else []

    for p in range(view.max_dim + 1):
        if p >= 1:
            assert view.boundary_matrix(p) == alone.boundary_matrix(p)
        # a sum of boundaries, so a cycle unless the drawn chain is added
        bounds = boundary_columns(alone, p)
        chain = ChainVector(view.n_simplices(p), [])
        for j in some(bounds.n_cols):
            chain = chain ^ bounds.column(j)
        if data.draw(st.booleans()):
            chain = chain ^ ChainVector(view.n_simplices(p), some(view.n_simplices(p)))
        assert view.is_cycle(chain, p) == alone.is_cycle(chain, p)

def test_ball_induced_subcomplex_tolerance():
    inst = fixtures.annulus()
    r_in = math.sqrt(0.5)
    ball = ball_induced_subcomplex(inst.complex, np.array([0.0, 0.0]), r_in)
    # inner corners sit exactly on the sphere; relative tolerance admits them
    assert set(ball.simplices(0)) == {(4,), (5,), (6,), (7,), (8,)}
    assert ball.simplices(1) == ((4, 5), (4, 7), (5, 6), (6, 7))
    tight = ball_induced_subcomplex(inst.complex, np.array([0.0, 0.0]), r_in - 1e-6)
    assert tight.simplices(0) == ((8,),)


def test_boundary_columns_top_dimension_empty():
    complex_ = fixtures.hollow_triangle().complex
    cols = boundary_columns(complex_, 1)
    assert cols.n_rows == 3 and cols.n_cols == 0
    filled = fixtures.filled_triangle().complex
    cols = boundary_columns(filled, 1)
    assert cols.n_cols == 1


@settings(max_examples=40, deadline=None)
@given(embedded_complexes())
def test_boundary_rank_agrees_with_dense_oracle(complex_):
    for p in range(1, complex_.max_dim + 1):
        dp = complex_.boundary_matrix(p)
        cols = [list(dp.column_support(j)) for j in range(dp.n_cols)]
        dense = dense_from_columns(dp.n_rows, cols)
        assert rank(columns_of(dp)) == gf2_rank(dense)
