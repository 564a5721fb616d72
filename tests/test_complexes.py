import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from conftest import coordinate_rows, embedded_complexes, loopy_complexes
from oracles import dense_from_columns, gf2_rank, mask_support, matmul, numpy_distances, rank

from cyclerad.complexes import (
    EmbeddedComplex,
    PointCloud,
    boundary_columns,
    distances_from,
    faces_of,
)
from cyclerad.oracle import _ball_members
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


def test_repeated_vertex_rejected():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        EmbeddedComplex(cloud, [(0, 0, 1)])


@pytest.mark.parametrize(
    "raw, message",
    [
        ((2, 1, 2), "simplex (2, 1, 2) has repeated vertices"),
        ((1, 1, 2), "simplex (1, 1, 2) has repeated vertices"),
        ((), "empty simplex"),
        ((0, 3), "simplex (0, 3) references a vertex outside the cloud"),
        ((-1, 2), "simplex (-1, 2) references a vertex outside the cloud"),
    ],
)
def test_malformed_simplex_messages(raw, message):
    # the repeat is named as given, before any sorting
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EmbeddedComplex(cloud, [raw])


def test_unsorted_simplex_is_sorted():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert EmbeddedComplex(cloud, [(2, 0, 1)]).simplices(2) == ((0, 1, 2),)


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
    d1 = boundary_columns(complex_, 0)
    assert len(d1) == 3 and max(d1) >> 3 == 0
    # columns follow edge order (0,1), (0,2), (1,2)
    assert mask_support(d1[0]) == [0, 1]
    assert mask_support(d1[1]) == [0, 2]
    assert mask_support(d1[2]) == [1, 2]


def test_boundary_matrix_filled_triangle():
    complex_ = fixtures.filled_triangle().complex
    d2 = boundary_columns(complex_, 1)
    assert len(d2) == 1 and max(d2) >> 3 == 0
    assert mask_support(d2[0]) == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(embedded_complexes())
def test_boundary_of_boundary_vanishes(complex_):
    for p in range(2, complex_.max_dim + 1):
        dp = boundary_columns(complex_, p - 1)
        dp1 = boundary_columns(complex_, p - 2)
        composed = matmul(dp1, dp)
        assert all(mask == 0 for mask in composed)


@settings(max_examples=60, deadline=None)
@given(embedded_complexes())
def test_boundary_matrix_matches_face_enumeration(complex_):
    for p in range(1, complex_.max_dim + 1):
        dp = boundary_columns(complex_, p - 1)
        lower = complex_.simplices(p - 1)
        assert len(dp) == complex_.n_simplices(p)
        for j, s in enumerate(complex_.simplices(p)):
            expect = sorted(lower.index(f) for f in faces_of(s))
            assert mask_support(dp[j]) == expect


def test_chain_roundtrip():
    complex_ = fixtures.annulus().complex
    edges = [(0, 1), (4, 5), (6, 7)]
    chain = complex_.chain(edges)
    assert complex_.chain_simplices(chain, 1) == sorted(edges)
    with pytest.raises(ValueError):
        complex_.chain([(0, 1), (0, 1, 4)])  # mixed dimensions
    with pytest.raises(KeyError):
        complex_.chain([(0, 2)])  # not a simplex of the annulus


def test_chain_and_is_cycle_reject_what_they_cannot_place():
    complex_ = fixtures.annulus().complex
    assert complex_.chain([], 1).is_zero()
    with pytest.raises(ValueError, match="^cannot infer dimension of an empty chain$"):
        complex_.chain([])
    # the hollow triangle's loop lives in a basis of 3 edges, not the annulus's
    with pytest.raises(ValueError, match="^chain does not live in the complex's p-basis$"):
        complex_.is_cycle(fixtures.hollow_triangle().loop, 1)


def test_is_cycle():
    inst = fixtures.annulus()
    assert inst.complex.is_cycle(inst.outer_loop, 1)
    assert inst.complex.is_cycle(inst.inner_loop, 1)
    broken = inst.complex.chain([(0, 1), (1, 2)])
    assert not inst.complex.is_cycle(broken, 1)


@settings(max_examples=80, deadline=None)
@given(st.one_of(embedded_complexes(max_dim=3), loopy_complexes()), st.data())
def test_is_cycle_and_maximal_simplices_follow_faces_of(complex_, data):
    """is_cycle: the faces_of bits of the chain's simplices XOR to zero;
    maximal_simplices: the simplices that are no face of another."""
    for p in range(1, complex_.max_dim + 1):
        group = complex_.simplices(p)
        lower = complex_.simplices(p - 1)
        # a few simplices plus a few boundaries, so that cycles come up too
        chain = ChainVector(len(group), [])
        for s in data.draw(st.lists(st.sampled_from(group), max_size=2)):
            chain ^= complex_.chain([s], p)
        if complex_.simplices(p + 1):
            for t in data.draw(st.lists(st.sampled_from(complex_.simplices(p + 1)), max_size=3)):
                chain ^= complex_.chain(faces_of(t), p)
        mask = 0
        for s in complex_.chain_simplices(chain, p):
            for f in faces_of(s):
                mask ^= 1 << lower.index(f)
        assert complex_.is_cycle(chain, p) == (mask == 0)
    covered = {f for s in complex_.all_simplices() for f in faces_of(s)}
    assert complex_.maximal_simplices() == [s for s in complex_.all_simplices() if s not in covered]


def test_chain_accepts_unsorted_vertex_tuples():
    complex_ = fixtures.annulus().complex
    assert complex_.chain([(5, 4), (6, 5)]) == complex_.chain([(4, 5), (5, 6)])


def test_complexes_print_counts_and_maximal_simplices():
    assert repr(fixtures.filled_triangle().complex) == (
        "EmbeddedComplex(points=3, simplices=[3, 3, 1], top=[(0, 1, 2)])"
    )
    annulus = fixtures.annulus().complex
    assert repr(annulus) == (
        "EmbeddedComplex(points=9, simplices=[9, 16, 8], top=[(8,), (0, 1, 4), (0, 3, 7), "
        "(0, 4, 7), (1, 2, 5), (1, 4, 5), (2, 3, 6), (2, 5, 6), (3, 6, 7)])"
    )
    assert repr(EmbeddedComplex(annulus.cloud, [(0, 1, 4), (8,)])) == (
        "EmbeddedComplex(points=9, simplices=[4, 3, 1], top=[(8,), (0, 1, 4)])"
    )
    ring = EmbeddedComplex(PointCloud([(float(i), float(i * i)) for i in range(14)]),
                           [(i, i + 1) for i in range(13)])
    assert repr(ring).endswith("(10, 11), (11, 12), ...])")



def test_ball_induced_subcomplex_tolerance():
    inst = fixtures.annulus()

    def ball(radius, p):
        return [s for s, inside in zip(inst.complex.simplices(p), _ball_members(inst.complex, (0.0, 0.0), radius, p)) if inside]

    r_in = math.sqrt(0.5)
    # inner corners sit exactly on the sphere; relative tolerance admits them
    assert set(ball(r_in, 0)) == {(4,), (5,), (6,), (7,), (8,)}
    assert ball(r_in, 1) == [(4, 5), (4, 7), (5, 6), (6, 7)]
    assert ball(r_in * (1 - 1e-10), 0) == ball(r_in, 0)
    assert ball(r_in - 1e-6, 0) == [(8,)]


def test_boundary_columns_top_dimension_empty():
    complex_ = fixtures.hollow_triangle().complex
    assert boundary_columns(complex_, 1) == []
    filled = fixtures.filled_triangle().complex
    assert len(boundary_columns(filled, 1)) == 1


@settings(max_examples=40, deadline=None)
@given(embedded_complexes())
def test_boundary_rank_agrees_with_dense_oracle(complex_):
    for p in range(1, complex_.max_dim + 1):
        dp = boundary_columns(complex_, p - 1)
        dense = dense_from_columns(complex_.n_simplices(p - 1), list(map(mask_support, dp)))
        assert rank(dp) == gf2_rank(dense)
