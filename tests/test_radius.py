import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from conftest import embedded_complexes, point_clouds
from oracles import brute_min_enclosing_radius, lstsq_min_enclosing_sphere, site_ordering

from cyclerad.radius import (
    SphereCertificate,
    _circumsphere,
    chain_vertices,
    exact_radius,
    _sphere_of_boundary,
    min_enclosing_sphere,
    site_radius,
)
from cyclerad.complexes import PointCloud, as_rows, distances_from, within_radius

REL = 1e-9


def test_unit_square_sphere():
    cert = min_enclosing_sphere([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    assert cert.radius == pytest.approx(math.sqrt(0.5), rel=REL)
    assert cert.center == pytest.approx((0.5, 0.5), rel=REL)
    assert 1 <= len(cert.support) <= 3


def test_two_point_sphere():
    cert = min_enclosing_sphere([(0.0, 0.0), (2.0, 0.0)])
    assert cert.radius == pytest.approx(1.0)
    assert cert.center == pytest.approx((1.0, 0.0))


def test_single_point_sphere():
    cert = min_enclosing_sphere([(3.0, 4.0)])
    assert cert.radius == 0.0
    assert cert.center == pytest.approx((3.0, 4.0))
    assert cert.support == (0,)


def test_collinear_points_sphere():
    cert = min_enclosing_sphere([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    assert cert.radius == pytest.approx(1.5, rel=REL)
    assert cert.center == pytest.approx((1.5, 0.0), rel=REL)


@pytest.mark.parametrize("points, radius", [
    ([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], 1.5),  # collinear in 2-D
    ([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)], 1.0),  # concyclic in 3-D
])
def test_dependent_boundary_falls_back_to_its_subsets(points, radius):
    boundary = list(range(len(points)))
    assert _circumsphere(points, boundary) is None
    center, got = _sphere_of_boundary(points, boundary)
    expected, _ = brute_min_enclosing_radius(points)
    assert got == pytest.approx(expected, rel=REL) and got == pytest.approx(radius, rel=REL)
    assert all(within_radius(x, got) for x in distances_from(center, zip(*points)))


def test_interior_point_does_not_matter():
    cert = min_enclosing_sphere([(0.0, 0.0), (2.0, 0.0), (1.0, 0.1)])
    assert cert.radius == pytest.approx(1.0, rel=REL)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        min_enclosing_sphere(np.zeros((0, 2)))


@pytest.mark.parametrize("points, message", [
    ([(math.inf, 0.0), (0.0, 0.0)], "^point coordinates must be finite$"),
    ([(math.nan, 0.0), (0.0, 0.0)], "^point coordinates must be finite$"),
    ([(1e154, 0.0), (-1e154, 0.0)], "^point coordinates span too wide a range"),
])
def test_unusable_coordinates_rejected_as_a_point_cloud_rejects_them(points, message):
    with pytest.raises(ValueError, match=message):
        min_enclosing_sphere(points)
    with pytest.raises(ValueError, match=message):
        PointCloud(points)


@pytest.mark.parametrize("points", [
    [(1.0, 2.0), (1.0, 2.0)],  # coincident
    [(0.0, 0.0), (1e-200, 0.0)],  # every squared distance underflows, so no PointCloud holds them
])
def test_coincident_and_close_points_accepted(points):
    cert = min_enclosing_sphere(points)
    assert all(within_radius(x, cert.radius) for x in distances_from(cert.center, zip(*points)))


@settings(max_examples=80, deadline=None)
@given(point_clouds(min_points=1, max_points=10))
def test_sphere_matches_brute_force(cloud):
    pts = [tuple(map(float, cloud.point(i))) for i in range(cloud.n_points)]
    cert = min_enclosing_sphere(pts)
    expected_radius, _ = brute_min_enclosing_radius(pts)
    assert cert.radius == pytest.approx(expected_radius, rel=1e-7, abs=1e-9)
    for p in pts:
        assert cert.contains(p)



def recursive_welzl(pts):
    """Welzl's recursion on the points, as the solver ran before its loop:
    (center, radius) of the minimum enclosing sphere."""
    rows = as_rows(pts)
    n, d = len(rows), len(rows[0])

    def solve(i, boundary):
        if i == n or len(boundary) == d + 1:
            return _sphere_of_boundary(rows, boundary)
        sphere = solve(i + 1, boundary)
        if sphere is not None:
            center, radius = sphere
            if within_radius(distances_from(center, zip(rows[i]))[0], radius):
                return sphere
        return solve(i + 1, boundary + [i])

    return solve(0, [])


@st.composite
def awkward_point_sets(draw):
    """Up to 200 points in R^1..R^3: uniform, rounded to half-integers
    (repeats and exact ties), on one line, or on one sphere."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["uniform", "half-integer", "collinear", "cospherical"]))
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        pts = rng.uniform(-5, 5, size=(n, 1)) * rng.normal(size=d) + rng.normal(size=d)
    elif kind == "cospherical":
        directions = rng.normal(size=(n, d))
        pts = 3.0 * directions / np.linalg.norm(directions, axis=1, keepdims=True) + 1.0
    else:
        pts = rng.uniform(-5, 5, size=(n, d))
        if kind == "half-integer":
            pts = np.round(pts * 2) / 2
    return pts


@settings(max_examples=150, deadline=None)
@given(awkward_point_sets())
def test_sphere_loop_equals_recursion(pts):
    center, radius = recursive_welzl(pts)
    cert = min_enclosing_sphere(pts)
    assert cert.center == tuple(float(x) for x in center)
    assert cert.radius == radius


@settings(max_examples=150, deadline=None)
@given(awkward_point_sets())
def test_sphere_matches_the_lstsq_solver(pts):
    """Elimination with a rank test finds the radius the least-squares
    circumsphere found, and the sphere covers every point."""
    _, radius = lstsq_min_enclosing_sphere(pts)
    cert = min_enclosing_sphere(pts)
    assert cert.radius == pytest.approx(radius, rel=1e-9, abs=1e-12)
    assert all(cert.contains(p) for p in pts)
    assert 1 <= len(cert.support) <= pts.shape[1] + 1


def test_sphere_of_five_thousand_points():
    pts = np.random.default_rng(11).normal(size=(5000, 3))
    cert = min_enclosing_sphere(pts)
    assert all(cert.contains(p) for p in pts)
    assert 1 <= len(cert.support) <= 4
    for i in cert.support:
        assert float(np.linalg.norm(pts[i] - cert.center)) == pytest.approx(cert.radius, rel=1e-9)

def test_chain_vertices():
    inst = fixtures.annulus()
    assert chain_vertices(inst.complex, inst.inner_loop, 1) == (4, 5, 6, 7)
    empty = inst.complex.chain([], p=0)
    assert chain_vertices(inst.complex, empty, 0) == ()


def test_site_radius_annulus():
    inst = fixtures.annulus()
    assert site_radius(inst.complex, inst.center_vertex, inst.inner_loop, 1) == pytest.approx(
        math.sqrt(0.5), rel=REL
    )
    assert site_radius(inst.complex, inst.center_vertex, inst.outer_loop, 1) == pytest.approx(
        2 * math.sqrt(2), rel=REL
    )
    # from an inner corner the far inner corner is the binding vertex
    assert site_radius(inst.complex, 4, inst.inner_loop, 1) == pytest.approx(
        math.sqrt(2), rel=REL
    )


def test_site_radius_rejects_empty_chain():
    inst = fixtures.annulus()
    with pytest.raises(ValueError):
        site_radius(inst.complex, 0, inst.complex.chain([], p=1), 1)


def test_site_radius_is_last_simplex_entry():
    # the site ordering enters the chain's last simplex exactly at r_v(chain)
    inst = fixtures.annulus()
    so = site_ordering(inst.complex, 4)
    r = site_radius(inst.complex, 4, inst.inner_loop, 1)
    entry = max(
        so.r_values[so.order.index(s)]
        for s in inst.complex.chain_simplices(inst.inner_loop, 1)
    )
    assert r == pytest.approx(entry, rel=REL)


def test_exact_radius_inner_loop():
    inst = fixtures.annulus()
    cert = exact_radius(inst.complex, inst.inner_loop, 1)
    assert cert.radius == pytest.approx(math.sqrt(0.5), rel=REL)
    assert cert.center == pytest.approx((0.0, 0.0), abs=1e-9)
    assert set(cert.support) <= {4, 5, 6, 7}


def test_exact_radius_empty_chain():
    inst = fixtures.annulus()
    cert = exact_radius(inst.complex, inst.complex.chain([], p=1), 1)
    assert cert.radius == 0.0 and cert.center is None and cert.support == ()


def test_sphere_certificate_contains():
    cert = SphereCertificate((0.0, 0.0), 1.0, (0,))
    assert cert.contains((1.0, 0.0))
    assert cert.contains((0.0, 1.0 + 1e-10))
    assert not cert.contains((0.0, 1.001))
    assert not SphereCertificate(None, 0.0, ()).contains((0.0, 0.0))


@st.composite
def complex_with_chain(draw):
    complex_ = draw(embedded_complexes())
    p = draw(st.integers(0, complex_.max_dim))
    count = complex_.n_simplices(p)
    support = draw(st.sets(st.integers(0, count - 1), min_size=1))
    from cyclerad.z2 import ChainVector

    return complex_, ChainVector(count, sorted(support)), p


@settings(max_examples=60, deadline=None)
@given(complex_with_chain())
def test_site_minimum_sandwiches_exact_radius(args):
    complex_, chain, p = args
    r_exact = exact_radius(complex_, chain, p).radius
    best_site = min(
        site_radius(complex_, v, chain, p) for v in range(complex_.cloud.n_points)
    )
    assert r_exact <= best_site * (1 + 1e-9)
    assert best_site <= 2 * r_exact * (1 + 1e-9) + 1e-12
