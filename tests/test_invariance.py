"""Properties every answer keeps at any size, with no oracle to consult.

Relabelling: permuting the vertex ids of a mesh, a random complex or a
point cloud leaves every radius bit for bit as it was. Cycles need not map
through the permutation: simplices that share their farthest vertex from a
site tie on r, and those ties break by vertex id, so an equally small cycle
may win.

Stability: moving each point by at most delta, with the complex (and, for
bars, the filtration order) held fixed, moves every site radius of a fixed
chain by at most 2 delta, so each optimum moves by at most that much.

Scale: every tolerance is relative, so scaling the points by a power of two
scales every answer by it exactly, as long as no squared distance overflows
or leaves the normal floats; a cloud outside that range is refused.
"""
import math
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fixtures
from conftest import annulus_points, holed_mesh, loopy_complexes, scaled_rows

from cyclerad.complexes import MEMBERSHIP_REL_TOL, EmbeddedComplex, PointCloud
from cyclerad.filtrations import Filtration, compute_persistence, rips_filtration
from cyclerad.optimize import opt_homologous_cycle, opt_homology_basis, opt_persistent_basis

MESH_SIDE, MESH_HOLES = 9, {(2, 2), (5, 4)}
RIPS_POINTS, RIPS_SCALE = 40, 0.42
# powers of two to scale by: all inputs below are accepted and exact in
# [-510, 500], and the ends are refused
SCALE_LADDER = (-600, -540, -515, -513, -510, -45, 500, 504, 511, 600)


def relabelled(coords, simplices, seed):
    """The same input with vertex v renamed perm[v] for a seeded permutation."""
    perm = list(range(len(coords)))
    random.Random(seed).shuffle(perm)
    moved = [None] * len(coords)
    for v, row in enumerate(coords):
        moved[perm[v]] = row
    return moved, [tuple(perm[v] for v in s) for s in simplices]


def perturbed(coords, delta, seed):
    """Each point moved by at most delta, in a seeded direction."""
    rng = random.Random(seed)
    out = []
    for x, y in coords:
        t, u = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, delta)
        out.append((x + u * math.cos(t), y + u * math.sin(t)))
    return out


def mesh_radii(coords, triangles, outer):
    """Localize's r_v for the outer loop, and the basis r_v in order."""
    complex_ = EmbeddedComplex(PointCloud(coords), triangles)
    localized = opt_homologous_cycle(complex_, complex_.chain(outer, 1), 1)
    return localized.r_v, [c.r_v for c in opt_homology_basis(complex_, 1).cycles]


def bar_radii(filtration):
    """(interval, r_v) of every positive 1-bar, in bars() order."""
    results = opt_persistent_basis(compute_persistence(filtration, 1))
    assert results, "the input has no positive 1-bar"
    return [(res.interval, res.r_v) for res in results]


def assert_within_twice(delta, before, after):
    assert abs(after - before) <= 2 * delta + MEMBERSHIP_REL_TOL * max(before, after)


@pytest.mark.parametrize("seed", range(6))
def test_relabelling_a_mesh_keeps_every_radius(seed):
    coords, triangles, outer = holed_mesh(MESH_SIDE, MESH_HOLES, seed)
    moved, simplices = relabelled(coords, triangles + outer, seed)
    r_loc, r_basis = mesh_radii(coords, triangles, outer)
    s_loc, s_basis = mesh_radii(moved, simplices[: len(triangles)], simplices[len(triangles) :])
    assert len(r_basis) == len(MESH_HOLES)
    assert s_loc.hex() == r_loc.hex()
    assert list(map(float.hex, s_basis)) == list(map(float.hex, r_basis))


@settings(max_examples=100, deadline=None)
@given(loopy_complexes(), st.integers(0, 2**32 - 1))
def test_relabelling_a_loopy_complex_keeps_every_radius(complex_, seed):
    """As on the meshes, with the sum of the basis cycles as the loop."""
    cycles = [c.cycle for c in opt_homology_basis(complex_, 1).cycles]
    assume(cycles)
    top = complex_.maximal_simplices()
    outer = complex_.chain_simplices(reduce(xor, cycles), 1)
    moved, simplices = relabelled(complex_.cloud.coords, top + outer, seed)
    r_loc, r_basis = mesh_radii(complex_.cloud.coords, top, outer)
    s_loc, s_basis = mesh_radii(moved, simplices[: len(top)], simplices[len(top) :])
    assert s_loc.hex() == r_loc.hex()
    assert list(map(float.hex, s_basis)) == list(map(float.hex, r_basis))


@pytest.mark.parametrize("seed", range(12))
def test_relabelling_rips_points_keeps_every_bar_radius(seed):
    points = annulus_points(RIPS_POINTS, seed)
    moved, _ = relabelled(points, [], seed)

    def radii(coords):
        bars = bar_radii(rips_filtration(PointCloud(coords), RIPS_SCALE, 2))
        return sorted(map(float.hex, (r for _, r in bars)))

    assert radii(moved) == radii(points)


@pytest.mark.parametrize("seed", range(3))
def test_moving_mesh_points_moves_each_optimum_by_at_most_twice_as_far(seed):
    delta = 0.05 * (seed + 1)
    coords, triangles, outer = holed_mesh(MESH_SIDE, MESH_HOLES, seed)
    r_loc, r_basis = mesh_radii(coords, triangles, outer)
    s_loc, s_basis = mesh_radii(perturbed(coords, delta, seed), triangles, outer)
    assert_within_twice(delta, r_loc, s_loc)
    for before, after in zip(sorted(r_basis), sorted(s_basis), strict=True):
        assert_within_twice(delta, before, after)


@settings(max_examples=100, deadline=None)
@given(loopy_complexes(), st.floats(0.0, 0.25), st.integers(0, 2**32 - 1))
def test_moving_a_loopy_complex_moves_each_basis_radius_by_at_most_twice_as_far(complex_, delta, seed):
    """As on the meshes, for the sorted basis r_v of a random complex."""
    before = [c.r_v for c in opt_homology_basis(complex_, 1).cycles]
    assume(before)
    moved = EmbeddedComplex(PointCloud(perturbed(complex_.cloud.coords, delta, seed)), complex_.maximal_simplices())
    after = [c.r_v for c in opt_homology_basis(moved, 1).cycles]
    for r, s in zip(sorted(before), sorted(after), strict=True):
        assert_within_twice(delta, r, s)


@pytest.mark.parametrize("seed", range(3))
def test_moving_rips_points_moves_each_bar_optimum_by_at_most_twice_as_far(seed):
    """The unperturbed Rips order, kept as an explicit filtration of the
    moved points, fixes the bars; only their representatives' radii move."""
    delta = 0.01 * (seed + 1)
    points = annulus_points(RIPS_POINTS, seed)
    fixed = rips_filtration(PointCloud(points), RIPS_SCALE, 2)
    moved = EmbeddedComplex(PointCloud(perturbed(points, delta, seed)), fixed.order)
    before = bar_radii(fixed)
    after = bar_radii(Filtration(moved, fixed.order, fixed.values))
    assert [iv for iv, _ in after] == [iv for iv, _ in before]
    for (_, r), (_, s) in zip(before, after):
        assert_within_twice(delta, r, s)


def annulus_answers(exponent):
    """Localize of the annulus fixture's outer loop, then its basis, with the
    points scaled by 2^exponent."""
    ann = fixtures.annulus()
    complex_ = EmbeddedComplex(PointCloud(scaled_rows(ann.complex.cloud.coords, exponent)), ann.complex.maximal_simplices())
    return [opt_homologous_cycle(complex_, ann.outer_loop, 1), *opt_homology_basis(complex_, 1).cycles]


def ring_answers(exponent):
    """The bar pass of the 12-point unit ring's Rips filtration at scale 0.9,
    points and scale multiplied by 2^exponent."""
    cloud = PointCloud(scaled_rows(fixtures.circle_cloud(12).coords, exponent))
    return opt_persistent_basis(compute_persistence(rips_filtration(cloud, math.ldexp(0.9, exponent), 2), 1))


def scaled_result(res, exponent):
    """An answer with every length in it multiplied by 2^exponent."""

    def scale(x):
        return None if x is None else math.ldexp(x, exponent)

    cert, interval = res.certificate, res.interval
    return res._replace(
        r_v=scale(res.r_v),
        r_exact=scale(res.r_exact),
        certificate=cert._replace(center=tuple(map(scale, cert.center)), radius=scale(cert.radius)),
        interval=interval and interval._replace(birth_value=scale(interval.birth_value), death_value=scale(interval.death_value)),
    )


@pytest.mark.parametrize("exponent", SCALE_LADDER)
@pytest.mark.parametrize("answers", [annulus_answers, ring_answers])
def test_scaling_by_a_power_of_two_scales_every_answer_exactly_or_is_refused(answers, exponent):
    """Localize, basis and the bar pass at 2^exponent are the unscaled
    answers scaled exactly; past the coordinate range the cloud is refused."""
    try:
        got = answers(exponent)
    except ValueError as exc:
        assert "range" in str(exc)
        assert not -510 <= exponent <= 500
        return
    assert abs(exponent) < 600
    assert got == [scaled_result(res, exponent) for res in answers(0)]
