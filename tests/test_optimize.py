import math
import tempfile
from collections import deque
from functools import cache, reduce
from itertools import compress
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from conftest import (
    annulus_points,
    cavity_mesh,
    complex_with_cycle,
    disk_holed_mesh,
    embedded_complexes,
    filtered_complexes,
    four_hole_meshes,
    hollow_octahedra,
    holed_mesh,
    loopy_complexes,
    site_row,
)
from oracles import bounds_in_prefix, gf2_in_span, mask_support, solve_by_reduction

from cyclerad.complexes import EmbeddedComplex, PointCloud, boundary_columns, distances_from, within_radius
from cyclerad.filtrations import Filtration, compute_persistence, lower_star_filtration, rips_filtration
from cyclerad.io import read_filtration
from cyclerad.optimize import (
    HomologyBasisResult,
    _bar_representatives,
    _chosen_sites,
    _express_over,
    _result_for_cycle,
    _site_essential_cycles,
    _site_search,
    describe_cycle,
    opt_homologous_cycle,
    opt_homology_basis,
    opt_pers_hom_rep,
    opt_persistent_basis,
)
from cyclerad.radius import chain_vertices, exact_radius, site_radius
from cyclerad.shorten import SHORTEN_PASSES, _bfs_tree, _tree_path, shorten_cycle
from cyclerad.z2 import ChainVector, IncrementalSpan

REL = 1e-9


def bounds_in_full(complex_, chain, p):
    cols = [mask_support(m) for m in boundary_columns(complex_, p)]
    return gf2_in_span(cols, complex_.n_simplices(p), list(chain.support))


# -- single-site and global homologous-cycle optimization ------------------


def test_hollow_triangle_unique_class():
    inst = fixtures.hollow_triangle()
    for v in range(3):
        res = opt_homologous_cycle(inst.complex, inst.loop, 1, sites=[v])
        assert res.cycle == inst.loop
        assert res.r_v == pytest.approx(1.0, rel=REL)  # farthest vertex = far side
    best = opt_homologous_cycle(inst.complex, inst.loop, 1)
    # the equilateral sides differ by an ulp in float, so any vertex may win
    assert best.r_v == pytest.approx(1.0, rel=REL)
    assert best.site in (0, 1, 2)


def test_filled_triangle_trivial_class():
    inst = fixtures.filled_triangle()
    res = opt_homologous_cycle(inst.complex, inst.loop, 1)
    assert res.cycle.is_zero()
    assert res.r_v == 0.0 and res.r_exact == 0.0
    assert res.certificate.center is None


def test_annulus_center_site_returns_inner_loop():
    inst = fixtures.annulus()
    res = opt_homologous_cycle(inst.complex, inst.outer_loop, 1, sites=[inst.center_vertex])
    assert res.cycle == inst.inner_loop
    assert res.r_v == pytest.approx(math.sqrt(0.5), rel=REL)


def test_annulus_global_optimum_is_vertex_centered():
    inst = fixtures.annulus()
    res = opt_homologous_cycle(inst.complex, inst.outer_loop, 1)
    assert res.cycle == inst.inner_loop
    assert res.site == inst.center_vertex
    # the exact smallest sphere is centered on the site, so both radii agree
    assert res.r_v == pytest.approx(math.sqrt(0.5), rel=REL)
    assert res.r_exact == pytest.approx(res.r_v, rel=REL)


def test_wheel_rim_site_exactness():
    inst = fixtures.wheel_rim()
    res = opt_homologous_cycle(inst.complex, inst.loop, 1)
    assert res.site == 4
    assert res.r_v == pytest.approx(1.0, rel=REL)
    assert res.r_exact == pytest.approx(1.0, rel=REL)


def test_rejects_non_cycle():
    inst = fixtures.annulus()
    broken = inst.complex.chain([(0, 1)])
    with pytest.raises(ValueError):
        opt_homologous_cycle(inst.complex, broken, 1, sites=[0])
    with pytest.raises(ValueError):
        describe_cycle(inst.complex, broken, 1)


def test_site_subset_restricts_search():
    inst = fixtures.annulus()
    res = opt_homologous_cycle(inst.complex, inst.outer_loop, 1, sites=[0])
    assert res.site == 0
    with pytest.raises(ValueError):
        opt_homologous_cycle(inst.complex, inst.outer_loop, 1, sites=[])


@settings(max_examples=50, deadline=None)
@given(complex_with_cycle())
def test_output_is_homologous_to_input(args):
    complex_, cycle = args
    res = opt_homologous_cycle(complex_, cycle, 1)
    difference = res.cycle ^ cycle
    assert bounds_in_full(complex_, difference, 1)
    assert complex_.is_cycle(res.cycle, 1)
    assert res.r_exact <= res.r_v * (1 + REL)


@settings(max_examples=50, deadline=None)
@given(complex_with_cycle())
def test_global_result_never_beats_per_site(args):
    """The pruned search returns exactly the (r_v, site)-argmin over every
    site, so skipping sites never changes the answer."""
    complex_, cycle = args
    best = opt_homologous_cycle(complex_, cycle, 1)
    per_site = [
        opt_homologous_cycle(complex_, cycle, 1, sites=[v])
        for v in sorted(complex_.vertex_ids())
    ]
    assert best == min(per_site, key=lambda r: (r.r_v, r.site))


def every_cycle_localize(complex_, cycle, p):
    """Localize without the early stop: at every site, each essential cycle
    of the site ordering joins an extension of the boundaries before the
    input is expressed. Returns the (r_v, site)-least (r_v, site, chain)."""
    n_p = complex_.n_simplices(p)
    boundaries = IncrementalSpan(n_p, boundary_columns(complex_, p))
    best = None
    for site in sorted(complex_.vertex_ids()):
        span = IncrementalSpan(n_p, base=boundaries)
        for c in _site_essential_cycles(complex_, site_row(complex_, site), p)[0]:
            span.add(c.mask, c.mask)
        rest, tag = span.reduce(cycle.mask)
        assert rest == 0
        out = ChainVector(n_p, mask=tag)
        r = 0.0 if out.is_zero() else site_radius(complex_, site, out, p)
        if best is None or (r, site) < best[:2]:
            best = (r, site, out)
    return best


@st.composite
def loopy_complex_with_cycle(draw):
    """A loopy complex plus a sum of essential cycles of the lowest site."""
    complex_ = draw(loopy_complexes())
    cycle = ChainVector(complex_.n_simplices(1))
    for c in _site_essential_cycles(complex_, site_row(complex_, 0), 1)[0]:
        if draw(st.booleans()):
            cycle = cycle ^ c
    return complex_, cycle


@settings(max_examples=60, deadline=None)
@given(st.one_of(complex_with_cycle(), loopy_complex_with_cycle()))
def test_early_stop_matches_admitting_every_essential_cycle(args):
    """Stopping once the input lies in the span changes no chain, site or
    radius bit."""
    complex_, cycle = args
    r, site, out = every_cycle_localize(complex_, cycle, 1)
    res = opt_homologous_cycle(complex_, cycle, 1)
    assert (res.cycle, res.site, res.r_v.hex()) == (out, site, r.hex())


def test_exact_tie_reports_lowest_site():
    # at side 3 the three site radii are bitwise equal
    inst = fixtures.hollow_triangle(3.0)
    radii = {opt_homologous_cycle(inst.complex, inst.loop, 1, sites=[v]).r_v for v in range(3)}
    assert radii == {3.0}
    assert opt_homologous_cycle(inst.complex, inst.loop, 1).site == 0


def tight_tie_triangle():
    # site 0 is visited first and bounds site 1 at exactly its own radius 5;
    # site 2 reaches radius 5 first, and site 1 must still win the tie
    from cyclerad.complexes import EmbeddedComplex, PointCloud

    cloud = PointCloud([(8, 6), (4, 3), (4, -3), (0, 0), (8, 0), (4, 1)])
    complex_ = EmbeddedComplex(cloud, [(0,), (1,), (2,), (3, 4), (4, 5), (3, 5)])
    return complex_, complex_.chain([(3, 4), (4, 5), (3, 5)])


def test_tie_at_a_tight_lower_bound_is_not_skipped():
    complex_, loop = tight_tie_triangle()
    res = opt_homologous_cycle(complex_, loop, 1, sites=[0, 1, 2])
    assert (res.site, res.r_v) == (1, 5.0)


def test_tie_break_ignores_site_order():
    inst = fixtures.wheel_rim()
    res = opt_homologous_cycle(inst.complex, inst.loop, 1, sites=[3, 2, 1])
    assert res.site == 1
    assert res.r_v == 2.0


# -- homology basis --------------------------------------------------------


def test_filled_triangle_empty_basis():
    inst = fixtures.filled_triangle()
    basis = opt_homology_basis(inst.complex, 1)
    assert basis.cycles == () and basis.total_weight == 0


def test_basis_total_weight_is_the_left_to_right_float_sum():
    """With no classes the total is the float 0.0; otherwise the r_v summed
    left to right, as sum() of floats gave them before Python 3.12."""
    assert repr(opt_homology_basis(fixtures.filled_triangle().complex, 1).total_weight) == "0.0"
    coords, triangles, _ = holed_mesh(12, {(2, 2), (2, 8), (8, 2), (8, 8)}, 25)
    basis = opt_homology_basis(EmbeddedComplex(PointCloud(coords), triangles), 1)
    total = 0.0
    for result in basis.cycles:
        total += result.r_v
    assert len(basis.cycles) == 4 and basis.total_weight.hex() == total.hex()


def test_hollow_triangle_single_basis():
    inst = fixtures.hollow_triangle()
    basis = opt_homology_basis(inst.complex, 1)
    assert len(basis.cycles) == 1
    assert basis.cycles[0].cycle == inst.loop
    assert basis.total_weight == pytest.approx(1.0, rel=REL)


def test_figure_eight_basis():
    inst = fixtures.figure_eight()
    basis = opt_homology_basis(inst.complex, 1)
    assert len(basis.cycles) == 2
    assert basis.cycles[0].cycle == inst.small_loop
    assert basis.cycles[1].cycle == inst.big_loop
    assert basis.cycles[0].r_v == pytest.approx(1.0, rel=REL)
    assert basis.cycles[1].r_v == pytest.approx(2.0, rel=REL)
    assert basis.total_weight == pytest.approx(3.0, rel=REL)


def test_figure_eight_basis_beats_mixed_alternative():
    # replacing the big loop with small+big costs 1 + r(sum) with r(sum) >= 2
    inst = fixtures.figure_eight()
    basis = opt_homology_basis(inst.complex, 1)
    mixed = inst.small_loop ^ inst.big_loop
    r_mixed = min(
        site_radius(inst.complex, v, mixed, 1) for v in range(5)
    )
    assert basis.total_weight <= 1.0 + r_mixed + 1e-12


def test_basis_dimension_must_be_positive():
    inst = fixtures.hollow_triangle()
    with pytest.raises(ValueError):
        opt_homology_basis(inst.complex, 0)


@settings(max_examples=40, deadline=None)
@given(embedded_complexes())
def test_basis_spans_and_is_independent(complex_):
    from oracles import betti_by_rank

    basis = opt_homology_basis(complex_, 1)
    beta = betti_by_rank(list(complex_.all_simplices()), 1)
    assert len(basis.cycles) == beta
    cols = [mask_support(m) for m in boundary_columns(complex_, 1)]
    n = complex_.n_simplices(1)
    from oracles import dense_from_columns, gf2_rank

    base_rank = gf2_rank(dense_from_columns(n, cols))
    for k, entry in enumerate(basis.cycles):
        # each admitted cycle enlarges the span over boundaries + previous
        assert not gf2_in_span(cols, n, list(entry.cycle.support))
        cols = cols + [list(entry.cycle.support)]
    assert gf2_rank(dense_from_columns(n, cols)) == base_rank + beta
    weights = [e.r_v for e in basis.cycles]
    assert weights == sorted(weights)


def measured_result(complex_, cycle, p, site, interval=None):
    """The result with r_v measured by site_radius, as results were before the
    site search handed them its radius."""
    r_v = 0.0 if cycle.is_zero() else site_radius(complex_, site, cycle, p)
    return _result_for_cycle(complex_, cycle, p, site, r_v, interval)


def exhaustive_basis(complex_, p, sites=None):
    """The greedy over the essential cycles of every site, none skipped."""
    chosen = sorted(set(complex_.vertex_ids() if sites is None else sites))
    pool = []
    for v in chosen:
        cycles, radii = _site_essential_cycles(complex_, site_row(complex_, v), p)
        pool += [(r, v, k, c) for k, (c, r) in enumerate(zip(cycles, radii))]
    pool.sort(key=lambda t: t[:3])
    span = IncrementalSpan(complex_.n_simplices(p), boundary_columns(complex_, p))
    admitted = [
        measured_result(complex_, c, p, v)
        for _, v, _, c in pool
        if span.add(c.mask)
    ]
    return HomologyBasisResult(tuple(admitted), reduce(add, (x.r_v for x in admitted), 0.0))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.one_of(embedded_complexes(max_points=14, max_top_cells=16), loopy_complexes(),
                            four_hole_meshes()), st.just(1)),
        st.tuples(hollow_octahedra(), st.just(2)),
    ),
    st.data(),
)
def test_pruned_basis_equals_exhaustive_basis(args, data):
    """Skipping sites the greedy cannot reach, and reading the others only
    inside the threshold ball, changes no cycle, site, radius or order, on
    every site and on a drawn subset of sites."""
    complex_, p = args
    assert opt_homology_basis(complex_, p) == exhaustive_basis(complex_, p)
    subset = data.draw(
        st.lists(st.sampled_from(sorted(complex_.vertex_ids())), min_size=1, unique=True)
    )
    assert opt_homology_basis(complex_, p, sites=subset) == exhaustive_basis(
        complex_, p, subset
    )


def test_pruned_basis_ties_to_the_lowest_site():
    # at side 3 the three site radii are bitwise equal, so site 0 must win
    inst = fixtures.hollow_triangle(3.0)
    basis = opt_homology_basis(inst.complex, 1)
    assert basis == exhaustive_basis(inst.complex, 1)
    assert basis.cycles[0].site == 0


def test_basis_tie_at_a_tight_lower_bound_is_not_skipped():
    complex_, loop = tight_tie_triangle()
    basis = opt_homology_basis(complex_, 1, sites=[0, 1, 2])
    assert basis == exhaustive_basis(complex_, 1, [0, 1, 2])
    assert [(c.site, c.r_v, c.cycle) for c in basis.cycles] == [(1, 5.0, loop)]


def record_kernel_calls(monkeypatch):
    """Replace the per-site kernel by one that also lists (site, radius) of
    each call, and return the list. The site is the one point its row puts
    at distance 0, as the points are distinct."""
    import cyclerad.optimize as optimize

    calls = []
    original = optimize._site_essential_cycles

    def kernel(complex_, dist, p, *args, **kwargs):
        calls.append((dist.index(0.0), kwargs.get("radius", math.inf)))
        return original(complex_, dist, p, *args, **kwargs)

    monkeypatch.setattr(optimize, "_site_essential_cycles", kernel)
    return calls


def ball_size(complex_, site, radius):
    """The simplices of the complex with every vertex within radius of the site."""
    dist = site_row(complex_, site)
    return sum(all(dist[v] <= radius for v in s) for s in complex_.all_simplices())


def test_pruned_basis_empty_homology_stops_after_one_site(monkeypatch):
    inst = fixtures.filled_triangle()
    calls = record_kernel_calls(monkeypatch)
    assert opt_homology_basis(inst.complex, 1) == exhaustive_basis(inst.complex, 1)
    # vertex 2 is the one nearest the centre (1/2, sqrt(3)/4) of the bounding box
    assert calls == [(2, math.inf)]


def test_basis_skips_sites_the_greedy_cannot_reach(monkeypatch):
    inst = fixtures.annulus()
    complex_ = inst.complex
    calls = record_kernel_calls(monkeypatch)
    basis = opt_homology_basis(complex_, 1)
    assert basis == exhaustive_basis(complex_, 1)
    assert basis.cycles[0].site == inst.center_vertex
    # the search starts at the centre; every later site is cut at the
    # threshold, which the centre's inner loop sets at once
    assert calls[0] == (inst.center_vertex, math.inf)
    assert all(radius == basis.cycles[-1].r_v for _, radius in calls[1:])
    assert sum(ball_size(complex_, v, radius) for v, radius in calls[1:]) < complex_.total_simplices()

    calls.clear()
    coords, triangles, _ = holed_mesh(14, {(2, 2), (2, 9), (9, 2), (9, 9)}, 7)
    mesh = EmbeddedComplex(PointCloud(coords), triangles)
    assert len(opt_homology_basis(mesh, 1).cycles) == 4
    assert len(calls) < len(mesh.vertex_ids())
    assert sum(ball_size(mesh, v, radius) for v, radius in calls) < len(calls) * mesh.total_simplices()


def test_tiny_meshes_scale_bit_for_bit():
    """Every tolerance is relative to the radius it tests, so scaling the
    points by a power of two scales each radius by it exactly and changes no
    cycle or site."""
    coords, triangles, outer = holed_mesh(18, {(3, 3), (11, 12)}, 16)

    def solve(exponent):
        cloud = PointCloud([[math.ldexp(x, exponent) for x in row] for row in coords])
        complex_ = EmbeddedComplex(cloud, triangles)
        return [opt_homologous_cycle(complex_, complex_.chain(outer, 1), 1), *opt_homology_basis(complex_, 1).cycles]

    unit = solve(0)
    assert len(unit) == 3
    for exponent in (-30, -40):
        for a, b in zip(unit, solve(exponent), strict=True):
            assert (b.cycle, b.site) == (a.cycle, a.site)
            assert (b.r_v, b.r_exact) == (math.ldexp(a.r_v, exponent), math.ldexp(a.r_exact, exponent))


@settings(max_examples=40, deadline=None)
@given(st.one_of(embedded_complexes(max_points=10, max_top_cells=14), loopy_complexes(max_points=10)))
def test_first_essential_radius_is_lipschitz_in_the_site(complex_):
    """r1(w) >= r1(v) - |p_v - p_w|: the bound the basis pruning rests on."""
    coords = complex_.cloud.coords
    for p in (1, 2):
        first = {}
        for v in complex_.vertex_ids():
            _, radii = _site_essential_cycles(complex_, site_row(complex_, v), p)
            if radii:
                first[v] = radii[0]
        for v, r_v in first.items():
            for w, r_w in first.items():
                assert r_w >= r_v - math.dist(coords[v], coords[w]) - 1e-12


# -- planted bounds at scale ------------------------------------------------

# (k, seed, disks): a k x k jittered grid less every triangle that meets a
# disk (centre, radius); the disks differ in radius and lie far apart
PLANTED = {
    "1024-vertices": (32, 3, [((9.3, 9.1), 1.0), ((21.2, 20.4), 3.0)]),
    "1296-vertices": (36, 1, [((8.3, 8.1), 0.8), ((24.2, 11.4), 2.6), ((12.6, 25.3), 4.2)]),
    "2304-vertices": (48, 2, [((14.2, 30.5), 4.0), ((33.7, 17.1), 2.0)]),
}


def planted_mesh(name):
    """The mesh, its hole radii, and per hole the loop around it as a chain."""
    k, seed, disks = PLANTED[name]
    coords, triangles, loops = disk_holed_mesh(k, disks, seed)
    complex_ = EmbeddedComplex(PointCloud(coords), triangles)
    return complex_, [rho for _, rho in disks], [complex_.chain(loop, 1) for loop in loops]


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_localize_meets_the_planted_hole_bounds(name):
    """A Z2 cycle in a round hole's class winds an odd number of times round
    every point of the hole, so the hole lies in its convex hull and its
    enclosing ball: rho <= r_exact. The hole's loop is in the class, so the
    x2 guarantee gives r_v <= 2 r_exact(loop)."""
    complex_, radii, loops = planted_mesh(name)
    for rho, loop in zip(radii, loops):
        res = opt_homologous_cycle(complex_, loop, 1)
        assert rho <= res.r_exact * (1 + REL)
        assert res.r_exact <= res.r_v * (1 + REL)
        assert res.r_v <= 2 * exact_radius(complex_, loop, 1).radius * (1 + REL)


@pytest.mark.parametrize("name", ["1024-vertices", "1296-vertices"])
def test_basis_meets_the_planted_hole_bounds(name):
    """A class is a parity vector over the holes, and a cycle winds oddly only
    round holes inside its ball. So k independent cycles involve at least k
    holes, and the k-th smallest r_exact is at least the k-th smallest hole
    radius."""
    complex_, radii, _ = planted_mesh(name)
    got = sorted(c.r_exact for c in opt_homology_basis(complex_, 1).cycles)
    assert len(got) == len(radii)
    assert all(rho <= r * (1 + REL) for rho, r in zip(sorted(radii), got))


# (k, seed, centre, radius): a k x k x k jittered grid less every tetrahedron
# that meets the ball (centre, radius), which lies well inside the grid
CAVITY = (7, 1, (3.1, 2.9, 3.05), 1.2)


def cavity_complex():
    """The cavity mesh, the ball's radius, and the cavity surface as a chain."""
    k, seed, centre, rho = CAVITY
    coords, tetrahedra, surface = cavity_mesh(k, centre, rho, seed)
    complex_ = EmbeddedComplex(PointCloud(coords), tetrahedra)
    return complex_, rho, complex_.chain(surface, 2)


def test_localize_meets_the_planted_cavity_bounds():
    """The p = 2 form of the hole bounds: a Z2 2-cycle in the cavity's class
    encloses every point of the cavity an odd number of times, so the ball
    lies in its convex hull and its enclosing ball: rho <= r_exact. The
    surface is in the class, so the x2 guarantee gives r_v <= 2 r_exact(surface)."""
    complex_, rho, surface = cavity_complex()
    res = opt_homologous_cycle(complex_, surface, 2)
    assert rho <= res.r_exact * (1 + REL)
    assert res.r_exact <= res.r_v * (1 + REL)
    assert res.r_v <= 2 * exact_radius(complex_, surface, 2).radius * (1 + REL)


def test_basis_meets_the_planted_cavity_bound():
    """One cavity, one 2-class: the basis is one cycle, and it encloses the ball."""
    complex_, rho, _ = cavity_complex()
    (cycle,) = opt_homology_basis(complex_, 2).cycles
    assert rho <= cycle.r_exact * (1 + REL)


# -- persistent representatives -------------------------------------------


def interval_conditions_hold(filtration, interval, result):
    complex_ = filtration.complex
    rep = result.cycle
    simplices = complex_.chain_simplices(rep, interval.dim)
    assert interval.creator in simplices
    assert all(filtration.index_of(s) <= interval.birth for s in simplices)
    assert complex_.is_cycle(rep, interval.dim)
    if interval.death is not None:
        assert not bounds_in_prefix(filtration, interval.death - 1, rep, interval.dim)
        assert bounds_in_prefix(filtration, interval.death, rep, interval.dim)
    else:
        assert not bounds_in_prefix(filtration, len(filtration) - 1, rep, interval.dim)


def test_lower_star_triangle_representative():
    complex_ = fixtures.hollow_triangle().complex
    filtration = lower_star_filtration(complex_, {0: 0.0, 1: 1.0, 2: 2.0})
    res = compute_persistence(filtration, 1)
    interval = res.intervals[0]
    for v in range(3):
        out = opt_pers_hom_rep(filtration, interval, sites=[v])
        assert out.cycle == fixtures.hollow_triangle().loop
        interval_conditions_hold(filtration, interval, out)
    best = opt_pers_hom_rep(filtration, interval)
    assert best.cycle == fixtures.hollow_triangle().loop
    assert best.interval == interval


def test_annulus_bar_representative():
    filtration, _ = fixtures.annulus_bar_filtration()
    res = compute_persistence(filtration, 1)
    bar = [iv for iv in res.intervals if iv.value_length() > 0][0]
    out = opt_pers_hom_rep(filtration, bar)
    inner = filtration.complex.chain([(4, 5), (4, 7), (5, 6), (6, 7)])
    assert out.cycle == inner
    assert out.site == 8
    assert out.r_v == pytest.approx(math.sqrt(0.5), rel=REL)
    interval_conditions_hold(filtration, bar, out)


def test_two_loop_bar_representatives():
    filtration = fixtures.two_loop_filtration()
    res = compute_persistence(filtration, 1)
    bars = {
        (iv.birth_value, iv.death_value): iv
        for iv in res.intervals
        if iv.value_length() > 0
    }
    assert set(bars) == {(1.0, 4.0), (2.0, 3.0)}
    long_rep = opt_pers_hom_rep(filtration, bars[(1.0, 4.0)])
    # birth prefix of the long bar is the outer triangle alone
    assert filtration.complex.chain_simplices(long_rep.cycle, 1) == [
        (0, 1),
        (0, 2),
        (1, 2),
    ]
    interval_conditions_hold(filtration, bars[(1.0, 4.0)], long_rep)
    short_rep = opt_pers_hom_rep(filtration, bars[(2.0, 3.0)])
    # must bound in K_d, which only the inner+outer sum does
    assert len(short_rep.cycle) == 6
    interval_conditions_hold(filtration, bars[(2.0, 3.0)], short_rep)


@settings(max_examples=40, deadline=None)
@given(filtered_complexes())
def test_persistent_representatives_on_random_filtrations(filtration):
    res = compute_persistence(filtration, 1)
    sites = sorted(filtration.complex.vertex_ids())
    for interval in res.intervals:
        out = opt_pers_hom_rep(filtration, interval)
        interval_conditions_hold(filtration, interval, out)
        assert out.r_exact <= out.r_v * (1 + REL)
        per_site = [opt_pers_hom_rep(filtration, interval, sites=[v]) for v in sites]
        assert out == min(per_site, key=lambda r: (r.r_v, r.site))


def test_bar_search_tie_goes_to_the_lower_site_at_its_creator_bound():
    """A unit square whose last edge (2, 3) creates the one bar: every site
    reaches sqrt(2), the diagonal. Sites 2 and 3 start at creator bound 1 and
    are visited first; site 0 starts at sqrt(2), the optimum bit for bit, and
    must still be visited to win the tie."""
    square = EmbeddedComplex(
        PointCloud([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
        [(0, 1), (0, 3), (1, 2), (2, 3)],
    )
    order = [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3)]
    filtration = Filtration(square, order, range(len(order)))
    (bar,) = compute_persistence(filtration, 1).bars()
    assert bar.creator == (2, 3)
    out = opt_pers_hom_rep(filtration, bar)
    assert max(square.cloud.distance(0, u) for u in bar.creator) == out.r_v == math.sqrt(2)
    assert [opt_pers_hom_rep(filtration, bar, sites=[v]).r_v for v in range(4)] == [math.sqrt(2)] * 4
    assert out.site == 0


def bounds_born_by_death(filtration, interval):
    """Boundaries of the (p+1)-simplices in the filtration by the death index."""
    complex_ = filtration.complex
    p = interval.dim
    return [
        ChainVector(complex_.n_simplices(p), mask=m)
        for m, tau in zip(boundary_columns(complex_, p), complex_.simplices(p + 1))
        if filtration.index_of(tau) <= interval.death
    ]


def birth_prefix_candidates(filtration, interval, site):
    """The bar pass's anchor and other candidates at one site: the essential
    cycles of the birth prefix, flagged on the filtration's complex, rotated
    so only the first that holds the creator, the anchor, keeps it."""
    complex_ = filtration.complex
    members = [
        [filtration.index_of(s) <= interval.birth for s in complex_.simplices(d)]
        for d in range(interval.dim + 2)
    ]
    creator = complex_.position(interval.creator)
    essential, _ = _site_essential_cycles(complex_, site_row(complex_, site), interval.dim, members)
    alpha = next(j for j, c in enumerate(essential) if creator in c)
    anchor = essential[alpha]
    return anchor, [c ^ anchor if creator in c else c for j, c in enumerate(essential) if j != alpha]


@settings(max_examples=30, deadline=None)
@given(filtered_complexes(), st.integers(0, 7))
def test_binary_search_boundary(filtration, site_seed):
    """The admitted prefix is minimal: one fewer candidate cycle makes the
    bounding system infeasible."""
    res = compute_persistence(filtration, 1)
    finite = [iv for iv in res.intervals if iv.death is not None]
    if not finite:
        return
    interval = finite[site_seed % len(finite)]
    complex_ = filtration.complex
    site = sorted(complex_.vertex_ids())[site_seed % complex_.cloud.n_points]
    anchor, others = birth_prefix_candidates(filtration, interval, site)
    n_p = complex_.n_simplices(1)
    death_bounds = bounds_born_by_death(filtration, interval)

    def feasible(i):
        return (
            solve_by_reduction(n_p, [c.mask for c in death_bounds + others[:i]], anchor.mask)
            is not None
        )

    out = opt_pers_hom_rep(filtration, interval, sites=[site])
    i_star = next(i for i in range(len(others) + 1) if feasible(i))
    assert feasible(i_star)
    if i_star > 0:
        assert not feasible(i_star - 1)
    interval_conditions_hold(filtration, interval, out)


def binary_search_representative(filtration, interval, site):
    """The bar pass as it was: a binary search of solve_by_reduction calls
    over how many candidate cycles are admitted. The incremental pass must
    pick the same chain."""
    anchor, others = birth_prefix_candidates(filtration, interval, site)
    n_p = filtration.complex.n_simplices(interval.dim)
    death_bounds = bounds_born_by_death(filtration, interval)

    def feasible(i):
        return solve_by_reduction(n_p, [c.mask for c in death_bounds + others[:i]], anchor.mask)

    lo, hi = 0, len(others)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    out = anchor
    for j in feasible(lo):
        if j >= len(death_bounds):
            out = out ^ others[j - len(death_bounds)]
    return out


@settings(max_examples=40, deadline=None)
@given(filtered_complexes(max_dim=3, max_top_cells=12))
def test_incremental_bar_pass_matches_binary_search(filtration):
    for p in (1, 2):
        for interval in compute_persistence(filtration, p).intervals:
            if interval.death is None:
                continue
            for site in filtration.complex.vertex_ids():
                out = opt_pers_hom_rep(filtration, interval, sites=[site])
                assert out.cycle == binary_search_representative(filtration, interval, site)


def test_persistent_basis_two_loop_counts():
    filtration = fixtures.two_loop_filtration()
    res = compute_persistence(filtration, 1)
    reps = opt_persistent_basis(res)
    # zero-length intervals get no representative
    assert len(res.intervals) == 7
    assert len(reps) == 2
    for rep in reps:
        interval_conditions_hold(filtration, rep.interval, rep)


@pytest.mark.parametrize("top", [None, 1])
def test_persistent_basis_runs_over_the_selected_bars(top):
    res = compute_persistence(fixtures.two_loop_filtration(), 1)
    assert [r.interval for r in opt_persistent_basis(res, top=top)] == res.bars(top)


def test_persistent_basis_matches_homology_basis_on_figure_eight():
    inst = fixtures.figure_eight()
    filtration = lower_star_filtration(inst.complex, {v: 0.0 for v in range(5)})
    reps = opt_persistent_basis(compute_persistence(filtration, 1))
    assert len(reps) == 2
    basis = opt_homology_basis(inst.complex, 1)
    assert {r.cycle for r in reps} == {c.cycle for c in basis.cycles}


@st.composite
def annulus_rips(draw):
    """A Rips filtration of 48 to 80 annulus points at a scale where several
    small holes are born and most of them die."""
    points = annulus_points(draw(st.integers(48, 80)), draw(st.integers(0, 10**6)))
    return rips_filtration(PointCloud(points), draw(st.floats(0.26, 0.34)), 2)


def rep_key(rep):
    return rep.interval, rep.cycle, rep.site, rep.r_v.hex()


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(filtered_complexes(), st.integers(0, 1)), st.tuples(annulus_rips(), st.just(1))))
def test_persistent_basis_equals_one_bar_at_a_time(args):
    """The bar pass over every bar shares the boundary table, and each bar
    still gets its own death span."""
    filtration, p = args
    per = compute_persistence(filtration, p)
    expected = [rep_key(opt_pers_hom_rep(filtration, iv)) for iv in per.bars()]
    assert [rep_key(r) for r in opt_persistent_basis(per)] == expected


def test_persistent_basis_builds_the_boundary_table_once(monkeypatch):
    import cyclerad.optimize as optimize

    calls = []
    original = optimize.boundary_columns
    monkeypatch.setattr(optimize, "boundary_columns", lambda *args: calls.append(args) or original(*args))
    several = compute_persistence(rips_filtration(PointCloud(annulus_points(80, 26)), 0.3, 2), 1)
    assert sum(iv.death is not None for iv in several.bars()) == 6
    assert len(opt_persistent_basis(several)) == 7
    assert len(calls) == 1

    calls.clear()
    figure_eight = lower_star_filtration(fixtures.figure_eight().complex, {v: 0.0 for v in range(5)})
    essential = compute_persistence(figure_eight, 1)
    assert [iv.death for iv in essential.bars()] == [None, None]
    assert len(opt_persistent_basis(essential)) == 2
    assert calls == []


def per_bar_evaluator(filtration, interval):
    """The bar pass's evaluate(site) -> (r_v, chain) one bar at a time, as it
    was before the bars shared a span: each site reduces against a fresh span
    of the boundaries born by the death, entered in canonical order as
    bounds_born_by_death lists them."""
    complex_, p = filtration.complex, interval.dim
    n_p = complex_.n_simplices(p)
    death_bounds = None if interval.death is None else [c.mask for c in bounds_born_by_death(filtration, interval)]

    def evaluate(site):
        anchor, others = birth_prefix_candidates(filtration, interval, site)
        out = anchor
        if death_bounds is not None:
            span = IncrementalSpan(n_p, death_bounds)
            rest, tag = span.reduce(anchor.mask)
            for c in others:
                if not rest:
                    break
                span.add(c.mask, c.mask)
                rest, tag = span.reduce(rest, tag)
            out = anchor ^ ChainVector(n_p, mask=tag)
        return site_radius(complex_, site, out, p), out

    return evaluate


def per_bar_representative(filtration, interval):
    """The bar's representative from per_bar_evaluator's answers."""
    evaluate = per_bar_evaluator(filtration, interval)
    _, site, out = _site_search(filtration.complex, None, lambda site, dist, cut: evaluate(site),
                                contains=interval.creator)
    return measured_result(filtration.complex, out, interval.dim, site, interval)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(filtered_complexes(), st.integers(0, 1)),
        st.tuples(annulus_rips(), st.just(1)),
        # its two bars need more than the anchor, so a span holding too much shows
        st.just((fixtures.two_loop_filtration(), 1)),
    ),
    st.data(),
)
def test_bar_pass_in_any_order_equals_the_per_bar_evaluator(args, data):
    """One span grown in death order, with every trial extending it, gives
    each bar the answer of its own canonical-order death span, and the
    results come back in the order the bars were given."""
    filtration, p = args
    bars = data.draw(st.permutations(compute_persistence(filtration, p).bars()))
    expected = [rep_key(per_bar_representative(filtration, iv)) for iv in bars]
    assert [rep_key(r) for r in _bar_representatives(filtration, bars)] == expected


def test_each_boundary_enters_a_span_once_per_request(monkeypatch):
    """The bars share one death-ordered span: a boundary enters it once, and
    only the boundaries born by the last death enter at all."""
    entered = []
    add = IncrementalSpan.add

    def counted(span, mask, tag=0):
        if not tag:  # boundaries enter untagged; the trial cycles carry themselves as tags
            entered.append(mask)
        return add(span, mask, tag)

    monkeypatch.setattr(IncrementalSpan, "add", counted)
    per = compute_persistence(rips_filtration(PointCloud(annulus_points(80, 26)), 0.3, 2), 1)
    assert len(opt_persistent_basis(per)) == 7
    last = max(iv.death for iv in per.bars() if iv.death is not None)
    born = [m for m, i in zip(boundary_columns(per.filtration.complex, 1), per.filtration.indices[2]) if i <= last]
    assert sorted(entered) == sorted(born)


def annulus_with_a_stray_point():
    """The annulus fixture with a tenth cloud point, 9, in no simplex."""
    ann = fixtures.annulus()
    coords = [ann.complex.cloud.point(v) for v in range(9)] + [(5.0, 5.0)]
    return EmbeddedComplex(PointCloud(coords), ann.complex.maximal_simplices())


@pytest.mark.parametrize("site", [-1, 99, 9])
@pytest.mark.parametrize("solver", ["localize", "basis", "bar", "describe"])
def test_a_site_that_is_not_a_vertex_is_rejected(solver, site):
    complex_ = annulus_with_a_stray_point()
    outer = complex_.chain([(0, 1), (1, 2), (2, 3), (0, 3)])
    filtration = lower_star_filtration(complex_, {v: complex_.cloud.point(v)[1] for v in complex_.vertex_ids()})
    (bar,) = compute_persistence(filtration, 1).bars()
    run = {
        "localize": lambda: opt_homologous_cycle(complex_, outer, 1, sites=[0, site]),
        "basis": lambda: opt_homology_basis(complex_, 1, sites=[0, site]),
        "bar": lambda: opt_pers_hom_rep(filtration, bar, sites=[0, site]),
        "describe": lambda: describe_cycle(complex_, outer, 1, site=site),
    }[solver]
    with pytest.raises(ValueError, match=f"^site {site} is not a vertex of the complex$"):
        run()


# -- the site search against its earlier form ----------------------------------


def parent_site_search(complex_like, sites, evaluate, cutoff, visits, contains=(), centred=False):
    """The site search as it was: bounds for the chosen sites only, each
    visit recomputing the site's distances; evaluate(site) -> r_v. Appends
    (site, r_v.hex()) to visits per evaluation."""
    chosen = _chosen_sites(complex_like, sites)
    columns = [[column[v] for v in chosen] for column in complex_like.cloud.columns]
    bound = [0.0] * len(chosen)
    for u in contains:
        bound = list(map(max, bound, distances_from(complex_like.cloud.point(u), columns)))
    if centred:
        near = distances_from([(min(c) + max(c)) / 2 for c in columns], columns)
        bound[near.index(min(near))] = -math.inf
    while True:
        k = bound.index(min(bound))
        if bound[k] == math.inf or not within_radius(bound[k], cutoff()):
            break
        bound[k] = math.inf
        r = evaluate(chosen[k])
        visits.append((chosen[k], r.hex()))
        near = distances_from(complex_like.cloud.point(chosen[k]), columns)
        bound = [b if b >= r - x else r - x for b, x in zip(bound, near)]


def parent_best_site(complex_like, sites, evaluate, visits, contains=()):
    """_best_site as it was: evaluate(site) -> (r_v, chain), the search cut
    at the best radius so far, and the (r_v, site)-least site and chain."""
    best = [math.inf, -1, None]

    def visit(site):
        r, chain = evaluate(site)
        if (r, site) < (best[0], best[1]):
            best[:] = r, site, chain
        return r

    parent_site_search(complex_like, sites, visit, lambda: -math.inf if best[0] == 0.0 else best[0], visits, contains)
    return best[1], best[2]


def parent_kernel(complex_like, site, p, *args, **kwargs):
    """The kernel as it was called, by site, computing the site's row itself;
    its ranking and reduction are held to their earlier form in
    test_filtrations.py."""
    return _site_essential_cycles(complex_like, site_row(complex_like, site), p, *args, **kwargs)


def parent_localize(complex_, cycle, p, sites, visits):
    n_p = complex_.n_simplices(p)
    boundaries = IncrementalSpan(n_p, boundary_columns(complex_, p))
    rest = ChainVector(n_p, mask=boundaries.reduce(cycle.mask)[0])

    def evaluate(site):
        essential, _ = parent_kernel(complex_, site, p)
        out = ChainVector(n_p, mask=_express_over(boundaries, essential, rest))
        return (0.0 if out.is_zero() else site_radius(complex_, site, out, p)), out

    site, out = parent_best_site(complex_, sites, evaluate, visits)
    return measured_result(complex_, out, p, site)


def parent_basis(complex_, p, sites, visits):
    admitted = None
    boundaries = IncrementalSpan(complex_.n_simplices(p), boundary_columns(complex_, p))

    def evaluate(site):
        nonlocal admitted
        cut = threshold()
        cycles, radii = parent_kernel(complex_, site, p, radius=cut)
        fresh = [(r, site, k, c) for k, (c, r) in enumerate(zip(cycles, radii))]
        if fresh or admitted is None:
            pool = sorted((admitted or []) + fresh, key=lambda t: t[:3])
            span = IncrementalSpan(boundaries.n_rows, base=boundaries)
            admitted = [t for t in pool if span.add(t[3].mask)]
        return next((r for c, r in zip(cycles, radii) if not boundaries.contains(c.mask)), cut)

    def threshold():
        if admitted is None:
            return math.inf
        return admitted[-1][0] if admitted else -math.inf

    parent_site_search(complex_, sites, evaluate, threshold, visits, centred=True)
    return tuple(measured_result(complex_, c, p, v) for _, v, _, c in admitted)


def record_site_search(monkeypatch, visits):
    """Wrap optimize._site_search so that each evaluation checks it got its
    own site's row and appends (site, r_v.hex()) to visits."""
    import cyclerad.optimize as optimize

    search = optimize._site_search

    def traced_search(complex_like, sites, evaluate, *args, **kwargs):
        def traced(site, dist, cut):
            assert dist == site_row(complex_like, site)
            r, chain = evaluate(site, dist, cut)
            visits.append((site, r.hex()))
            return r, chain

        return search(complex_like, sites, traced, *args, **kwargs)

    monkeypatch.setattr(optimize, "_site_search", traced_search)


def search_key(result):
    return result.site, result.r_v.hex(), result.cycle


@st.composite
def with_stray_points(draw, complex_):
    """The complex in a lower-star filtration along x - 2y, read back by
    read_filtration from a cloud that holds one to three more points in no
    simplex, at drawn indices."""
    points = [("vertex", v) for v in range(complex_.cloud.n_points)]
    cells = draw(st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), min_size=1, max_size=3, unique=True))
    for i, j in cells:
        # no vertex, apex included, has a coordinate at j + 3/8
        points.insert(draw(st.integers(0, len(points))), ("stray", (i + 0.5, j + 0.375)))
    cloud = PointCloud([complex_.cloud.point(x) if kind == "vertex" else x for kind, x in points])
    new_id = {x: k for k, (kind, x) in enumerate(points) if kind == "vertex"}
    filtration = lower_star_filtration(complex_, [x - 2 * y for x, y in complex_.cloud.coords])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stray.flt"
        path.write_text("".join(f"{value!r} {' '.join(str(new_id[v]) for v in s)}\n"
                                for s, value in zip(filtration.order, filtration.values)))
        return read_filtration(path, cloud)


@st.composite
def site_search_inputs(draw):
    """A filtration of a loopy complex or a four-hole mesh (lower-star along
    a drawn direction), of annulus points (Rips), or read from a file whose
    cloud has points in no simplex."""
    kind = draw(st.sampled_from(["loopy", "mesh", "annulus", "stray"]))
    if kind == "annulus":
        return draw(annulus_rips())
    complex_ = draw(loopy_complexes() if kind == "loopy" else four_hole_meshes(max_k=10))
    if kind == "stray":
        return draw(with_stray_points(complex_))
    a, b = draw(st.tuples(*[st.integers(-3, 3)] * 2))
    return lower_star_filtration(complex_, [a * x + b * y for x, y in complex_.cloud.coords])


@settings(max_examples=40, deadline=None)
@given(site_search_inputs(), st.data())
def test_every_solver_matches_the_earlier_site_search(filtration, data):
    """Localize and basis over every site and a drawn subset (basis from the
    centred start), one bar, and describe_cycle visit the same sites in the
    same order with bitwise the same r_v, and answer with the same site,
    r_v and chain, as the search that recomputed each site's distances; each
    evaluation gets its own site's row, and no point outside a simplex or
    outside the subset is ever visited."""
    complex_ = filtration.complex
    vertices = sorted(complex_.vertex_ids())
    subset = data.draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    cycle = ChainVector(complex_.n_simplices(1))
    for c in parent_kernel(complex_, vertices[0], 1)[0]:
        if data.draw(st.booleans()):
            cycle = cycle ^ c
    bars = compute_persistence(filtration, 1).bars()
    bar = data.draw(st.sampled_from(bars)) if bars else None

    def parent_bar(visits):
        evaluate = per_bar_evaluator(filtration, bar)
        site, out = parent_best_site(complex_, None, evaluate, visits, bar.creator)
        return [measured_result(complex_, out, 1, site, bar)]

    def parent_describe(visits):
        def evaluate(v):
            return site_radius(complex_, v, cycle, 1), cycle

        site, _ = parent_best_site(complex_, None, evaluate, visits, chain_vertices(complex_, cycle, 1))
        return [measured_result(complex_, cycle, 1, site)]

    # (sites a search may visit, the solver's results, their earlier form appending to a visit list)
    runs = []
    for sites in (None, subset):
        runs += [
            (sites or vertices, lambda s=sites: [opt_homologous_cycle(complex_, cycle, 1, s)],
             lambda visits, s=sites: [parent_localize(complex_, cycle, 1, s, visits)]),
            (sites or vertices, lambda s=sites: opt_homology_basis(complex_, 1, s).cycles,
             lambda visits, s=sites: parent_basis(complex_, 1, s, visits)),
        ]
    if bar is not None:
        runs.append((vertices, lambda: [opt_pers_hom_rep(filtration, bar)], parent_bar))
    if not cycle.is_zero():
        runs.append((vertices, lambda: [describe_cycle(complex_, cycle, 1)], parent_describe))
    for allowed, solve, parent in runs:
        visits, expect_visits = [], []
        with pytest.MonkeyPatch.context() as mp:
            record_site_search(mp, visits)
            got = solve()
        expect = parent(expect_visits)
        assert visits == expect_visits
        assert {site for site, _ in visits} <= set(allowed)
        assert list(map(search_key, got)) == list(map(search_key, expect))


@st.composite
def one_r_v_inputs(draw):
    """A filtration and the dimension to solve in: a loopy complex, a
    four-hole mesh or hollow octahedra (p = 2), lower-star along a drawn
    direction, or annulus points (Rips)."""
    kind = draw(st.sampled_from(["loopy", "mesh", "annulus", "octahedra"]))
    if kind == "annulus":
        return draw(annulus_rips()), 1
    complex_ = draw({"loopy": loopy_complexes(), "mesh": four_hole_meshes(max_k=10),
                     "octahedra": hollow_octahedra()}[kind])
    direction = draw(st.tuples(*[st.integers(-3, 3)] * complex_.cloud.dim))
    values = [sum(a * x for a, x in zip(direction, point)) for point in complex_.cloud.coords]
    return lower_star_filtration(complex_, values), 2 if kind == "octahedra" else 1


@settings(max_examples=40, deadline=None)
@given(one_r_v_inputs(), st.data())
def test_every_reported_r_v_is_the_site_radius(args, data):
    """Localize, basis over every site and a drawn subset, every bar,
    describe_cycle with and without a site, and the shortener (p = 1) report
    bitwise the r_v that site_radius measures for the result's cycle at its
    site, and 0.0 for the zero cycle."""
    filtration, p = args
    complex_ = filtration.complex
    vertices = sorted(complex_.vertex_ids())
    subset = data.draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    cycle = ChainVector(complex_.n_simplices(p))
    for c in _site_essential_cycles(complex_, site_row(complex_, vertices[0]), p)[0]:
        if data.draw(st.booleans()):
            cycle = cycle ^ c
    localized = opt_homologous_cycle(complex_, cycle, p)
    bars = opt_persistent_basis(compute_persistence(filtration, p))
    site = data.draw(st.sampled_from(vertices))
    described = [describe_cycle(complex_, cycle, p), describe_cycle(complex_, cycle, p, site)]
    results = [localized, *opt_homology_basis(complex_, p).cycles, *opt_homology_basis(complex_, p, subset).cycles,
               *bars, *described]
    if p == 1:
        results += [shorten_cycle(r, complex_) for r in (localized, *described)]
        results += [shorten_cycle(r, complex_, filtration.prefix(r.interval.birth)) for r in bars]
    for r in results:
        expect = 0.0 if r.cycle.is_zero() else site_radius(complex_, r.site, r.cycle, r.dim)
        assert r.r_v.hex() == expect.hex()


def test_persistent_basis_empty_when_no_bars():
    segment = EmbeddedComplex(PointCloud([(0.0, 0.0), (1.0, 0.0)]), [(0, 1)])
    filtration = lower_star_filtration(segment, {0: 0.0, 1: 0.0})
    assert opt_persistent_basis(compute_persistence(filtration, 1)) == []


# -- shortening ------------------------------------------------------------


def _early_exit_path(adjacency, a, b):
    """The shortener's former per-arc search: breadth-first from a, neighbours
    in list order, returning as soon as b is reached."""
    if a == b:
        return [a]
    parent = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for w in adjacency.get(u, ()):
            if w not in parent:
                parent[w] = u
                if w == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(w)
    return None


@settings(max_examples=60, deadline=None)
@given(st.one_of(embedded_complexes(max_points=10), loopy_complexes()))
def test_bfs_tree_paths_are_the_early_exit_search_paths(complex_):
    """Every vertex pair, a == b and unreachable pairs included, reads the
    path the early-exit search finds off the source's one tree."""
    adjacency = {}
    for a, b in complex_.simplices(1):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for v in adjacency:
        adjacency[v].sort()
    vertices = complex_.vertex_ids()
    for a in vertices:
        tree = _bfs_tree(adjacency, a)
        for b in vertices:
            assert (_tree_path(tree, b) if b in tree else None) == _early_exit_path(adjacency, a, b)


def cycle_loops_with_a_used_set(edges):
    """The shortener's former loop walk: neighbor lists sorted, and each step
    takes the smallest neighbor whose edge is not yet in the used set."""
    neighbors = {}
    for a, b in edges:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    for v in neighbors:
        neighbors[v].sort()
    unused = set(edges)
    loops = []
    while unused:
        start = min(min(e) for e in unused)
        walk = [start]
        current = start
        while True:
            step = next(w for w in neighbors[current] if tuple(sorted((current, w))) in unused)
            unused.discard(tuple(sorted((current, step))))
            if step == start:
                break
            walk.append(step)
            current = step
        loops.append(walk)
    return loops


def shorten_with_two_arc_forms(result, complex_like, members=None):
    """The shortener as it was before its walks took one path each: the loop
    walk above, sorted ball adjacency, and two arc forms per pair (i, j)
    with the pair adjacent around the wrap skipped."""
    if result.cycle.is_zero() or result.site is None:
        return result
    dist = distances_from(complex_like.cloud.point(result.site), complex_like.cloud.columns)
    graph_edges, columns = complex_like.simplices(1), boundary_columns(complex_like, 1)
    if members is not None:
        graph_edges, columns = compress(graph_edges, members[1]), compress(columns, members[2]) if columns else []
    adjacency = {}
    for a, b in graph_edges:
        if dist[a] <= result.r_v and dist[b] <= result.r_v:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
    for v in adjacency:
        adjacency[v].sort()
    bounds = IncrementalSpan(complex_like.n_simplices(1), columns)
    tree = cache(lambda root: _bfs_tree(adjacency, root))
    bit = complex_like.powers(complex_like.n_simplices(1))

    def mask(trail):
        return sum(bit[complex_like.position(sorted(e))] for e in zip(trail, trail[1:]))

    cycle = result.cycle
    rejected = set()
    for _ in range(SHORTEN_PASSES):
        proposals = []
        for loop in cycle_loops_with_a_used_set(complex_like.chain_simplices(cycle, 1)):
            n = len(loop)
            for i in range(n):
                for j in range(i + 2, n):
                    if i == 0 and j == n - 1:
                        continue
                    for arc in (loop[i : j + 1], loop[j:] + loop[: i + 1]):
                        if arc[-1] not in tree(arc[0]):
                            continue
                        path = _tree_path(tree(arc[0]), arc[-1])
                        saving = (len(arc) - 1) - (len(path) - 1)
                        if saving > 0:
                            proposals.append((-saving, arc, path))
        proposals.sort()
        for _, arc, path in proposals:
            difference = mask(arc) ^ mask(path)
            if difference in rejected:
                continue
            if bounds.contains(difference):
                cycle = ChainVector(cycle.ambient_size, mask=cycle.mask ^ difference)
                break
            rejected.add(difference)
        else:
            break
    if cycle == result.cycle:
        return result
    r_v = max(map(dist.__getitem__, chain_vertices(complex_like, cycle, 1)), default=0.0)
    return _result_for_cycle(complex_like, cycle, 1, result.site, r_v, result.interval)


@st.composite
def shortening_cases(draw):
    """(complex, result, members) triples: on loopy complexes, four-hole
    meshes and random complexes, a drawn sum of a site's essential cycles and
    a few boundaries, described at that site and at its best site, and
    localized; on filtered complexes and annulus Rips inputs, every 1-bar's
    representative with its birth prefix."""
    if draw(st.booleans()):
        complex_ = draw(st.one_of(loopy_complexes(), four_hole_meshes(), embedded_complexes(max_points=10)))
        n_1 = complex_.n_simplices(1)
        site = draw(st.sampled_from(complex_.vertex_ids()))
        cycle = ChainVector(n_1)
        for c in _site_essential_cycles(complex_, site_row(complex_, site), 1)[0]:
            if draw(st.booleans()):
                cycle = cycle ^ c
        columns = boundary_columns(complex_, 1)
        for m in draw(st.lists(st.sampled_from(columns), max_size=3)) if columns else []:
            cycle = cycle ^ ChainVector(n_1, mask=m)
        results = [describe_cycle(complex_, cycle, 1, site), describe_cycle(complex_, cycle, 1),
                   opt_homologous_cycle(complex_, cycle, 1)]
        return [(complex_, r, None) for r in results]
    filtration = draw(st.one_of(filtered_complexes(), annulus_rips()))
    bars = opt_persistent_basis(compute_persistence(filtration, 1))
    return [(filtration.complex, r, filtration.prefix(r.interval.birth)) for r in bars]


def fixed_shortening_cases():
    """The spiked loop, which one swap shortens, the chord across a hole and
    the annulus's outer loop, which stay, and the bars of 24 annulus points
    shortened in their birth prefixes and in the whole complex."""
    cases = []
    for inst, loop in [(fixtures.spiked_loop(), "cycle"), (fixtures.hexagon_with_chord(), "loop"),
                       (fixtures.annulus(), "outer_loop")]:
        cases.append((inst.complex, describe_cycle(inst.complex, getattr(inst, loop), 1), None))
    filtration = rips_filtration(PointCloud(annulus_points(24, 0)), 0.6, 2)
    complex_ = filtration.complex
    whole = [[True] * complex_.n_simplices(d) for d in range(complex_.max_dim + 1)]
    for rep in opt_persistent_basis(compute_persistence(filtration, 1)):
        cases += [(complex_, rep, filtration.prefix(rep.interval.birth)), (complex_, rep, whole)]
    return cases


@settings(max_examples=60, deadline=None)
@given(shortening_cases())
def test_shorten_matches_the_shortener_with_two_arc_forms(cases):
    """One walk per loop and one arc form give the result of the former
    shortener, with its used-edge set and its two arc forms per pair."""
    for complex_, result, members in cases:
        assert shorten_cycle(result, complex_, members) == shorten_with_two_arc_forms(result, complex_, members)


def test_shorten_matches_the_shortener_with_two_arc_forms_on_fixed_cases():
    """The same on fixed cases, at least one of which the shortening changes."""
    changed = 0
    for complex_, result, members in fixed_shortening_cases():
        out = shorten_cycle(result, complex_, members)
        assert out == shorten_with_two_arc_forms(result, complex_, members)
        changed += out != result
    assert changed


def test_shorten_triangle_fixed_point():
    inst = fixtures.hollow_triangle()
    res = describe_cycle(inst.complex, inst.loop, 1)
    assert shorten_cycle(res, inst.complex) == res


def test_shorten_spiked_loop():
    inst = fixtures.spiked_loop()
    start = describe_cycle(inst.complex, inst.cycle, 1)
    assert start.edge_count() == 5
    out = shorten_cycle(start, inst.complex)
    assert out.cycle == inst.shortened
    assert out.edge_count() == 4
    assert out.r_v <= start.r_v
    difference = out.cycle ^ start.cycle
    assert bounds_in_full(inst.complex, difference, 1)


def test_shorten_rejects_chord_across_hole():
    inst = fixtures.hexagon_with_chord()
    start = describe_cycle(inst.complex, inst.loop, 1)
    out = shorten_cycle(start, inst.complex)
    assert out.cycle == inst.loop


def test_shorten_annulus_outer_loop_stays():
    # every alternative path is at least as long, so the loop is a fixed point
    inst = fixtures.annulus()
    start = describe_cycle(inst.complex, inst.outer_loop, 1)
    out = shorten_cycle(start, inst.complex)
    assert out.cycle == inst.outer_loop


def test_shorten_requires_dimension_one():
    inst = fixtures.filled_triangle()
    res = describe_cycle(inst.complex, inst.complex.chain([(0,)], p=0), 0, site=0)
    with pytest.raises(ValueError):
        shorten_cycle(res, inst.complex)


def test_shorten_keeps_a_bar_representative_in_its_birth_prefix():
    filtration = rips_filtration(PointCloud(annulus_points(24, 0)), 0.6, 2)
    complex_ = filtration.complex
    (rep,) = opt_persistent_basis(compute_persistence(filtration, 1))
    birth = rep.interval.birth

    def latest(result):
        return max(filtration.index_of(e) for e in complex_.chain_simplices(result.cycle, 1))

    # shortened in the whole complex, the representative takes an edge born after the bar
    whole = [[True] * complex_.n_simplices(d) for d in range(complex_.max_dim + 1)]
    assert latest(shorten_cycle(rep, complex_, whole)) > birth
    with pytest.raises(ValueError, match="birth prefix"):
        shorten_cycle(rep, complex_)
    assert latest(shorten_cycle(rep, complex_, filtration.prefix(birth))) <= birth


def test_shorten_a_bounding_loop_to_the_zero_cycle():
    """The rim of a filled pentagon fan is a boundary: one swap removes it all,
    and the zero cycle keeps the site with r_v 0.0 and the empty certificate."""
    coords = [(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)) for k in range(5)] + [(0.0, 0.0)]
    complex_ = EmbeddedComplex(PointCloud(coords), [(k, (k + 1) % 5, 5) for k in range(5)])
    rim = describe_cycle(complex_, complex_.chain([tuple(sorted((k, (k + 1) % 5))) for k in range(5)], 1), 1)
    out = shorten_cycle(rim, complex_)
    assert out.cycle.is_zero()
    assert (out.site, out.r_v, out.r_exact, out.certificate.center) == (rim.site, 0.0, 0.0, None)


def test_shorten_empty_cycle_noop():
    inst = fixtures.filled_triangle()
    res = opt_homologous_cycle(inst.complex, inst.loop, 1)
    assert shorten_cycle(res, inst.complex) == res


def test_describe_cycle_picks_best_site():
    inst = fixtures.annulus()
    res = describe_cycle(inst.complex, inst.inner_loop, 1)
    assert res.site == inst.center_vertex
    assert res.r_v == pytest.approx(math.sqrt(0.5), rel=REL)
    forced = describe_cycle(inst.complex, inst.inner_loop, 1, site=0)
    assert forced.site == 0
    assert forced.r_v > res.r_v


# -- result records ----------------------------------------------------------


def test_records_are_immutable_values():
    inst = fixtures.annulus()
    res = opt_homologous_cycle(inst.complex, inst.outer_loop, sites=[inst.center_vertex])
    again = opt_homologous_cycle(inst.complex, inst.outer_loop, sites=[inst.center_vertex])
    bar = compute_persistence(fixtures.two_loop_filtration(), 1).intervals[0]
    for record, name in [(res, "r_v"), (res.certificate, "radius"), (bar, "death")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert res == again and res.certificate == again.certificate
    twin = type(bar)(*bar)
    assert twin == bar and {bar: "kept"}[twin] == "kept"
