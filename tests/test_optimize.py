import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_with_cycle, embedded_complexes, filtered_complexes, holed_mesh, loopy_complexes
from oracles import bounds_in_prefix, gf2_in_span, mask_support, solve_by_reduction

from cyclerad.complexes import EmbeddedComplex, PointCloud, boundary_columns
from cyclerad.filtrations import Filtration, compute_persistence, lower_star_filtration
from cyclerad.optimize import (
    HomologyBasisResult,
    _bfs_tree,
    _result_for_cycle,
    _rotated_candidates,
    _site_essential_cycles,
    _tree_path,
    describe_cycle,
    opt_homologous_cycle,
    opt_homology_basis,
    opt_pers_hom_rep,
    opt_persistent_basis,
    shorten_cycle,
)
from cyclerad.radius import site_radius
from cyclerad.z2 import ChainVector, IncrementalSpan
from cyclerad import fixtures

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
    of the site ordering joins the boundaries before the input is expressed.
    Returns the (r_v, site)-least (r_v, site, chain)."""
    n_p = complex_.n_simplices(p)
    boundaries = IncrementalSpan(n_p, boundary_columns(complex_, p))
    best = None
    for site in sorted(complex_.vertex_ids()):
        span = boundaries.copy()
        for c in _site_essential_cycles(complex_, site, p)[0]:
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
    for c in _site_essential_cycles(complex_, 0, 1)[0]:
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


def exhaustive_basis(complex_, p, sites=None):
    """The greedy over the essential cycles of every site, none skipped."""
    chosen = sorted(set(complex_.vertex_ids() if sites is None else sites))
    pool = []
    for v in chosen:
        cycles, radii = _site_essential_cycles(complex_, v, p)
        pool += [(r, v, k, c) for k, (c, r) in enumerate(zip(cycles, radii))]
    pool.sort(key=lambda t: t[:3])
    span = IncrementalSpan(complex_.n_simplices(p), boundary_columns(complex_, p))
    admitted = [
        _result_for_cycle(complex_, c, p, v)
        for _, v, _, c in pool
        if span.add(c.mask)
    ]
    return HomologyBasisResult(tuple(admitted), sum(x.r_v for x in admitted))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        embedded_complexes(max_points=14, max_top_cells=16),
        loopy_complexes(),
    ),
    st.data(),
)
def test_pruned_basis_equals_exhaustive_basis(complex_, data):
    """Skipping sites the greedy cannot reach changes no cycle, site, radius
    or order, on every site and on a drawn subset of sites."""
    assert opt_homology_basis(complex_, 1) == exhaustive_basis(complex_, 1)
    subset = data.draw(
        st.lists(st.sampled_from(sorted(complex_.vertex_ids())), min_size=1, unique=True)
    )
    assert opt_homology_basis(complex_, 1, sites=subset) == exhaustive_basis(
        complex_, 1, subset
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


def test_pruned_basis_empty_homology_stops_after_one_site(monkeypatch):
    import cyclerad.optimize as optimize

    inst = fixtures.filled_triangle()
    visited = []
    original = optimize._site_essential_cycles
    monkeypatch.setattr(
        optimize,
        "_site_essential_cycles",
        lambda c, v, p: visited.append(v) or original(c, v, p),
    )
    assert opt_homology_basis(inst.complex, 1) == exhaustive_basis(inst.complex, 1)
    assert visited == [0]


def test_basis_skips_sites_the_greedy_cannot_reach(monkeypatch):
    import cyclerad.optimize as optimize

    inst = fixtures.annulus()
    visited = []
    original = optimize._site_essential_cycles
    monkeypatch.setattr(
        optimize,
        "_site_essential_cycles",
        lambda c, v, p: visited.append(v) or original(c, v, p),
    )
    basis = opt_homology_basis(inst.complex, 1)
    assert basis == exhaustive_basis(inst.complex, 1)
    assert basis.cycles[0].site == inst.center_vertex
    assert len(visited) < len(inst.complex.vertex_ids())


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
            _, radii = _site_essential_cycles(complex_, v, p)
            if radii:
                first[v] = radii[0]
        for v, r_v in first.items():
            for w, r_w in first.items():
                assert r_w >= r_v - math.dist(coords[v], coords[w]) - 1e-12


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
    """The bar pass's anchor and other candidates at one site, with the birth
    prefix flagged on the filtration's complex."""
    complex_ = filtration.complex
    members = [
        [filtration.index_of(s) <= interval.birth for s in complex_.simplices(d)]
        for d in range(interval.dim + 2)
    ]
    return _rotated_candidates(complex_, members, complex_.position(interval.creator), site, interval.dim)


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
