import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import complex_with_cycle, embedded_complexes, filtered_complexes, loopy_complexes, prefix_filtrations
from oracles import gf2_in_span, mask_support

from cyclerad import fixtures
from cyclerad.complexes import EmbeddedComplex, boundary_columns
from cyclerad.filtrations import compute_persistence
from cyclerad.optimize import opt_homologous_cycle, opt_homology_basis, opt_pers_hom_rep
from cyclerad.oracle import (
    BudgetExceededError,
    OracleBudget,
    _cycle_space_masks,
    enumerate_class,
    exact_min_basis,
    exact_min_persistent_rep,
    exact_optimal_homologous_cycle,
)
from cyclerad.radius import exact_radius

REL = 1e-9


def bounds_in_full(complex_, chain, p):
    cols = [mask_support(m) for m in boundary_columns(complex_, p)]
    return gf2_in_span(cols, complex_.n_simplices(p), list(chain.support))


# -- cycle spaces of flagged members ----------------------------------------


@st.composite
def subcomplex_members(draw):
    """A complex and the simplices of a face-closed part of it: a prefix of a
    drawn filtration, or the part induced by a drawn vertex subset."""
    if draw(st.booleans()):
        filtration = draw(filtered_complexes(max_dim=3))
        return filtration.complex, filtration.order[: draw(st.integers(1, len(filtration)))]
    parent = draw(st.one_of(embedded_complexes(max_dim=3), loopy_complexes()))
    allowed = draw(st.sets(st.sampled_from(parent.vertex_ids())))
    return parent, [s for s in parent.all_simplices() if allowed.issuperset(s)]


@settings(max_examples=80, deadline=None)
@given(subcomplex_members())
def test_member_cycle_spaces_match_the_members_alone(args):
    """The cycle space of the flagged members is the one the complex of the
    members alone gives, the same cycles in the same order, re-indexed by
    position."""
    parent, members = args
    alone = EmbeddedComplex(parent.cloud, members)
    chosen = set(members)
    for p in range(parent.max_dim + 2):
        flags = [s in chosen for s in parent.simplices(p)]
        expect = [
            sum(1 << parent.position(s) for s in alone.simplices(p) if m >> alone.position(s) & 1)
            for m in _cycle_space_masks(alone, p)
        ]
        assert _cycle_space_masks(parent, p, flags) == expect


# -- sphere enumeration path ------------------------------------------------


def test_hollow_triangle_optimum_is_the_triangle():
    inst = fixtures.hollow_triangle()
    opt = exact_optimal_homologous_cycle(inst.complex, inst.loop)
    assert opt.cycle == inst.loop
    assert opt.radius == pytest.approx(1 / math.sqrt(3), rel=REL)
    assert opt.center == pytest.approx((0.5, math.sqrt(3) / 6), rel=1e-6)


def test_filled_triangle_trivial_class():
    inst = fixtures.filled_triangle()
    opt = exact_optimal_homologous_cycle(inst.complex, inst.loop)
    assert opt.radius == 0.0
    assert opt.cycle.is_zero()


def test_annulus_optimum_is_the_inner_loop():
    ann = fixtures.annulus()
    opt = exact_optimal_homologous_cycle(ann.complex, ann.outer_loop)
    assert opt.cycle == ann.inner_loop
    assert opt.radius == pytest.approx(math.sqrt(0.5), rel=REL)
    # the optimal sphere sits on the center vertex
    assert opt.center == pytest.approx(tuple(ann.complex.cloud.point(8)), abs=1e-12)


def test_non_cycle_input_rejected():
    ann = fixtures.annulus()
    edge = ann.complex.chain([(0, 1)])
    with pytest.raises(ValueError):
        exact_optimal_homologous_cycle(ann.complex, edge)
    with pytest.raises(ValueError):
        enumerate_class(ann.complex, edge)


# -- class unrolling path ---------------------------------------------------


def test_class_sizes_on_fixtures():
    tri = fixtures.hollow_triangle()
    assert enumerate_class(tri.complex, tri.loop) == [tri.loop]

    full = fixtures.filled_triangle()
    members = enumerate_class(full.complex, full.loop)
    assert len(members) == 2
    assert full.loop in members
    assert any(c.is_zero() for c in members)

    ann = fixtures.annulus()
    members = enumerate_class(ann.complex, ann.outer_loop)
    assert len(members) == 256  # one shift per subset of the 8 triangles
    assert len(set(members)) == 256
    assert all(ann.complex.is_cycle(c, 1) for c in members)
    assert ann.inner_loop in members


def test_paths_agree_on_annulus():
    ann = fixtures.annulus()
    opt = exact_optimal_homologous_cycle(ann.complex, ann.outer_loop)
    class_min = min(
        exact_radius(ann.complex, c, 1).radius
        for c in enumerate_class(ann.complex, ann.outer_loop)
        if not c.is_zero()
    )
    assert opt.radius == pytest.approx(class_min, rel=REL)


@settings(max_examples=25, deadline=None)
@given(complex_with_cycle())
def test_sphere_path_matches_class_min(args):
    complex_, cycle = args
    try:
        members = enumerate_class(complex_, cycle, 1)
        opt = exact_optimal_homologous_cycle(complex_, cycle, 1)
    except BudgetExceededError:
        assume(False)
    class_min = min(exact_radius(complex_, c, 1).radius for c in members)
    assert opt.radius == pytest.approx(class_min, rel=REL, abs=1e-12)
    assert bounds_in_full(complex_, opt.cycle ^ cycle, 1)


@settings(max_examples=25, deadline=None)
@given(complex_with_cycle())
def test_algorithm_sandwiched_by_oracle(args):
    complex_, cycle = args
    try:
        opt = exact_optimal_homologous_cycle(complex_, cycle, 1)
    except BudgetExceededError:
        assume(False)
    alg = opt_homologous_cycle(complex_, cycle, 1)
    assert opt.radius <= alg.r_v * (1 + REL)
    assert alg.r_v <= 2 * opt.radius * (1 + REL) + 1e-12


# -- budget ----------------------------------------------------------------


def test_budget_guards():
    ann = fixtures.annulus()
    with pytest.raises(BudgetExceededError):
        exact_optimal_homologous_cycle(
            ann.complex, ann.outer_loop, budget=OracleBudget(max_vertices=4)
        )
    with pytest.raises(BudgetExceededError):
        enumerate_class(
            ann.complex, ann.outer_loop, budget=OracleBudget(max_cycle_space_dim=4)
        )


# -- minimum basis ----------------------------------------------------------


def test_min_basis_hollow_triangle():
    inst = fixtures.hollow_triangle()
    basis = exact_min_basis(inst.complex, 1)
    assert basis.cycles == (inst.loop,)
    assert basis.total_weight == pytest.approx(1 / math.sqrt(3), rel=REL)


def test_min_basis_figure_eight():
    fe = fixtures.figure_eight()
    by_sphere = exact_min_basis(fe.complex, 1, weight="exact")
    assert by_sphere.cycles == (fe.small_loop, fe.big_loop)
    assert by_sphere.weights == pytest.approx(
        (1 / math.sqrt(3), 2 / math.sqrt(3)), rel=REL
    )

    by_site = exact_min_basis(fe.complex, 1, weight="site")
    assert by_site.cycles == (fe.small_loop, fe.big_loop)
    assert by_site.weights == pytest.approx((1.0, 2.0), rel=REL)
    assert by_site.total_weight == pytest.approx(3.0, rel=REL)


def test_min_basis_trivial_homology():
    full = fixtures.filled_triangle()
    basis = exact_min_basis(full.complex, 1)
    assert basis.cycles == () and basis.total_weight == 0.0


def test_greedy_basis_matches_oracle_on_figure_eight():
    fe = fixtures.figure_eight()
    greedy = opt_homology_basis(fe.complex, 1)
    oracle = exact_min_basis(fe.complex, 1, weight="site")
    assert greedy.total_weight == pytest.approx(oracle.total_weight, rel=REL)


# -- minimum bar representatives --------------------------------------------


def test_rep_annulus_bar():
    filt, _ = fixtures.annulus_bar_filtration()
    pers = compute_persistence(filt, 1)
    (long_bar,) = [
        iv for iv in pers.intervals if (iv.birth_value, iv.death_value) == (1.0, 3.0)
    ]
    rep = exact_min_persistent_rep(filt, long_bar)
    inner = filt.complex.chain([(4, 5), (4, 7), (5, 6), (6, 7)])
    assert rep.cycle == inner
    assert rep.weight == pytest.approx(math.sqrt(0.5), rel=REL)
    assert rep.site == 8


def test_rep_two_loop_frozen_values():
    filt = fixtures.two_loop_filtration()
    pers = compute_persistence(filt, 1)
    by_values = {(iv.birth_value, iv.death_value): iv for iv in pers.intervals}

    rep_long = exact_min_persistent_rep(filt, by_values[(1.0, 4.0)])
    assert filt.complex.chain_simplices(rep_long.cycle, 1) == [(0, 1), (0, 2), (1, 2)]
    assert rep_long.weight == pytest.approx(2.4979991993593593, rel=REL)

    rep_short = exact_min_persistent_rep(filt, by_values[(2.0, 3.0)])
    assert filt.complex.chain_simplices(rep_short.cycle, 1) == [
        (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
    ]
    assert rep_short.weight == pytest.approx(2.4979991993593593, rel=REL)
    assert rep_short.site == 4


def test_rep_oracle_matches_algorithm_on_two_loop():
    filt = fixtures.two_loop_filtration()
    pers = compute_persistence(filt, 1)
    for iv in pers.intervals:
        if iv.death_value is not None and iv.death_value == iv.birth_value:
            continue
        rep = exact_min_persistent_rep(filt, iv)
        alg = opt_pers_hom_rep(filt, iv)
        assert alg.cycle == rep.cycle
        assert alg.r_v == pytest.approx(rep.weight, rel=REL)


@settings(max_examples=30, deadline=None)
@given(st.one_of(filtered_complexes(), prefix_filtrations()))
def test_rep_algorithm_is_exact_on_random_filtrations(filtration):
    pers = compute_persistence(filtration, 1)
    for iv in pers.intervals:
        try:
            rep = exact_min_persistent_rep(filtration, iv)
        except BudgetExceededError:
            continue
        alg = opt_pers_hom_rep(filtration, iv)
        assert alg.cycle.ambient_size == filtration.complex.n_simplices(1)
        assert alg.r_v == pytest.approx(rep.weight, rel=REL, abs=1e-12)
