import math
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fixtures
from conftest import complex_with_cycle, embedded_complexes, filtered_complexes, loopy_complexes, prefix_filtrations
from oracles import gf2_in_span, mask_support

from cyclerad.complexes import EmbeddedComplex, boundary_columns
from cyclerad.filtrations import compute_persistence
from cyclerad.optimize import opt_homologous_cycle, opt_homology_basis, opt_pers_hom_rep
from cyclerad.oracle import (
    BudgetExceededError,
    _cycle_space_masks,
    _independent,
    _reduce_mask,
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


def full_skeleton(n_points: int, dim: int) -> EmbeddedComplex:
    """Every simplex of dimension up to dim on n points of a circle."""
    return EmbeddedComplex(fixtures.circle_cloud(n_points), combinations(range(n_points), dim + 1))


def test_budget_guards():
    ann = fixtures.annulus()
    with pytest.raises(BudgetExceededError):
        exact_optimal_homologous_cycle(ann.complex, ann.outer_loop, max_vertices=4)
    # the boundaries of the full 2-skeleton on 8 points span dimension 21
    k8 = full_skeleton(8, 2)
    with pytest.raises(BudgetExceededError):
        enumerate_class(k8, k8.chain([(0, 1), (0, 2), (1, 2)]))


def wedge_of_triangles(n_triangles: int) -> EmbeddedComplex:
    """Hollow triangles sharing vertex 0: beta_1 = n_triangles, no boundaries."""
    edges = []
    for k in range(n_triangles):
        a, b = 2 * k + 1, 2 * k + 2
        edges += [(0, a), (0, b), (a, b)]
    return EmbeddedComplex(fixtures.circle_cloud(2 * n_triangles + 1), edges)


@pytest.mark.parametrize("run, message", [
    (lambda: exact_min_basis(fixtures.annulus().complex, max_vertices=8), "9 vertices exceed the oracle cap of 8"),
    # 11 + 55 + 165 + 330 simplices
    (lambda: exact_min_basis(full_skeleton(11, 3)), "561 simplices exceed the oracle cap of 400"),
    (lambda: exact_min_basis(full_skeleton(8, 2)), "enumerating a span of dimension 21 exceeds the 2^16 oracle cap"),
    # comb(31, 5) five-class subsets exceed 2^16
    (lambda: exact_min_basis(wedge_of_triangles(5)), "enumerating bases over 5 classes exceeds the oracle cap"),
])
def test_budget_messages(run, message):
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        run()


def test_min_basis_rejects_an_unknown_weight():
    with pytest.raises(ValueError, match="^weight must be 'exact' or 'site'$"):
        exact_min_basis(fixtures.hollow_triangle().complex, weight="radius")


# -- the echelon step -------------------------------------------------------


# the helpers _independent replaced, kept here as the reference it must match
def insert_mask(mask, rows):
    residue = _reduce_mask(mask, rows)
    if residue:
        rows[residue.bit_length() - 1] = residue
        return True
    return False


def span_rows(masks):
    rows = {}
    for m in masks:
        insert_mask(m, rows)
    return rows


def independent_masks(masks):
    rows = {}
    return [m for m in masks if insert_mask(m, rows)]


def mask_rank(masks):
    return len(span_rows(masks))


masks_12 = st.lists(st.integers(0, (1 << 12) - 1), max_size=12)


@settings(max_examples=200, deadline=None)
@given(masks_12, masks_12)
def test_independent_matches_the_helpers_it_replaced(filled, masks):
    rows = {}
    assert _independent(masks, rows) == independent_masks(masks) == _independent(masks)
    assert rows == span_rows(masks)
    assert len(rows) == mask_rank(masks)

    rows, expect_rows = span_rows(filled), span_rows(filled)
    assert _independent(masks, rows) == [m for m in masks if insert_mask(m, expect_rows)]
    assert rows == expect_rows
    assert len(rows) == mask_rank(filled + masks)


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
