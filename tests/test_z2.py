import pytest
from hypothesis import given, settings, strategies as st

from cyclerad.z2 import ChainVector, IncrementalSpan

from oracles import (
    dense_from_columns,
    gf2_rank,
    gf2_solve,
    in_span,
    mask_support,
    matmul,
    rank,
    solve_by_reduction,
    standard_reduction,
)


def random_matrix_strategy(max_rows=30, max_cols=30, density=0.3):
    @st.composite
    def build(draw):
        n_rows = draw(st.integers(1, max_rows))
        n_cols = draw(st.integers(0, max_cols))
        cols = []
        for _ in range(n_cols):
            support = draw(
                st.lists(st.integers(0, n_rows - 1), unique=True).filter(
                    lambda s: True
                )
            )
            # thin out towards the requested density
            keep = draw(
                st.lists(st.booleans(), min_size=len(support), max_size=len(support))
            )
            support = sorted(i for i, k in zip(support, keep) if k or draw(st.booleans()))
            cols.append(sorted(set(support)))
        return n_rows, cols

    return build()


simple_matrix = st.integers(1, 30).flatmap(
    lambda n_rows: st.tuples(
        st.just(n_rows),
        st.lists(
            st.sets(st.integers(0, n_rows - 1)).map(sorted),
            max_size=30,
        ),
    )
)


def masks(n_rows, supports):
    """Column masks from strictly increasing row lists."""
    return [ChainVector(n_rows, s).mask for s in supports]


def test_chain_vector_support_roundtrip():
    v = ChainVector(10, [0, 3, 7])
    assert v.support == [0, 3, 7]
    assert 3 in v and 4 not in v
    assert len(v) == 3
    assert not v.is_zero()
    assert ChainVector(10).is_zero()


def test_chain_vector_contains_nothing_outside_its_range():
    v = ChainVector(3, [0])
    assert 0 in v
    assert -1 not in v and -3 not in v and 3 not in v and 7 not in v


def test_chain_vector_rejects_bad_support():
    with pytest.raises(ValueError):
        ChainVector(4, [1, 1])
    with pytest.raises(ValueError):
        ChainVector(4, [2, 1])
    with pytest.raises(ValueError):
        ChainVector(4, [4])


@pytest.mark.parametrize("build, message", [
    (lambda: ChainVector(3, mask=0b1000), "mask exceeds ambient size"),
    (lambda: ChainVector(3, [0]) ^ ChainVector(4, [0]), "ambient sizes differ"),
])
def test_chain_vector_rejects_a_mismatched_size(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_xor_is_symmetric_difference():
    a = ChainVector(8, [0, 2, 5])
    b = ChainVector(8, [2, 3])
    assert (a ^ b).support == [0, 3, 5]


def test_reduction_full_boundary_matrix_of_hollow_triangle():
    # square matrix over the ordered simplices a, b, c, ab, bc, ca
    m = masks(6, [[], [], [], [0, 1], [1, 2], [0, 2]])
    res = standard_reduction(m)
    assert res.pairs == ((1, 3), (2, 4))
    # vertices b, c are killed (their indices are pair low rows); vertex a and
    # the closing edge remain unpaired: one component, one loop
    assert res.unpaired == (0, 5)
    # the closing edge's basis-change vector is the full edge cycle
    assert mask_support(res.basis_change[5]) == [3, 4, 5]
    assert res.reduced[5] == 0


@given(simple_matrix)
@settings(max_examples=120, deadline=None)
def test_reduction_invariants(data):
    n_rows, cols = data
    m = masks(n_rows, cols)
    res = standard_reduction(m)
    # reduced = matrix @ basis_change
    assert matmul(m, res.basis_change) == res.reduced
    # distinct lows among nonzero reduced columns
    lows = [c.bit_length() - 1 if c else None for c in res.reduced]
    nonzero_lows = [x for x in lows if x is not None]
    assert len(nonzero_lows) == len(set(nonzero_lows))
    # basis_change is unitriangular
    for j in range(len(m)):
        sup = mask_support(res.basis_change[j])
        assert sup and sup[-1] == j
    # pairs and unpaired partition the columns (square-matrix semantics:
    # a zero column hit by a pair's low row counts as paired)
    paired_cols = {j for _, j in res.pairs}
    low_rows = {r for r, _ in res.pairs}
    for j in range(len(m)):
        if j in paired_cols:
            assert res.reduced[j] != 0
        elif j in res.unpaired:
            assert res.reduced[j] == 0
            assert j not in low_rows
        else:
            assert res.reduced[j] == 0 and j in low_rows


@given(simple_matrix)
@settings(max_examples=120, deadline=None)
def test_rank_matches_dense_oracle(data):
    n_rows, cols = data
    m = masks(n_rows, cols)
    assert rank(m) == gf2_rank(dense_from_columns(n_rows, cols))


@given(simple_matrix, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_solve_matches_dense_oracle_and_substitutes(data, rng):
    n_rows, cols = data
    m = masks(n_rows, cols)
    rhs_support = sorted(
        {i for i in range(n_rows) if rng.random() < 0.3}
    )
    rhs = ChainVector(n_rows, rhs_support)
    got = solve_by_reduction(n_rows, m, rhs.mask)
    dense = dense_from_columns(n_rows, cols)
    dense_rhs = [1 if i in rhs.support else 0 for i in range(n_rows)]
    oracle = gf2_solve(dense, dense_rhs)
    assert (got is None) == (oracle is None)
    if got is not None:
        # verify by substitution: the selected columns must sum to rhs exactly
        acc = ChainVector(n_rows)
        for j in got:
            acc = acc ^ ChainVector(n_rows, mask=m[j])
        assert acc == rhs


@given(simple_matrix, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_solution_from_actual_combination(data, rng):
    n_rows, cols = data
    m = masks(n_rows, cols)
    picked = [j for j in range(len(m)) if rng.random() < 0.4]
    rhs = ChainVector(n_rows)
    for j in picked:
        rhs = rhs ^ ChainVector(n_rows, mask=m[j])
    got = solve_by_reduction(n_rows, m, rhs.mask)
    assert got is not None
    acc = ChainVector(n_rows)
    for j in got:
        acc = acc ^ ChainVector(n_rows, mask=m[j])
    assert acc == rhs


def test_solve_rejects_mismatched_rhs():
    m = masks(3, [[0]])
    with pytest.raises(ValueError):
        solve_by_reduction(3, m, ChainVector(4, [3]).mask)


def test_in_span_empty_basis():
    assert in_span(5, [], ChainVector(5).mask)
    assert not in_span(5, [], ChainVector(5, [1]).mask)


def test_infeasible_solve():
    m = masks(2, [[0]])
    assert solve_by_reduction(2, m, ChainVector(2, [1]).mask) is None


def test_matmul_against_hand_example():
    a = masks(2, [[0], [0, 1]])
    b = masks(2, [[0, 1], [1]])
    prod = matmul(a, b)
    assert mask_support(prod[0]) == [1]
    assert mask_support(prod[1]) == [0, 1]


def test_incremental_span_tracks_rank():
    span = IncrementalSpan(4)
    assert span.rank == 0
    assert span.add(ChainVector(4, [0, 1]).mask)
    assert span.add(ChainVector(4, [1, 2]).mask)
    assert not span.add(ChainVector(4, [0, 2]).mask)  # the sum of the first two
    assert span.rank == 2
    assert span.contains(ChainVector(4, [0, 2]).mask)
    assert span.contains(ChainVector(4, []).mask)
    assert not span.contains(ChainVector(4, [3]).mask)
    with pytest.raises(ValueError):
        span.add(1 << 4)  # a row the span does not have


def test_incremental_span_extensions_read_their_base_and_leave_it_unchanged():
    base = IncrementalSpan(4, [ChainVector(4, [0, 1]).mask])
    twin, other = IncrementalSpan(4, base=base), IncrementalSpan(4, base=base)
    assert twin.rank == 1 and twin.contains(ChainVector(4, [0, 1]).mask)
    assert not twin.add(ChainVector(4, [0, 1]).mask)  # the base holds it
    assert twin.add(ChainVector(4, [1, 2]).mask, 1)
    assert other.add(ChainVector(4, [3]).mask)
    assert (base.rank, twin.rank, other.rank) == (1, 2, 2)
    assert twin.reduce(ChainVector(4, [0, 2]).mask) == (0, 1)  # one base column, one of its own
    assert not base.contains(ChainVector(4, [1, 2]).mask) and not base.contains(ChainVector(4, [3]).mask)
    assert not twin.contains(ChainVector(4, [3]).mask) and not other.contains(ChainVector(4, [1, 2]).mask)
    # a span reads one level: extending an extension, or other rows, is refused
    with pytest.raises(ValueError):
        IncrementalSpan(4, base=twin)
    with pytest.raises(ValueError):
        IncrementalSpan(5, base=base)
    assert IncrementalSpan(4, base=IncrementalSpan(4, base=IncrementalSpan(4))).rank == 0


def test_incremental_span_seeded_matches_batch_rank():
    cols = masks(5, ([0, 1], [1, 2], [0, 2], [3]))
    span = IncrementalSpan(5, cols)
    assert span.rank == rank(cols)


@given(simple_matrix, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_incremental_span_reduce_finds_the_solve_combination(data, rng):
    """Tagging column k with bit k, reduce leaves no remainder exactly when
    solve_by_reduction is feasible, and then returns its selection as a
    mask; also when a base holds the first columns and an extension of it
    the rest."""
    n_rows, cols = data
    m = masks(n_rows, cols)
    split = rng.randint(0, len(m))
    base = IncrementalSpan(n_rows)
    for k, c in enumerate(m[:split]):
        base.add(c, 1 << k)
    span = IncrementalSpan(n_rows, base=base)
    for k, c in enumerate(m[split:], split):
        span.add(c, 1 << k)
    rhs = ChainVector(n_rows, sorted({i for i in range(n_rows) if rng.random() < 0.3}))
    got = solve_by_reduction(n_rows, m, rhs.mask)
    rest, tag = span.reduce(rhs.mask)
    assert (rest == 0) == (got is not None)
    assert rest or tag == sum(1 << j for j in got)
