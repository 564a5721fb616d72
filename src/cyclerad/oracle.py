"""Exhaustive reference implementations, usable only at toy scale.

Everything here trades time for certainty: candidate spheres are enumerated
from vertex subsets, homology classes are unrolled element by element, and
search spaces are walked completely.  None of it is meant to run beyond a
dozen vertices; three caps (the max_vertices keyword of every entry point,
12 by default, MAX_SIMPLICES and MAX_SPAN_DIM) make a test that outgrows the
oracle fail loudly instead of hanging.

The linear algebra, one elimination step (``_reduce``) on dense bitmasks that
serves membership, independence, kernels and solves, is redone here rather
than routed through the site kernel in ``complexes``, so the results inherit
no bug from the machinery they check; of that module only the boundary
columns are used. A candidate ball or a bar's birth prefix is a flag per
canonical position of the complex, so every chain stays in the complex's own
basis.  Two deliberately different routes to the same optimum exist (sphere
enumeration in ``exact_optimal_homologous_cycle``, class unrolling in
``enumerate_class``); tests compare them to each other and to the fast paths.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, compress
from operator import add
from typing import Callable, NamedTuple, Optional, Sequence

from .complexes import EmbeddedComplex, boundary_columns, distances_from, within_radius
from .filtrations import Filtration, Interval
from .radius import exact_radius, min_enclosing_sphere, site_radius
from .z2 import ChainVector


MAX_SIMPLICES = 400
MAX_SPAN_DIM = 16


class BudgetExceededError(ValueError):
    """An exhaustive enumeration would exceed one of the oracle's three caps:
    the max_vertices keyword (12 by default), MAX_SIMPLICES or MAX_SPAN_DIM; a
    ValueError, so the CLI reports it with exit code 3 like other semantic
    failures."""


def check_complex(complex_like: EmbeddedComplex, max_vertices: int = 12) -> None:
    n_v = len(complex_like.vertex_ids())
    if n_v > max_vertices:
        raise BudgetExceededError(
            f"{n_v} vertices exceed the oracle cap of {max_vertices}"
        )
    n_s = complex_like.total_simplices()
    if n_s > MAX_SIMPLICES:
        raise BudgetExceededError(
            f"{n_s} simplices exceed the oracle cap of {MAX_SIMPLICES}"
        )


def _check_span(dim: int) -> None:
    if dim > MAX_SPAN_DIM:
        raise BudgetExceededError(
            f"enumerating a span of dimension {dim} exceeds the"
            f" 2^{MAX_SPAN_DIM} oracle cap"
        )


# -- dense Z2 helpers on int masks -----------------------------------------


def _reduce(mask: int, rows: dict[int, tuple[int, int]], coeffs: int = 0) -> tuple[int, int]:
    """Eliminate against (residue, coeffs) rows keyed by leading bit until
    stuck or zero, adding up the coefficient masks of the rows removed."""
    while mask:
        row = rows.get(mask.bit_length() - 1)
        if row is None:
            break
        mask ^= row[0]
        coeffs ^= row[1]
    return mask, coeffs


def _independent(masks, rows: Optional[dict[int, tuple[int, int]]] = None) -> list[int]:
    """The masks, unreduced, that are independent of rows and of the masks
    before them; each one's residue joins rows, so rows grows to span all."""
    rows = {} if rows is None else rows
    kept = []
    for m in masks:
        residue = _reduce(m, rows)[0]
        if residue:
            rows[residue.bit_length() - 1] = (residue, 0)
            kept.append(m)
    return kept


def _echelon(columns: Sequence[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Echelon rows of the columns, each tagged with the columns it sums, and a
    basis of {c : XOR_{j in c} columns[j] = 0}: the tag of each zero residue."""
    rows: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, col in enumerate(columns):
        residue, coeffs = _reduce(col, rows, 1 << j)
        if residue:
            rows[residue.bit_length() - 1] = (residue, coeffs)
        else:
            kernel.append(coeffs)
    return rows, kernel


def _solve_masks(columns: Sequence[int], target: int) -> Optional[int]:
    """Coefficient mask c with XOR_{j in c} columns[j] = target, the tags of
    the rows the target clears against, or None when it leaves a residue."""
    residue, coeffs = _reduce(target, _echelon(columns)[0])
    return None if residue else coeffs


def _xor_select(masks: Sequence[int], bits: int) -> int:
    out = 0
    rem = bits
    while rem:
        j = (rem & -rem).bit_length() - 1
        out ^= masks[j]
        rem &= rem - 1
    return out


def _cycle_space_masks(
    complex_like: EmbeddedComplex, p: int, members: Optional[Sequence[bool]] = None
) -> list[int]:
    """Masks, over the complex's own p-basis, of a basis of the p-cycles of
    the face-closed subcomplex whose p-simplices members flags (all of them
    by default).

    Kernel coefficients over the member boundary columns name member
    positions; each coefficient bit maps back through them. The columns keep
    canonical order and their rows the complex's, which orders the rows as
    the subcomplex's own basis would, so the basis found is the one the
    subcomplex alone gives.
    """
    positions = range(complex_like.n_simplices(p))
    if members is not None:
        positions = list(compress(positions, members))
    bits = [1 << q for q in positions]
    if p == 0:
        return bits
    columns = boundary_columns(complex_like, p - 1)
    return [_xor_select(bits, c) for c in _echelon([columns[q] for q in positions])[1]]


def _ball_members(complex_like: EmbeddedComplex, center, radius: float, p: int) -> list[bool]:
    """Flags over the canonical p-positions of the simplices whose vertices
    all lie in the closed ball, with a relative membership tolerance so
    on-sphere vertices are kept."""
    inside = [within_radius(x, radius) for x in distances_from(center, complex_like.cloud.columns)]
    return [all(inside[v] for v in s) for s in complex_like.simplices(p)]


def _weight_fn(
    complex_like: EmbeddedComplex, p: int, weight: str
) -> Callable[[ChainVector], float]:
    if weight == "exact":
        return lambda c: exact_radius(complex_like, c, p).radius
    if weight == "site":
        ids = complex_like.vertex_ids()
        return lambda c: min(site_radius(complex_like, v, c, p) for v in ids)
    raise ValueError("weight must be 'exact' or 'site'")


# -- results ----------------------------------------------------------------


class ExactOptimum(NamedTuple):
    """Smallest sphere admitting a homologous cycle, with a witness."""

    radius: float
    cycle: ChainVector
    center: Optional[tuple[float, ...]]


class ExactBasis(NamedTuple):
    cycles: tuple[ChainVector, ...]
    weights: tuple[float, ...]
    total_weight: float


class ExactRepresentative(NamedTuple):
    cycle: ChainVector
    weight: float
    site: int


# -- sphere enumeration path ------------------------------------------------


def _candidate_spheres(complex_like: EmbeddedComplex) -> list[tuple[float, tuple]]:
    """Smallest enclosing spheres of every vertex subset of size 1..dim+1,
    without exact repeats, smallest radius first.

    Any optimal ball is the smallest enclosing sphere of the winning cycle's
    vertices, which is pinned by at most dim+1 of them, so it shows up here.
    """
    ids = complex_like.vertex_ids()
    pts = {v: complex_like.cloud.point(v) for v in ids}
    top = min(complex_like.cloud.dim + 1, len(ids))
    seen: set[tuple[float, tuple]] = set()
    for k in range(1, top + 1):
        for subset in combinations(ids, k):
            cert = min_enclosing_sphere([pts[v] for v in subset])
            seen.add((cert.radius, tuple(float(x) for x in cert.center)))
    return sorted(seen)


def exact_optimal_homologous_cycle(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int = 1,
    max_vertices: int = 12,
) -> ExactOptimum:
    """Minimum-radius cycle in the input's homology class, by trying every
    candidate sphere in radius order and asking whether the subcomplex it
    induces holds a homologous cycle."""
    check_complex(complex_like, max_vertices)
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("input chain is not a cycle")
    bmasks = boundary_columns(complex_like, p)
    n_p = complex_like.n_simplices(p)
    for radius, center in _candidate_spheres(complex_like):
        cycles = _cycle_space_masks(complex_like, p, _ball_members(complex_like, center, radius, p))
        coeffs = _solve_masks(cycles + bmasks, cycle.mask)
        if coeffs is None:
            continue
        mask = _xor_select(cycles, coeffs & ((1 << len(cycles)) - 1))
        # the rest of the solution is boundaries, so the witness stays put
        assert _solve_masks(bmasks, cycle.mask ^ mask) is not None
        return ExactOptimum(radius=radius, cycle=ChainVector(n_p, mask=mask), center=center)
    raise RuntimeError("no candidate sphere admitted the class")


# -- class unrolling path ----------------------------------------------------


def enumerate_class(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int = 1,
    max_vertices: int = 12,
) -> list[ChainVector]:
    """Every cycle homologous to the input: the input shifted by each element
    of the boundary span, 2^rank of them."""
    check_complex(complex_like, max_vertices)
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("input chain is not a cycle")
    basis = _independent(boundary_columns(complex_like, p))
    _check_span(len(basis))
    n_p = complex_like.n_simplices(p)
    return [
        ChainVector(n_p, mask=cycle.mask ^ _xor_select(basis, bits))
        for bits in range(1 << len(basis))
    ]


def exact_min_basis(
    complex_like: EmbeddedComplex,
    p: int = 1,
    weight: str = "exact",
    max_vertices: int = 12,
) -> ExactBasis:
    """Minimum-weight homology basis by full enumeration: the cheapest cycle
    of every class, then the cheapest independent set of classes."""
    check_complex(complex_like, max_vertices)
    weigh = _weight_fn(complex_like, p, weight)
    n_p = complex_like.n_simplices(p)
    rows: dict[int, tuple[int, int]] = {}
    bbasis = _independent(boundary_columns(complex_like, p), rows)
    _check_span(len(bbasis))

    hbasis = _independent(_cycle_space_masks(complex_like, p), rows)
    beta = len(hbasis)
    if beta == 0:
        return ExactBasis((), (), 0.0)
    _check_span(beta)
    if math.comb((1 << beta) - 1, beta) > 1 << MAX_SPAN_DIM:
        raise BudgetExceededError(
            f"enumerating bases over {beta} classes exceeds the oracle cap"
        )

    # cheapest member of every nonzero class; a class never holds the zero
    # cycle, so the weight functions are safe
    class_best: dict[int, tuple[float, int]] = {}
    for cls in range(1, 1 << beta):
        base = _xor_select(hbasis, cls)
        members = (base ^ _xor_select(bbasis, bits) for bits in range(1 << len(bbasis)))
        class_best[cls] = min((weigh(ChainVector(n_p, mask=m)), m) for m in members)

    full_rank = (s for s in combinations(class_best, beta) if len(_independent(s)) == beta)
    best_subset = min(full_rank, key=lambda s: reduce(add, (class_best[c][0] for c in s), 0.0), default=None)
    assert best_subset is not None  # the hbasis classes themselves qualify

    picked = sorted((class_best[c] for c in best_subset))
    # weights are summed left to right, here and above: sum() of floats is compensated from Python 3.12 on
    return ExactBasis(
        cycles=tuple(ChainVector(n_p, mask=m) for _, m in picked),
        weights=tuple(w for w, _ in picked),
        total_weight=reduce(add, (w for w, _ in picked), 0.0),
    )


def exact_min_persistent_rep(
    filtration: Filtration,
    interval: Interval,
    max_vertices: int = 12,
) -> ExactRepresentative:
    """Minimum-weight representative of a bar by walking the whole cycle
    space of the birth prefix and keeping every chain that is a valid
    representative: contains the creator, stays non-bounding until the bar
    dies, bounds once it does (never, for essential bars). A chain weighs its
    smallest site radius over every vertex; the site returned is the
    lowest-index vertex at which the winner attains its weight."""
    complex_like = filtration.complex
    check_complex(complex_like, max_vertices)
    p = interval.dim
    weigh = _weight_fn(complex_like, p, "site")
    n_p = complex_like.n_simplices(p)
    creator_bit = complex_like.position(interval.creator)

    cycles = _cycle_space_masks(complex_like, p, filtration.prefix(interval.birth)[p])
    _check_span(len(cycles))

    full = boundary_columns(complex_like, p)
    pre_rows: dict[int, tuple[int, int]] = {}
    death_rows: dict[int, tuple[int, int]] = {}
    if interval.death is None:
        _independent(full, pre_rows)
    else:
        _independent(compress(full, filtration.prefix(interval.death - 1)[p + 1]), pre_rows)
        _independent(compress(full, filtration.prefix(interval.death)[p + 1]), death_rows)

    reps = (
        m for m in (_xor_select(cycles, bits) for bits in range(1, 1 << len(cycles)))
        if m >> creator_bit & 1 and _reduce(m, pre_rows)[0]
        and (interval.death is None or not _reduce(m, death_rows)[0])
    )
    best = min(((weigh(ChainVector(n_p, mask=m)), m) for m in reps), default=None)
    # the bar exists, so at least one representative does
    assert best is not None
    w, m = best
    out = ChainVector(n_p, mask=m)
    site = min(complex_like.vertex_ids(), key=lambda v: (site_radius(complex_like, v, out, p), v))
    return ExactRepresentative(cycle=out, weight=w, site=site)
