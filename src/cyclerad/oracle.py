"""Exhaustive reference implementations, usable only at toy scale.

Everything here trades time for certainty: candidate spheres are enumerated
from vertex subsets, homology classes are unrolled element by element, and
search spaces are walked completely.  None of it is meant to run beyond a
dozen vertices; the budget guard exists so a test that outgrows the oracle
fails loudly instead of hanging.

The linear algebra is redone locally on dense bitmasks rather than routed
through the site kernel in ``filtrations``, so the reference results do not
inherit a bug from the machinery they are supposed to check; only the
boundary columns come from ``complexes``. A candidate ball or a bar's birth
prefix is a flag per canonical position of the complex, so every chain stays
in the complex's own basis.  Two deliberately different routes to the same
optimum exist (sphere enumeration in ``exact_optimal_homologous_cycle``,
class unrolling in ``enumerate_class``); tests compare them against each
other as well as against the fast paths.
"""

from __future__ import annotations

import math
from itertools import combinations, compress
from typing import Callable, NamedTuple, Optional, Sequence

from .complexes import EmbeddedComplex, boundary_columns, distances_from, within_radius
from .filtrations import Filtration, Interval
from .radius import exact_radius, min_enclosing_sphere, site_radius
from .z2 import ChainVector


class BudgetExceededError(ValueError):
    """An exhaustive enumeration would exceed the configured budget; a
    ValueError, so the CLI reports it with exit code 3 like other semantic
    failures."""


class OracleBudget(NamedTuple):
    """Caps on the exhaustive searches; the defaults fit the test fixtures."""

    max_vertices: int = 12
    max_simplices: int = 400
    max_cycle_space_dim: int = 16

    def check_complex(self, complex_like: EmbeddedComplex) -> None:
        n_v = len(complex_like.vertex_ids())
        if n_v > self.max_vertices:
            raise BudgetExceededError(
                f"{n_v} vertices exceed the oracle cap of {self.max_vertices}"
            )
        n_s = complex_like.total_simplices()
        if n_s > self.max_simplices:
            raise BudgetExceededError(
                f"{n_s} simplices exceed the oracle cap of {self.max_simplices}"
            )

    def check_span(self, dim: int) -> None:
        if dim > self.max_cycle_space_dim:
            raise BudgetExceededError(
                f"enumerating a span of dimension {dim} exceeds the"
                f" 2^{self.max_cycle_space_dim} oracle cap"
            )


DEFAULT_BUDGET = OracleBudget()


# -- dense Z2 helpers on int masks -----------------------------------------


def _reduce_mask(mask: int, rows: dict[int, int]) -> int:
    """Eliminate against rows keyed by leading bit until stuck or zero."""
    while mask:
        row = rows.get(mask.bit_length() - 1)
        if row is None:
            break
        mask ^= row
    return mask


def _insert_mask(mask: int, rows: dict[int, int]) -> bool:
    """Grow the span; True when the mask was independent of it."""
    residue = _reduce_mask(mask, rows)
    if residue:
        rows[residue.bit_length() - 1] = residue
        return True
    return False


def _span_rows(masks) -> dict[int, int]:
    rows: dict[int, int] = {}
    for m in masks:
        _insert_mask(m, rows)
    return rows


def _independent_masks(masks) -> list[int]:
    """Greedy independent subset, keeping the original unreduced masks."""
    rows: dict[int, int] = {}
    kept = []
    for m in masks:
        if _insert_mask(m, rows):
            kept.append(m)
    return kept


def _mask_rank(masks) -> int:
    return len(_span_rows(masks))


def _kernel_coefficients(columns: Sequence[int]) -> list[int]:
    """Coefficient masks of a basis of {c : XOR_{j in c} columns[j] = 0}: one
    per column that reduces to zero against the echelon rows of those before
    it, each row tagged with the columns it sums."""
    rows: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, col in enumerate(columns):
        value, coeffs = col, 1 << j
        while value:
            top = value.bit_length() - 1
            if top in rows:
                rv, rc = rows[top]
                value ^= rv
                coeffs ^= rc
            else:
                rows[top] = (value, coeffs)
                break
        if not value:
            kernel.append(coeffs)
    return kernel


def _solve_masks(columns: Sequence[int], target: int) -> Optional[int]:
    """Coefficient mask c with XOR_{j in c} columns[j] = target, or None: the
    target, put last, reduces to zero exactly when it is in the span, and its
    kernel vector then names it and the columns that sum to it."""
    n = len(columns)
    kernel = _kernel_coefficients([*columns, target])
    return kernel[-1] ^ (1 << n) if kernel and kernel[-1] >> n else None


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
    return [_xor_select(bits, c) for c in _kernel_coefficients([columns[q] for q in positions])]


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
    budget: OracleBudget = DEFAULT_BUDGET,
) -> ExactOptimum:
    """Minimum-radius cycle in the input's homology class, by trying every
    candidate sphere in radius order and asking whether the subcomplex it
    induces holds a homologous cycle."""
    budget.check_complex(complex_like)
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
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[ChainVector]:
    """Every cycle homologous to the input: the input shifted by each element
    of the boundary span, 2^rank of them."""
    budget.check_complex(complex_like)
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("input chain is not a cycle")
    basis = _independent_masks(boundary_columns(complex_like, p))
    budget.check_span(len(basis))
    n_p = complex_like.n_simplices(p)
    return [
        ChainVector(n_p, mask=cycle.mask ^ _xor_select(basis, bits))
        for bits in range(1 << len(basis))
    ]


def exact_min_basis(
    complex_like: EmbeddedComplex,
    p: int = 1,
    budget: OracleBudget = DEFAULT_BUDGET,
    weight: str = "exact",
) -> ExactBasis:
    """Minimum-weight homology basis by full enumeration: the cheapest cycle
    of every class, then the cheapest independent set of classes."""
    budget.check_complex(complex_like)
    weigh = _weight_fn(complex_like, p, weight)
    n_p = complex_like.n_simplices(p)
    bbasis = _independent_masks(boundary_columns(complex_like, p))
    budget.check_span(len(bbasis))

    rows = _span_rows(bbasis)
    hbasis = []
    for m in _cycle_space_masks(complex_like, p):
        if _insert_mask(m, rows):
            hbasis.append(m)
    beta = len(hbasis)
    if beta == 0:
        return ExactBasis((), (), 0.0)
    budget.check_span(beta)
    if math.comb((1 << beta) - 1, beta) > 1 << budget.max_cycle_space_dim:
        raise BudgetExceededError(
            f"enumerating bases over {beta} classes exceeds the oracle cap"
        )

    # cheapest member of every nonzero class; a class never holds the zero
    # cycle, so the weight functions are safe
    class_best: dict[int, tuple[float, int]] = {}
    for cls in range(1, 1 << beta):
        base = _xor_select(hbasis, cls)
        best = None
        for bits in range(1 << len(bbasis)):
            m = base ^ _xor_select(bbasis, bits)
            cand = (weigh(ChainVector(n_p, mask=m)), m)
            if best is None or cand < best:
                best = cand
        class_best[cls] = best

    best_total = None
    best_subset = None
    for subset in combinations(sorted(class_best), beta):
        if _mask_rank(subset) < beta:
            continue
        total = sum(class_best[c][0] for c in subset)
        if best_total is None or total < best_total:
            best_total = total
            best_subset = subset
    assert best_subset is not None  # the hbasis classes themselves qualify

    picked = sorted((class_best[c] for c in best_subset))
    return ExactBasis(
        cycles=tuple(ChainVector(n_p, mask=m) for _, m in picked),
        weights=tuple(w for w, _ in picked),
        total_weight=float(sum(w for w, _ in picked)),
    )


def exact_min_persistent_rep(
    filtration: Filtration,
    interval: Interval,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> ExactRepresentative:
    """Minimum-weight representative of a bar by walking the whole cycle
    space of the birth prefix and keeping every chain that is a valid
    representative: contains the creator, stays non-bounding until the bar
    dies, bounds once it does (never, for essential bars). A chain weighs its
    smallest site radius over every vertex; the site returned is the
    lowest-index vertex at which the winner attains its weight."""
    complex_like = filtration.complex
    budget.check_complex(complex_like)
    p = interval.dim
    weigh = _weight_fn(complex_like, p, "site")
    n_p = complex_like.n_simplices(p)
    creator_bit = complex_like.position(interval.creator)

    cycles = _cycle_space_masks(complex_like, p, filtration.prefix(interval.birth)[p])
    budget.check_span(len(cycles))

    full = boundary_columns(complex_like, p)
    if interval.death is None:
        pre_rows = _span_rows(full)
        death_rows = None
    else:
        pre_rows = _span_rows(compress(full, filtration.prefix(interval.death - 1)[p + 1]))
        death_rows = _span_rows(compress(full, filtration.prefix(interval.death)[p + 1]))

    best = None
    for bits in range(1, 1 << len(cycles)):
        m = _xor_select(cycles, bits)
        if not m >> creator_bit & 1:
            continue
        if _reduce_mask(m, pre_rows) == 0:
            continue
        if death_rows is not None and _reduce_mask(m, death_rows) != 0:
            continue
        cand = (weigh(ChainVector(n_p, mask=m)), m)
        if best is None or cand < best:
            best = cand
    # the bar exists, so at least one representative does
    assert best is not None
    w, m = best
    out = ChainVector(n_p, mask=m)
    site = min(complex_like.vertex_ids(), key=lambda v: (site_radius(complex_like, v, out, p), v))
    return ExactRepresentative(cycle=out, weight=w, site=site)
