"""Site-restricted cycle optimization.

Three solvers share one engine: rank the p- and (p+1)-simplices around a
site by farthest vertex distance, reduce the (p+1)-columns to clear the
p-columns they pair, and read the essential cycles off the basis change of
the remaining p-columns (``complexes.site_essential_cycles``, which the
solvers call as ``_site_essential_cycles``). That is the package's one
persistence kernel, ``complexes._clearing_reduction``, which also computes
the barcode of a filtration. Because reduced columns have pairwise
distinct leading positions, the leading position of any combination is the
max over its parts. That makes the greedy exact rather than heuristic, and
also the early stop of the class test that localize and the bars share
(``_express_over``): a cycle admitted after the target lies in the span
takes a leading position the target's reduction never reads.

All three solvers share one best-first site search, ``_site_search``:
per-site answers are minima over site-independent chain sets, so
r_w >= r_v - |p_v - p_w|, and sites whose bound exceeds a cutoff (the best
radius so far, or the last radius the basis greedy admits) are skipped.
A visit computes the site's distances once: the kernel ranks by them, r_v
is their max over the chain's vertices (``radius.site_radius`` bit for bit),
and the bounds rise by them. The search returns the winner's r_v, so a
result computes only its exact sphere; ``describe_cycle`` is the search with
the chain fixed. Every bar representative contains the bar's creator, so a
bar's bounds start, exactly, at each site's distance to the creator's
farthest vertex. Every answer, lowest-site-index tie-break included, is
identical to visiting every site. Each solver does the work that does not
depend on the site once, before its search: localize reduces the input
against the boundaries, and the bar pass grows one boundary span in death
order, which each site's trial extends, not copies.

The basis greedy cannot admit a cycle born above its threshold, so after
its first site it reads each site only inside the threshold ball (the
kernel's radius cut), and it starts at the site nearest the centre, whose
ball is small; its pool is sorted, so the visiting order cannot change the
basis. Localize and the bars keep the full kernel and the lowest-index
start: a site cut at the best radius that finds nothing bounds only that
radius, which prunes fewer of its neighbours.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .complexes import (
    EmbeddedComplex,
    boundary_columns,
    distances_from,
    within_radius,
)
# every solver calls the per-site kernel by this name, which perfbench/wrappers.json wraps
from .complexes import site_essential_cycles as _site_essential_cycles
from .radius import SphereCertificate, chain_vertices, exact_radius
from .z2 import ChainVector, IncrementalSpan

if TYPE_CHECKING:
    from .filtrations import Filtration, Interval, PersistenceResult

# evaluate(site, its distance to each cloud point, the cutoff the visit passed) -> (site radius, chain)
SiteEvaluator = Callable[[int, list[float], float], tuple[float, Optional[ChainVector]]]


def _chosen_sites(complex_like: EmbeddedComplex, sites: Optional[Sequence[int]]) -> list[int]:
    vertices = set(complex_like.vertex_ids())
    chosen = sorted(vertices if sites is None else set(sites))
    if not chosen:
        raise ValueError("need at least one site")
    stray = [v for v in chosen if v not in vertices]
    if stray:
        raise ValueError(f"site {stray[0]} is not a vertex of the complex")
    return chosen


class OptimalCycleResult(NamedTuple):
    """A cycle with its measured radii: r_v is the farthest-vertex radius at
    the chosen site, r_exact the radius of the cycle's own smallest enclosing
    sphere (so r_exact <= r_v always)."""

    cycle: ChainVector
    dim: int
    site: Optional[int]
    r_v: float
    r_exact: float
    certificate: SphereCertificate
    interval: Optional[Interval] = None

    def edge_count(self) -> int:
        return len(self.cycle)


class HomologyBasisResult(NamedTuple):
    cycles: tuple[OptimalCycleResult, ...]
    total_weight: float


def _result_for_cycle(complex_like: EmbeddedComplex, cycle: ChainVector, p: int, site: Optional[int], r_v: float,
                      interval: Optional[Interval] = None) -> OptimalCycleResult:
    """The cycle with the r_v its solver measured at the site (0.0 for the
    zero cycle, whose certificate is the empty one) and its exact sphere."""
    cert = exact_radius(complex_like, cycle, p)
    return OptimalCycleResult(cycle, p, site, r_v, cert.radius, cert, interval)


def _site_search(complex_like: EmbeddedComplex, sites: Optional[Sequence[int]], evaluate: SiteEvaluator,
                 cutoff: Optional[Callable[[], float]] = None, contains: Sequence[int] = (),
                 centred: bool = False) -> tuple[float, int, Optional[ChainVector]]:
    """The one site search of every solver. Sites are visited by smallest
    lower bound, lowest index first, until every remaining bound exceeds
    cutoff() by more than the membership tolerance. cutoff defaults to the
    best radius so far, and to -inf once that is 0 (a zero radius is the zero
    chain, which nothing beats). When centred, the first site is the one
    nearest the centre of the sites' bounding box (lowest index on a tie).

    Each visit computes the site's distance to every cloud point once, as the
    row dist, and calls evaluate(site, dist, cut) -> (r_v, chain), where cut
    is the cutoff the site's bound was just tested against; r_v must satisfy
    r_w >= r_v - |p_v - p_w|, and r_w >= |p_u - p_w| for every vertex u in
    contains. The bounds, one per cloud point, are raised from the same row.
    Returns the r_v, site and chain of the smallest (r_v, site)."""
    chosen = _chosen_sites(complex_like, sites)
    cloud = complex_like.cloud
    bound = [math.inf] * cloud.n_points  # visited sites and points that are not chosen sites hold +inf
    for v in chosen:
        bound[v] = 0.0
    for u in contains:
        # (u - w)^2 is (w - u)^2 bit for bit, so each bound is a site radius
        bound = list(map(max, bound, distances_from(cloud.point(u), cloud.columns)))
    if centred:
        box = [[column[v] for v in chosen] for column in cloud.columns]
        near = distances_from([(min(c) + max(c)) / 2 for c in box], cloud.columns)
        bound[min(chosen, key=near.__getitem__)] = -math.inf
    best_r, best_site, best_chain = math.inf, -1, None
    while True:
        site = bound.index(min(bound))
        cut = cutoff() if cutoff else (-math.inf if best_r == 0.0 else best_r)
        if bound[site] == math.inf or not within_radius(bound[site], cut):
            return best_r, best_site, best_chain
        bound[site] = math.inf
        dist = distances_from(cloud.point(site), cloud.columns)
        r, chain = evaluate(site, dist, cut)
        if (r, site) < (best_r, best_site):
            best_r, best_site, best_chain = r, site, chain
        bound = [b if b >= r - x else r - x for b, x in zip(bound, dist)]


def describe_cycle(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int,
    site: Optional[int] = None,
) -> OptimalCycleResult:
    """Measure a given cycle without optimizing it: the site search over the
    given site, or with none given over every site for the best one (smallest
    r_v, lowest index). The zero cycle with no site given has no site."""
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("chain is not a cycle")
    if site is None and cycle.is_zero():
        return _result_for_cycle(complex_like, cycle, p, None, 0.0)
    # every site's bound from the cycle's vertices is its r_v already
    vertices = chain_vertices(complex_like, cycle, p)
    r_v, site, _ = _site_search(complex_like, None if site is None else [site],
                                lambda v, dist, cut: (max(map(dist.__getitem__, vertices), default=0.0), cycle),
                                contains=vertices)
    return _result_for_cycle(complex_like, cycle, p, site, r_v)


def _express_over(span: IncrementalSpan, cycles: Sequence[ChainVector], target: ChainVector) -> int:
    """Sum of the cycles that, with the span's columns, make up the target. They
    join an extension of the span in order, each tagged with itself, until the
    target lies in it (a later cycle would take a lowest-one row the target's
    reduction never reads); only the space the span's columns span matters."""
    span = IncrementalSpan(span.n_rows, base=span)
    rest, tag = span.reduce(target.mask)
    for c in cycles:
        if not rest:
            break
        # a column added takes a lowest-one row no stored column had, so
        # reducing on from the remainder reduces the target against it all
        span.add(c.mask, c.mask)
        rest, tag = span.reduce(rest, tag)
    assert not rest
    return tag


def opt_homologous_cycle(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int = 1,
    sites: Optional[Sequence[int]] = None,
) -> OptimalCycleResult:
    """Best homologous cycle over the sites; ties broken toward the lowest
    site index. Per site, the input is expressed over the boundaries and the
    essential cycles of the site ordering, and its essential part kept. The
    essential cycles are a homology basis, so that part is the input's class
    in it whatever the order of reduction."""
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("input chain is not a cycle")
    n_p = complex_like.n_simplices(p)
    boundaries = IncrementalSpan(n_p, boundary_columns(complex_like, p))
    # the input less a boundary: its coordinates over a homology basis are the input's
    rest = ChainVector(n_p, mask=boundaries.reduce(cycle.mask)[0])

    def evaluate(site: int, dist: list[float], cut: float) -> tuple[float, ChainVector]:
        essential, _ = _site_essential_cycles(complex_like, dist, p)
        # essential cycles and boundaries together span every cycle
        out = ChainVector(n_p, mask=_express_over(boundaries, essential, rest))
        return max(map(dist.__getitem__, chain_vertices(complex_like, out, p)), default=0.0), out

    r_v, site, out = _site_search(complex_like, sites, evaluate)
    return _result_for_cycle(complex_like, out, p, site, r_v)


def opt_homology_basis(
    complex_like: EmbeddedComplex,
    p: int,
    sites: Optional[Sequence[int]] = None,
) -> HomologyBasisResult:
    """Greedy minimum-weight homology basis from the pooled essential cycles
    of every site ordering, skipping sites the greedy cannot reach. The
    search starts at the site nearest the sites' centre, and every later site
    is read only inside the ball of the greedy's threshold."""
    if p < 1:
        raise ValueError("basis dimension must be positive")
    admitted: Optional[list[tuple[float, int, int, ChainVector]]] = None  # (r, site, rank, cycle)
    beta = None  # the homology rank, from the first site's full call
    boundaries = IncrementalSpan(complex_like.n_simplices(p), boundary_columns(complex_like, p))

    def evaluate(site: int, dist: list[float], cut: float) -> tuple[float, None]:
        nonlocal admitted, beta
        # past the first site, a cycle born above the cut cannot be admitted
        cycles, radii = _site_essential_cycles(complex_like, dist, p, radius=cut)
        # classes form a matroid: the old greedy basis stands in for the old
        # pool, and no cycle born after its last entry can displace one;
        # a cycle the cut did not see die lies in the span of those before it
        fresh = [(r, site, k, c) for k, (c, r) in enumerate(zip(cycles, radii))]
        if fresh or admitted is None:
            pool = sorted((admitted or []) + fresh, key=lambda t: t[:3])
            span = IncrementalSpan(boundaries.n_rows, base=boundaries)
            admitted = [t for t in pool if span.add(t[3].mask)]
        beta = len(cycles) if beta is None else beta
        assert len(admitted) == beta  # homology rank cannot depend on the site
        # the site's first essential cycle; with none born by the cut, its radius exceeds the cut
        return next((r for c, r in zip(cycles, radii) if not boundaries.contains(c.mask)), cut), None

    def threshold() -> float:
        # more sites only lower the last admitted radius, and a site bounded
        # above it holds no cycle the greedy over every site would reach
        if admitted is None:
            return math.inf
        return admitted[-1][0] if admitted else -math.inf

    # a corner's first threshold ball would hold the whole complex; the centre's holds less
    _site_search(complex_like, sites, evaluate, threshold, centred=True)
    # a cycle holds its creator and nothing born later, so its r is the max over its vertices
    cycles = tuple(_result_for_cycle(complex_like, c, p, v, r) for r, v, _, c in admitted)
    # summed left to right: sum() of floats is compensated from Python 3.12 on
    return HomologyBasisResult(cycles, reduce(add, (x.r_v for x in cycles), 0.0))


def _bar_representatives(
    filtration: Filtration, intervals: Sequence[Interval], sites: Optional[Sequence[int]] = None
) -> list[OptimalCycleResult]:
    """Best representative of each interval, all of one dimension, over the
    sites. Per site, anchor on the first essential cycle of the birth prefix
    that contains the creator, then admit the remaining cycles in order,
    rotated so only the anchor keeps the creator, after the boundaries born by
    the death time, until the anchor lies in their span; the representative
    is the anchor plus the admitted cycles it needs. Bars go by death (no two
    share one), essential last; one boundary span grows to each death in turn."""
    complex_like = filtration.complex
    span, entered, reps = None, 0, {}  # span: the (p+1)-boundaries born before filtration index `entered`
    for interval in sorted(intervals, key=lambda iv: (iv.death is None, iv.death)):
        p, death = interval.dim, interval.death
        members = filtration.prefix(interval.birth)
        creator_bit = complex_like.position(interval.creator)
        if death is not None:
            if span is None:
                born, span = [None] * len(filtration), IncrementalSpan(complex_like.n_simplices(p))
                for i, column in zip(filtration.indices[p + 1], boundary_columns(complex_like, p)):
                    born[i] = column  # the boundary of the (p+1)-simplex at filtration index i
            for column in filter(None, born[entered : death + 1]):
                span.add(column)
            entered = death + 1

        def evaluate(site: int, dist: list[float], cut: float) -> tuple[float, ChainVector]:
            essential, _ = _site_essential_cycles(complex_like, dist, p, members)
            alpha = next((j for j, c in enumerate(essential) if creator_bit in c), None)
            # the interval's class is born here, so some essential cycle meets it
            assert alpha is not None
            out = anchor = essential[alpha]
            # an essential bar keeps the anchor: nothing below its leading
            # position can represent an essential class
            if death is not None:
                others = [c ^ anchor if creator_bit in c else c for j, c in enumerate(essential) if j != alpha]
                # the bar dies, so the span of every admitted cycle holds the anchor
                out = anchor ^ ChainVector(span.n_rows, mask=_express_over(span, others, anchor))
            return max(map(dist.__getitem__, chain_vertices(complex_like, out, p))), out

        r_v, site, out = _site_search(complex_like, sites, evaluate, contains=interval.creator)
        reps[interval] = _result_for_cycle(complex_like, out, p, site, r_v, interval)
    return [reps[iv] for iv in intervals]


def opt_pers_hom_rep(
    filtration: Filtration,
    interval: Interval,
    sites: Optional[Sequence[int]] = None,
) -> OptimalCycleResult:
    """Best bar representative over the sites; ties broken toward the lowest
    site index."""
    return _bar_representatives(filtration, [interval], sites)[0]


def opt_persistent_basis(persistence: PersistenceResult, top: Optional[int] = None) -> list[OptimalCycleResult]:
    """One optimal representative per bar of persistence.bars(top), over
    every site; per-bar minima assemble into the minimum persistent basis."""
    return _bar_representatives(persistence.filtration, persistence.bars(top))
