"""Site-restricted cycle optimization.

Three solvers share one engine: rank the p- and (p+1)-simplices around a
site by farthest vertex distance, reduce the (p+1)-columns to clear the
p-columns they pair, and read the essential cycles off the basis change of
the remaining p-columns (``filtrations.site_essential_cycles``, which the
solvers call as ``_site_essential_cycles``). That is the package's one
persistence kernel, ``filtrations._clearing_reduction``, which also computes
the barcode of a filtration. Because reduced columns
have pairwise distinct leading positions, the leading position of any
combination is the max over its parts. That makes the greedy exact rather
than heuristic, and also the early stop of the class test that localize and
the bars share (``_express_over``): a cycle admitted after the target lies
in the span takes a leading position the target's reduction never reads.

All three solvers share one best-first site search: per-site answers are
minima over site-independent chain sets, so r_w >= r_v - |p_v - p_w|, and
sites whose bound exceeds a cutoff (the best radius so far, or the last
radius the basis greedy admits) are skipped. Every bar representative
contains the bar's creator, so a bar's bounds start, exactly, at each site's
distance to the creator's farthest vertex. Every answer, lowest-site-index
tie-break included, is identical to visiting every site.
"""
from __future__ import annotations

import math
from functools import cache
from itertools import compress
from typing import Callable, NamedTuple, Optional, Sequence

from .complexes import (
    EmbeddedComplex,
    Simplex,
    boundary_columns,
    distances_from,
    within_radius,
)
from .filtrations import Filtration, Interval, PersistenceResult
# every solver calls the per-site kernel by this name, which perfbench/wrappers.json wraps
from .filtrations import site_essential_cycles as _site_essential_cycles
from .radius import SphereCertificate, chain_vertices, exact_radius, site_radius
from .z2 import ChainVector, IncrementalSpan

# evaluate(site) -> (site radius, chain), closing over the site-invariant work
SiteEvaluator = Callable[[int], tuple[float, ChainVector]]


def _chosen_sites(complex_like: EmbeddedComplex, sites: Optional[Sequence[int]]) -> list[int]:
    chosen = sorted(set(complex_like.vertex_ids() if sites is None else sites))
    if not chosen:
        raise ValueError("need at least one site")
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


def _result_for_cycle(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int,
    site: Optional[int],
    interval: Optional[Interval] = None,
) -> OptimalCycleResult:
    if cycle.is_zero():
        return OptimalCycleResult(cycle, p, site, 0.0, 0.0, SphereCertificate(None, 0.0, ()), interval)
    cert = exact_radius(complex_like, cycle, p)
    r_v = site_radius(complex_like, site, cycle, p) if site is not None else cert.radius
    return OptimalCycleResult(cycle, p, site, r_v, cert.radius, cert, interval)


def _site_search(complex_like: EmbeddedComplex, sites: Optional[Sequence[int]],
                 evaluate: Callable[[int], float], cutoff: Callable[[], float],
                 contains: Sequence[int] = ()) -> None:
    """Evaluate sites by smallest lower bound, lowest index first, until every
    remaining bound exceeds cutoff() by more than the membership tolerance.
    evaluate(site) returns a radius r_v with r_w >= r_v - |p_v - p_w|, and
    r_w >= |p_u - p_w| for every vertex u in contains."""
    chosen = _chosen_sites(complex_like, sites)
    columns = [[column[v] for v in chosen] for column in complex_like.cloud.columns]
    bound = [0.0] * len(chosen)  # visited sites hold +inf
    for u in contains:
        # (u - w)^2 is (w - u)^2 bit for bit, so each bound is a site_radius value
        bound = list(map(max, bound, distances_from(complex_like.cloud.point(u), columns)))
    while True:
        k = bound.index(min(bound))
        if bound[k] == math.inf or not within_radius(bound[k], cutoff()):
            break
        bound[k] = math.inf
        r = evaluate(chosen[k])
        near = distances_from(complex_like.cloud.point(chosen[k]), columns)
        bound = [b if b >= r - x else r - x for b, x in zip(bound, near)]


def _best_site(complex_like: EmbeddedComplex, sites: Optional[Sequence[int]], evaluate: SiteEvaluator,
               contains: Sequence[int] = ()) -> tuple[int, ChainVector]:
    """Site and chain with the lexicographically smallest (radius, site)."""
    best = [math.inf, -1, None]  # (radius, site, chain)

    def visit(site: int) -> float:
        r, chain = evaluate(site)
        if (r, site) < (best[0], best[1]):
            best[:] = r, site, chain
        return r

    # a zero radius is the zero chain, reached first, so nothing can beat it
    _site_search(complex_like, sites, visit, lambda: -math.inf if best[0] == 0.0 else best[0], contains)
    return best[1], best[2]


def describe_cycle(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int,
    site: Optional[int] = None,
) -> OptimalCycleResult:
    """Measure a given cycle without optimizing it; with no site given, the
    best site (smallest r_v, lowest index) is chosen."""
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("chain is not a cycle")
    if site is None and not cycle.is_zero():
        # every site's bound from the cycle's vertices is its r_v already
        site, _ = _best_site(
            complex_like, None, lambda v: (site_radius(complex_like, v, cycle, p), cycle),
            chain_vertices(complex_like, cycle, p),
        )
    return _result_for_cycle(complex_like, cycle, p, site)


def _express_over(span: IncrementalSpan, cycles: Sequence[ChainVector], target: ChainVector) -> int:
    """Sum of the cycles that, with the span's columns, make up the target.
    They join a copy of the span in order, each tagged with itself, only
    until the target lies in it: a later cycle would take a lowest-one row
    the target's reduction never reads, so the sum would be the same."""
    span = span.copy()
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


def _homologous_evaluator(
    complex_like: EmbeddedComplex, cycle: ChainVector, p: int
) -> SiteEvaluator:
    """Per site, express the input over the boundaries and the essential
    cycles of the site ordering and keep the essential part. The essential
    cycles are a homology basis, so that part is the input's class in it
    whatever the order of reduction, and the boundaries are reduced once."""
    if not complex_like.is_cycle(cycle, p):
        raise ValueError("input chain is not a cycle")
    n_p = complex_like.n_simplices(p)
    boundaries = IncrementalSpan(n_p, boundary_columns(complex_like, p))

    def evaluate(site: int) -> tuple[float, ChainVector]:
        essential, _ = _site_essential_cycles(complex_like, site, p)
        # essential cycles and boundaries together span every cycle
        out = ChainVector(n_p, mask=_express_over(boundaries, essential, cycle))
        return (0.0 if out.is_zero() else site_radius(complex_like, site, out, p)), out

    return evaluate


def opt_homologous_cycle(
    complex_like: EmbeddedComplex,
    cycle: ChainVector,
    p: int = 1,
    sites: Optional[Sequence[int]] = None,
) -> OptimalCycleResult:
    """Best homologous cycle over the sites; ties broken toward the lowest
    site index."""
    evaluate = _homologous_evaluator(complex_like, cycle, p)
    site, out = _best_site(complex_like, sites, evaluate)
    return _result_for_cycle(complex_like, out, p, site)


def opt_homology_basis(
    complex_like: EmbeddedComplex,
    p: int,
    sites: Optional[Sequence[int]] = None,
) -> HomologyBasisResult:
    """Greedy minimum-weight homology basis from the pooled essential cycles
    of every site ordering, skipping sites the greedy cannot reach."""
    if p < 1:
        raise ValueError("basis dimension must be positive")
    admitted: Optional[list[tuple[float, int, int, ChainVector]]] = None  # (r, site, rank, cycle)
    boundaries = IncrementalSpan(complex_like.n_simplices(p), boundary_columns(complex_like, p))

    def evaluate(site: int) -> float:
        nonlocal admitted
        cycles, radii = _site_essential_cycles(complex_like, site, p)
        # classes form a matroid: the old greedy basis stands in for the old
        # pool, and no cycle born after its last entry can displace one
        fresh = [(r, site, k, c) for k, (c, r) in enumerate(zip(cycles, radii)) if r <= threshold()]
        if fresh or admitted is None:
            pool = sorted((admitted or []) + fresh, key=lambda t: t[:3])
            span = boundaries.copy()
            admitted = [t for t in pool if span.add(t[3].mask)]
        assert len(admitted) == len(cycles)  # homology rank cannot depend on the site
        return radii[0] if radii else 0.0

    def threshold() -> float:
        # more sites only lower the last admitted radius, and a site bounded
        # above it holds no cycle the greedy over every site would reach
        if admitted is None:
            return math.inf
        return admitted[-1][0] if admitted else -math.inf

    _site_search(complex_like, sites, evaluate, threshold)
    cycles = tuple(_result_for_cycle(complex_like, c, p, v) for _, v, _, c in admitted)
    return HomologyBasisResult(cycles, sum(x.r_v for x in cycles))


def _rotated_candidates(complex_like: EmbeddedComplex, members, creator_bit: int, site: int, p: int):
    """Essential cycles of the site ordering of the birth prefix members flags,
    rotated so only the first creator-containing column keeps the creator."""
    essential, _ = _site_essential_cycles(complex_like, site, p, members)
    alpha = next(
        (j for j, c in enumerate(essential) if creator_bit in c), None
    )
    # the interval's class is born here, so some essential cycle meets it
    assert alpha is not None
    anchor = essential[alpha]
    others = []
    for j, c in enumerate(essential):
        if j == alpha:
            continue
        others.append(c ^ anchor if creator_bit in c else c)
    return anchor, others


def _bar_evaluator(filtration: Filtration, interval: Interval) -> SiteEvaluator:
    """Per site, anchor on the first essential cycle of the birth prefix that
    contains the creator, then admit the remaining cycles in order, after the
    boundaries born by the death time, until the anchor lies in their span;
    the representative is the anchor plus the admitted cycles it needs."""
    p = interval.dim
    complex_like = filtration.complex
    members = filtration.prefix(interval.birth)
    creator_bit = complex_like.position(interval.creator)
    n_p = complex_like.n_simplices(p)
    born_by_death = []  # only the boundaries born by the death time, in canonical order
    if interval.death is not None:
        born_by_death = compress(boundary_columns(complex_like, p), filtration.prefix(interval.death)[p + 1])
    death_span = IncrementalSpan(n_p, born_by_death)

    def evaluate(site: int) -> tuple[float, ChainVector]:
        anchor, others = _rotated_candidates(complex_like, members, creator_bit, site, p)
        if interval.death is None:
            # nothing below the anchor's leading position can represent an
            # essential class, so the anchor itself is optimal
            return site_radius(complex_like, site, anchor, p), anchor

        # the bar dies, so the span of every admitted cycle holds the anchor
        out = anchor ^ ChainVector(n_p, mask=_express_over(death_span, others, anchor))
        return site_radius(complex_like, site, out, p), out

    return evaluate


def opt_pers_hom_rep(
    filtration: Filtration,
    interval: Interval,
    sites: Optional[Sequence[int]] = None,
) -> OptimalCycleResult:
    """Best bar representative over the sites; ties broken toward the lowest
    site index."""
    evaluate = _bar_evaluator(filtration, interval)
    site, out = _best_site(filtration.complex, sites, evaluate, interval.creator)
    return _result_for_cycle(filtration.complex, out, interval.dim, site, interval)


def opt_persistent_basis(persistence: PersistenceResult, top: Optional[int] = None) -> list[OptimalCycleResult]:
    """One optimal representative per bar of persistence.bars(top), over
    every site; per-bar minima assemble into the minimum persistent basis."""
    return [opt_pers_hom_rep(persistence.filtration, iv) for iv in persistence.bars(top)]


# -- cycle shortening ------------------------------------------------------

# shorten_cycle makes at most one swap per pass, so at most this many swaps
SHORTEN_PASSES = 50


def _cycle_loops(edges: list[Simplex]) -> list[list[int]]:
    """Closed vertex walks covering the edge set, smallest neighbor first."""
    neighbors: dict[int, list[int]] = {}
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
            step = next(
                w
                for w in neighbors[current]
                if tuple(sorted((current, w))) in unused
            )
            unused.discard(tuple(sorted((current, step))))
            if step == start:
                break
            walk.append(step)
            current = step
        loops.append(walk)
    return loops


def _bfs_tree(adjacency: dict[int, list[int]], root: int) -> dict[int, int]:
    """Breadth-first parent of each vertex reachable from root (root's is
    itself): the tree path to a vertex is the one a search stopping there finds."""
    parent, queue = {root: root}, [root]
    for u in queue:  # the queue grows as the search runs
        for w in adjacency.get(u, ()):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def _tree_path(parent: dict[int, int], b: int) -> list[int]:
    """The path from the root of a _bfs_tree to b, a vertex of the tree."""
    path = [b]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path[::-1]


def shorten_cycle(
    result: OptimalCycleResult, complex_like: EmbeddedComplex, members=None
) -> OptimalCycleResult:
    """Replace arcs of the cycle by shorter homologous paths found inside the
    site ball of the result, and inside the subcomplex that members flags
    per dimension (Filtration.prefix) when given. The class there never
    changes (every swap is checked against that subcomplex's boundaries), so
    a bar representative shortened in its birth prefix still represents the
    bar. The edge count never grows, and because all replacement paths stay
    inside the same ball the site radius never grows either."""
    if result.dim != 1:
        raise ValueError("shortening is defined for 1-cycles only")
    if result.cycle.is_zero() or result.site is None:
        return result

    # the edges of the complex with both endpoints in the site ball; r_v is
    # the max of these same distances over the cycle, so no tolerance is due
    dist = distances_from(complex_like.cloud.point(result.site), complex_like.cloud.columns)
    graph_edges, columns = complex_like.simplices(1), boundary_columns(complex_like, 1)
    if members is not None:
        # a complex without triangles has no flags for them, and no columns
        graph_edges, columns = compress(graph_edges, members[1]), compress(columns, members[2]) if columns else []
    adjacency: dict[int, list[int]] = {}
    for a, b in graph_edges:
        if dist[a] <= result.r_v and dist[b] <= result.r_v:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
    for v in adjacency:
        adjacency[v].sort()
    bounds = IncrementalSpan(complex_like.n_simplices(1), columns)
    tree = cache(lambda root: _bfs_tree(adjacency, root))  # the ball graph is fixed

    bit = complex_like.powers(complex_like.n_simplices(1))

    def mask(trail: list[int]) -> int:
        # a trail's edges are distinct, so their bits sum to their Z2 chain
        return sum(bit[complex_like.position(sorted(e))] for e in zip(trail, trail[1:]))

    cycle = result.cycle
    rejected: set[int] = set()  # swaps outside the span, which is fixed
    for _ in range(SHORTEN_PASSES):
        proposals = []
        for loop in _cycle_loops(complex_like.chain_simplices(cycle, 1)):
            n = len(loop)
            for i in range(n):
                for j in range(i + 2, n):
                    if i == 0 and j == n - 1:
                        continue  # adjacent around the wrap
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
                # arc and path are trails with the same ends, so the candidate
                # is a cycle; the arc's edges are the cycle's and the path is
                # shorter, so it has fewer edges
                cycle = ChainVector(cycle.ambient_size, mask=cycle.mask ^ difference)
                break
            rejected.add(difference)
        else:
            break

    if cycle == result.cycle:
        return result
    out = _result_for_cycle(complex_like, cycle, 1, result.site, result.interval)
    assert out.r_v <= result.r_v
    assert len(out.cycle) <= len(result.cycle)
    return out
