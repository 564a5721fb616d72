"""Edge-count shortening of 1-cycles, the post-pass of ``--shorten``: only the
requests that shorten load this module."""
from __future__ import annotations

from functools import cache
from itertools import compress

from .complexes import EmbeddedComplex, Simplex, boundary_columns, distances_from
from .optimize import OptimalCycleResult, _result_for_cycle
from .radius import chain_vertices
from .z2 import ChainVector, IncrementalSpan

# shorten_cycle makes at most one swap per pass, so at most this many swaps
SHORTEN_PASSES = 50


def _cycle_loops(edges: list[Simplex]) -> list[list[int]]:
    """Closed vertex walks covering the edge set, smallest neighbor first. The
    edges come in canonical order, so each neighbor list is sorted, and a walk
    pops each edge it takes from both of its ends' lists."""
    neighbors: dict[int, list[int]] = {}
    for a, b in edges:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    loops = []
    for start in sorted(neighbors):
        while neighbors[start]:
            walk = [start]
            while len(walk) == 1 or walk[-1] != start:  # every vertex has even degree, so it ends at start
                walk.append(neighbors[walk[-1]].pop(0))
                neighbors[walk[-1]].remove(walk[-2])
            loops.append(walk[:-1])
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
    bar; a result with an interval and no members raises ValueError. The
    edge count never grows, and because all replacement paths stay inside
    the same ball the site radius never grows either. The complex's edges
    come in canonical order, so the ball's adjacency lists are sorted, and a
    tree path, like a loop walk, takes the smallest neighbor first."""
    if result.dim != 1:
        raise ValueError("shortening is defined for 1-cycles only")
    if result.interval is not None and members is None:
        raise ValueError("a bar representative is shortened in its birth prefix: pass members")
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
            n, twice = len(loop), loop + loop
            # the forward arcs of 2 to n - 2 edges: the rest of the loop has at least 2 edges too
            for arc in (twice[i : j + 1] for i in range(n) for j in range(i + 2, i + n - 1)):
                parent = tree(arc[0])
                if arc[-1] in parent and len(path := _tree_path(parent, arc[-1])) < len(arc):
                    proposals.append((len(path) - len(arc), arc, path))
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
    r_v = max(map(dist.__getitem__, chain_vertices(complex_like, cycle, 1)), default=0.0)
    out = _result_for_cycle(complex_like, cycle, 1, result.site, r_v, result.interval)
    assert out.r_v <= result.r_v
    assert len(out.cycle) <= len(result.cycle)
    return out
