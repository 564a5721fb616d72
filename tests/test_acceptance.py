"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Random instances use fixed seeds so the gate is
reproducible; all radius comparisons pin the 1e-9 relative tolerance used
across the suite."""

import math
import random
import time

from conftest import annulus_points
from oracles import betti_by_rank, bounds_in_prefix, dense_from_columns, gf2_in_span, gf2_rank, mask_support

from cyclerad import fixtures
from cyclerad.complexes import EmbeddedComplex, PointCloud, boundary_columns, faces_of
from cyclerad.filtrations import Filtration, compute_persistence, rips_filtration
from cyclerad.fixtures import circle_cloud
from cyclerad.optimize import (
    _site_essential_cycles,
    describe_cycle,
    opt_homologous_cycle,
    opt_homology_basis,
    opt_pers_hom_rep,
    shorten_cycle,
)
from cyclerad.oracle import (
    BudgetExceededError,
    enumerate_class,
    exact_min_basis,
    exact_optimal_homologous_cycle,
)
from cyclerad.radius import site_radius
from cyclerad.z2 import ChainVector

REL = 1e-9


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# -- seeded random instances ------------------------------------------------


def _grid_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    side = math.ceil(math.sqrt(n)) + 1
    cells = rng.sample(range(side * side), n)
    return [
        (c % side + 0.4 * rng.random(), c // side + 0.4 * rng.random()) for c in cells
    ]


def _random_complex(rng: random.Random, max_points: int = 8, max_cells: int = 9) -> EmbeddedComplex:
    n = rng.randint(4, max_points)
    simplices = {(v,) for v in range(n)}
    for _unused in range(rng.randint(0, max_cells)):
        k = rng.choice((2, 2, 3))
        simplices.add(tuple(sorted(rng.sample(range(n), k))))
    return EmbeddedComplex(PointCloud(_grid_points(rng, n)), sorted(simplices))


def _random_filtration(rng: random.Random, max_simplices: int = 40) -> Filtration:
    while True:
        complex_ = _random_complex(rng)
        if complex_.total_simplices() <= max_simplices:
            break
    values: dict[tuple, float] = {}
    for s in sorted(complex_.all_simplices(), key=lambda s: (len(s), s)):
        base = max((values[f] for f in faces_of(s)), default=0.0)
        bump = rng.choice((0.0, 1.0, round(rng.random(), 3)))
        values[s] = base + bump
    order = sorted(complex_.all_simplices(), key=lambda s: (values[s], len(s), s))
    return Filtration(complex_, order, [values[s] for s in order])


def _random_cycle(rng: random.Random, complex_: EmbeddedComplex) -> ChainVector:
    """A 1-cycle assembled from essential cycles and boundaries of the lowest
    site's ordering; may be zero."""
    essential, _unused = _site_essential_cycles(complex_, 0, 1)
    n_1 = complex_.n_simplices(1)
    parts = list(essential) + [ChainVector(n_1, mask=m) for m in boundary_columns(complex_, 1)]
    cycle = ChainVector(n_1, [])
    for part in parts:
        if rng.random() < 0.5:
            cycle = cycle ^ part
    return cycle


def _bounds_in_full(complex_, chain, p) -> bool:
    cols = [mask_support(m) for m in boundary_columns(complex_, p)]
    return gf2_in_span(cols, complex_.n_simplices(p), list(chain.support))


# -- criteria ---------------------------------------------------------------


def test_criterion_1_reduction_matches_dense_ranks():
    rng = random.Random(101)
    t0 = time.perf_counter()
    ok = True
    for _unused in range(200):
        filtration = _random_filtration(rng)
        complex_ = filtration.complex
        simplices = list(complex_.all_simplices())
        for p in range(0, 3):
            result = compute_persistence(filtration, p)
            bars = result.intervals
            if result.betti() != betti_by_rank(simplices, p):
                ok = False
            n_p = complex_.n_simplices(p)
            rank_p = 0
            if 1 <= p <= complex_.max_dim:
                rank_p = gf2_rank(dense_from_columns(
                    complex_.n_simplices(p - 1), list(map(mask_support, boundary_columns(complex_, p - 1)))
                ))
            if len(bars) != n_p - rank_p:  # one interval per independent p-cycle
                ok = False
            rank_up = gf2_rank(dense_from_columns(
                n_p, list(map(mask_support, boundary_columns(complex_, p)))
            ))
            if sum(1 for iv in bars if iv.death is not None) != rank_up:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(ok, f"criterion 1: barcode vs dense ranks on 200 filtrations ({elapsed:.1f}s)")


def test_criterion_2_per_site_minimum_is_exact():
    rng = random.Random(202)
    checked = 0
    ok = True
    while checked < 50:
        complex_ = _random_complex(rng)
        cycle = _random_cycle(rng, complex_)
        site = rng.randrange(len(complex_.vertex_ids()))
        try:
            members = enumerate_class(complex_, cycle, 1)
        except BudgetExceededError:
            continue
        res = opt_homologous_cycle(complex_, cycle, 1, sites=[site])
        best = min(
            0.0 if c.is_zero() else site_radius(complex_, site, c, 1) for c in members
        )
        if res.r_v != best:  # same measure on both sides, so exact equality
            ok = False
        checked += 1
    _report(ok, "criterion 2: per-site optimum equals class-enumeration minimum on 50 instances")


def test_criterion_3_two_approximation_on_fixtures():
    ann = fixtures.annulus()
    wheel = fixtures.wheel_rim()
    fe = fixtures.figure_eight()
    spiked = fixtures.spiked_loop()
    hexa = fixtures.hexagon_with_chord()
    tri = fixtures.hollow_triangle()
    filled = fixtures.filled_triangle()
    cases = [
        ("hollow triangle", tri.complex, tri.loop, False),
        ("filled triangle", filled.complex, filled.loop, True),
        ("annulus", ann.complex, ann.outer_loop, True),
        ("wheel rim", wheel.complex, wheel.loop, True),
        ("figure eight small", fe.complex, fe.small_loop, False),
        ("figure eight big", fe.complex, fe.big_loop, False),
        ("spiked loop", spiked.complex, spiked.cycle, False),
        ("hexagon with chord", hexa.complex, hexa.loop, False),
    ]
    ok = True
    for name, complex_, cycle, vertex_centered in cases:
        opt = exact_optimal_homologous_cycle(complex_, cycle, 1)
        res = opt_homologous_cycle(complex_, cycle, 1)
        lower = opt.radius * (1 - REL)
        upper = 2 * opt.radius * (1 + REL)
        if not (lower <= res.r_v <= upper):
            ok = False
        if vertex_centered and abs(res.r_v - opt.radius) > REL * max(1.0, opt.radius):
            ok = False
    _report(ok, f"criterion 3: oracle <= r_v <= 2x oracle on {len(cases)} fixtures, equality when vertex-centered")


def test_criterion_4_basis_never_beats_oracle():
    rng = random.Random(404)
    instances = [fixtures.figure_eight().complex]
    while len(instances) < 21:
        complex_ = _random_complex(rng)
        try:
            oracle = exact_min_basis(complex_, 1, weight="site")
        except BudgetExceededError:
            continue
        if not oracle.cycles:  # keep the criterion about actual bases
            continue
        instances.append(complex_)
    ok = True
    for complex_ in instances:
        greedy = opt_homology_basis(complex_, 1)
        oracle = exact_min_basis(complex_, 1, weight="site")
        if greedy.total_weight > oracle.total_weight * (1 + REL) + 1e-12:
            ok = False
    _report(ok, "criterion 4: greedy basis weight <= every enumerated basis on figure-eight + 20 random")


def _represents(filtration, iv, cycle) -> bool:
    """Whether the 1-cycle is born by the bar's birth, holds its creator, is
    no boundary before the bar dies (ever, if it never does) and is one at
    its death."""
    complex_ = filtration.complex
    if any(filtration.indices[1][k] > iv.birth for k in cycle.support):
        return False  # bounds_in_prefix cannot index an edge born later
    if complex_.position(iv.creator) not in cycle:
        return False
    before = len(filtration) - 1 if iv.death is None else iv.death - 1
    if bounds_in_prefix(filtration, before, cycle, 1):
        return False
    return iv.death is None or bounds_in_prefix(filtration, iv.death, cycle, 1)


def test_criterion_5_representative_validity():
    """Each representative, and the same shortened inside its birth prefix,
    on 50 random filtrations and the Rips filtrations of three 40-point
    annulus samples, where shortening in the whole complex left the bar."""
    rng = random.Random(505)
    filtrations = []
    while len(filtrations) < 50:
        filtration = _random_filtration(rng)
        if compute_persistence(filtration, 1).intervals:
            filtrations.append(filtration)
    filtrations += [rips_filtration(PointCloud(annulus_points(40, seed)), 0.42, 2) for seed in range(3)]
    ok = True
    for filtration in filtrations:
        for iv in compute_persistence(filtration, 1).intervals:
            rep = opt_pers_hom_rep(filtration, iv)
            short = shorten_cycle(rep, filtration.complex, filtration.prefix(iv.birth))
            ok = ok and _represents(filtration, iv, rep.cycle) and _represents(filtration, iv, short.cycle)
    _report(ok, "criterion 5: bar representatives, shortened or not, contain the creator, die exactly on time, "
                "on 53 filtrations")


def test_criterion_6_two_loop_barcode():
    filtration = fixtures.two_loop_filtration()
    pairs = compute_persistence(filtration, 1).value_pairs()
    ok = pairs == [(1.0, 4.0), (2.0, 3.0)]
    _report(ok, "criterion 6: two-loop filtration yields the 1-bars [1,4) and [2,3)")


def test_criterion_7_scaling_soft_bound():
    def one_run(n: int) -> tuple[int, float]:
        scale = 2 * math.sin(2 * math.pi / n) * 1.0001
        filtration = rips_filtration(circle_cloud(n), scale, max_dim=2)
        finite = [
            iv for iv in compute_persistence(filtration, 1).intervals
            if iv.death is not None
        ]
        target = max(finite, key=lambda iv: iv.death)
        t0 = time.perf_counter()
        opt_pers_hom_rep(filtration, target)
        return len(filtration), time.perf_counter() - t0

    one_run(25)  # warm-up
    times = {}
    sizes = {}
    for n in (25, 50, 100):
        best = math.inf
        for _unused in range(2):
            n_simplices, seconds = one_run(n)
            best = min(best, seconds)
        sizes[n], times[n] = n_simplices, best
    ok = sizes == {25: 100, 50: 200, 100: 400}
    r1 = times[50] / times[25]
    r2 = times[100] / times[50]
    ok = ok and r1 <= 16 and r2 <= 16
    _report(ok, f"criterion 7: doubling 100->200->400 simplices costs x{r1:.1f}, x{r2:.1f} (soft cap 16)")


def test_criterion_8_shortening_stays_in_class():
    cases = []
    for sides, spikes in [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 1), (6, 3),
                          (6, 5), (7, 2), (8, 4), (9, 3), (10, 5)]:
        inst = fixtures.spiked_loop(n_sides=sides, spikes=spikes, rotate=0.1 * spikes)
        cases.append((inst.complex, inst.cycle))
    for outer, inner in [(2.0, 0.5), (2.0, 1.0), (3.0, 0.5), (3.0, 1.5),
                         (4.0, 0.5), (1.5, 0.75), (2.5, 0.25), (5.0, 2.0)]:
        inst = fixtures.annulus(outer_half=outer, inner_half=inner)
        cases.append((inst.complex, inst.outer_loop))
    ok = True
    for complex_, cycle in cases:
        start = describe_cycle(complex_, cycle, 1)
        short = shorten_cycle(start, complex_)
        if not _bounds_in_full(complex_, start.cycle ^ short.cycle, 1):
            ok = False
        if len(short.cycle) > len(start.cycle) or short.r_v > start.r_v:
            ok = False
    _report(ok, f"criterion 8: shortening is homologous and never grows on {len(cases)} fixtures")
