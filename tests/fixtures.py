"""Small named instances used by tests, scripts, and demos.

Each builder returns concrete geometry; expected radii that tests freeze are
derived from this geometry in closed form (circumradii, half-diagonals), so
the numbers can be recomputed from the constructions alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from cyclerad.complexes import EmbeddedComplex, PointCloud
from cyclerad.filtrations import Filtration
from cyclerad.z2 import ChainVector


@dataclass(frozen=True)
class LoopInstance:
    complex: EmbeddedComplex
    loop: ChainVector


def hollow_triangle(side: float = 1.0) -> LoopInstance:
    """Equilateral triangle boundary, no 2-cell. beta_1 = 1."""
    cloud = PointCloud(
        [(0.0, 0.0), (side, 0.0), (side / 2.0, side * math.sqrt(3) / 2.0)]
    )
    complex_ = EmbeddedComplex(cloud, [(0, 1), (0, 2), (1, 2)])
    return LoopInstance(complex_, complex_.chain([(0, 1), (0, 2), (1, 2)]))


def filled_triangle(side: float = 1.0) -> LoopInstance:
    cloud = PointCloud(
        [(0.0, 0.0), (side, 0.0), (side / 2.0, side * math.sqrt(3) / 2.0)]
    )
    complex_ = EmbeddedComplex(cloud, [(0, 1, 2)])
    return LoopInstance(complex_, complex_.chain([(0, 1), (0, 2), (1, 2)]))


def wheel_rim() -> LoopInstance:
    """Four rim vertices on the unit circle plus the circle's center as a
    bare vertex. The smallest sphere enclosing the rim is centered exactly on
    that vertex, so the site-restricted optimum meets the exact one."""
    cloud = PointCloud([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)])
    complex_ = EmbeddedComplex(cloud, [(0, 1), (1, 2), (2, 3), (0, 3), (4,)])
    return LoopInstance(complex_, complex_.chain([(0, 1), (1, 2), (2, 3), (0, 3)]))


@dataclass(frozen=True)
class AnnulusInstance:
    complex: EmbeddedComplex
    outer_loop: ChainVector
    inner_loop: ChainVector
    center_vertex: int


def annulus(outer_half: float = 2.0, inner_half: float = 0.5) -> AnnulusInstance:
    """Triangulated annulus between two centered axis-aligned squares, plus
    the center point as a bare vertex. beta_1 = 1; the outer and inner loops
    are homologous."""
    o = outer_half
    i = inner_half
    cloud = PointCloud(
        [
            (-o, -o), (o, -o), (o, o), (-o, o),      # outer corners 0..3
            (-i, -i), (i, -i), (i, i), (-i, i),      # inner corners 4..7
            (0.0, 0.0),                              # center 8
        ]
    )
    triangles = []
    for k in range(4):
        a, b = k, (k + 1) % 4
        triangles.append((a, b, 4 + a))
        triangles.append((b, 4 + a, 4 + b))
    complex_ = EmbeddedComplex(cloud, triangles + [(8,)])
    outer = complex_.chain([(0, 1), (1, 2), (2, 3), (0, 3)])
    inner = complex_.chain([(4, 5), (5, 6), (6, 7), (4, 7)])
    return AnnulusInstance(complex_, outer, inner, 8)


@dataclass(frozen=True)
class FigureEightInstance:
    complex: EmbeddedComplex
    small_loop: ChainVector
    big_loop: ChainVector


def figure_eight(small_side: float = 1.0, big_side: float = 2.0) -> FigureEightInstance:
    """Two hollow equilateral triangles sharing one vertex. beta_1 = 2."""
    s, b = small_side, big_side
    cloud = PointCloud(
        [
            (0.0, 0.0),                               # shared vertex 0
            (s, 0.0), (s / 2.0, s * math.sqrt(3) / 2.0),   # small loop 1, 2
            (-b, 0.0), (-b / 2.0, -b * math.sqrt(3) / 2.0),  # big loop 3, 4
        ]
    )
    complex_ = EmbeddedComplex(cloud, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    return FigureEightInstance(
        complex_,
        complex_.chain([(0, 1), (1, 2), (0, 2)]),
        complex_.chain([(0, 3), (3, 4), (0, 4)]),
    )


def two_loop_filtration() -> Filtration:
    """Two nested triangle loops: the outer appears at value 1, the inner at
    value 2, the annulus between them is filled at value 3, and the inner
    disk at value 4. The dimension-1 value barcode is {[2,3), [1,4)}."""
    angles = [math.pi / 2 + 2 * math.pi * k / 3 for k in range(3)]
    outer = [(2 * math.cos(a), 2 * math.sin(a)) for a in angles]
    inner = [(0.8 * math.cos(a), 0.8 * math.sin(a)) for a in angles]
    cloud = PointCloud(outer + inner)

    value = {}
    for k in range(3):
        value[(k,)] = 1.0
        value[(3 + k,)] = 2.0
    for k in range(3):
        a, b = k, (k + 1) % 3
        value[tuple(sorted((a, b)))] = 1.0
        value[tuple(sorted((3 + a, 3 + b)))] = 2.0
    annulus_triangles = []
    for k in range(3):
        a, b = k, (k + 1) % 3
        annulus_triangles.append(tuple(sorted((a, b, 3 + a))))
        annulus_triangles.append(tuple(sorted((b, 3 + a, 3 + b))))
    for t in annulus_triangles:
        value[t] = 3.0
        for k in range(3):
            e = t[:k] + t[k + 1 :]
            value.setdefault(e, 3.0)
    value[(3, 4, 5)] = 4.0

    complex_ = EmbeddedComplex(cloud, value.keys())
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return Filtration(complex_, order, [value[s] for s in order])


def annulus_bar_filtration() -> tuple[Filtration, AnnulusInstance]:
    """Filtration of the annulus (plus a center fan): the inner loop enters
    at value 1, the outer square and the annulus fill at value 2, and a fan
    of triangles from the center kills the surviving loop at value 3. The
    only dimension-1 interval of positive value length is [1, 3)."""
    inst = annulus()
    base = inst.complex
    fan = [(4, 5, 8), (5, 6, 8), (6, 7, 8), (4, 7, 8)]
    everything = list(base.all_simplices()) + fan
    complex_ = EmbeddedComplex(base.cloud, everything)

    value = {}
    for s in complex_.all_simplices():
        if all(v in (4, 5, 6, 7) for v in s):
            value[s] = 1.0
        elif 8 in s:
            value[s] = 3.0
        else:
            value[s] = 2.0
    # cross edges and annulus triangles mix outer and inner vertices: value 2
    order = sorted(value, key=lambda s: (value[s], len(s), s))
    return Filtration(complex_, order, [value[s] for s in order]), inst


@dataclass(frozen=True)
class SpikedLoopInstance:
    complex: EmbeddedComplex
    cycle: ChainVector          # the ring with detour spikes
    shortened: ChainVector      # the plain ring


def spiked_loop(n_sides: int = 4, spikes: int = 1, radius: float = 1.0, spike_scale: float = 1.8, rotate: float = 0.0) -> SpikedLoopInstance:
    """A regular polygon ring where some edges are replaced by a two-edge
    detour through an outward spike vertex; the direct edge and the filling
    triangle are kept in the complex, so the detour is nullhomologous and a
    shortening pass can remove it."""
    if not 0 <= spikes <= n_sides:
        raise ValueError("spike count must be between 0 and the side count")
    pts = [
        (
            radius * math.cos(rotate + 2 * math.pi * k / n_sides),
            radius * math.sin(rotate + 2 * math.pi * k / n_sides),
        )
        for k in range(n_sides)
    ]
    spike_ids = {}
    for j in range(spikes):
        a, b = j, (j + 1) % n_sides
        mid = (
            spike_scale * (pts[a][0] + pts[b][0]) / 2.0,
            spike_scale * (pts[a][1] + pts[b][1]) / 2.0,
        )
        spike_ids[(a, b)] = n_sides + j
        pts.append(mid)
    cloud = PointCloud(pts)

    simplices = []
    cycle_edges = []
    ring_edges = []
    for k in range(n_sides):
        a, b = k, (k + 1) % n_sides
        edge = tuple(sorted((a, b)))
        ring_edges.append(edge)
        simplices.append(edge)
        if (a, b) in spike_ids:
            s = spike_ids[(a, b)]
            simplices.append(tuple(sorted((a, b, s))))
            cycle_edges.append(tuple(sorted((a, s))))
            cycle_edges.append(tuple(sorted((b, s))))
        else:
            cycle_edges.append(edge)
    complex_ = EmbeddedComplex(cloud, simplices)
    return SpikedLoopInstance(
        complex_,
        complex_.chain(cycle_edges),
        complex_.chain(ring_edges),
    )


def hexagon_with_chord() -> LoopInstance:
    """Hexagon ring with a two-edge chord path through the center but no
    2-cells: the chord shortcut is not homologous to the arc it would
    replace, so shortening must leave the ring untouched."""
    pts = [
        (math.cos(2 * math.pi * k / 6), math.sin(2 * math.pi * k / 6)) for k in range(6)
    ]
    pts.append((0.0, 0.0))
    cloud = PointCloud(pts)
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    complex_ = EmbeddedComplex(cloud, ring + [(0, 6), (3, 6)])
    return LoopInstance(complex_, complex_.chain(ring))


def circle_cloud(n: int, radius: float = 1.0) -> PointCloud:
    return PointCloud(
        [
            (radius * math.cos(2 * math.pi * k / n), radius * math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
    )
