"""File formats: OFF meshes, CSV points and scalars, filtration and cycle
text files, OBJ polyline export.

All readers raise InputError with file and line context on malformed input;
semantic failures (a chain that is not a cycle, a non-monotone filtration)
surface as ValueError from the validating constructors instead.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence, Union

from .complexes import EmbeddedComplex, PointCloud, faces_of
from .filtrations import Filtration
from .z2 import ChainVector

PathLike = Union[str, Path]


class InputError(RuntimeError):
    """Malformed input file; carries file and line context."""

    def __init__(self, path: PathLike, message: str, line: Optional[int] = None):
        self.path = str(path)
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")


def _data_lines(path: PathLike):
    """(line number, stripped text) for non-blank, non-comment lines."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(path, str(exc)) from exc
    for i, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield i, text


def _split_fields(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _floats(path: PathLike, line: int, fields: list[str], what: str) -> list[float]:
    """Parse one row of numbers; NaN and infinities are rejected."""
    try:
        row = [float(x) for x in fields]
    except ValueError as exc:
        raise InputError(path, f"bad {what} row: {exc}", line) from exc
    if not all(math.isfinite(x) for x in row):
        raise InputError(path, f"non-finite value in {what} row", line)
    return row


# -- OFF meshes -------------------------------------------------------------


def read_off(path: PathLike) -> EmbeddedComplex:
    """OFF mesh as a complex: every listed vertex, plus the closure of the
    face rows.  Faces of two vertices are accepted so wireframes load too."""
    lines = list(_data_lines(path))
    if not lines or lines[0][1].upper() != "OFF":
        raise InputError(path, "expected an OFF header", lines[0][0] if lines else None)
    if len(lines) < 2:
        raise InputError(path, "missing the counts line")
    ln, counts = lines[1]
    fields = _split_fields(counts)
    if len(fields) < 2:
        raise InputError(path, "counts line needs vertex and face counts", ln)
    try:
        n_vertices, n_faces = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise InputError(path, f"bad counts line: {exc}", ln) from exc
    if n_vertices < 0 or n_faces < 0:
        raise InputError(path, "counts line has a negative count", ln)

    body = lines[2:]
    if len(body) < n_vertices + n_faces:
        raise InputError(path, f"expected {n_vertices} vertices and {n_faces} faces")

    coords = []
    dim = None
    for ln, text in body[:n_vertices]:
        row = _floats(path, ln, _split_fields(text), "vertex")
        if len(row) < 2:
            raise InputError(path, "vertex row needs at least two coordinates", ln)
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise InputError(path, "vertex rows mix dimensions", ln)
        coords.append(row)

    simplices: list[tuple[int, ...]] = [(v,) for v in range(n_vertices)]
    for ln, text in body[n_vertices : n_vertices + n_faces]:
        fields = _split_fields(text)
        try:
            k = int(fields[0])
            verts = [int(x) for x in fields[1 : 1 + k]]
        except (ValueError, IndexError) as exc:
            raise InputError(path, f"bad face row: {exc}", ln) from exc
        if len(verts) != k:
            raise InputError(path, f"face row promises {k} vertices", ln)
        if any(v < 0 or v >= n_vertices for v in verts):
            raise InputError(path, "face references a missing vertex", ln)
        if len(set(verts)) != len(verts):
            raise InputError(path, "face repeats a vertex", ln)
        simplices.append(tuple(sorted(verts)))

    try:
        return EmbeddedComplex(PointCloud(coords), simplices)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def write_off(path: PathLike, complex_like: EmbeddedComplex) -> None:
    faces = sorted(s for s in complex_like.maximal_simplices() if len(s) >= 2)
    ids = complex_like.vertex_ids()
    if ids != tuple(range(len(ids))):
        raise ValueError("OFF export needs contiguous vertex ids")
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(ids)} {len(faces)} 0\n")
        for v in ids:
            fh.write(" ".join(repr(float(x)) for x in complex_like.cloud.point(v)))
            fh.write("\n")
        for s in faces:
            fh.write(" ".join(str(x) for x in (len(s), *s)))
            fh.write("\n")


# -- CSV points and scalars -------------------------------------------------


def read_points(path: PathLike) -> PointCloud:
    """Point cloud from CSV or whitespace rows; every column is a coordinate."""
    rows = []
    width = None
    for ln, text in _data_lines(path):
        row = _floats(path, ln, _split_fields(text), "point")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(path, "point rows mix widths", ln)
        rows.append(row)
    if not rows:
        raise InputError(path, "no points")
    try:
        return PointCloud(rows)
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def read_scalars(path: PathLike) -> list[float]:
    """One scalar per row, taken from the last column, so a points file with
    a trailing value column works unchanged."""
    values = []
    for ln, text in _data_lines(path):
        fields = _split_fields(text)
        if not fields:
            raise InputError(path, "bad scalar row: no value", ln)
        values += _floats(path, ln, fields[-1:], "scalar")
    if not values:
        raise InputError(path, "no scalars")
    return values


# -- filtration text --------------------------------------------------------


def read_filtration(path: PathLike, cloud: PointCloud) -> Filtration:
    """One line per simplex, `value v0 v1 ...`, in filtration order.  The
    geometry comes separately; the file only carries the combinatorics."""
    order = []
    values = []
    listed = set()
    for ln, text in _data_lines(path):
        fields = _split_fields(text)
        if len(fields) < 2:
            raise InputError(path, "need a value and at least one vertex", ln)
        values += _floats(path, ln, fields[:1], "filtration")
        try:
            simplex = tuple(sorted(int(x) for x in fields[1:]))
        except ValueError as exc:
            raise InputError(path, f"bad filtration row: {exc}", ln) from exc
        if simplex[0] < 0 or simplex[-1] >= cloud.n_points:
            raise InputError(path, "simplex references a missing vertex", ln)
        if len(set(simplex)) != len(simplex):
            raise InputError(path, "simplex repeats a vertex", ln)
        if simplex in listed:
            raise InputError(path, f"simplex {simplex} is listed twice", ln)
        for face in faces_of(simplex):
            if face not in listed:
                raise InputError(path, f"face {face} of {simplex} is not listed before it", ln)
        listed.add(simplex)
        order.append(simplex)
    if not order:
        raise InputError(path, "empty filtration")
    complex_ = EmbeddedComplex(cloud, order)
    return Filtration(complex_, order, values)


def write_filtration(path: PathLike, filtration: Filtration) -> None:
    with open(path, "w") as fh:
        for simplex, value in zip(filtration.order, filtration.values):
            fh.write(" ".join([repr(float(value)), *map(str, simplex)]))
            fh.write("\n")


# -- cycle files ------------------------------------------------------------


def read_cycle(path: PathLike, complex_like: EmbeddedComplex, p: int) -> ChainVector:
    """One simplex per line as vertex indices, all of dimension p, each listed
    once; must be a cycle of the complex."""
    simplices = set()
    for ln, text in _data_lines(path):
        try:
            simplex = tuple(sorted(int(x) for x in _split_fields(text)))
        except ValueError as exc:
            raise InputError(path, f"bad simplex row: {exc}", ln) from exc
        if not complex_like.has(simplex):
            raise InputError(path, f"simplex {simplex} not in the complex", ln)
        if len(simplex) - 1 != p:
            raise InputError(path, f"row holds a {len(simplex) - 1}-simplex, expected dimension {p}", ln)
        if simplex in simplices:  # over Z2 a repeat would cancel, not collapse
            raise InputError(path, f"simplex {simplex} is listed twice", ln)
        simplices.add(simplex)
    if not simplices:
        raise InputError(path, "empty cycle file")
    chain = complex_like.chain(simplices, p)
    if not complex_like.is_cycle(chain, p):
        raise ValueError(f"{path}: the chain has a non-zero boundary")
    return chain


def write_cycle(path: PathLike, complex_like: EmbeddedComplex, chain: ChainVector, p: int) -> None:
    with open(path, "w") as fh:
        for s in complex_like.chain_simplices(chain, p):
            fh.write(" ".join(map(str, s)))
            fh.write("\n")


# -- OBJ polylines ----------------------------------------------------------


def write_obj_polylines(
    path: PathLike, complex_like: EmbeddedComplex, cycles: Sequence[ChainVector]
) -> None:
    """1-cycles as OBJ line elements over the full vertex set; flat complexes
    get a zero z."""
    ids = complex_like.vertex_ids()
    if ids != tuple(range(len(ids))):
        raise ValueError("OBJ export needs contiguous vertex ids")
    with open(path, "w") as fh:
        for v in ids:
            xyz = list(float(x) for x in complex_like.cloud.point(v))
            while len(xyz) < 3:
                xyz.append(0.0)
            fh.write("v " + " ".join(repr(x) for x in xyz[:3]) + "\n")
        for chain in cycles:
            for a, b in complex_like.chain_simplices(chain, 1):
                fh.write(f"l {a + 1} {b + 1}\n")
