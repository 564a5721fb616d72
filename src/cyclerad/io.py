"""File formats: OFF meshes, CSV points and scalars, filtration and cycle
text files, OBJ polyline export.

All readers raise InputError with file and line context on malformed input;
semantic failures (a chain that is not a cycle, a non-monotone filtration)
surface as ValueError from the validating constructors instead.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .complexes import EmbeddedComplex, PointCloud, faces_of
from .z2 import ChainVector

if TYPE_CHECKING:
    from .filtrations import Filtration

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
    except (OSError, UnicodeDecodeError) as exc:
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


def _write_rows(path: PathLike, rows: Iterable[Iterable[object]]) -> None:
    """Each row's fields, str-joined by spaces, one line per row; str of a
    float is its repr, so the values read back exactly."""
    with open(path, "w") as fh:
        fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)


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
    for ln, text in body[:n_vertices]:
        row = _floats(path, ln, _split_fields(text), "vertex")
        if len(row) < 2:
            raise InputError(path, "vertex row needs at least two coordinates", ln)
        if coords and len(row) != len(coords[0]):
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
        if k < 1:
            raise InputError(path, "face row needs at least one vertex", ln)
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
    if complex_like.cloud.dim < 2:  # read_off refuses a vertex row of one coordinate
        raise ValueError("OFF export needs at least two coordinates")
    points = [complex_like.cloud.point(v) for v in ids]
    _write_rows(path, [("OFF",), (len(ids), len(faces), 0), *points, *((len(s), *s) for s in faces)])


# -- CSV points and scalars -------------------------------------------------


def read_points(path: PathLike) -> PointCloud:
    """Point cloud from CSV or whitespace rows; every column is a coordinate."""
    rows = []
    for ln, text in _data_lines(path):
        row = _floats(path, ln, _split_fields(text), "point")
        if rows and len(row) != len(rows[0]):
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
    from .filtrations import Filtration  # loaded only by the requests that read one

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
    _write_rows(path, [(value, *simplex) for simplex, value in zip(filtration.order, filtration.values)])


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
    _write_rows(path, complex_like.chain_simplices(chain, p))


# -- OBJ polylines ----------------------------------------------------------


def write_obj_polylines(
    path: PathLike, complex_like: EmbeddedComplex, cycles: Sequence[ChainVector]
) -> None:
    """1-cycles as OBJ line elements over every point of the cloud, so a
    line's indices are cloud ids + 1; flat clouds get a zero z."""
    rows = [("v", *(*point, 0.0, 0.0)[:3]) for point in complex_like.cloud.coords]
    for chain in cycles:
        rows += [("l", a + 1, b + 1) for a, b in complex_like.chain_simplices(chain, 1)]
    _write_rows(path, rows)
