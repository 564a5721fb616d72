"""Report bytes pinned against committed golden files.

The inputs are written from the fixtures, each request runs through the CLI,
and its report must equal ``tests/golden/<name>.json`` byte for byte. A
change that alters a report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
import math
from pathlib import Path

import pytest

import fixtures
from conftest import OCTAHEDRON, annulus_points, holed_mesh

from cyclerad import cli, complexes, optimize, oracle
from cyclerad.cli import main
from cyclerad.complexes import EmbeddedComplex, PointCloud
from cyclerad.io import write_cycle, write_filtration, write_off

GOLDEN = Path(__file__).resolve().parent / "golden"

REQUESTS = {
    "annulus_localize": ["localize", "--complex", "annulus.off", "--cycle", "outer.txt"],
    "annulus_localize_shorten": ["localize", "--complex", "annulus.off", "--cycle", "outer.txt", "--shorten"],
    "annulus_basis": ["basis", "--complex", "annulus.off"],
    "four_hole_mesh_basis": ["basis", "--complex", "four_holes.off"],
    "annulus_persistent_lower_star": ["persistent", "--complex", "annulus.off", "--lower-star", "annulus_y.csv"],
    "ring_persistent_rips": ["persistent", "--points", "ring.csv", "--rips", "0.9"],
    "ring_persistent_rips_p0": ["persistent", "-p", "0", "--points", "ring.csv", "--rips", "0.9"],
    "two_loop_persistent_filtration": ["persistent", "--points", "two_loop.csv", "--filtration", "two_loop.flt"],
    "two_loop_persistent_filtration_top1": [
        "persistent", "--points", "two_loop.csv", "--filtration", "two_loop.flt", "--bars", "top:1",
    ],
    "annulus_persistent_rips": ["persistent", "--points", "annulus80.csv", "--rips", "0.3"],
    "octahedron_persistent_p2": ["persistent", "-p", "2", "--points", "octahedron.csv", "--rips", "2.5"],
    "annulus_verify_localize": ["verify", "--complex", "annulus.off", "--cycle", "outer.txt"],
    "annulus_verify_basis": ["verify", "--complex", "annulus.off"],
    "ring_verify_rips": ["verify", "--points", "ring.csv", "--rips", "0.9"],
    "annulus_verify_lower_star": ["verify", "--complex", "annulus.off", "--lower-star", "annulus_y.csv"],
    "two_loop_verify_filtration_top1": [
        "verify", "--points", "two_loop.csv", "--filtration", "two_loop.flt", "--bars", "top:1",
    ],
}


def write_points(path: Path, coords) -> None:
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in coords))


def write_inputs(directory: Path) -> None:
    """The files REQUESTS names: the annulus, its outer loop and its
    y-coordinate per vertex, a 12-point ring, the two-loop filtration with
    its points, the six octahedron vertices, a 144-vertex mesh with four
    holes, and 80 annulus points."""
    ann = fixtures.annulus()
    write_off(directory / "annulus.off", ann.complex)
    write_points(directory / "annulus_y.csv", [row[1:] for row in ann.complex.cloud.coords])
    write_cycle(directory / "outer.txt", ann.complex, ann.outer_loop, 1)
    write_points(directory / "ring.csv", fixtures.circle_cloud(12).coords)
    two_loop = fixtures.two_loop_filtration()
    write_filtration(directory / "two_loop.flt", two_loop)
    write_points(directory / "two_loop.csv", two_loop.complex.cloud.coords)
    write_points(directory / "octahedron.csv", OCTAHEDRON)
    coords, triangles, _ = holed_mesh(12, {(2, 2), (2, 8), (8, 2), (8, 8)}, 25)
    write_off(directory / "four_holes.off", EmbeddedComplex(PointCloud(coords), triangles))
    write_points(directory / "annulus80.csv", annulus_points(80, 26))


def report_bytes(directory: Path, name: str) -> bytes:
    out = directory / f"{name}.json"
    argv = [str(directory / a) if (directory / a).is_file() else a for a in REQUESTS[name]]
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_matches_golden_file(tmp_path, name):
    write_inputs(tmp_path)
    assert report_bytes(tmp_path, name) == (GOLDEN / f"{name}.json").read_bytes()


def compensated_sum(iterable, start=0):
    """sum() as Python 3.12 computes it: exact while the total is an int, then,
    from the first float on, Neumaier's compensated summation of the floats."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if type(total) is float:
            break
    else:
        return total
    c = 0.0
    for x in items:
        if type(x) is not float:
            total += x
            continue
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("name", ["four_hole_mesh_basis", "annulus_verify_basis"])
def test_report_keeps_its_bytes_under_a_compensated_sum(tmp_path, monkeypatch, name):
    """Every float sum on the request path folds left to right, so a report
    keeps its bytes on an interpreter whose sum() is compensated."""
    for module in (cli, complexes, optimize, oracle):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    write_inputs(tmp_path)
    assert report_bytes(tmp_path, name) == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        write_inputs(Path(workdir))
        GOLDEN.mkdir(exist_ok=True)
        for name in REQUESTS:
            (GOLDEN / f"{name}.json").write_bytes(report_bytes(Path(workdir), name))
