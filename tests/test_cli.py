import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fixtures
from conftest import OCTAHEDRON, accepted_by_point_cloud, holed_mesh, scaled_rows
from test_golden import write_inputs

from cyclerad.cli import _build_filtration, build_parser, main
from cyclerad.complexes import EmbeddedComplex, PointCloud
from cyclerad.filtrations import compute_persistence, lower_star_filtration
from cyclerad.io import (
    InputError,
    read_cycle,
    read_filtration,
    read_off,
    write_cycle,
    write_filtration,
    write_obj_polylines,
    write_off,
)
from cyclerad.oracle import exact_min_persistent_rep

REL = 1e-9


@pytest.fixture
def annulus_files(tmp_path):
    ann = fixtures.annulus()
    off = tmp_path / "annulus.off"
    cyc = tmp_path / "outer.txt"
    write_off(off, ann.complex)
    write_cycle(cyc, ann.complex, ann.outer_loop, 1)
    return ann, str(off), str(cyc)


@pytest.fixture
def two_loop_files(tmp_path):
    filt = fixtures.two_loop_filtration()
    flt = tmp_path / "two_loop.flt"
    csv = tmp_path / "two_loop.csv"
    write_filtration(flt, filt)
    pts = np.array([filt.complex.cloud.point(v) for v in filt.complex.vertex_ids()])
    np.savetxt(csv, pts, delimiter=",")
    return filt, str(csv), str(flt)


def run_json(tmp_path, args, expect=0):
    """Exit code and report of a request written with --out. The code must
    be expect, else the test fails showing stderr, before the report is read."""
    out = tmp_path / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args + ["--out", str(out)])
    sys.stderr.write(err.getvalue())
    assert code == expect, f"exit code {code}, stderr: {err.getvalue()}"
    return code, json.loads(out.read_text())


# -- subcommands ------------------------------------------------------------


def test_localize_finds_inner_loop(tmp_path, annulus_files):
    _, off, cyc = annulus_files
    code, report = run_json(tmp_path, ["localize", "--complex", off, "--cycle", cyc])
    assert code == 0
    (row,) = report["results"]
    assert row["site"] == 8
    assert row["r_v"] == pytest.approx(math.sqrt(0.5), rel=REL)
    assert row["r_exact"] == pytest.approx(math.sqrt(0.5), rel=REL)
    assert row["cycle"] == [[4, 5], [4, 7], [5, 6], [6, 7]]
    assert row["sphere"]["center"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert row["interval"] is None


def test_localize_shorten_never_grows(tmp_path):
    inst = fixtures.spiked_loop()
    off = tmp_path / "spiked.off"
    cyc = tmp_path / "cycle.txt"
    write_off(off, inst.complex)
    write_cycle(cyc, inst.complex, inst.cycle, 1)
    code, report = run_json(
        tmp_path,
        ["localize", "--complex", str(off), "--cycle", str(cyc), "--shorten"],
    )
    assert code == 0
    (row,) = report["results"]
    assert row["edge_count_after"] <= row["edge_count_before"]


def test_localize_shorten_stays_inside_the_site_ball(tmp_path):
    """Vertex 9 lies 5e-10 outside the octagon's ball around the centre, inside
    the membership tolerance; the shorter path through it would grow r_v."""
    ring = [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)]
    r, t = 1 + 5e-10, 3 * math.pi / 8
    coords = ring + [(0.0, 0.0), (r * math.cos(t), r * math.sin(t))]
    loop = [(k, (k + 1) % 8) for k in range(8)]
    complex_ = EmbeddedComplex(PointCloud(coords), loop + [(0, 9), (3, 9), (0, 1, 9), (1, 2, 9), (2, 3, 9), (8,)])
    off, cyc = tmp_path / "octagon.off", tmp_path / "ring.txt"
    write_off(off, complex_)
    write_cycle(cyc, complex_, complex_.chain(loop, 1), 1)
    _, report = run_json(tmp_path, ["localize", "--complex", str(off), "--cycle", str(cyc), "--shorten"])
    (row,) = report["results"]
    assert (row["site"], row["r_v"], row["edge_count_after"]) == (8, 1.0, 8)


def test_basis_on_figure_eight(tmp_path):
    fe = fixtures.figure_eight()
    off = tmp_path / "fe.off"
    write_off(off, fe.complex)
    code, report = run_json(tmp_path, ["basis", "--complex", str(off)])
    assert code == 0
    assert report["betti"] == 2
    assert report["total_weight"] == pytest.approx(3.0, rel=REL)
    small, big = report["results"]
    assert small["cycle"] == [[0, 1], [0, 2], [1, 2]]
    assert big["cycle"] == [[0, 3], [0, 4], [3, 4]]


def test_persistent_from_filtration_file(tmp_path, two_loop_files):
    _, csv, flt = two_loop_files
    code, report = run_json(
        tmp_path, ["persistent", "--points", csv, "--filtration", flt]
    )
    assert code == 0
    assert report["barcode"] == [[1.0, 4.0], [2.0, 3.0]]
    long_bar, short_bar = report["results"]  # most persistent first
    assert long_bar["interval"]["birth_value"] == 1.0
    assert long_bar["r_v"] == pytest.approx(2.4979991993593593, rel=REL)
    assert short_bar["interval"]["death_value"] == 3.0
    assert short_bar["r_v"] == pytest.approx(2.4979991993593593, rel=REL)


def test_persistent_top_k_bars(tmp_path, two_loop_files):
    _, csv, flt = two_loop_files
    code, report = run_json(
        tmp_path,
        ["persistent", "--points", csv, "--filtration", flt, "--bars", "top:1"],
    )
    assert code == 0
    assert len(report["results"]) == 1
    assert report["results"][0]["interval"]["death_value"] == 4.0


def test_persistent_from_rips(tmp_path):
    circ = fixtures.circle_cloud(8, 1.0)
    csv = tmp_path / "circle.csv"
    np.savetxt(csv, np.asarray([circ.point(i) for i in range(circ.n_points)]), delimiter=",")
    code, report = run_json(
        tmp_path,
        ["persistent", "--points", str(csv), "--rips", "0.9"],
    )
    assert code == 0
    (bar,) = report["barcode"]
    assert bar[0] == pytest.approx(2 * math.sin(math.pi / 8), rel=REL)
    assert bar[1] == "inf"
    (row,) = report["results"]
    assert row["edge_count_before"] == 8
    assert row["interval"]["death"] == "inf"


def test_persistent_shorten_on_a_complex_without_triangles(tmp_path):
    """At Rips scale 0.9 the 12-point ring has no triangles, so its birth
    prefixes flag no dimension 2."""
    csv = tmp_path / "ring.csv"
    np.savetxt(csv, np.asarray(fixtures.circle_cloud(12).coords), delimiter=",")
    _, report = run_json(tmp_path, ["persistent", "--points", str(csv), "--rips", "0.9", "--shorten"])
    (row,) = report["results"]
    assert row["edge_count_after"] == row["edge_count_before"] == 12


@pytest.fixture
def octahedron_csv(tmp_path):
    csv = tmp_path / "octahedron.csv"
    np.savetxt(csv, np.asarray(OCTAHEDRON), delimiter=",")
    return str(csv)


def test_persistent_p2_rips_bar_dies_on_time(tmp_path, octahedron_csv):
    code, report = run_json(tmp_path, ["persistent", "-p", "2", "--points", octahedron_csv, "--rips", "2.5"])
    assert code == 0
    assert report["barcode"] == [[math.sqrt(2), 2.0]]
    (row,) = report["results"]
    assert row["interval"]["death_value"] == 2.0
    assert len(row["cycle"]) == 8  # the hollow octahedron


@pytest.mark.parametrize("p", [0, 1, 2])
def test_rips_filtration_is_built_to_dimension_p_plus_one(tmp_path, octahedron_csv, p):
    # at scale 2.5 every subset of the six points is a simplex
    code, report = run_json(tmp_path, ["persistent", "-p", str(p), "--points", octahedron_csv, "--rips", "2.5"])
    assert code == 0
    assert report["n_simplices"] == sum(math.comb(6, k + 1) for k in range(p + 2))


def test_persistent_from_lower_star(tmp_path):
    tri = fixtures.hollow_triangle()
    off = tmp_path / "tri.off"
    write_off(off, tri.complex)
    vals = tmp_path / "vals.csv"
    vals.write_text("0.0\n1.0\n2.0\n")
    code, report = run_json(
        tmp_path,
        ["persistent", "--complex", str(off), "--lower-star", str(vals)],
    )
    assert code == 0
    assert report["barcode"] == [[2.0, "inf"]]
    assert report["results"][0]["cycle"] == [[0, 1], [0, 2], [1, 2]]


# -- verify -----------------------------------------------------------------


def test_verify_localize_exact_on_annulus(tmp_path, annulus_files):
    _, off, cyc = annulus_files
    code, report = run_json(tmp_path, ["verify", "--complex", off, "--cycle", cyc])
    assert code == 0
    assert report["ok"] is True
    (check,) = report["checks"]
    assert check["ratio"] == pytest.approx(1.0, rel=REL)
    assert check["oracle"]["radius"] == pytest.approx(math.sqrt(0.5), rel=REL)


@pytest.mark.parametrize("exponent", [-30, -45, -60])
def test_verify_localize_on_a_tiny_annulus(tmp_path, exponent):
    """The annulus scaled by 2^exponent verifies as at unit scale: membership
    tolerances are relative, so the oracle's balls shrink with the points,
    and its candidate spheres stay distinct at any scale."""
    ann = fixtures.annulus()
    cloud = PointCloud([[math.ldexp(x, exponent) for x in row] for row in ann.complex.cloud.coords])
    tiny = EmbeddedComplex(cloud, ann.complex.maximal_simplices())
    off, cyc = tmp_path / "tiny.off", tmp_path / "outer.txt"
    write_off(off, tiny)
    write_cycle(cyc, tiny, ann.outer_loop, 1)
    code, report = run_json(tmp_path, ["verify", "--complex", str(off), "--cycle", str(cyc)])
    assert code == 0 and report["ok"] is True
    (check,) = report["checks"]
    assert check["ratio"] == 1.0
    assert check["oracle"]["radius"] == math.ldexp(math.sqrt(0.5), exponent)


def write_scaled_inputs(directory, exponent):
    """annulus.off, outer.txt and ring.csv (the 12-point unit ring) with every
    coordinate multiplied by 2^exponent, written as text, so that a cloud out
    of range reaches the readers."""
    ann = fixtures.annulus()
    off = directory / "annulus.off"
    write_off(off, ann.complex)
    write_cycle(directory / "outer.txt", ann.complex, ann.outer_loop, 1)
    lines = off.read_text().splitlines()
    rows = scaled_rows(ann.complex.cloud.coords, exponent)
    lines[2 : 2 + len(rows)] = [" ".join(map(repr, row)) for row in rows]
    off.write_text("\n".join(lines) + "\n")
    ring = scaled_rows(fixtures.circle_cloud(12).coords, exponent)
    (directory / "ring.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in ring))


def accepted_annulus_exponents():
    """The powers of two by which a PointCloud accepts the scaled annulus."""
    rows = fixtures.annulus().complex.cloud.coords
    return [e for e in range(-600, 601) if accepted_by_point_cloud(scaled_rows(rows, e))]


@pytest.mark.parametrize("end", [min, max])
def test_verify_localize_at_the_ends_of_the_coordinate_range(tmp_path, end):
    """The largest and the smallest accepted scales verify as at unit scale."""
    accepted = accepted_annulus_exponents()
    assert accepted == list(range(accepted[0], accepted[-1] + 1)) and accepted[0] <= -510 and accepted[-1] >= 500
    exponent = end(accepted)
    write_scaled_inputs(tmp_path, exponent)
    code, report = run_json(tmp_path, ["verify", "--complex", str(tmp_path / "annulus.off"), "--cycle", str(tmp_path / "outer.txt")])
    assert code == 0 and report["ok"] is True
    (check,) = report["checks"]
    assert check["ratio"] == 1.0
    assert check["oracle"]["radius"] == math.ldexp(math.sqrt(0.5), exponent)


def test_verify_basis_and_persistent(tmp_path, two_loop_files):
    fe = fixtures.figure_eight()
    off = tmp_path / "fe.off"
    write_off(off, fe.complex)
    code, report = run_json(tmp_path, ["verify", "--complex", str(off)])
    assert code == 0 and report["ok"] is True

    _, csv, flt = two_loop_files
    code, report = run_json(
        tmp_path, ["verify", "--points", csv, "--filtration", flt]
    )
    assert code == 0 and report["ok"] is True
    assert all(c["ratio"] == pytest.approx(1.0, rel=REL) for c in report["checks"])


def test_verify_p2_rips_bar(tmp_path, octahedron_csv):
    code, report = run_json(tmp_path, ["verify", "-p", "2", "--points", octahedron_csv, "--rips", "2.5"])
    assert code == 0 and report["ok"] is True
    (check,) = report["checks"]
    assert check["interval"]["death_value"] == 2.0


# -- exit codes -------------------------------------------------------------


def test_exit_code_missing_file(tmp_path, annulus_files):
    _, _, cyc = annulus_files
    code = main(["localize", "--complex", str(tmp_path / "no.off"), "--cycle", cyc,
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_exit_code_open_chain(tmp_path, annulus_files):
    _, off, _ = annulus_files
    bad = tmp_path / "open.txt"
    bad.write_text("0 1\n1 2\n")
    code = main(["localize", "--complex", off, "--cycle", str(bad),
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_exit_code_non_finite_points(tmp_path, bad):
    csv = tmp_path / "pts.csv"
    csv.write_text(f"0,0\n1,0\n0,{bad}\n")
    code = main(["persistent", "--points", str(csv), "--rips", "2.0",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("exponent", [-600, 600])
@pytest.mark.parametrize(
    "argv",
    [
        ["localize", "--complex", "annulus.off", "--cycle", "outer.txt"],
        ["basis", "--complex", "annulus.off"],
        ["verify", "--complex", "annulus.off", "--cycle", "outer.txt"],
        ["persistent", "--points", "ring.csv", "--rips", "1e200"],
    ],
    ids=["localize", "basis", "verify", "persistent"],
)
def test_exit_code_coordinates_out_of_range(tmp_path, capsys, exponent, argv):
    """Squared distances that overflow, or that all fall below the normal
    floats, are refused as input."""
    write_scaled_inputs(tmp_path, exponent)
    args = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in argv]
    assert main(args + ["--out", str(tmp_path / "r.json")]) == 2
    assert "range" in capsys.readouterr().err


def test_exit_code_non_finite_off_vertex(tmp_path):
    off = tmp_path / "tri.off"
    off.write_text("OFF\n3 3 0\n0 0\n1 0\nnan 1\n2 0 1\n2 1 2\n2 0 2\n")
    cyc = tmp_path / "loop.txt"
    cyc.write_text("0 1\n1 2\n0 2\n")
    code = main(["localize", "--complex", str(off), "--cycle", str(cyc),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_exit_code_non_finite_scalars(tmp_path):
    off = tmp_path / "tri.off"
    write_off(off, fixtures.hollow_triangle().complex)
    vals = tmp_path / "vals.csv"
    vals.write_text("0.0\nnan\n2.0\n")
    code = main(["persistent", "--complex", str(off), "--lower-star", str(vals),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_exit_code_non_finite_filtration(tmp_path, two_loop_files):
    _, csv, flt = two_loop_files
    lines = Path(flt).read_text().splitlines()
    lines[-1] = "inf " + lines[-1].split(" ", 1)[1]
    bad = tmp_path / "bad.flt"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["persistent", "--points", csv, "--filtration", str(bad),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def bad_filtration_file(tmp_path, flt, row):
    """The filtration file with more rows at the end, as (path, line of the
    first)."""
    lines = Path(flt).read_text().splitlines()
    bad = tmp_path / "bad.flt"
    bad.write_text("\n".join(lines + [row]) + "\n")
    return str(bad), len(lines) + 1


# rows appended to a valid filtration file, each with its reader's message
BAD_FILTRATION_ROWS = [
    ("9 1 1", "repeats a vertex"),
    ("9 0 99", "missing vertex"),
    ("9 0 1", "listed twice"),
    ("9 0 1 4", "face (0, 4) of (0, 1, 4) is not listed before it"),
    ("9 0 1 4\n9 0 4", "face (0, 4) of (0, 1, 4) is not listed before it"),
    ("9", "need a value and at least one vertex"),
    ("9 0 x", "bad filtration row: invalid literal for int() with base 10: 'x'"),
    ("x 0 1", "bad filtration row: could not convert string to float: 'x'"),
]


@pytest.mark.parametrize("row, message", BAD_FILTRATION_ROWS, ids=[row for row, _ in BAD_FILTRATION_ROWS])
def test_exit_code_bad_filtration_row(tmp_path, two_loop_files, capsys, row, message):
    _, csv, flt = two_loop_files
    bad, line = bad_filtration_file(tmp_path, flt, row)
    code = main(["persistent", "--points", csv, "--filtration", bad,
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cyclerad: {bad}:{line}: ") and message in err


def test_exit_code_cycle_mixes_dimensions(tmp_path, annulus_files, capsys):
    ann, off, cyc = annulus_files
    bad = tmp_path / "mixed.txt"
    bad.write_text(Path(cyc).read_text() + " ".join(map(str, ann.complex.simplices(2)[0])) + "\n")
    code = main(["localize", "--complex", off, "--cycle", str(bad),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{bad}:{len(ann.outer_loop) + 1}:" in capsys.readouterr().err


def test_exit_code_cycle_lists_a_simplex_twice(tmp_path, annulus_files, capsys):
    """Over Z2 a repeated row would cancel, so it is rejected, not collapsed."""
    ann, off, cyc = annulus_files
    bad = tmp_path / "twice.txt"
    bad.write_text(Path(cyc).read_text() + "0 1\n")
    code = main(["localize", "--complex", off, "--cycle", str(bad),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{bad}:{len(ann.outer_loop) + 1}: simplex (0, 1) is listed twice" in capsys.readouterr().err


def test_exit_code_two_sources(tmp_path, two_loop_files):
    _, csv, flt = two_loop_files
    code = main(["persistent", "--points", csv, "--filtration", flt,
                 "--rips", "1.0", "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("args, message", [
    (["verify", "--complex", "{off}", "--cycle", "{cyc}", "--points", "{csv}", "--rips", "0.5"],
     "verify takes --cycle or a filtration source, not both"),
    (["persistent", "--complex", "{off}", "--points", "{csv}", "--rips", "1.0"],
     "--rips and --filtration take no --complex"),
    (["verify", "--complex", "{off}", "--points", "{csv}", "--filtration", "{flt}"],
     "--rips and --filtration take no --complex"),
    (["persistent", "--complex", "{off}", "--lower-star", "{vals}", "--points", "{csv}"],
     "--points needs --rips or --filtration"),
    (["verify", "--complex", "{off}", "--points", "{csv}"], "--points needs --rips or --filtration"),
    (["verify", "--complex", "{off}", "--bars", "top:1"], "--bars needs a filtration source"),
    (["verify", "--complex", "{off}", "--cycle", "{cyc}", "--bars", "top:1"], "--bars needs a filtration source"),
    (["verify", "--cycle", "{cyc}"], "verify with --cycle needs --complex"),
    (["persistent", "--rips", "1.0"], "--rips needs --points"),
    (["verify", "--filtration", "{flt}"], "--filtration needs --points for the geometry"),
    (["persistent", "--lower-star", "{vals}"], "--lower-star needs --complex"),
    (["verify"], "verify needs --complex, --cycle, or a filtration source"),
])
def test_exit_code_flag_the_request_would_not_read(tmp_path, annulus_files, two_loop_files, capsys, args, message):
    """The inputs are readable, so the flags alone fail the request."""
    _, off, cyc = annulus_files
    _, csv, flt = two_loop_files
    vals = tmp_path / "vals.csv"
    vals.write_text("".join(f"{i}.0\n" for i in range(9)))
    argv = [a.format(off=off, cyc=cyc, csv=csv, flt=flt, vals=vals) for a in args]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"cyclerad: {message}\n"


@pytest.mark.parametrize("counts", ["-1 0 0\n0 0\n1 0\n0 1\n", "3 -1 0\n0 0\n1 0\n0 1\n3 0 1 2\n"])
def test_exit_code_negative_off_count(tmp_path, capsys, counts):
    off = tmp_path / "negative.off"
    off.write_text("OFF\n" + counts)
    assert main(["basis", "--complex", str(off), "--out", str(tmp_path / "r.json")]) == 2
    assert f"{off}:2: counts line has a negative count" in capsys.readouterr().err



@pytest.mark.parametrize("args", [
    ["persistent", "-p", "-1"],
    ["verify", "-p", "-1"],
])
def test_exit_code_negative_dimension(tmp_path, two_loop_files, capsys, args):
    _, csv, _ = two_loop_files
    code = main(args + ["--points", csv, "--rips", "1.0", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "-1"])
def test_exit_code_bad_rips_scale(tmp_path, two_loop_files, capsys, scale):
    _, csv, _ = two_loop_files
    code = main(["persistent", "--points", csv, f"--rips={scale}", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "--rips must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("source", [["--rips", "1"], ["--filtration", "{flt}"]])
def test_exit_code_duplicate_point(tmp_path, two_loop_files, capsys, source):
    _, _, flt = two_loop_files
    dup = tmp_path / "dup.csv"
    dup.write_text("0,0\n0,0\n1,0\n")
    argv = ["persistent", "--points", str(dup), *(a.format(flt=flt) for a in source)]
    code = main(argv + ["--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{dup}: duplicate point at indices 0 and 1" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [2, 11])
def test_exit_code_lower_star_row_count(tmp_path, annulus_files, capsys, rows):
    _, off, _ = annulus_files
    vals = tmp_path / "vals.csv"
    vals.write_text("".join(f"{i}.0\n" for i in range(rows)))
    code = main(["persistent", "--complex", off, "--lower-star", str(vals), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{vals}: {rows} scalar rows for 9 vertices" in capsys.readouterr().err


def test_verify_with_nothing_to_check_fails(tmp_path, capsys):
    ring = tmp_path / "ring.csv"
    ring.write_text("".join(f"{x!r},{y!r}\n" for x, y in fixtures.circle_cloud(12).coords))
    _, report = run_json(tmp_path, ["verify", "--points", str(ring), "--rips", "0.1"], expect=3)
    assert report["checks"] == [] and report["ok"] is False
    assert "nothing to verify" in capsys.readouterr().err


def test_exit_code_basis_mode_verify_needs_positive_dimension(tmp_path, annulus_files, capsys):
    _, off, _ = annulus_files
    code = main(["verify", "--complex", off, "-p", "0", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "needs a positive dimension" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0", "-1"])
def test_exit_code_cycle_mode_verify_needs_positive_dimension(tmp_path, annulus_files, capsys, p):
    """verify --cycle checks localize, so it takes the dimensions localize
    takes: a 0-cycle fails as localize -p 0 fails."""
    _, off, _ = annulus_files
    cyc = tmp_path / "v.txt"
    cyc.write_text("0\n3\n")
    for problem in ("verify", "localize"):
        code = main([problem, "--complex", off, "--cycle", str(cyc), "-p", p, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == "cyclerad: localize needs a positive dimension p\n"
    assert not (tmp_path / "r.json").exists()


def test_exit_code_budget(tmp_path, annulus_files):
    _, off, cyc = annulus_files
    code = main(["verify", "--complex", off, "--cycle", cyc, "--budget", "4",
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_verify_checks_the_oracle_cap_before_any_bar_search(tmp_path, two_loop_files, capsys, monkeypatch):
    _, csv, flt = two_loop_files
    monkeypatch.setattr("cyclerad.cli.opt_persistent_basis", lambda *args: pytest.fail("bars were searched"))
    code = main(["verify", "--points", csv, "--filtration", flt, "--budget", "4",
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "vertices exceed the oracle cap of 4" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["opt_homologous_cycle", "opt_homology_basis"])
def test_verify_checks_the_oracle_cap_before_the_solver(tmp_path, annulus_files, capsys, monkeypatch, solver):
    _, off, cyc = annulus_files
    monkeypatch.setattr(f"cyclerad.cli.{solver}", lambda *args: pytest.fail("the solver ran"))
    cycle = ["--cycle", cyc] if solver == "opt_homologous_cycle" else []
    code = main(["verify", "--complex", off, *cycle, "--budget", "4", "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "vertices exceed the oracle cap of 4" in capsys.readouterr().err


VERIFIED_SOURCES = {
    "localize": ("localize", ["--complex", "annulus.off", "--cycle", "outer.txt"]),
    "basis": ("basis", ["--complex", "annulus.off"]),
    "rips": ("persistent", ["--points", "ring.csv", "--rips", "0.9"]),
    "filtration": ("persistent", ["--points", "two_loop.csv", "--filtration", "two_loop.flt"]),
    "filtration_top1": ("persistent", ["--points", "two_loop.csv", "--filtration", "two_loop.flt", "--bars", "top:1"]),
    "lower_star_p0": ("persistent", ["-p", "0", "--complex", "annulus.off", "--lower-star", "annulus_y.csv"]),
    "lower_star_p1": ("persistent", ["-p", "1", "--complex", "annulus.off", "--lower-star", "annulus_y.csv"]),
}


@pytest.mark.parametrize("name", sorted(VERIFIED_SOURCES))
def test_verify_checks_the_report_of_the_subcommand_it_runs(tmp_path, name):
    """Each check's algorithm row is the row of the subcommand verify runs,
    with its problem read as verify (for basis, the report's total weight),
    and a bar's check holds the oracle's answer for that bar."""
    write_inputs(tmp_path)
    solver, source = VERIFIED_SOURCES[name]
    argv = [str(tmp_path / a) if (tmp_path / a).is_file() else a for a in source]
    _, solved = run_json(tmp_path, [solver, *argv])
    _, verified = run_json(tmp_path, ["verify", *argv])
    assert verified["mode"] == solver
    assert solved["results"]
    expected = ([{"total_weight": solved["total_weight"]}] if solver == "basis"
                else [{**row, "problem": "verify"} for row in solved["results"]])
    assert [c["algorithm"] for c in verified["checks"]] == expected
    if solver == "persistent":
        args = build_parser().parse_args(["verify", *argv])
        filtration = _build_filtration(args)
        bars = compute_persistence(filtration, args.p).bars(args.bars)
        reps = [exact_min_persistent_rep(filtration, iv) for iv in bars]
        assert [c["oracle"] for c in verified["checks"]] == [{"weight": r.weight, "site": r.site} for r in reps]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_exit_code_budget_must_be_positive(tmp_path, two_loop_files, capsys, budget):
    _, csv, _ = two_loop_files
    code = main(["verify", "--points", csv, "--rips", "1.0", f"--budget={budget}",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == "cyclerad: --budget must be positive\n"


@pytest.mark.parametrize("error", [RecursionError, RuntimeError])
def test_unexpected_error_exits_invalid_without_traceback(
    tmp_path, monkeypatch, capsys, error
):
    import cyclerad.cli as cli

    def fail(cfg):
        raise error("maximum depth exceeded")

    fe = fixtures.figure_eight()
    off = tmp_path / "fe.off"
    write_off(off, fe.complex)
    monkeypatch.setitem(cli._RUNNERS, "basis", fail)
    code = main(["basis", "--complex", str(off), "--out", str(tmp_path / "r.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"cyclerad: internal error: {error.__name__}: maximum depth exceeded\n"
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--out", "--export-obj"])
def test_exit_code_output_path_cannot_be_written(tmp_path, annulus_files, capsys, flag):
    """A report into a missing directory, and OBJ files into a path that
    names a file, are failures of the request: exit 2 with the path and the
    reason, never a traceback or an internal error."""
    _, off, _ = annulus_files
    taken = tmp_path / "taken"
    taken.write_text("")
    path = str(tmp_path / "missing" / "r.json") if flag == "--out" else str(taken)
    code = main(["basis", "--complex", off, flag, path])
    assert code == 2
    reason = "No such file or directory" if flag == "--out" else "File exists"
    assert capsys.readouterr() == ("", f"cyclerad: {path}: {reason}\n")


def test_export_obj_writes_a_point_in_no_simplex(tmp_path):
    """Point 1 lies in no simplex of the filtration; the OBJ still has a v
    line per point, so its l lines are the report's cycle edges + 1."""
    pts, flt, objs = tmp_path / "five.csv", tmp_path / "square.flt", tmp_path / "objs"
    pts.write_text("0,0\n5,5\n1,0\n1,1\n0,1\n")
    flt.write_text("0 0\n0 2\n0 3\n0 4\n1 0 2\n1 2 3\n1 3 4\n1 0 4\n")
    _, report = run_json(tmp_path, ["persistent", "--points", str(pts), "--filtration", str(flt),
                                    "--export-obj", str(objs)])
    (row,) = report["results"]
    lines = (objs / "persistent_000.obj").read_text().splitlines()
    assert [line for line in lines if line.startswith("v ")] == [
        "v 0.0 0.0 0.0", "v 5.0 5.0 0.0", "v 1.0 0.0 0.0", "v 1.0 1.0 0.0", "v 0.0 1.0 0.0",
    ]
    assert [line.split()[1:] for line in lines if line.startswith("l ")] == [
        [str(a + 1), str(b + 1)] for a, b in row["cycle"]
    ]


def test_write_off_rejects_non_contiguous_vertex_ids(tmp_path):
    gap = EmbeddedComplex(PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), [(0, 2)])
    with pytest.raises(ValueError, match="^OFF export needs contiguous vertex ids$"):
        write_off(tmp_path / "gap.off", gap)


def test_verify_a_bounding_cycle(tmp_path):
    """The filled triangle's loop bounds, so the oracle's optimum is the empty
    cycle at radius 0, and the algorithm's r_v of 0 gives the ratio 1.0."""
    inst = fixtures.filled_triangle()
    off, cyc = tmp_path / "filled.off", tmp_path / "loop.txt"
    write_off(off, inst.complex)
    write_cycle(cyc, inst.complex, inst.loop, 1)
    _, report = run_json(tmp_path, ["verify", "--complex", str(off), "--cycle", str(cyc)])
    (check,) = report["checks"]
    assert (check["oracle"]["radius"], check["oracle"]["cycle"], check["algorithm"]["r_v"]) == (0.0, [], 0.0)
    assert (check["ratio"], check["ok"], report["ok"]) == (1.0, True, True)


def test_bad_bars_flag_rejected(tmp_path, two_loop_files):
    _, csv, flt = two_loop_files
    with pytest.raises(SystemExit) as exc:
        main(["persistent", "--points", csv, "--filtration", flt, "--bars", "first:3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bars, message", [("top:x", "expected top:k"), ("top:0", "k must be positive")])
def test_bad_bars_count_rejected(two_loop_files, capsys, bars, message):
    _, csv, flt = two_loop_files
    with pytest.raises(SystemExit) as exc:
        main(["persistent", "--points", csv, "--filtration", flt, "--bars", bars])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"cyclerad persistent: error: argument --bars: {message}\n")


@pytest.mark.parametrize("flag", [["--shorten"], ["--export-obj", "objs"]])
def test_verify_rejects_flags_it_does_not_read(tmp_path, annulus_files, flag):
    _, off, _ = annulus_files
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--complex", off, *flag])
    assert exc.value.code == 2


def test_localize_has_no_site_subsampling(annulus_files):
    """Every vertex is a site, as the x2 guarantee needs, so there is no
    flag that drops some."""
    _, off, cyc = annulus_files
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--complex", off, "--cycle", cyc, "--sites", "0.5"])
    assert exc.value.code == 2


# -- determinism and round-trips -------------------------------------------


def test_reported_cycle_reingests(tmp_path, annulus_files):
    ann, off, cyc = annulus_files
    code, report = run_json(tmp_path, ["localize", "--complex", off, "--cycle", cyc])
    assert code == 0
    back = tmp_path / "back.txt"
    back.write_text(
        "".join(" ".join(map(str, s)) + "\n" for s in report["results"][0]["cycle"])
    )
    chain = read_cycle(back, ann.complex, 1)
    assert ann.complex.is_cycle(chain, 1)


def test_obj_export(tmp_path, annulus_files):
    _, off, cyc = annulus_files
    obj_dir = tmp_path / "objs"
    code, _ = run_json(
        tmp_path,
        ["localize", "--complex", off, "--cycle", cyc, "--export-obj", str(obj_dir)],
    )
    assert code == 0
    text = (obj_dir / "localize_000.obj").read_text().splitlines()
    assert sum(1 for line in text if line.startswith("v ")) == 9
    assert sorted(line for line in text if line.startswith("l ")) == [
        "l 5 6", "l 5 8", "l 6 7", "l 7 8",
    ]


def test_off_roundtrip(tmp_path):
    ann = fixtures.annulus()
    path = tmp_path / "ann.off"
    write_off(path, ann.complex)
    again = read_off(path)
    assert set(again.all_simplices()) == set(ann.complex.all_simplices())
    for v in ann.complex.vertex_ids():
        assert tuple(again.cloud.point(v)) == tuple(ann.complex.cloud.point(v))


def test_filtration_roundtrip(tmp_path):
    filt = fixtures.two_loop_filtration()
    path = tmp_path / "f.flt"
    write_filtration(path, filt)
    again = read_filtration(path, filt.complex.cloud)
    assert again.order == filt.order
    assert list(again.values) == list(filt.values)


# -- writers' bytes -----------------------------------------------------------
# The writers as they stood with one open/write loop each, copied here so the
# package's row writer is held to their bytes.


def loop_write_off(path, complex_like):
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


def loop_write_filtration(path, filtration):
    with open(path, "w") as fh:
        for simplex, value in zip(filtration.order, filtration.values):
            fh.write(" ".join([repr(float(value)), *map(str, simplex)]))
            fh.write("\n")


def loop_write_cycle(path, complex_like, chain, p):
    with open(path, "w") as fh:
        for s in complex_like.chain_simplices(chain, p):
            fh.write(" ".join(map(str, s)))
            fh.write("\n")


def loop_write_obj_polylines(path, complex_like, cycles):
    with open(path, "w") as fh:
        for point in complex_like.cloud.coords:
            fh.write("v " + " ".join(repr(x) for x in (*point, 0.0, 0.0)[:3]) + "\n")
        for chain in cycles:
            for a, b in complex_like.chain_simplices(chain, 1):
                fh.write(f"l {a + 1} {b + 1}\n")


def writer_case(name):
    """(complex, its 1-cycles, a p-cycle and its p) of a named case."""
    if name in ("annulus", "annulus_2^-45"):
        ann = fixtures.annulus()
        complex_ = ann.complex
        if name != "annulus":
            cloud = PointCloud(scaled_rows(complex_.cloud.coords, -45))
            complex_ = EmbeddedComplex(cloud, complex_.maximal_simplices())
        loops = [complex_.chain(ann.complex.chain_simplices(c, 1), 1) for c in (ann.outer_loop, ann.inner_loop)]
        return complex_, loops, loops[0], 1
    if name == "four_hole_mesh":
        coords, triangles, ring = holed_mesh(12, {(2, 2), (2, 8), (8, 2), (8, 8)}, 25)
        complex_ = EmbeddedComplex(PointCloud(coords), triangles)
        loop = complex_.chain(ring, 1)
        return complex_, [loop], loop, 1
    if name == "two_loop":
        complex_ = fixtures.two_loop_filtration().complex
        loops = [complex_.chain([(0, 1), (1, 2), (0, 2)], 1), complex_.chain([(3, 4), (4, 5), (3, 5)], 1)]
        return complex_, loops, loops[1], 1
    if name == "octahedron":  # 3-D: the surface, its equator, and the surface as a 2-cycle
        faces = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
        complex_ = EmbeddedComplex(PointCloud(OCTAHEDRON), faces)
        equator = complex_.chain([(0, 2), (1, 2), (1, 3), (0, 3)], 1)
        return complex_, [equator], complex_.chain(faces, 2), 2
    if name == "line":  # 1-D: a hollow triangle on a line
        complex_ = EmbeddedComplex(PointCloud([(0.0,), (1.0,), (2.5,)]), [(0, 1), (1, 2), (0, 2)])
        loop = complex_.chain([(0, 1), (1, 2), (0, 2)], 1)
        return complex_, [loop], loop, 1
    # point 1 lies in no simplex, so the vertex ids are not contiguous
    complex_ = EmbeddedComplex(PointCloud([(0, 0), (5, 5), (1, 0), (1, 1), (0, 1)]), [(0, 2), (2, 3), (3, 4), (0, 4)])
    loop = complex_.chain([(0, 2), (2, 3), (3, 4), (0, 4)], 1)
    return complex_, [loop], loop, 1


@pytest.mark.parametrize("name", ["annulus", "annulus_2^-45", "four_hole_mesh", "two_loop",
                                  "octahedron", "line", "point_in_no_simplex"])
def test_writers_keep_the_bytes_of_their_loops(tmp_path, name):
    """Each writer writes the bytes its open/write loop wrote: OFF, cycle
    and OBJ files of the case's complex, and its lower-star filtration by
    the last coordinate (the two-loop case's own filtration too)."""
    complex_, loops, cycle, p = writer_case(name)
    last = {v: complex_.cloud.point(v)[-1] for v in complex_.vertex_ids()}
    filtrations = [lower_star_filtration(complex_, last)]
    if name == "two_loop":
        filtrations.append(fixtures.two_loop_filtration())
    writes = [
        (write_obj_polylines, loop_write_obj_polylines, (complex_, loops)),
        (write_obj_polylines, loop_write_obj_polylines, (complex_, [])),
        (write_cycle, loop_write_cycle, (complex_, cycle, p)),
        *((write_filtration, loop_write_filtration, (f,)) for f in filtrations),
    ]
    if name == "point_in_no_simplex":
        for writer in (write_off, loop_write_off):
            with pytest.raises(ValueError, match="^OFF export needs contiguous vertex ids$"):
                writer(tmp_path / "gap.off", complex_)
        assert not (tmp_path / "gap.off").exists()
    elif name == "line":  # read_off needs two coordinates, so write_off refuses one
        with pytest.raises(ValueError, match="^OFF export needs at least two coordinates$"):
            write_off(tmp_path / "line.off", complex_)
        assert not (tmp_path / "line.off").exists()
    else:
        writes.append((write_off, loop_write_off, (complex_,)))
    for i, (writer, loop_writer, args) in enumerate(writes):
        new, old = tmp_path / f"new{i}", tmp_path / f"old{i}"
        writer(new, *args)
        loop_writer(old, *args)
        assert new.read_bytes() == old.read_bytes(), writer.__name__


@pytest.mark.parametrize("name", ["annulus", "annulus_2^-45", "four_hole_mesh", "two_loop", "octahedron"])
def test_off_files_read_back_as_written(tmp_path, name):
    """read_off of a written OFF file gives back the complex's simplices and
    coordinates."""
    complex_ = writer_case(name)[0]
    write_off(tmp_path / "c.off", complex_)
    back = read_off(tmp_path / "c.off")
    assert back.cloud.coords == complex_.cloud.coords
    assert [back.simplices(d) for d in range(4)] == [complex_.simplices(d) for d in range(4)]


# -- reader errors ----------------------------------------------------------


def test_off_errors_carry_context(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFFX\n3 0 0\n0 0\n1 0\n0 1\n")
    with pytest.raises(InputError) as exc:
        read_off(bad)
    assert "bad.off" in str(exc.value)

    ragged = tmp_path / "ragged.off"
    ragged.write_text("OFF\n2 0 0\n0 0\n1 0 5\n")
    with pytest.raises(InputError) as exc:
        read_off(ragged)
    assert ":4" in str(exc.value)


@pytest.mark.parametrize("row", ["0", "-1"])
def test_off_rejects_a_face_row_with_no_vertices(tmp_path, capsys, row):
    empty = tmp_path / "F.off"
    empty.write_text(f"OFF\n3 2 0\n0 0\n1 0\n0 1\n3 0 1 2\n{row}\n")
    with pytest.raises(InputError, match=r"F\.off:7: face row needs at least one vertex"):
        read_off(empty)
    assert main(["basis", "--complex", str(empty), "--out", str(tmp_path / "r.json")]) == 2
    assert f"{empty}:7: face row needs at least one vertex" in capsys.readouterr().err


def test_cycle_reader_rejects_unknown_simplex(tmp_path, annulus_files):
    ann, _, _ = annulus_files
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n0 5\n")
    with pytest.raises(InputError) as exc:
        read_cycle(bad, ann.complex, 1)
    assert ":2" in str(exc.value)


def test_cycle_reader_rejects_mixed_dimensions(tmp_path, annulus_files):
    ann, _, _ = annulus_files
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n" + " ".join(map(str, ann.complex.simplices(2)[0])) + "\n")
    with pytest.raises(InputError) as exc:
        read_cycle(bad, ann.complex, 1)
    assert ":2" in str(exc.value) and "expected dimension 1" in str(exc.value)


@pytest.mark.parametrize("row, message", BAD_FILTRATION_ROWS)
def test_filtration_reader_rejects_bad_rows(tmp_path, two_loop_files, row, message):
    filt, _, flt = two_loop_files
    bad, line = bad_filtration_file(tmp_path, flt, row)
    with pytest.raises(InputError) as exc:
        read_filtration(bad, filt.complex.cloud)
    assert f":{line}:" in str(exc.value) and message in str(exc.value)


OFF_TRIANGLE = "OFF\n3 1 0\n0 0\n1 0\n0 1\n"


@pytest.mark.parametrize("args, text, message", [
    (["basis", "--complex", "{bad}"], "OFF\n", ": missing the counts line"),
    (["basis", "--complex", "{bad}"], "OFF\n3\n", ":2: counts line needs vertex and face counts"),
    (["basis", "--complex", "{bad}"], "OFF\n3 x 0\n", ":2: bad counts line: invalid literal for int() with base 10: 'x'"),
    (["basis", "--complex", "{bad}"], OFF_TRIANGLE, ": expected 3 vertices and 1 faces"),
    (["basis", "--complex", "{bad}"], "OFF\n3 0 0\n0\n1 0\n0 1\n", ":3: vertex row needs at least two coordinates"),
    (["basis", "--complex", "{bad}"], OFF_TRIANGLE + "3 0 x 2\n",
     ":6: bad face row: invalid literal for int() with base 10: 'x'"),
    (["basis", "--complex", "{bad}"], OFF_TRIANGLE + "3 0 1\n", ":6: face row promises 3 vertices"),
    (["basis", "--complex", "{bad}"], OFF_TRIANGLE + "3 0 1 3\n", ":6: face references a missing vertex"),
    (["basis", "--complex", "{bad}"], OFF_TRIANGLE + "3 0 1 1\n", ":6: face repeats a vertex"),
    (["persistent", "--points", "{bad}", "--rips", "1.0"], "0,0\n1,x\n",
     ":2: bad point row: could not convert string to float: 'x'"),
    (["persistent", "--points", "{bad}", "--rips", "1.0"], "0,0\n1,0,0\n", ":2: point rows mix widths"),
    (["persistent", "--points", "{bad}", "--rips", "1.0"], "# no rows\n", ": no points"),
    (["persistent", "--complex", "{off}", "--lower-star", "{bad}"], "", ": no scalars"),
    (["persistent", "--complex", "{off}", "--lower-star", "{bad}"], "0.0\n,\n", ":2: bad scalar row: no value"),
    (["persistent", "--points", "{csv}", "--filtration", "{bad}"], "# no rows\n", ": empty filtration"),
    (["localize", "--complex", "{off}", "--cycle", "{bad}"], "", ": empty cycle file"),
    (["localize", "--complex", "{off}", "--cycle", "{bad}"], "0 1\n1 x\n",
     ":2: bad simplex row: invalid literal for int() with base 10: 'x'"),
    # a byte that is not UTF-8, one row per reader
    (["basis", "--complex", "{bad}"], "OFF\n3 0 0\n0 0\n1 0\n0 \xff\n",
     ": 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    (["persistent", "--points", "{bad}", "--rips", "1.0"], "0,0\n1,\xff\n",
     ": 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
    (["persistent", "--complex", "{off}", "--lower-star", "{bad}"], "0.0\n\xff\n",
     ": 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    (["persistent", "--points", "{csv}", "--filtration", "{bad}"], "0 0\n\xff\n",
     ": 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    (["localize", "--complex", "{off}", "--cycle", "{bad}"], "0 1\n\xff\n",
     ": 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    # rows of different widths: the second or third OFF vertex row, the third point row
    (["basis", "--complex", "{bad}"], "OFF\n3 0 0\n0 0\n1 0 0\n0 1\n", ":4: vertex rows mix dimensions"),
    (["basis", "--complex", "{bad}"], "OFF\n3 0 0\n0 0\n1 0\n0 1 0\n", ":5: vertex rows mix dimensions"),
    (["persistent", "--points", "{bad}", "--rips", "1.0"], "0,0\n1,0\n0,1,0\n", ":3: point rows mix widths"),
])
def test_exit_code_malformed_input_file(tmp_path, annulus_files, two_loop_files, capsys, args, text, message):
    """A malformed file fails the request with its path, and its line where
    the reader knows it."""
    _, off, _ = annulus_files
    _, csv, _ = two_loop_files
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="latin-1")  # one byte per character
    argv = [a.format(off=off, csv=csv, bad=bad) for a in args]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"cyclerad: {bad}{message}\n"


# -- what a request imports ---------------------------------------------------

# modules no request should load; numpy is a test and benchmark dependency only,
# and dataclasses pulls in inspect
NEVER_IMPORTED = ("numpy", "dataclasses", "inspect")


@pytest.mark.parametrize("args", [
    ["localize", "--complex", "{off}", "--cycle", "{cyc}"],
    ["basis", "--complex", "{off}"],
    ["persistent", "--points", "{ring}", "--rips", "0.9"],
    ["verify", "--complex", "{off}", "--cycle", "{cyc}"],
    ["verify", "--complex", "{off}"],
    ["verify", "--points", "{ring}", "--rips", "0.9"],
])
def test_request_imports_only_what_it_runs(tmp_path, annulus_files, args):
    """No request loads NEVER_IMPORTED, and only verify loads the oracle."""
    _, off, cyc = annulus_files
    ring = tmp_path / "ring.csv"
    circle = fixtures.circle_cloud(12)
    ring.write_text("".join(f"{x!r},{y!r}\n" for x, y in circle.coords))
    argv = [a.format(off=off, cyc=cyc, ring=ring) for a in args] + ["--out", str(tmp_path / "r.json")]
    script = (
        "import sys\n"
        "from cyclerad.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, *(m in sys.modules for m in {NEVER_IMPORTED + ('cyclerad.oracle',)!r}))\n"
    )
    stdout = run_fresh(script)
    assert stdout.split() == ["0", *["False"] * len(NEVER_IMPORTED), str(args[0] == "verify")]


def test_package_root_loads_submodules_on_first_use():
    script = (
        "import sys\n"
        "import cyclerad\n"
        "print(sorted(m for m in sys.modules if m.startswith('cyclerad.')))\n"
        "from cyclerad import *\n"
        "print(all(globals()[name] is getattr(cyclerad, name) for name in cyclerad.__all__))\n"
        "try:\n"
        "    cyclerad.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert run_fresh(script).split() == ["[]", "True", "AttributeError"]


def run_fresh(script: str) -> str:
    """Standard output of the script in a fresh interpreter on this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
