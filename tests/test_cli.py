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

from conftest import OCTAHEDRON

from cyclerad import fixtures
from cyclerad.cli import main
from cyclerad.complexes import EmbeddedComplex, PointCloud
from cyclerad.io import (
    InputError,
    read_cycle,
    read_filtration,
    read_off,
    write_cycle,
    write_filtration,
    write_off,
)

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
    lines = open(flt).read().splitlines()
    lines[-1] = "inf " + lines[-1].split(" ", 1)[1]
    bad = tmp_path / "bad.flt"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["persistent", "--points", csv, "--filtration", str(bad),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def bad_filtration_file(tmp_path, flt, row):
    """The filtration file with more rows at the end, as (path, line of the
    first)."""
    lines = open(flt).read().splitlines()
    bad = tmp_path / "bad.flt"
    bad.write_text("\n".join(lines + [row]) + "\n")
    return str(bad), len(lines) + 1


@pytest.mark.parametrize("row", ["9 1 1", "9 0 99", "9 0 1", "9 0 1 4", "9 0 1 4\n9 0 4"])
def test_exit_code_bad_filtration_row(tmp_path, two_loop_files, capsys, row):
    _, csv, flt = two_loop_files
    bad, line = bad_filtration_file(tmp_path, flt, row)
    code = main(["persistent", "--points", csv, "--filtration", bad,
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{bad}:{line}:" in capsys.readouterr().err


def test_exit_code_cycle_mixes_dimensions(tmp_path, annulus_files, capsys):
    ann, off, cyc = annulus_files
    bad = tmp_path / "mixed.txt"
    bad.write_text(open(cyc).read() + " ".join(map(str, ann.complex.simplices(2)[0])) + "\n")
    code = main(["localize", "--complex", off, "--cycle", str(bad),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert f"{bad}:{len(ann.outer_loop) + 1}:" in capsys.readouterr().err


def test_exit_code_cycle_lists_a_simplex_twice(tmp_path, annulus_files, capsys):
    """Over Z2 a repeated row would cancel, so it is rejected, not collapsed."""
    ann, off, cyc = annulus_files
    bad = tmp_path / "twice.txt"
    bad.write_text(open(cyc).read() + "0 1\n")
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
])
def test_exit_code_flag_the_request_would_not_read(tmp_path, annulus_files, two_loop_files, capsys, args, message):
    """The inputs are readable, so the dropped flag alone fails the request."""
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


def test_bad_bars_flag_rejected(tmp_path, two_loop_files):
    _, csv, flt = two_loop_files
    with pytest.raises(SystemExit) as exc:
        main(["persistent", "--points", csv, "--filtration", flt, "--bars", "first:3"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("row, message", [
    ("9 1 1", "repeats a vertex"),
    ("9 0 99", "missing vertex"),
    ("9 0 1", "listed twice"),
    ("9 0 1 4", "face (0, 4) of (0, 1, 4) is not listed before it"),
    ("9 0 1 4\n9 0 4", "face (0, 4) of (0, 1, 4) is not listed before it"),
])
def test_filtration_reader_rejects_bad_rows(tmp_path, two_loop_files, row, message):
    filt, _, flt = two_loop_files
    bad, line = bad_filtration_file(tmp_path, flt, row)
    with pytest.raises(InputError) as exc:
        read_filtration(bad, filt.complex.cloud)
    assert f":{line}:" in str(exc.value) and message in str(exc.value)


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
