#!/usr/bin/env python3
"""In-process scaling ladders and fresh-process import time of cyclerad,
for two copies of the package side by side.

    python scripts/bench.py --parent-src OTHER/src --out BENCH.json
    python scripts/bench.py --quick          # smallest point of each ladder

Ladders (inputs from perfbench/workloads.py, so they match the benchmark's):
- mesh-localize: `localize` of the outer loop of a jittered grid with one
  centre hole, 143 to 9,215 vertices;
- mesh-basis: `basis` of a grid with four holes, 192 to 9,212 vertices;
- rips-circle-bar: one representative of the last-dying 1-bar on the Rips
  filtration of a circle sample (4n simplices for n points), 1,600 to
  12,800 simplices; the Rips construction is timed on its own;
- annulus-persistent: `persistent` of annulus samples, 40 to 320 points.
Requests run through `cyclerad.cli.main` in a worker process per package, so
the two copies never share an interpreter. Workers alternate between the
packages round by round, and each point keeps the fastest of its samples: on
a shared machine noise only ever adds time. The change-over-parent ratio of a
point is the median of its per-round ratios, each round running the two
packages back to back, with the lowest and highest round beside it. Small
points get more samples, so each has as fair a chance as a large one at a
quiet spell. The largest point of each ladder also runs once in a fresh
interpreter of its own, which reports its peak RSS: the memory of that one
request, imports included.
The import time is the median wall time of fresh `import cyclerad.cli`
processes, next to a bare interpreter's, with their peak RSS.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# of these meshes only the 96-side ones have more than 2^14 edges
LOCALIZE_GRIDS = [12, 16, 24, 34, 48, 68, 96]
BASIS_GRIDS = [14, 24, 34, 48, 68, 96]
CIRCLE_POINTS = [400, 800, 1600, 3200]
ANNULUS = [(40, 0.42), (80, 0.3), (160, 0.22), (320, 0.16)]
ANNULUS_SEED = 5
# alternating worker rounds per package, least samples per ladder point per
# round, least seconds those samples take, fresh-process import samples per
# package; --quick takes QUICK_COUNTS
COUNTS = (5, 3, 0.5, 21)
QUICK_COUNTS = (1, 1, 0.0, 3)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _samples(fn, repeats: int, seconds: float) -> list[float]:
    """Timings of fn: at least `repeats`, and together at least `seconds`."""
    out = []
    while len(out) < repeats or sum(out) < seconds:
        out.append(_timed(fn))
    return out


def circle_rips(n: int):
    """Rips filtration of n points on the unit circle, at a scale just above
    the second-neighbour chord: n vertices, 2n edges, n triangles."""
    from cyclerad.filtrations import rips_filtration
    from cyclerad.fixtures import circle_cloud

    return rips_filtration(circle_cloud(n), 2 * math.sin(2 * math.pi / n) * 1.0001, max_dim=2)


def last_finite_bar(filtration):
    from cyclerad.filtrations import compute_persistence

    # --parent-src may name a package whose result keeps its intervals in a
    # Barcode, or whose barcode holds every dimension
    res = compute_persistence(filtration, 1)
    finite = [iv for iv in getattr(res, "barcode", res).intervals if iv.dim == 1 and iv.death is not None]
    return max(finite, key=lambda iv: iv.death)


# The child reports its own high-water mark: wait4's ru_maxrss would carry
# the RSS of this process across the exec (Linux).
PEAK_RSS = "\nprint(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')))"


def fresh_peak_rss_mb(code: str, env=None) -> float:
    """Peak RSS (MB) of a fresh interpreter that runs the code."""
    proc = subprocess.run([sys.executable, "-c", code + PEAK_RSS], env=env,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-1]) / 1024


def run_ladders(work: Path, quick: bool) -> dict:
    """Samples of every ladder point with the package on sys.path, and the
    peak RSS of the largest point on its own:
    {ladder: [{size fields..., "samples": [seconds...]}]}."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from cyclerad import cli
    from cyclerad.optimize import opt_pers_hom_rep

    pick = (lambda xs: xs[:1]) if quick else (lambda xs: xs)
    _, repeats, seconds, _ = QUICK_COUNTS if quick else COUNTS
    out = work / "report.json"
    ladders: dict[str, list] = {}

    def request(argv):
        assert cli.main([*argv, "--out", str(out)]) == 0, argv

    def request_peak(rows, argv):
        argv = [*argv, "--out", str(out)]
        rows[-1]["peak_rss_mb"] = fresh_peak_rss_mb(f"from cyclerad import cli\nassert cli.main({argv!r}) == 0")

    def mesh(name, grids, holes, stream, argv_of):
        rows = ladders[name] = []
        for k in pick(grids):
            coords, tris, outer = workloads.holed_grid(k, holes(k), workloads._rng(ANNULUS_SEED, stream, k))
            off, cyc = work / f"{name}_{k}.off", work / f"{name}_{k}.cyc"
            workloads.write_off(off, coords, tris)
            workloads.write_simplices(cyc, outer)
            argv = argv_of(off, cyc)
            rows.append({"vertices": len(coords), "simplices": workloads._mesh_simplices(coords, tris),
                         "samples": _samples(lambda: request(argv), repeats, seconds)})
        request_peak(rows, argv)

    mesh("mesh-localize", LOCALIZE_GRIDS, workloads._centre_hole, 1,
         lambda off, cyc: ["localize", "--complex", str(off), "--cycle", str(cyc)])
    mesh("mesh-basis", BASIS_GRIDS, workloads._four_holes, 2,
         lambda off, cyc: ["basis", "--complex", str(off)])

    rows = ladders["rips-circle-bar"] = []
    for n in pick(CIRCLE_POINTS):
        rips_s = _timed(lambda: circle_rips(n))
        filtration = circle_rips(n)
        target = last_finite_bar(filtration)
        rows.append({"points": n, "simplices": len(filtration), "rips_s": rips_s,
                     "samples": _samples(lambda: opt_pers_hom_rep(filtration, target), repeats, seconds)})
    rows[-1]["peak_rss_mb"] = fresh_peak_rss_mb(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'scripts')!r})\nfrom bench import circle_rips, last_finite_bar\n"
        f"from cyclerad.optimize import opt_pers_hom_rep\nf = circle_rips({n})\nopt_pers_hom_rep(f, last_finite_bar(f))")

    rows = ladders["annulus-persistent"] = []
    for n, scale in pick(ANNULUS):
        pts = work / f"annulus_{n}.csv"
        workloads.write_points(pts, workloads.annulus_points(n, workloads._rng(ANNULUS_SEED)))
        argv = ["persistent", "--points", str(pts), "--rips", repr(scale)]
        rows.append({"points": n, "scale": scale,
                     "samples": _samples(lambda: request(argv), repeats, seconds)})
    request_peak(rows, argv)
    return ladders


def fresh_processes(runs: dict[str, tuple[str, Path]], samples: int) -> dict:
    """Per name, the median wall seconds and the largest peak RSS (MB) of
    fresh interpreters running its code with its package first on the path.
    The names take turns, so slow spells hit all of them alike."""
    walls: dict[str, list] = {name: [] for name in runs}
    rss: dict[str, list] = {name: [] for name in runs}
    for _ in range(samples):
        for name, (code, src) in runs.items():
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
            t0 = time.perf_counter()
            rss[name].append(fresh_peak_rss_mb(code, env))
            walls[name].append(time.perf_counter() - t0)
    return {name: {"median_s": statistics.median(walls[name]), "peak_rss_mb": max(rss[name])} for name in runs}


def worker(src: Path, quick: bool) -> dict:
    """Ladders of the package at `src`, measured in a fresh process."""
    argv = [sys.executable, __file__, "--worker"] + (["--quick"] if quick else [])
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def merge(columns: dict[str, list[dict]]) -> dict:
    """One row per ladder point: its size, each column's fastest seconds, per
    column the ratio to the previous point, and on the largest point each
    column's largest peak RSS. With a parent column, change_over_parent is
    the median over rounds of the change/parent ratio of the round's fastest
    samples, since a round runs both packages back to back; ratio_min and
    ratio_max are the extreme rounds, so a range that straddles 1 leaves the
    point unresolved."""
    merged = {}
    first = next(iter(columns.values()))[0]
    for name, rows in first.items():
        out = []
        for i, row in enumerate(rows):
            entry = {k: v for k, v in row.items() if k not in ("samples", "rips_s", "peak_rss_mb")}
            for col, runs in columns.items():
                entry[f"{col}_s"] = min(s for run in runs for s in run[name][i]["samples"])
                if "peak_rss_mb" in row:
                    entry[f"{col}_peak_rss_mb"] = max(run[name][i]["peak_rss_mb"] for run in runs)
                if "rips_s" in row:
                    entry[f"{col}_rips_s"] = min(run[name][i]["rips_s"] for run in runs)
                if i:
                    entry[f"{col}_step"] = entry[f"{col}_s"] / out[-1][f"{col}_s"]
            if "parent" in columns:
                ratios = [min(new[name][i]["samples"]) / min(old[name][i]["samples"])
                          for old, new in zip(columns["parent"], columns["change"])]
                entry["change_over_parent"] = statistics.median(ratios)
                entry["ratio_min"], entry["ratio_max"] = min(ratios), max(ratios)
            out.append(entry)
        merged[name] = out
    return merged


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent-src", type=Path, help="src/ directory of the package to compare against")
    ap.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    ap.add_argument("--quick", action="store_true", help="only the smallest point of each ladder, sampled once")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(run_ladders(Path(tmp), args.quick)))
        return

    packages = {"change": ROOT / "src"}
    if args.parent_src:
        packages = {"parent": args.parent_src.resolve(), **packages}
    rounds, repeats, seconds, imports = QUICK_COUNTS if args.quick else COUNTS
    columns: dict[str, list] = {col: [] for col in packages}
    for i in range(rounds):
        # the packages take turns going first, so slow spells hit both alike
        for col in sorted(packages, reverse=i % 2 == 1):
            columns[col].append(worker(packages[col], args.quick))
    report = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "settings": {"rounds": rounds, "repeats": repeats, "point_seconds": seconds, "import_samples": imports},
        "import": fresh_processes({"bare_python": ("pass", ROOT),
                                   **{col: ("import cyclerad.cli", src) for col, src in packages.items()}}, imports),
        "ladders": merge(columns),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
