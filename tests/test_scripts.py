"""Smoke runs of the demo scripts: each must exit 0."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/annulus_demo.py"],
        ["scripts/bench.py", "--quick"],
        ["scripts/shorten_gallery.py"],
    ],
)
def test_demo_script_exits_zero(argv):
    run_script(argv)


def run_script(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_work_counts_are_deterministic():
    """Every ladder point carries both work counts, equal in two rounds, and
    the annulus point runs the bar pass: its sample has a bar."""
    rounds = [json.loads(run_script(["scripts/bench.py", "--quick"]))["ladders"] for _ in range(2)]
    counts = [
        [(name, point[f"change_{key}"]) for name, points in ladders.items() for point in points
         for key in ("kernel_calls", "point_distances")]
        for ladders in rounds
    ]
    assert len(counts[0]) == 2 * sum(map(len, rounds[0].values())) == 8
    assert all(isinstance(n, int) for _, n in counts[0])
    assert counts[0] == counts[1]
    assert rounds[0]["annulus-persistent"][0]["change_kernel_calls"] > 0
