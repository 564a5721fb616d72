"""Shortening heuristic on a gallery of spiked loops: each loop routes some
ring edges through an outward detour vertex, and the shortener is expected to
swap the detours back for the direct edges without leaving the homology
class."""

import argparse
import sys
from pathlib import Path

from cyclerad.io import write_obj_polylines
from cyclerad.optimize import describe_cycle
from cyclerad.shorten import shorten_cycle

# the instances are the tests' own
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from fixtures import spiked_loop


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--export-obj", metavar="DIR", help="write before/after OBJ pairs")
    args = ap.parse_args()

    configs = [
        (4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 4), (8, 3),
    ]
    print(f"{'sides':>6} {'spikes':>7} {'edges in':>9} {'edges out':>10} {'r_v in':>8} {'r_v out':>8}")
    for sides, spikes in configs:
        inst = spiked_loop(n_sides=sides, spikes=spikes, rotate=0.3)
        before = describe_cycle(inst.complex, inst.cycle, 1)
        after = shorten_cycle(before, inst.complex)
        print(f"{sides:>6} {spikes:>7} {len(before.cycle):>9} {len(after.cycle):>10}"
              f" {before.r_v:>8.4f} {after.r_v:>8.4f}")
        if args.export_obj:
            out = Path(args.export_obj)
            out.mkdir(parents=True, exist_ok=True)
            write_obj_polylines(out / f"spiked_{sides}_{spikes}_before.obj",
                                inst.complex, [before.cycle])
            write_obj_polylines(out / f"spiked_{sides}_{spikes}_after.obj",
                                inst.complex, [after.cycle])


if __name__ == "__main__":
    main()
