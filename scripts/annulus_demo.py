"""End-to-end walkthrough on the annulus fixture.

Localizes the outer square loop, prints the per-site radii so the site
restriction is visible, and checks the result against the exact oracle.
"""

import argparse
import math
import sys
from pathlib import Path

from cyclerad.optimize import describe_cycle, opt_homologous_cycle
from cyclerad.oracle import exact_optimal_homologous_cycle

# the annulus is the tests' own fixture
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import fixtures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outer-half", type=float, default=2.0)
    ap.add_argument("--inner-half", type=float, default=0.5)
    args = ap.parse_args()

    ann = fixtures.annulus(outer_half=args.outer_half, inner_half=args.inner_half)
    complex_ = ann.complex
    given = describe_cycle(complex_, ann.outer_loop, 1)
    print(f"input: outer loop, {len(given.cycle)} edges, "
          f"r_exact={given.r_exact:.6f}")

    print("\nper-site optima (site: radius, edges):")
    for v in complex_.vertex_ids():
        res = opt_homologous_cycle(complex_, ann.outer_loop, 1, sites=[v])
        print(f"  v{v} @ {tuple(round(float(x), 3) for x in complex_.cloud.point(v))}:"
              f" r_v={res.r_v:.6f}, {len(res.cycle)} edges")

    best = opt_homologous_cycle(complex_, ann.outer_loop, 1)
    print(f"\nbest site {best.site}: r_v={best.r_v:.6f}, "
          f"cycle={complex_.chain_simplices(best.cycle, 1)}")

    opt = exact_optimal_homologous_cycle(complex_, ann.outer_loop, 1)
    ratio = best.r_v / opt.radius if opt.radius else float("nan")
    print(f"oracle optimum: r={opt.radius:.6f} at center {opt.center}")
    print(f"approximation ratio: {ratio:.6f} (guaranteed <= 2)")
    print(f"inner half-diagonal for reference: {math.sqrt(2) * args.inner_half:.6f}")


if __name__ == "__main__":
    main()
