"""Command-line surface: localize / basis / persistent / verify.

Exit codes: 0 on success, 2 on unreadable or malformed input or on an
output path (--out, --export-obj) that cannot be written, 3 on semantic
failure (chain is not a cycle, non-monotone filtration, oracle budget,
verification miss).  Reports are JSON with sorted keys, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from operator import add
from pathlib import Path
from typing import Optional

from .complexes import MEMBERSHIP_REL_TOL, EmbeddedComplex
from .io import (
    InputError,
    read_cycle,
    read_filtration,
    read_off,
    read_points,
    read_scalars,
    write_obj_polylines,
)
from .optimize import (
    OptimalCycleResult,
    opt_homologous_cycle,
    opt_homology_basis,
    opt_persistent_basis,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVALID = 3


class ConfigError(RuntimeError):
    """Inconsistent command-line configuration."""


def _filtration_sources(args: argparse.Namespace) -> int:
    # a subcommand's namespace holds only its own flags
    return sum(getattr(args, name, None) is not None for name in ("rips_scale", "filtration_path", "lower_star_path"))


def _solver(args: argparse.Namespace) -> str:
    """The solver a request runs: its subcommand's, or for verify the one its
    inputs name."""
    if args.problem != "verify":
        return args.problem
    return "localize" if args.cycle_path else "persistent" if _filtration_sources(args) else "basis"


def _validate(args: argparse.Namespace) -> None:
    """The checks argparse cannot make; raises ConfigError at the first that
    fails."""
    sources = _filtration_sources(args)
    solver = _solver(args)
    if solver != "persistent" and args.p < 1:
        raise ConfigError(f"{solver} needs a positive dimension p")
    if args.p < 0:
        raise ConfigError("-p must be non-negative")
    if getattr(args, "rips_scale", None) is not None and not args.rips_scale >= 0:
        raise ConfigError("--rips must be non-negative")
    if getattr(args, "budget", 1) < 1:
        raise ConfigError("--budget must be positive")
    if solver == "localize":
        if not args.complex_path:
            raise ConfigError("verify with --cycle needs --complex")
        if sources:
            raise ConfigError("verify takes --cycle or a filtration source, not both")
    elif solver == "persistent":
        if sources != 1:
            raise ConfigError(
                "need exactly one filtration source: --rips, --filtration, or --lower-star"
            )
        if args.rips_scale is not None and not args.points_path:
            raise ConfigError("--rips needs --points")
        if args.filtration_path is not None and not args.points_path:
            raise ConfigError("--filtration needs --points for the geometry")
        if args.lower_star_path is not None and not args.complex_path:
            raise ConfigError("--lower-star needs --complex")
        if args.lower_star_path is None and args.complex_path:
            raise ConfigError("--rips and --filtration take no --complex")
    elif not args.complex_path:
        raise ConfigError("verify needs --complex, --cycle, or a filtration source")
    if getattr(args, "points_path", None) and args.rips_scale is None and args.filtration_path is None:
        raise ConfigError("--points needs --rips or --filtration")
    if getattr(args, "bars", None) is not None and not sources:
        raise ConfigError("--bars needs a filtration source")


# -- serialization ----------------------------------------------------------


def _sphere_json(sphere) -> dict:
    """A result's certificate or the oracle's optimum: a centre and a radius."""
    return {"center": sphere.center, "radius": sphere.radius}


def _interval_json(iv):
    if iv is None:
        return None
    return {
        "birth": iv.birth,
        "death": "inf" if iv.death is None else iv.death,
        "birth_value": iv.birth_value,
        "death_value": "inf" if iv.death_value is None else iv.death_value,
    }


def _result_json(
    complex_like: EmbeddedComplex,
    problem: str,
    before: OptimalCycleResult,
    after: OptimalCycleResult,
) -> dict:
    return {
        "problem": problem,
        "interval": _interval_json(before.interval),
        "dim": after.dim,
        "site": after.site,
        "r_v": after.r_v,
        "r_exact": after.r_exact,
        "sphere": _sphere_json(after.certificate),
        "cycle": complex_like.chain_simplices(after.cycle, after.dim),
        "edge_count_before": len(before.cycle),
        "edge_count_after": len(after.cycle),
    }


# -- shared plumbing --------------------------------------------------------


def _rows(args: argparse.Namespace, complex_like, results, filtration=None) -> list[dict]:
    """The report rows of a solver's results.  With --shorten each 1-cycle is
    shortened, a bar's in its birth prefix so that it stays a representative;
    with --export-obj the 1-cycles are written as OBJ polylines."""
    if args.shorten:  # the shortener loads only for the requests that run it
        from .shorten import shorten_cycle
    finals = [
        shorten_cycle(r, complex_like, None if filtration is None else filtration.prefix(r.interval.birth))
        if args.shorten and r.dim == 1
        else r
        for r in results
    ]
    if args.export_obj:
        out_dir = Path(args.export_obj)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, res in enumerate(finals):
            if res.dim == 1:
                write_obj_polylines(out_dir / f"{args.problem}_{i:03d}.obj", complex_like, [res.cycle])
    return [_result_json(complex_like, args.problem, before, after) for before, after in zip(results, finals)]


def _persistence(args: argparse.Namespace):
    """The dimension-p barcode of the request's filtration, whose module loads
    here: only persistent and verify's persistent mode build one."""
    from .filtrations import compute_persistence, lower_star_filtration, rips_filtration

    if args.rips_scale is not None:
        # p-bars are born by p-simplices and die by (p+1)-simplices
        filtration = rips_filtration(read_points(args.points_path), args.rips_scale, args.p + 1)
    elif args.filtration_path is not None:
        filtration = read_filtration(args.filtration_path, read_points(args.points_path))
    else:
        complex_ = read_off(args.complex_path)
        values = read_scalars(args.lower_star_path)
        if len(values) != complex_.n_simplices(0):
            raise InputError(args.lower_star_path, f"{len(values)} scalar rows for {complex_.n_simplices(0)} vertices")
        filtration = lower_star_filtration(complex_, values)
    return compute_persistence(filtration, args.p)


# -- subcommands ------------------------------------------------------------


def _run_localize(args: argparse.Namespace) -> tuple[dict, int]:
    complex_ = read_off(args.complex_path)
    cycle = read_cycle(args.cycle_path, complex_, args.p)
    rows = _rows(args, complex_, [opt_homologous_cycle(complex_, cycle, args.p)])
    return {"problem": "localize", "p": args.p, "results": rows}, EXIT_OK


def _run_basis(args: argparse.Namespace) -> tuple[dict, int]:
    complex_ = read_off(args.complex_path)
    rows = _rows(args, complex_, opt_homology_basis(complex_, args.p).cycles)
    return {
        "problem": "basis",
        "p": args.p,
        "betti": len(rows),
        # summed left to right: sum() of floats is compensated from Python 3.12 on
        "total_weight": reduce(add, (row["r_v"] for row in rows), 0.0),
        "results": rows,
    }, EXIT_OK


def _run_persistent(args: argparse.Namespace) -> tuple[dict, int]:
    persistence = _persistence(args)
    filtration = persistence.filtration
    return {
        "problem": "persistent",
        "p": args.p,
        "n_simplices": len(filtration),
        "barcode": [[b, "inf" if d is None else d] for b, d in persistence.value_pairs()],
        "results": _rows(args, filtration.complex, opt_persistent_basis(persistence, args.bars), filtration),
    }, EXIT_OK


def _run_verify(args: argparse.Namespace) -> tuple[dict, int]:
    # the oracle answers first, so its caps stop an input too large before any
    # search; it is loaded here, so the other subcommands never import it
    from .oracle import (
        exact_min_basis,
        exact_min_persistent_rep,
        exact_optimal_homologous_cycle,
    )

    tol = MEMBERSHIP_REL_TOL
    mode = _solver(args)
    if mode == "localize":
        complex_ = read_off(args.complex_path)
        cycle = read_cycle(args.cycle_path, complex_, args.p)
        opt = exact_optimal_homologous_cycle(complex_, cycle, args.p, max_vertices=args.budget)
        (row,) = _RUNNERS[mode](args)[0]["results"]
        if opt.radius > 0:
            ratio = row["r_v"] / opt.radius
        else:
            ratio = 1.0 if row["r_v"] == 0 else float("inf")
        checks = [
            {
                "kind": "localize",
                "algorithm": row,
                "oracle": {**_sphere_json(opt), "cycle": complex_.chain_simplices(opt.cycle, args.p)},
                "ratio": ratio,
                "ok": opt.radius * (1 - tol) <= row["r_v"] <= 2 * opt.radius * (1 + tol),
            }
        ]
    elif mode == "persistent":
        persistence = _persistence(args)
        reps = [
            exact_min_persistent_rep(persistence.filtration, iv, max_vertices=args.budget)
            for iv in persistence.bars(args.bars)
        ]
        checks = [
            {
                "kind": "persistent",
                "interval": row["interval"],
                "algorithm": row,
                "oracle": {"weight": rep.weight, "site": rep.site},
                "ratio": row["r_v"] / rep.weight if rep.weight > 0 else 1.0,
                "ok": abs(row["r_v"] - rep.weight) <= tol * rep.weight,
            }
            for row, rep in zip(_RUNNERS[mode](args)[0]["results"], reps, strict=True)
        ]
    else:
        oracle = exact_min_basis(read_off(args.complex_path), args.p, weight="site", max_vertices=args.budget)
        greedy = _RUNNERS[mode](args)[0]["total_weight"]
        checks = [
            {
                "kind": "basis",
                "algorithm": {"total_weight": greedy},
                "oracle": {"total_weight": oracle.total_weight},
                "ok": greedy <= oracle.total_weight * (1 + tol),
            }
        ]

    if not checks:
        print(f"cyclerad: nothing to verify: no positive-length {args.p}-bar", file=sys.stderr)
    ok = bool(checks) and all(c["ok"] for c in checks)
    report = {"problem": "verify", "mode": mode, "ok": ok, "checks": checks}
    return report, EXIT_OK if ok else EXIT_INVALID


# -- argument parsing -------------------------------------------------------


def _parse_bars(text: str) -> int:
    head, sep, tail = text.partition(":")
    if head != "top" or not sep:
        raise argparse.ArgumentTypeError("expected top:k")
    try:
        k = int(tail)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected top:k") from exc
    if k < 1:
        raise argparse.ArgumentTypeError("k must be positive")
    return k


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-p", type=int, default=1, help="homology dimension")
    sp.add_argument("--out", metavar="FILE", help="write the JSON report here")


def _add_filtration_source(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--points", dest="points_path", metavar="P.csv")
    sp.add_argument("--rips", dest="rips_scale", type=float, metavar="SCALE")
    sp.add_argument("--filtration", dest="filtration_path", metavar="F.flt")
    sp.add_argument("--complex", dest="complex_path", metavar="F.off")
    sp.add_argument("--lower-star", dest="lower_star_path", metavar="S.csv")
    sp.add_argument("--bars", type=_parse_bars, default=None, metavar="top:k",
                    help="only the k most persistent bars")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclerad",
        description="Geometrically small homology cycles under the enclosing-sphere radius.",
    )
    sub = ap.add_subparsers(dest="problem", required=True)

    loc = sub.add_parser("localize", help="smallest cycle homologous to a given one")
    loc.add_argument("--complex", dest="complex_path", required=True, metavar="F.off")
    loc.add_argument("--cycle", dest="cycle_path", required=True, metavar="C.txt")
    _add_common(loc)

    bas = sub.add_parser("basis", help="minimum-radius homology basis")
    bas.add_argument("--complex", dest="complex_path", required=True, metavar="F.off")
    _add_common(bas)

    per = sub.add_parser("persistent", help="minimum bar representatives of a filtration")
    _add_filtration_source(per)
    _add_common(per)

    ver = sub.add_parser("verify", help="compare the algorithms against the exact oracle")
    ver.add_argument("--cycle", dest="cycle_path", metavar="C.txt")
    _add_filtration_source(ver)
    ver.add_argument("--budget", type=int, default=12,
                     help="oracle vertex cap")
    _add_common(ver)
    ver.set_defaults(shorten=False, export_obj=None)  # read by the subcommand verify runs

    for sp in (loc, bas, per):  # verify reports checks, not cycles to shorten or export
        sp.add_argument("--shorten", action="store_true",
                        help="post-process 1-cycles with the edge-count shortener")
        sp.add_argument("--export-obj", dest="export_obj", metavar="DIR",
                        help="write 1-cycles as OBJ polylines into DIR")
    return ap


_RUNNERS = {
    "localize": _run_localize,
    "basis": _run_basis,
    "persistent": _run_persistent,
    "verify": _run_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        report, code = _RUNNERS[args.problem](args)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, InputError) as exc:
        print(f"cyclerad: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # the readers raise InputError, so --out or --export-obj failed
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"cyclerad: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # an oracle BudgetExceededError among them
        print(f"cyclerad: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # last resort: a message, never a traceback
        print(f"cyclerad: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    raise SystemExit(main())
