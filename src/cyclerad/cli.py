"""Command-line surface: localize / basis / persistent / verify.

Exit codes: 0 on success, 2 on unreadable or malformed input, 3 on semantic
failure (chain is not a cycle, non-monotone filtration, oracle budget,
verification miss).  Reports are JSON with sorted keys, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .complexes import MEMBERSHIP_REL_TOL, EmbeddedComplex
from .filtrations import (
    Filtration,
    Interval,
    compute_persistence,
    lower_star_filtration,
    rips_filtration,
)
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
    shorten_cycle,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVALID = 3


class ConfigError(RuntimeError):
    """Inconsistent command-line configuration."""


def _filtration_sources(args: argparse.Namespace) -> int:
    # a subcommand's namespace holds only its own flags
    return sum(getattr(args, name, None) is not None for name in ("rips_scale", "filtration_path", "lower_star_path"))


def _validate(args: argparse.Namespace) -> None:
    """The checks argparse cannot make; raises ConfigError at the first that
    fails."""
    sources = _filtration_sources(args)
    verify_basis = args.problem == "verify" and not (args.cycle_path or sources)
    if (args.problem in ("localize", "basis") or verify_basis) and args.p < 1:
        raise ConfigError(f"{'basis' if verify_basis else args.problem} needs a positive dimension p")
    if args.p < 0:
        raise ConfigError("-p must be non-negative")
    if getattr(args, "rips_scale", None) is not None and not args.rips_scale >= 0:
        raise ConfigError("--rips must be non-negative")
    if getattr(args, "budget", 1) < 1:
        raise ConfigError("--budget must be positive")
    if args.problem == "verify" and args.cycle_path:
        if not args.complex_path:
            raise ConfigError("verify with --cycle needs --complex")
        if sources:
            raise ConfigError("verify takes --cycle or a filtration source, not both")
    elif args.problem == "persistent" or sources:
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
    elif args.problem == "verify" and not args.complex_path:
        raise ConfigError("verify needs --complex, --cycle, or a filtration source")
    if getattr(args, "points_path", None) and args.rips_scale is None and args.filtration_path is None:
        raise ConfigError("--points needs --rips or --filtration")


# -- serialization ----------------------------------------------------------


def _sphere_json(cert) -> dict:
    center = None if cert.center is None else [float(x) for x in cert.center]
    return {"center": center, "radius": float(cert.radius)}


def _interval_json(iv: Optional[Interval]):
    if iv is None:
        return None
    return {
        "birth": int(iv.birth),
        "death": "inf" if iv.death is None else int(iv.death),
        "birth_value": float(iv.birth_value),
        "death_value": "inf" if iv.death_value is None else float(iv.death_value),
    }


def _cycle_json(complex_like: EmbeddedComplex, result: OptimalCycleResult) -> list[list[int]]:
    return [
        [int(v) for v in s]
        for s in complex_like.chain_simplices(result.cycle, result.dim)
    ]


def _result_json(
    complex_like: EmbeddedComplex,
    problem: str,
    before: OptimalCycleResult,
    after: OptimalCycleResult,
) -> dict:
    return {
        "problem": problem,
        "interval": _interval_json(before.interval),
        "dim": int(after.dim),
        "site": None if after.site is None else int(after.site),
        "r_v": float(after.r_v),
        "r_exact": float(after.r_exact),
        "sphere": _sphere_json(after.certificate),
        "cycle": _cycle_json(complex_like, after),
        "edge_count_before": len(before.cycle),
        "edge_count_after": len(after.cycle),
    }


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _export_obj(args: argparse.Namespace, complex_like, rows: list[OptimalCycleResult]) -> None:
    if not args.export_obj:
        return
    out_dir = Path(args.export_obj)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, res in enumerate(rows):
        if res.dim != 1:
            continue
        write_obj_polylines(
            out_dir / f"{args.problem}_{i:03d}.obj", complex_like, [res.cycle]
        )


# -- shared plumbing --------------------------------------------------------


def _maybe_shorten(
    args: argparse.Namespace, complex_like, result: OptimalCycleResult, filtration: Optional[Filtration] = None
) -> OptimalCycleResult:
    if args.shorten and result.dim == 1:
        # a bar's representative stays one only if shortened in its birth prefix
        members = None if filtration is None else filtration.prefix(result.interval.birth)
        return shorten_cycle(result, complex_like, members)
    return result


def _build_filtration(args: argparse.Namespace) -> Filtration:
    if args.rips_scale is not None:
        # p-bars are born by p-simplices and die by (p+1)-simplices
        return rips_filtration(read_points(args.points_path), args.rips_scale, args.p + 1)
    if args.filtration_path is not None:
        return read_filtration(args.filtration_path, read_points(args.points_path))
    complex_ = read_off(args.complex_path)
    values = read_scalars(args.lower_star_path)
    if len(values) != complex_.n_simplices(0):
        raise InputError(args.lower_star_path, f"{len(values)} scalar rows for {complex_.n_simplices(0)} vertices")
    return lower_star_filtration(complex_, values)


# -- subcommands ------------------------------------------------------------


def _run_localize(args: argparse.Namespace) -> tuple[dict, int]:
    complex_ = read_off(args.complex_path)
    cycle = read_cycle(args.cycle_path, complex_, args.p)
    res = opt_homologous_cycle(complex_, cycle, args.p)
    final = _maybe_shorten(args, complex_, res)
    _export_obj(args, complex_, [final])
    report = {
        "problem": "localize",
        "p": args.p,
        "results": [_result_json(complex_, "localize", res, final)],
    }
    return report, EXIT_OK


def _run_basis(args: argparse.Namespace) -> tuple[dict, int]:
    complex_ = read_off(args.complex_path)
    basis = opt_homology_basis(complex_, args.p)
    finals = [_maybe_shorten(args, complex_, r) for r in basis.cycles]
    _export_obj(args, complex_, finals)
    report = {
        "problem": "basis",
        "p": args.p,
        "betti": len(finals),
        "total_weight": float(sum(r.r_v for r in finals)),
        "results": [
            _result_json(complex_, "basis", before, after)
            for before, after in zip(basis.cycles, finals)
        ],
    }
    return report, EXIT_OK


def _run_persistent(args: argparse.Namespace) -> tuple[dict, int]:
    filtration = _build_filtration(args)
    complex_ = filtration.complex
    persistence = compute_persistence(filtration, args.p)
    reps = opt_persistent_basis(persistence, args.bars)
    finals = [_maybe_shorten(args, complex_, r, filtration) for r in reps]
    rows = [_result_json(complex_, "persistent", before, after) for before, after in zip(reps, finals)]
    _export_obj(args, complex_, finals)
    report = {
        "problem": "persistent",
        "p": args.p,
        "n_simplices": len(filtration),
        "barcode": [
            [float(b), "inf" if d is None else float(d)]
            for b, d in persistence.value_pairs()
        ],
        "results": rows,
    }
    return report, EXIT_OK


def _run_verify(args: argparse.Namespace) -> tuple[dict, int]:
    # the oracle is loaded here, so the other subcommands never import it
    from .oracle import (
        OracleBudget,
        exact_min_basis,
        exact_min_persistent_rep,
        exact_optimal_homologous_cycle,
    )

    budget = OracleBudget(max_vertices=args.budget)
    tol = MEMBERSHIP_REL_TOL
    checks = []

    if args.cycle_path:
        mode = "localize"
        complex_ = read_off(args.complex_path)
        cycle = read_cycle(args.cycle_path, complex_, args.p)
        res = opt_homologous_cycle(complex_, cycle, args.p)
        opt = exact_optimal_homologous_cycle(complex_, cycle, args.p, budget)
        if opt.radius > 0:
            ratio = res.r_v / opt.radius
        else:
            ratio = 1.0 if res.r_v == 0 else float("inf")
        checks.append(
            {
                "kind": "localize",
                "algorithm": _result_json(complex_, "verify", res, res),
                "oracle": {
                    "radius": float(opt.radius),
                    "center": None if opt.center is None else [float(x) for x in opt.center],
                    "cycle": [
                        [int(v) for v in s]
                        for s in complex_.chain_simplices(opt.cycle, args.p)
                    ],
                },
                "ratio": float(ratio),
                "ok": bool(opt.radius * (1 - tol) <= res.r_v <= 2 * opt.radius * (1 + tol)),
            }
        )
    elif _filtration_sources(args):
        mode = "persistent"
        filtration = _build_filtration(args)
        complex_ = filtration.complex
        persistence = compute_persistence(filtration, args.p)
        if persistence.bars(args.bars):  # the oracle's size cap, checked before the bar searches
            budget.check_complex(complex_)
        for res in opt_persistent_basis(persistence, args.bars):
            rep = exact_min_persistent_rep(filtration, res.interval, budget)
            ratio = res.r_v / rep.weight if rep.weight > 0 else 1.0
            checks.append(
                {
                    "kind": "persistent",
                    "interval": _interval_json(res.interval),
                    "algorithm": _result_json(complex_, "verify", res, res),
                    "oracle": {"weight": float(rep.weight), "site": rep.site},
                    "ratio": float(ratio),
                    "ok": bool(abs(res.r_v - rep.weight) <= tol * rep.weight),
                }
            )
    else:
        mode = "basis"
        complex_ = read_off(args.complex_path)
        greedy = opt_homology_basis(complex_, args.p)
        oracle = exact_min_basis(complex_, args.p, budget, weight="site")
        checks.append(
            {
                "kind": "basis",
                "algorithm": {"total_weight": float(greedy.total_weight)},
                "oracle": {"total_weight": float(oracle.total_weight)},
                "ok": bool(greedy.total_weight <= oracle.total_weight * (1 + tol)),
            }
        )

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


def _add_common(sp: argparse.ArgumentParser, solver: bool = True) -> None:
    sp.add_argument("-p", type=int, default=1, help="homology dimension")
    sp.add_argument("--out", metavar="FILE", help="write the JSON report here")
    if solver:  # verify reports checks, not cycles to shorten or export
        sp.add_argument("--shorten", action="store_true",
                        help="post-process 1-cycles with the edge-count shortener")
        sp.add_argument("--export-obj", dest="export_obj", metavar="DIR",
                        help="write 1-cycles as OBJ polylines into DIR")


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
    _add_common(ver, solver=False)

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
    except ConfigError as exc:
        print(f"cyclerad: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report, code = _RUNNERS[args.problem](args)
    except InputError as exc:
        print(f"cyclerad: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # an oracle BudgetExceededError among them
        print(f"cyclerad: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # last resort: a message, never a traceback
        print(f"cyclerad: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
