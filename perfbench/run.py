#!/usr/bin/env python3
"""Benchmark of the cyclerad command line; see README.md beside this file.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mesh-localize --seed 0 --seconds 30 --trace 0

With `--trace 0`, one client sends the workload's requests in a closed loop,
each as a fresh `python -m cyclerad` process, once to `src/` and once to the
frozen copy in `perfbench/reference/`, and reports timings as the ratio of
the two. With `--trace 1` the requests run in this process, traced through
the wrappers of tracing.py, and the per-layer metrics are reported. The last
line of standard output is the JSON result; details go to
`.perfbench/results/`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".perfbench"

MIN_PASSES = 3          # CLI passes per run, however long they take
MIN_TRACE_PASSES = 2    # traced and untraced in-process passes each
SETUP_SAMPLES = 3       # import pairs before the loop, plus one per pass
REQUEST_TIMEOUT = 120   # seconds before a request is killed and failed
# Median time of `import cyclerad.cli` in a fresh interpreter for the
# reference package on the 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) this
# benchmark was tuned on; setup_s is the src/reference import-time ratio in
# those seconds.
REFERENCE_IMPORT_S = 0.25


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # deterministic hashing, and no BLAS worker threads next to the client
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(args: list[str], work: Path, env: dict) -> dict:
    """Run `python <args>` to completion; wall and child CPU seconds, peak
    RSS from wait4, exit code, and the tail of stderr."""
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "timed_out": wall >= REQUEST_TIMEOUT,
        "stderr": err_path.read_text(errors="replace")[-400:],
    }


def run_cli(argv: list[str], out: Path, work: Path, env: dict) -> dict:
    """One `python -m cyclerad` request writing its report to `out`."""
    out.unlink(missing_ok=True)
    rec = spawn(["-m", "cyclerad", *argv, "--out", str(out)], work, env)
    rec["report"] = out.read_bytes() if out.exists() else b""
    return rec


class Validator:
    """Checks each request's first report in full; later reports of the same
    request must repeat it byte for byte and share its verdict."""

    def __init__(self, requests):
        self.requests = {r.name: r for r in requests}
        self.first: dict[str, tuple[bytes, list[str]]] = {}
        self.reports: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _check(self, name: str, data: bytes) -> list[str]:
        try:
            report = json.loads(data)
        except ValueError:
            return ["report is not JSON"]
        self.reports[name] = report
        req = self.requests[name]
        try:
            return checks.CHECKS[req.problem](req, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]

    def __call__(self, name: str, code, data: bytes) -> bool:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        elif name not in self.first:
            problems = self._check(name, data)
            self.first[name] = (data, problems)
        elif data != self.first[name][0]:
            problems = ["report differs from the first one of this request"]
        else:
            problems = self.first[name][1]
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems[:3])}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)

    def results_reported(self) -> int:
        return sum(len(r.get("results", [])) for r in self.reports.values())


def r_v_sum(reports) -> float:
    """Sum of the reported r_v over every result of the reports that parse."""
    total = []
    for data in reports:
        try:
            total += [float(x["r_v"]) for x in json.loads(data).get("results", [])]
        except (ValueError, AttributeError, KeyError, TypeError):
            continue
    return math.fsum(total)


def preflight(seed: int, work: Path, env: dict) -> list[dict]:
    """`cyclerad verify` on small inputs, outside the timed runs. Raises
    RuntimeError when a call fails, disagrees with the oracle, or checks
    nothing (a ring without a positive bar would pass vacuously)."""
    records = []
    for name, argv in workloads.write_preflight_inputs(seed, work / "preflight"):
        rec = run_cli(argv, work / f"{name}.json", work, env)
        try:
            report = json.loads(rec["report"])
        except ValueError:
            report = {}
        n_checks = len(report.get("checks", []))
        records.append({"name": name, "code": rec["code"], "checks": n_checks,
                        "ok": report.get("ok"), "wall_s": rec["wall_s"]})
        if rec["code"] != 0 or report.get("ok") is not True or n_checks == 0:
            raise RuntimeError(f"oracle pre-flight {name}: exit {rec['code']}, ok={report.get('ok')}, "
                               f"{n_checks} checks; {rec['stderr'].strip()}")
    return records


def setup_sample(work: Path, env: dict) -> float:
    """Wall time of a fresh interpreter importing cyclerad.cli."""
    rec = spawn(["-c", "import cyclerad.cli"], work, env)
    if rec["code"] != 0:
        raise RuntimeError(f"import cyclerad.cli failed: {rec['stderr'].strip()}")
    return rec["wall_s"]


def setup_pair(work: Path, envs: dict, flip: bool) -> dict:
    """Import times of `src/` and the reference, back to back."""
    return {side: setup_sample(work, envs[side]) for side in (("ref", "src") if flip else ("src", "ref"))}


def doubling(requests, times: list[float]) -> float:
    """Cost per doubling of simplex count between the two largest requests."""
    (n0, t0), (n1, t1) = [(r.size, t) for r, t in zip(requests, times)][-2:]
    return (t1 / t0) ** (1.0 / math.log2(n1 / n0))


def reference_reports(requests, work: Path) -> list[bytes]:
    env = child_env(REFERENCE)
    return [run_cli(r.argv, work / f"{r.name}.ref.json", work, env)["report"] for r in requests]


# -- end to end -------------------------------------------------------------


def cli_run(requests, seconds: float, work: Path, validate: Validator):
    """Closed-loop passes; each request goes to `src/` and the reference
    back to back, the first of the two alternating between requests and
    passes. Timings are medians over passes of src / reference."""
    envs = {"src": child_env(SRC), "ref": child_env(REFERENCE)}
    setup_sample(work, envs["ref"])  # compiles the reference's bytecode
    setup = [setup_pair(work, envs, i % 2) for i in range(SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        recs = []
        for j, req in enumerate(requests):
            pair = {}
            for side in (("src", "ref") if (len(passes) + j) % 2 == 0 else ("ref", "src")):
                pair[side] = run_cli(req.argv, work / f"{req.name}.{side}.json", work, envs[side])
            src, ref = pair["src"], pair["ref"]
            src["ok"] = validate(req.name, "timeout" if src["timed_out"] else src["code"], src["report"])
            if ref["code"] != 0:
                validate.failures.append(f"{req.name}: the reference exited {ref['code']}")
            recs.append({"request": req.name, "src": src, "ref": ref})
        passes.append(recs)
        setup.append(setup_pair(work, envs, len(passes) % 2))

    def ratio(rows):
        return statistics.median(sum(r["src"]["wall_s"] for r in p) / sum(r["ref"]["wall_s"] for r in p)
                                 for p in rows)

    rel = [ratio([[p[i]] for p in passes]) for i in range(len(requests))]
    per_request = {side: [statistics.median(p[i][side]["wall_s"] for p in passes)
                          for i in range(len(requests))] for side in ("src", "ref")}
    first = passes[0]
    ref_r_v = r_v_sum(r["ref"]["report"] for r in first)
    metrics = {
        "batch_rel": (ratio(passes), "ratio"),
        "largest_rel": (rel[-1], "ratio"),
        "doubling_rel": (doubling(requests, rel), "ratio"),
        "peak_rss_mb": (max(r["src"]["rss_mb"] for p in passes for r in p), "MB"),
        "ok_frac": (max(0.0, 1.0 - validate.failed / validate.attempted), "ratio"),
        "r_v_rel": (r_v_sum(r["src"]["report"] for r in first) / ref_r_v if ref_r_v else 0.0, "ratio"),
        "setup_s": (REFERENCE_IMPORT_S * statistics.median(s["src"] / s["ref"] for s in setup), "s"),
    }
    summary = {
        "median_request_s": per_request,
        "doubling_x": {side: doubling(requests, per_request[side]) for side in per_request},
        "reports_changed": sum(r["src"]["report"] != r["ref"]["report"] for r in first),
    }
    for p in passes:
        for r in p:
            del r["src"]["report"], r["ref"]["report"]
    return metrics, {"passes": passes, "summary": summary, "setup_samples_s": setup}


# -- traced, in process -----------------------------------------------------


def import_package():
    sys.path.insert(0, str(SRC))
    import cyclerad.cli

    origin = Path(cyclerad.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"cyclerad imported from {origin}, not from {SRC}")
    return cyclerad.cli


def inprocess_pass(cli, requests, work: Path, validate: Validator, tracer=None) -> dict:
    t0 = time.perf_counter()
    reports = []
    for i, req in enumerate(requests):
        out = work / f"{req.name}.json"
        out.unlink(missing_ok=True)
        if tracer:
            tracer.request = i
            root = tracer.open("cli.main", "cyclerad.cli:main")
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*req.argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(root)
        data = out.read_bytes() if out.exists() else b""
        validate(req.name, code, data)
        reports.append(data)
    return {"wall_s": time.perf_counter() - t0, "reports": reports}


def traced_run(requests, seconds, work, validate: Validator):
    cli = import_package()
    inprocess_pass(cli, requests, work, validate)   # warm-up, not timed
    plain, traced, values, spans_out = [], [], [], None
    absent, broken = [], set()
    start = time.perf_counter()
    while (len(traced) < MIN_TRACE_PASSES or len(plain) < MIN_TRACE_PASSES
           or time.perf_counter() - start < seconds):
        if len(traced) % 2:
            plain.append(inprocess_pass(cli, requests, work, validate))
        tracer = tracing.Tracer()
        undo, absent = tracing.install(tracer)
        try:
            traced.append(inprocess_pass(cli, requests, work, validate, tracer))
        finally:
            undo()
        broken |= tracer.broken_extras
        stats = tracing.SpanStats(tracer.spans)
        reported = validate.results_reported()
        values.append({name: fn(stats, reported) for name, (_, _, fn) in tracing.PER_LAYER.items()})
        if spans_out is None:
            spans_out = tracer.spans
        if len(traced) % 2:
            plain.append(inprocess_pass(cli, requests, work, validate))

    missing = tracing.absent_metrics(absent, broken)
    metrics = {}
    for name, (unit, _, _) in tracing.PER_LAYER.items():
        series = [v[name] for v in values]
        if name in missing:
            metrics[name] = (0, unit)
        elif unit in ("count", "ratio"):
            if len(set(series)) != 1:
                validate.failures.append(f"{name} differs between traced passes: {series}")
            metrics[name] = (series[0], unit)
        else:
            metrics[name] = (statistics.median(series), unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    reference = reference_reports(requests, work)
    metrics["cli.reports_changed"] = (sum(a != b for a, b in zip(traced[0]["reports"], reference)), "count")
    detail = {
        "absent_targets": absent, "absent_metrics": missing,
        "passes": {"traced_s": [p["wall_s"] for p in traced], "untraced_s": [p["wall_s"] for p in plain]},
        "spans": spans_out,
    }
    return metrics, detail


# -- main -------------------------------------------------------------------


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIRM_SEEDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cyclerad" / "__init__.py").is_file():
        print(f"perfbench: no cyclerad package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        requests = workloads.build(args.workload, args.seed, work / "inputs")
        validate = Validator(requests)
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "confirm_seed": workloads.CONFIRM_SEEDS[args.workload], "host": host(),
            "requests": [{"name": r.name, "size": r.size, "argv": r.argv} for r in requests],
        }
        detail["preflight"] = preflight(args.seed, work, child_env(SRC))
        if args.trace:
            metrics, extra = traced_run(requests, args.seconds, work, validate)
        else:
            metrics, extra = cli_run(requests, args.seconds, work, validate)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    detail.update(extra, failures=validate.failures)
    print("host: " + " ".join(f"{k}={v}" for k, v in detail["host"].items()))
    if extra.get("absent_metrics"):
        print("absent per-layer metrics (reported as 0): " + ", ".join(extra["absent_metrics"]))
    detail["metrics"] = metrics

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    for failure in sorted(set(validate.failures))[:10]:
        print(f"FAILED {failure}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": validate.failed == 0,
        "attempted": validate.attempted,
        "failed": validate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
