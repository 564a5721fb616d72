"""Per-layer tracing of cyclerad from outside the package.

The package imports by name (`from .z2 import standard_reduction`), so a
layer is timed by replacing its public function where the consuming module
binds it, as listed in `wrappers.json`. A name that a later version of the
package no longer has is recorded as absent: the metrics that depend on it
read 0 and are listed, and the run goes on.

`z2.reduction` is the persistence reduction (`standard_reduction` as
`filtrations` binds it); the reductions inside `solve_by_reduction` belong to
`z2.solve`, and `optimize.reductions_per_site` counts both.

Spans carry name, wrapped target, start, end, parent and request id. They
stay in memory and are written out when the run ends. A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

WRAPPERS = json.loads(Path(__file__).with_name("wrappers.json").read_text())


def _matrix_size(args, result):
    matrix = args[0]
    return {
        "cols": matrix.n_cols,
        "nnz": sum(matrix.column_mask(j).bit_count() for j in range(matrix.n_cols)),
    }


# Counts read off a wrapped call: (positional args, return value) -> dict.
EXTRAS = {
    "points": lambda args, result: {"points": len(args[0])},
    "matrix": _matrix_size,
    "cols": lambda args, result: {"cols": result.n_cols},
    "admitted": lambda args, result: {"admitted": int(bool(result))},
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self.broken_extras: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str, target: str) -> int:
        self.spans.append({
            "name": name, "target": target, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request, "extra": None,
        })
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, target: str, extra: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, target)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if extra:
                try:
                    self.spans[index]["extra"] = EXTRAS[extra](args, result)
                except (AttributeError, TypeError, IndexError):
                    self.broken_extras.add(name)
            return result

        return traced


def _resolve(target: str):
    """(owner object, attribute, original) for 'module:attr' or
    'module:Class.method'; raises LookupError when the name is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
    except (ImportError, AttributeError) as exc:
        raise LookupError(target) from exc
    original = vars(owner).get(attr)
    if original is None or not callable(original):
        raise LookupError(target)
    return owner, attr, original


def install(tracer: Tracer):
    """Wrap every listed target; returns (undo callable, absent targets)."""
    done = []
    absent = []
    for entry in WRAPPERS:
        try:
            owner, attr, original = _resolve(entry["target"])
        except LookupError:
            absent.append(entry["target"])
            continue
        setattr(owner, attr, tracer.wrap(original, entry["span"], entry["target"], entry.get("extra")))
        done.append((owner, attr, original))

    def undo():
        for owner, attr, original in reversed(done):
            setattr(owner, attr, original)

    return undo, absent


class SpanStats:
    """Aggregates over the spans of one traced pass. Counts and seconds take
    only the outermost span of a name, so a per-site function that calls
    another per-site function counts once."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self.self_time = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]
        self.outer = []
        for s in spans:
            p = s["parent"]
            while p is not None and spans[p]["name"] != s["name"]:
                p = spans[p]["parent"]
            self.outer.append(p is None)

    def _outer(self, name, target=None):
        return [
            s for s, outer in zip(self.spans, self.outer)
            if outer and s["name"] == name and (target is None or s["target"] == target)
        ]

    def count(self, name, target=None) -> int:
        return len(self._outer(name, target))

    def seconds(self, name) -> float:
        return sum(s["end"] - s["start"] for s in self._outer(name))

    def self_seconds(self, prefix) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s["name"].startswith(prefix))

    def extra(self, name, key) -> int:
        return sum((s["extra"] or {}).get(key, 0) for s in self.spans if s["name"] == name)


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, span names or wrapped targets it needs, value from
# (stats, results reported)).
# Units "count" and "ratio" are exact and must repeat between passes.
PER_LAYER = {
    "optimize.sites_evaluated": ("count", ["optimize.site"], lambda st, r: st.count("optimize.site")),
    "filtrations.site_ordering_calls": ("count", ["filtrations.site_ordering"],
                                        lambda st, r: st.count("filtrations.site_ordering")),
    "optimize.reductions_per_site": (
        "ratio", ["optimize.site", "z2.reduction", "z2.solve"],
        lambda st, r: _ratio(st.count("z2.reduction") + st.count("z2.solve"), st.count("optimize.site"))),
    "optimize.site_s": ("s", ["optimize.site"], lambda st, r: st.seconds("optimize.site")),
    "optimize.self_s": ("s", ["optimize.site", "optimize.solver"], lambda st, r: st.self_seconds("optimize.")),
    "complexes.boundary_matrix_calls": ("count", ["complexes.boundary_matrix"],
                                        lambda st, r: st.count("complexes.boundary_matrix")),
    "complexes.boundary_matrix_s": ("s", ["complexes.boundary_matrix"],
                                    lambda st, r: st.seconds("complexes.boundary_matrix")),
    "complexes.boundary_cols": ("count", ["complexes.boundary_matrix"],
                                lambda st, r: st.extra("complexes.boundary_matrix", "cols")),
    "complexes.is_cycle_calls": ("count", ["complexes.is_cycle"], lambda st, r: st.count("complexes.is_cycle")),
    "filtrations.persistence_calls": ("count", ["filtrations.persistence"],
                                      lambda st, r: st.count("filtrations.persistence")),
    "filtrations.persistence_s": ("s", ["filtrations.persistence"],
                                  lambda st, r: st.seconds("filtrations.persistence")),
    "filtrations.persistence_self_s": ("s", ["filtrations.persistence"],
                                       lambda st, r: st.self_seconds("filtrations.persistence")),
    "filtrations.filtration_matrix_s": ("s", ["filtrations.filtration_matrix"],
                                        lambda st, r: st.seconds("filtrations.filtration_matrix")),
    "z2.reduction_calls": ("count", ["z2.reduction"], lambda st, r: st.count("z2.reduction")),
    "z2.reduction_s": ("s", ["z2.reduction"], lambda st, r: st.seconds("z2.reduction")),
    "z2.reduction_cols": ("count", ["z2.reduction"], lambda st, r: st.extra("z2.reduction", "cols")),
    "z2.reduction_nnz": ("count", ["z2.reduction"], lambda st, r: st.extra("z2.reduction", "nnz")),
    "z2.solve_calls": ("count", ["z2.solve"], lambda st, r: st.count("z2.solve")),
    "z2.solve_s": ("s", ["z2.solve"], lambda st, r: st.seconds("z2.solve")),
    "radius.exact_calls": ("count", ["radius.exact"], lambda st, r: st.count("radius.exact")),
    "radius.exact_s": ("s", ["radius.exact"], lambda st, r: st.seconds("radius.exact")),
    "radius.mes_points": ("count", ["radius.mes"], lambda st, r: st.extra("radius.mes", "points")),
    "radius.mes_s": ("s", ["radius.mes"], lambda st, r: st.seconds("radius.mes")),
    "radius.site_radius_calls": ("count", ["radius.site_radius"], lambda st, r: st.count("radius.site_radius")),
    "radius.site_radius_s": ("s", ["radius.site_radius"], lambda st, r: st.seconds("radius.site_radius")),
    "optimize.exact_useful_ratio": ("ratio", ["radius.exact"],
                                    lambda st, r: _ratio(r, st.count("radius.exact"))),
    "z2.span_add_calls": ("count", ["z2.span_add"], lambda st, r: st.count("z2.span_add")),
    "z2.span_admit_ratio": ("ratio", ["z2.span_add"],
                            lambda st, r: _ratio(st.extra("z2.span_add", "admitted"), st.count("z2.span_add"))),
    "complexes.view_build_calls": ("count", ["complexes.view_build"],
                                   lambda st, r: st.count("complexes.view_build")),
    "complexes.view_build_s": ("s", ["complexes.view_build"], lambda st, r: st.seconds("complexes.view_build")),
    "filtrations.prefix_view_calls": ("count", ["filtrations.prefix_view"],
                                      lambda st, r: st.count("filtrations.prefix_view")),
    "filtrations.rips_s": ("s", ["filtrations.rips"], lambda st, r: st.seconds("filtrations.rips")),
    "io.read_calls": ("count", ["io.read"], lambda st, r: st.count("io.read")),
    "io.read_s": ("s", ["io.read"], lambda st, r: st.seconds("io.read")),
    "cli.self_s": ("s", [], lambda st, r: st.self_seconds("cli.")),
    "cli.persistence_calls": (
        "count", ["cyclerad.cli:compute_persistence"],
        lambda st, r: st.count("filtrations.persistence", "cyclerad.cli:compute_persistence")),
}


def absent_metrics(absent_targets, broken_extras) -> list[str]:
    """Per-layer metrics that lost a span or target they depend on."""
    lost = set(absent_targets) | set(broken_extras)
    lost |= {e["span"] for e in WRAPPERS} - {
        e["span"] for e in WRAPPERS if e["target"] not in absent_targets
    }
    return [name for name, (_, needs, _) in PER_LAYER.items() if lost.intersection(needs)]
