"""Span tracer that wraps qgbounds' public functions from outside the package.

`install` replaces each function in `TARGETS` with a timing wrapper at every
loaded ``qgbounds`` module that holds it by name (``oracle`` imports
``eigenvalues_sym`` directly, ``bounds`` imports ``metric_diameter``, and so
on), and returns the patches so `uninstall` can put the originals back.
Spans stay in memory as flat records; `layer_metrics` turns them into the
per-layer figures the benchmark reports.  Nothing here is imported by the
untraced run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from fractions import Fraction

# span record fields
NAME, PARENT, START, END, INFO = range(5)


def _edge_pairs(args, kwargs, out):
    e = len(args[0].edges)
    return {"edge_pairs": e * (e - 1) // 2}


def _matrix_size(args, kwargs, out):
    m = args[0] if args else kwargs["matrix"]
    return {"n": len(m)}


def _graph_size(args, kwargs, out):
    return {"vertices": len(args[0].vertices)}


def _route(args, kwargs, out):
    g = args[0]
    rational = all(isinstance(e.length, Fraction) for e in g.edges)
    return {"fallback": rational and out.method == "fd"}


def _fd_mesh(args, kwargs, out):
    g = args[0]
    pinned = (kwargs.get("mesh", args[2] if len(args) > 2 else None) is not None
              or kwargs.get("points_per_unit_length") is not None)
    refinements = 0
    if not pinned:
        start = min(float(e.length) for e in g.edges) / 8
        refinements = round(math.log2(start / out.meta["mesh"]))
    return {"nodes": out.meta["nodes"], "refinements": refinements}


# (module, function, span name, info extractor run on success)
TARGETS = (
    ("qgbounds.metric_graph", "graph_from_json", "graph_from_json", None),
    ("qgbounds.metric_graph", "metric_diameter", "metric_diameter", _edge_pairs),
    ("qgbounds.metric_graph", "vertex_distances", "vertex_distances", None),
    ("qgbounds.covers", "build_cover", "build_cover", None),
    ("qgbounds.covers", "validate_cover", "validate_cover", None),
    ("qgbounds.covers", "vicinity_graph", "vicinity_graph", None),
    ("qgbounds.spectral", "eigenvalues_sym", "eigenvalues_sym", _matrix_size),
    ("qgbounds.bounds", "transfer_bound", "transfer_bound", None),
    ("qgbounds.bounds", "star_bound", "star_bound", None),
    ("qgbounds.bounds", "classical_bounds", "classical_bounds", None),
    ("qgbounds.oracle", "spectrum", "spectrum", _route),
    ("qgbounds.oracle", "subdivision_spectrum", "subdivision_spectrum", None),
    ("qgbounds.oracle", "von_below_spectrum", "von_below_spectrum", _graph_size),
    ("qgbounds.oracle", "fd_spectrum", "fd_spectrum", _fd_mesh),
    ("qgbounds.cli", "run", "cli.run", None),
    ("qgbounds.repro", "run_all", "repro.run_all", None),
)


class Tracer:
    """Collects spans as ``[name, parent index, start, end, info]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(rec)
                rec[INFO] = {"raised": True}
                raise
            self._close(rec)
            rec[INFO] = info(args, kwargs, out) if info else {}
            return out
        return wrapper


def install(tracer: Tracer) -> list:
    """Patch every target at every qgbounds module that binds it by name."""
    import qgbounds.cli  # noqa: F401  (load every module that may hold a target)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qgbounds" or n.startswith("qgbounds."))]
    patches = []
    for modname, fname, span, info in TARGETS:
        orig = getattr(sys.modules[modname], fname)
        wrapped = tracer.wrap(span, orig, info)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
    return patches


def uninstall(patches: list) -> None:
    for mod, attr, orig in reversed(patches):
        setattr(mod, attr, orig)


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def _has_ancestor(spans, idx, name):
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list, ops: int) -> dict:
    """Per-layer figures from the spans of ``ops`` traced operations.

    Self times, call counts and work counts are per operation; ``*_max``
    style figures are maxima and ratios are ratios."""
    ops = max(ops, 1)
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for rec, s in zip(spans, selfs):
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        self_s[rec[NAME]] = self_s.get(rec[NAME], 0.0) + s

    def info(name, key):
        return [rec[INFO][key] for rec in spans
                if rec[NAME] == name and rec[INFO] and key in rec[INFO]]

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    n = info("eigenvalues_sym", "n")
    vb = [rec for rec in spans if rec[NAME] == "von_below_spectrum"]
    vicinity_in_transfer = sum(
        1 for i, rec in enumerate(spans)
        if rec[NAME] == "vicinity_graph" and _has_ancestor(spans, i, "transfer_bound"))
    m = {
        "graph_from_json.self_s": per_op(self_s.get("graph_from_json", 0.0)),
        "metric_diameter.calls": per_op(calls.get("metric_diameter", 0)),
        "metric_diameter.self_s": per_op(self_s.get("metric_diameter", 0.0)),
        "metric_diameter.edge_pairs": per_op(sum(info("metric_diameter", "edge_pairs"))),
        "vertex_distances.self_s": per_op(self_s.get("vertex_distances", 0.0)),
        "build_cover.self_s": per_op(self_s.get("build_cover", 0.0)),
        "validate_cover.self_s": per_op(self_s.get("validate_cover", 0.0)),
        "vicinity_graph.calls": per_op(calls.get("vicinity_graph", 0)),
        "vicinity_graph.self_s": per_op(self_s.get("vicinity_graph", 0.0)),
        "vicinity_per_transfer": ratio(vicinity_in_transfer, calls.get("transfer_bound", 0)),
        "eigenvalues_sym.calls": per_op(calls.get("eigenvalues_sym", 0)),
        "eigenvalues_sym.self_s": per_op(self_s.get("eigenvalues_sym", 0.0)),
        "eigenvalues_sym.n_max": max(n, default=0),
        "eigenvalues_sym.n3_sum": per_op(sum(k ** 3 for k in n)),
        "transfer_bound.calls": per_op(calls.get("transfer_bound", 0)),
        "transfer_bound.self_s": per_op(self_s.get("transfer_bound", 0.0)),
        "star_bound.self_s": per_op(self_s.get("star_bound", 0.0)),
        "classical_bounds.self_s": per_op(self_s.get("classical_bounds", 0.0)),
        "spectrum.calls": per_op(calls.get("spectrum", 0)),
        "spectrum.fallbacks": per_op(sum(info("spectrum", "fallback"))),
        "subdivision_spectrum.self_s": per_op(self_s.get("subdivision_spectrum", 0.0)),
        "subdivision.attempts": per_op(len(vb)),
        "subdivision.useful_ratio": ratio(
            sum(1 for rec in vb if not rec[INFO].get("raised")), len(vb)),
        "subdivision.vertices_max": max(info("von_below_spectrum", "vertices"), default=0),
        "fd_spectrum.calls": per_op(calls.get("fd_spectrum", 0)),
        "fd_spectrum.self_s": per_op(self_s.get("fd_spectrum", 0.0)),
        "fd_spectrum.nodes_max": max(info("fd_spectrum", "nodes"), default=0),
        "fd.refinements": per_op(sum(info("fd_spectrum", "refinements"))),
        "cli.run.self_s": per_op(self_s.get("cli.run", 0.0)),
        "repro.run_all.self_s": per_op(self_s.get("repro.run_all", 0.0)),
    }
    return m


def shares(spans: list, op_time: float) -> dict:
    """Each span name's summed self time as a share of op_time; the rest of
    op_time (time in no traced function) is ``outside_spans``."""
    total = {}
    for rec, s in zip(spans, self_times(spans)):
        total[rec[NAME]] = total.get(rec[NAME], 0.0) + s
    out = {k: v / op_time for k, v in sorted(total.items(), key=lambda kv: -kv[1])}
    out["outside_spans"] = 1.0 - sum(out.values())
    return out


def import_times(stderr: str) -> tuple:
    """Seconds spent importing qgbounds and scipy, from ``-X importtime`` output.

    Sums the cumulative time of every outermost ``qgbounds*`` entry, and of
    every ``scipy*`` entry not nested inside another ``scipy*`` entry."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    totals = {"qgbounds": 0, "scipy": 0}
    stack = []  # enclosing entries; the output lists children before parents
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(n.split(".")[0] != root for _, n in stack):
            totals[root] += cumulative
        stack.append((depth, name))
    return totals["qgbounds"] / 1e6, totals["scipy"] / 1e6
