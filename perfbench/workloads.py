"""The benchmark workloads.

Each workload builds its inputs from the seed (`prepare`), warms up
(`warm`), runs one operation per item (`op`) and condenses the output
outside the timed region (`digest`).  After the timed loop, `reference`
computes one reference per item and `check` returns None for a correct
digest or the reason it is wrong.  Workloads call qgbounds through module
attributes, so a traced run sees every call.  `check_repro` checks the
output of the `qgb repro` run that every traced run makes in process.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent

# (cover, eta) pairs that apply to every graph of a family, whatever its lengths;
# the other rigorous etas raise EtaUnavailable on these covers
_CYCLES = ("exact_cycle", "doubly_connected", "nicaise")
_STARS = ("doubly_connected", "nicaise", "star_best")
APPLICABLE = {
    "platonic": [("stars", "nicaise"), ("stars", "star_best")]
    + [(c, e) for c in ("faces", "face_pairs") for e in _CYCLES],
    "chain": [("stars", e) for e in _STARS]
    + [("layered", "doubly_connected"), ("layered", "nicaise")]
    + [("concatenated", e) for e in _STARS]
    + [("pumpkin_cycles", e) for e in _CYCLES + ("star_best",)],
    "four_pumpkin": [("stars", e) for e in _STARS]
    + [("pumpkin_cycles", e) for e in _CYCLES + ("star_best",)],
}

BOUND_SLACK = 1e-6  # the soundness slack the test suite uses
ALPHA_SLACK = 1e-10  # rounding slack on alpha in [0, 2], as in the test suite
AGREE_SLACK = 1e-9  # absolute floor when comparing two spectra


def _fd_reference(oracle, g, count, mesh):
    """Finite-element spectrum on a pinned mesh, halved until the mesh is fine
    enough for its error estimate to pass."""
    from qgbounds.errors import MeshTooCoarse

    for _ in range(4):
        try:
            return oracle.spectrum(g, count=count, method="fd", mesh=mesh)
        except MeshTooCoarse:
            mesh /= 2
    return oracle.spectrum(g, count=count, method="fd", mesh=mesh)


def _disagreement(values, ref, errs):
    """Indices where values and ref differ by more than errs allow."""
    return [i for i, (v, r, e) in enumerate(zip(values, ref, errs))
            if abs(v - r) > e + AGREE_SLACK * max(1.0, abs(r))]


class BoundsSweep:
    """Graph document -> every applicable transfer bound, star and classical bounds."""

    name = "bounds_sweep"

    def prepare(self, seed, tiny):
        import qgbounds.bounds
        import qgbounds.covers
        import qgbounds.metric_graph
        import qgbounds.oracle
        self.mg, self.covers, self.bounds, self.oracle = (
            qgbounds.metric_graph, qgbounds.covers, qgbounds.bounds, qgbounds.oracle)
        self.items = [(fam, doc, APPLICABLE[fam])
                      for fam, doc in inputs.bounds_pool(seed, tiny)]
        return self.items

    def warm(self):
        seen = set()
        for item in self.items:
            if item[0] not in seen:
                seen.add(item[0])
                self.op(item)

    def op(self, item):
        _, doc, pairs = item
        g = self.mg.graph_from_json(doc)
        reports = []
        for cover_name, eta in pairs:
            cover = self.covers.build_cover(g, cover_name)
            reports.append(self.bounds.transfer_bound(g, cover, eta))
        reports.append(self.bounds.star_bound(g))
        reports += self.bounds.classical_bounds(g, k_max=4)
        return reports

    def digest(self, reports):
        """Largest bound at each index, and whether every alpha lies in [0, 2]."""
        top = {}
        alpha_ok = True
        for rep in reports:
            for i, b in zip(rep.indices, rep.bounds):
                top[i] = max(top.get(i, -math.inf), b)
            alpha_ok &= all(-ALPHA_SLACK <= a <= 2.0 + ALPHA_SLACK for a in rep.ingredients.get("alpha", ()))
        return tuple(top.get(i, -math.inf) for i in range(1, max(top) + 1)), alpha_ok

    def reference(self, item, digests):
        g = self.mg.graph_from_json(item[1])
        count = max(len(d[0]) for d in digests)
        return _fd_reference(self.oracle, g, count,
                             min(float(e.length) for e in g.edges) / 16)

    def check(self, item, digest, ref):
        top, alpha_ok = digest
        if not alpha_ok:
            return "an alpha lies outside [0, 2]"
        errs = ref.meta["error_estimates"]
        bad = [i + 1 for i, b in enumerate(top)
               if b > ref.values[i] + errs[i] + BOUND_SLACK]
        return f"bounds above the reference at indices {bad}" if bad else None


class _Oracle:
    """Graph document -> oracle.spectrum(g, count) with method="auto"."""

    def prepare(self, seed, tiny):
        import qgbounds.metric_graph
        import qgbounds.oracle
        self.mg, self.oracle = qgbounds.metric_graph, qgbounds.oracle
        self.items = self.pool(seed, tiny)
        return self.items

    def op(self, item):
        _, doc, count = item
        return self.oracle.spectrum(self.mg.graph_from_json(doc), count=count)


class OracleExact(_Oracle):
    """Rational graphs: the subdivision route."""

    name = "oracle_exact"
    pool = staticmethod(inputs.exact_pool)

    def warm(self):
        self.op(self.items[0])

    def digest(self, res):
        return tuple(float(v) for v in res.values), res.method

    def reference(self, item, digests):
        _, doc, count = item
        g = self.mg.graph_from_json(doc)
        grid = self.mg.rational_gcd([e.length for e in g.edges])
        return _fd_reference(self.oracle, g, count, float(grid) / 40)

    def check(self, item, digest, ref):
        values = digest[0]
        if len(values) != item[2]:
            return f"expected {item[2]} values, got {len(values)}"
        bad = _disagreement(values, ref.values, ref.meta["error_estimates"])
        return f"disagrees with the finite-element reference at {bad}" if bad else None


class OracleFd(_Oracle):
    """Irrational graphs: the finite-element route."""

    name = "oracle_fd"
    pool = staticmethod(inputs.fd_pool)

    def warm(self):
        # one dense and one sparse solve load every solver the pool uses
        self.op(self.items[0])
        self.op(max(self.items, key=lambda it: it[2]))

    def digest(self, res):
        return (tuple(float(v) for v in res.values),
                tuple(res.meta.get("error_estimates", ())), res.meta.get("mesh"))

    def reference(self, item, digests):
        """The same graph on a mesh four times finer than the finest one used."""
        _, doc, count = item
        mesh = min(d[2] for d in digests if d[2] is not None)
        return _fd_reference(self.oracle, self.mg.graph_from_json(doc), count, mesh / 4)

    def check(self, item, digest, ref):
        values, errs, _ = digest
        if len(values) != item[2] or len(errs) != item[2]:
            return f"expected {item[2]} finite-element values with error estimates"
        bound = [e + f for e, f in zip(errs, ref.meta["error_estimates"])]
        bad = _disagreement(values, ref.values, bound)
        return f"disagrees with the finer mesh at {bad}" if bad else None


REPRO_REFERENCE = HERE / "repro_reference.json"


def check_repro(code, out) -> str:
    """None if a `qgb repro --format json` run matches the recorded table.

    The table records 58 rows (46 PASS, 7 FAIL, 5 INFO); the documented exit
    code is 1 because FAIL rows exist.  Each computed value must lie within
    its row's tolerance, or 1e-9 for INFO rows."""
    ref = json.loads(REPRO_REFERENCE.read_text())
    want_code = 1 if any(r["status"] == "FAIL" for r in ref) else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        rows = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if [(r["case"], r["row"], r["status"]) for r in rows] != [
            (r["case"], r["row"], r["status"]) for r in ref]:
        return "row set or statuses differ from the recorded reference"
    off = [f"{r['case']}/{r['row']}" for r, want in zip(rows, ref)
           if not abs(r["computed"] - want["computed"]) <= (
               want["tolerance"] if want["status"] != "INFO" and want["tolerance"]
               else 1e-9)]
    return f"computed values moved: {off}" if off else None


def get(name: str):
    for cls in (BoundsSweep, OracleExact, OracleFd):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (BoundsSweep.name, OracleExact.name, OracleFd.name)
