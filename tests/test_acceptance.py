"""Acceptance gate: ten numbered criteria, one test and one printed
verdict line each.

Criterion 5 asserts chain alpha_2/bound figures that the computed values
do not meet, and fails with both numbers in its text.  Each printed bound
is 1/2 * eta * alpha_2 of its own printed alpha_2, so the disagreement is
in alpha_2 (the cover or the vicinity weighting); a search over every
fold-2 doubly connected cover of the two chains at the implied element
length reproduced none of the printed alpha_2 with shared-length weights,
and the source text is not at hand to settle it.  Every other criterion
must pass.  Criterion 3 keeps the printed icosahedron i=18 figure 1.914,
which is half the value its own ingredients give, as that documented
relation; criterion 7 checks the chain value (n+1)^2 pi^2/(4 L^2) as what
it is, a lower bound on lambda_{n+1}, and every claimed upper bound
against the oracle.  Run with ``pytest tests/test_acceptance.py -s`` to
see the verdict lines for passing criteria too.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from qgbounds import bounds, covers, oracle, repro
from qgbounds import metric_graph as mg
from qgbounds.errors import TooLarge
from qgbounds.spectral import (
    alpha2_sandwich,
    eigenvalues_lapack,
    normalized_laplacian_dense,
)

from conftest import (
    CHAIN_NAMES,
    CORPUS,
    PLATONIC_NAMES,
    PUMPKIN_NAMES,
    corpus_graph,
    corpus_oracle,
    reference_vicinity,
)

PI2 = math.pi ** 2
SQ5 = math.sqrt(5.0)

CLOSED_TOL = 1e-9
ROUNDED_TOL = 5e-3


def _verdict(num: int, name: str, checks: list) -> None:
    """checks: (label, ok, detail) triples; prints the line, then asserts."""
    failures = [f"  {label}: {detail}" for label, ok, detail in checks if not ok]
    line = (f"[criterion {num:02d}] {name}: "
            f"{'FAIL' if failures else 'PASS'} "
            f"({len(checks) - len(failures)}/{len(checks)} checks)")
    print(line)
    assert not failures, line + "\n" + "\n".join(failures)


def _num(label: str, computed: float, expected: float, tol: float,
         note: str = "") -> tuple:
    ok = abs(computed - expected) <= tol
    detail = f"computed {computed:.10g}, expected {expected:.10g} +/-{tol:g}"
    if note:
        detail += f"  ({note})"
    return (label, ok, detail)


# ---------------------------------------------------------------------------
# 1. normalized spectra of the platonic graphs


PLATONIC_ALPHA = {
    "tetrahedron": [(0.0, 1), (4 / 3, 3)],
    "cube": [(0.0, 1), (2 / 3, 3), (4 / 3, 3), (2.0, 1)],
    "octahedron": [(0.0, 1), (1.0, 3), (3 / 2, 2)],
    "dodecahedron": [(0.0, 1), ((3 - SQ5) / 3, 3), (2 / 3, 5), (1.0, 4),
                     (5 / 3, 4), ((3 + SQ5) / 3, 3)],
    "icosahedron": [(0.0, 1), ((5 - SQ5) / 5, 3), (6 / 5, 5),
                    ((5 + SQ5) / 5, 3)],
}


def test_criterion_01_platonic_normalized_spectra():
    checks = []
    for name in PLATONIC_NAMES:
        # the star vicinity of an equilateral graph is its vertex graph
        g = corpus_graph(name)
        vicinity = covers.vicinity_graph(g, covers.star_cover(g))
        got = eigenvalues_lapack(normalized_laplacian_dense(*vicinity)).values
        want = [v for v, m in PLATONIC_ALPHA[name] for _ in range(m)]
        dev = max(abs(a - b) for a, b in zip(got, want))
        checks.append((f"{name} alpha list", len(got) == len(want)
                       and dev <= CLOSED_TOL, f"max deviation {dev:.3g}"))
    _verdict(1, "platonic normalized spectra", checks)


# ---------------------------------------------------------------------------
# 2. equilateral gap transcription


def test_criterion_02_icosahedron_gap():
    gap = corpus_oracle("icosahedron").gap
    closed = math.acos(SQ5 / 5) ** 2
    checks = [
        _num("gap vs closed form", gap, closed, CLOSED_TOL),
        _num("gap vs rounded 1.226", gap, 1.226, 1e-3),
    ]
    _verdict(2, "icosahedron spectral gap", checks)


# ---------------------------------------------------------------------------
# 3. transference reproductions


def test_criterion_03_transference_reproductions():
    icosa = corpus_graph("icosahedron")
    tetra = corpus_graph("tetrahedron")
    cube = corpus_graph("cube")

    icosa_faces = bounds.transfer_bound(icosa, covers.face_cover(icosa),
                                        "exact_cycle")
    icosa_star = bounds.star_bound(icosa)
    tetra_faces = bounds.transfer_bound(tetra, covers.face_cover(tetra),
                                        "exact_cycle")
    tetra_star = bounds.star_bound(tetra)
    tetra_diamond = bounds.transfer_bound(tetra, covers.face_pair_cover(tetra),
                                          "exact_cycle")
    cube_six = bounds.transfer_bound(cube, covers.face_pair_cover(cube),
                                     "exact_cycle")
    fried = {r.method: r for r in
             bounds.classical_bounds(icosa, k_max=18)}["friedlander"]

    checks = [
        _num("icosahedron faces i=2 closed", icosa_faces.bound(2),
             2 * PI2 * (3 - SQ5) / 27, CLOSED_TOL),
        _num("icosahedron faces i=2 rounded", icosa_faces.bound(2),
             0.558, ROUNDED_TOL),
        _num("icosahedron stars i=2 closed", icosa_star.bound(2),
             PI2 * (5 - SQ5) / 40, CLOSED_TOL),
        _num("icosahedron stars i=2 rounded", icosa_star.bound(2),
             0.682, ROUNDED_TOL),
        _num("tetrahedron faces i=2", tetra_faces.bound(2),
             8 * PI2 / 27, CLOSED_TOL),
        _num("tetrahedron stars i=2", tetra_star.bound(2),
             PI2 / 6, CLOSED_TOL),
        _num("tetrahedron diamonds i=2", tetra_diamond.bound(2),
             3 * PI2 / 16, CLOSED_TOL),
        _num("cube sixfold i=2", cube_six.bound(2), 8 * PI2 / 81, CLOSED_TOL),
        _num("cube sixfold i=11", cube_six.bound(11), PI2 / 9, CLOSED_TOL),
    ]

    grouped = eigenvalues_lapack(
        covers.validate_cover(cube, covers.face_pair_cover(cube)).laplacian()).grouped()
    want_groups = [(0.0, 1), (16 / 15, 9), (6 / 5, 2)]
    ok = (len(grouped) == 3
          and all(m == wm and abs(v - wv) <= CLOSED_TOL
                  for (v, m), (wv, wm) in zip(grouped, want_groups)))
    checks.append(("cube sixfold overlap spectrum {0,16/15^9,6/5^2}",
                   ok, f"got {[(round(v, 6), m) for v, m in grouped]}"))

    # i=18: ((m-1)/m) * eta * alpha_18 = 1/2 * 4pi^2/9 * (3+sqrt5)/3, the
    # same formula that gives i=2 above; alpha_18 is the dodecahedron's
    # top value (criterion 1).  The printed 1.914 is half of it, a
    # documented misprint, so it is checked as that relation.
    i18 = icosa_faces.bound(18)
    checks.append(_num("icosahedron faces i=18 closed", i18,
                       2 * (3 + SQ5) * PI2 / 27, CLOSED_TOL))
    checks.append(_num("icosahedron faces i=18 printed at half", i18 / 2,
                       1.914, ROUNDED_TOL))
    lam18 = oracle.spectrum(icosa, count=18).values[17]
    checks.append(("icosahedron faces i=18 below the oracle", i18 <= lam18,
                   f"bound {i18:.10g} > lambda_18 {lam18:.10g}"))
    checks.append(_num("friedlander i=18 closed", fried.bound(18),
                       324 * PI2 / 3600, CLOSED_TOL))
    checks.append(_num("friedlander i=18 rounded", fried.bound(18),
                       0.888, ROUNDED_TOL))
    _verdict(3, "transference reproductions", checks)


# ---------------------------------------------------------------------------
# 4. crossover patterns


def test_criterion_04_crossover_patterns():
    checks = []

    icosa = corpus_graph("icosahedron")
    faces = bounds.transfer_bound(icosa, covers.face_cover(icosa),
                                  "exact_cycle")
    star = bounds.star_bound(icosa)
    common = range(2, len(star.indices) + 1)
    star_wins = [i for i in common if star.bound(i) > faces.bound(i)]
    checks.append(("icosahedron: stars win the eight lowest",
                   star_wins == list(range(2, 10)), f"star wins {star_wins}"))
    faces_only = [i for i in faces.indices if i > len(star.indices)]
    faces_wins = [i for i in common if faces.bound(i) > star.bound(i)]
    remaining = faces_wins + faces_only
    checks.append(("icosahedron: faces win the remaining eleven",
                   remaining == list(range(10, 21)) and len(remaining) == 11,
                   f"faces win {remaining}"))

    dodeca = corpus_graph("dodecahedron")
    dfaces = bounds.transfer_bound(dodeca, covers.face_cover(dodeca),
                                   "exact_cycle")
    dstar = bounds.star_bound(dodeca)
    dcommon = range(2, len(dfaces.indices) + 1)
    dfaces_wins = [i for i in dcommon if dfaces.bound(i) > dstar.bound(i)]
    checks.append(("dodecahedron: faces win i=2..9",
                   dfaces_wins == list(range(2, 10)),
                   f"faces win {dfaces_wins}"))
    dstar_wins = [i for i in dcommon if dstar.bound(i) > dfaces.bound(i)]
    checks.append(("dodecahedron: stars win i=10..12",
                   dstar_wins == [10, 11, 12], f"star wins {dstar_wins}"))

    # the winner at every common index follows the 16/n^2 alpha criterion
    for label, frep, srep, n in (("icosahedron", faces, star, 3),
                                 ("dodecahedron", dfaces, dstar, 5)):
        agree = True
        top = min(len(frep.indices), len(srep.indices))
        for i in range(2, top + 1):
            af = frep.ingredients["alpha"][i - 1]
            av = srep.ingredients["alpha"][i - 1]
            predicted = (16 / n ** 2) * af > av
            if predicted != (frep.bound(i) > srep.bound(i)):
                agree = False
        checks.append((f"{label}: 16/{n * n} criterion decides each index",
                       agree, "prediction mismatch"))
    _verdict(4, "crossover patterns", checks)


# ---------------------------------------------------------------------------
# 5. pumpkin chain figures


def test_criterion_05_pumpkin_chain_figures():
    figures = {
        ("chain_324", "layered"): (0.629, 0.345),
        ("chain_324", "concatenated"): (0.229, 0.282),
        ("chain_342", "layered"): (0.974, 0.533),
        ("chain_342", "concatenated"): (0.322, 0.398),
    }
    checks = []
    for (name, strat), (alpha2, bound2) in figures.items():
        g = corpus_graph(name)
        rep = bounds.transfer_bound(g, covers.build_cover(g, strat),
                                    "doubly_connected")
        checks.append(_num(f"{name} {strat} alpha2",
                           rep.ingredients["alpha"][1], alpha2, ROUNDED_TOL))
        checks.append(_num(f"{name} {strat} bound",
                           rep.bound(2), bound2, ROUNDED_TOL))
    bl = {r.method: r for r in
          bounds.classical_bounds(corpus_graph("chain_324"))}["band_levy"]
    checks.append(_num("chain_324 band_levy closed", bl.bound(2),
                       4 * PI2 / 81, CLOSED_TOL))
    checks.append(_num("chain_324 band_levy rounded", bl.bound(2),
                       0.487, ROUNDED_TOL))
    _verdict(5, "pumpkin chain figures", checks)


# ---------------------------------------------------------------------------
# 6. the four-pumpkin family


def test_criterion_06_four_pumpkin_family():
    checks = []
    crossover = 2 + SQ5
    for a in (1.0, 2.0, crossover, 5.0, 10.0):
        fp = bounds.four_pumpkin_bounds(a)
        checks.append(_num(f"a={a:g} grouped cover", fp.via_cover_grouped,
                           PI2 / (2 * a * a), CLOSED_TOL))
        checks.append(_num(f"a={a:g} alternating cover",
                           fp.via_cover_alternating, 4 * PI2 / (a + 1) ** 3,
                           CLOSED_TOL))

    at = bounds.four_pumpkin_bounds(crossover)
    checks.append(_num("crossover point: formulas coincide",
                       at.bound_grouped, at.bound_alternating, CLOSED_TOL))
    checks.append(("crossover point: reported as tie", at.better == "tie",
                   f"better={at.better}"))
    below = bounds.four_pumpkin_bounds(crossover * (1 - 1e-6))
    above = bounds.four_pumpkin_bounds(crossover * (1 + 1e-6))
    checks.append(("alternating wins just below", below.better == "alternating",
                   f"better={below.better}"))
    checks.append(("grouped wins just above", above.better == "grouped",
                   f"better={above.better}"))

    for a in (1, 2, 4):
        res = oracle.spectrum(mg.four_pumpkin(Fraction(a)), 2)
        checks.append(_num(f"a={a} oracle gap", res.gap, PI2 / a ** 2, 1e-6,
                           note=f"method {res.method}"))
        checks.append((f"a={a} oracle used exact route",
                       res.method == "subdivision", res.method))
    _verdict(6, "four-pumpkin family", checks)


# ---------------------------------------------------------------------------
# 7. corpus soundness


def _sweep_reports(name: str, g: mg.MetricGraph) -> list:
    reports = [bounds.star_bound(g)]
    reports += bounds.classical_bounds(g, k_max=6)
    reports.append(bounds.transfer_bound(
        g, covers.copies_cover(g, 2), "doubly_connected"))
    if name in PLATONIC_NAMES:
        reports.append(bounds.transfer_bound(
            g, covers.face_cover(g), "exact_cycle"))
        if name in ("tetrahedron", "cube"):
            reports.append(bounds.transfer_bound(
                g, covers.face_pair_cover(g), "exact_cycle"))
    else:
        reports.append(bounds.transfer_bound(
            g, covers.pumpkin_cycle_cover(g), "exact_cycle"))
        if name in CHAIN_NAMES:
            for strat in ("layered", "concatenated"):
                reports.append(bounds.transfer_bound(
                    g, covers.build_cover(g, strat), "doubly_connected"))
        reports.append(bounds.pumpkin_chain_bounds(g))
    return reports


def test_criterion_07_corpus_soundness():
    checks = []
    for name in CORPUS:
        g = corpus_graph(name)
        orc = corpus_oracle(name)
        offenders = []
        short = []
        for rep in _sweep_reports(name, g):
            for idx, bnd in zip(rep.indices, rep.bounds):
                if idx <= len(orc) and bnd > orc[idx - 1] + 1e-6:
                    offenders.append(
                        f"{rep.method} i={idx}: {bnd:.6g} > {orc[idx - 1]:.6g}")
            for idx, up in rep.upper_bounds.items():
                if idx <= len(orc) and up < orc[idx - 1] - 1e-6:
                    short.append(
                        f"{rep.method} i={idx}: {up:.6g} < {orc[idx - 1]:.6g}")
        checks.append((f"{name}: lower bounds below the oracle",
                       not offenders, "; ".join(offenders)))
        checks.append((f"{name}: upper bounds above the oracle",
                       not short, "; ".join(short)))
    # (n+1)^2 pi^2/(4 L^2) bounds lambda_{n+1} from below; it is no upper
    # bound on lambda_2, so the chain report must not claim one
    for name in CHAIN_NAMES:
        rep = bounds.pumpkin_chain_bounds(corpus_graph(name))
        checks.append((f"{name}: chain report claims no upper bound",
                       rep.upper_bounds == {}, f"{rep.upper_bounds}"))
        value = rep.ingredients["friedlander_lower_lambda_n_plus_1"]
        n = rep.ingredients["n"]
        lam = corpus_oracle(name, count=n + 1)[n]
        checks.append((f"{name}: (n+1)^2 value below lambda_{n + 1}",
                       value <= lam + 1e-6,
                       f"value {value:.6g} > oracle {lam:.6g}"))
    _verdict(7, "corpus soundness", checks)


# ---------------------------------------------------------------------------
# 8. exact structural identities


def _cover_inventory(names) -> list:
    out = []
    for name in names:
        g = corpus_graph(name)
        out.append((name, "stars", g, covers.star_cover(g)))
        out.append((name, "copies:2", g, covers.copies_cover(g, 2)))
        if name in PLATONIC_NAMES:
            out.append((name, "faces", g, covers.face_cover(g)))
            if name in ("tetrahedron", "cube"):
                out.append((name, "face_pairs", g, covers.face_pair_cover(g)))
        else:
            out.append((name, "pumpkin_cycles", g,
                        covers.pumpkin_cycle_cover(g)))
            if name in CHAIN_NAMES:
                out.append((name, "layered", g,
                            covers.layered_chain_cover(g)))
                out.append((name, "concatenated", g,
                            covers.concatenated_chain_cover(g)))
    return out


def test_criterion_08_exact_structural_identities():
    rational = [n for n in CORPUS if n != "four_pumpkin_golden"]
    checks = []
    for name, label, g, cover in _cover_inventory(rational):
        rep = covers.validate_cover(g, cover)
        m = rep.fold
        ref = reference_vicinity(g, cover)
        degrees = ref.sum(axis=1)
        degrees_ok = all(
            degree == (m - 1) * rep.subgraphs[lbl].total_length
            for (lbl, _), degree in zip(cover.elements, degrees))
        volume_ok = degrees.sum() == m * (m - 1) * g.total_length
        residual = covers.proof_identity_residual(g, cover, ref)
        ok = degrees_ok and volume_ok and residual <= 1e-12
        checks.append((f"{name}/{label}: degree, volume, overlap identity",
                       ok, f"degrees {degrees_ok}, volume {volume_ok}, "
                           f"residual {residual:.3g}"))
    for name, m in (("tetrahedron", 2), ("octahedron", 3), ("chain_222", 2)):
        g = corpus_graph(name)
        rep = bounds.transfer_bound(g, covers.copies_cover(g, m), "oracle")
        gap = corpus_oracle(name).gap
        checks.append(_num(f"{name} copies:{m} equality at i=2",
                           rep.bound(2), gap, 1e-6))
    _verdict(8, "exact structural identities", checks)


# ---------------------------------------------------------------------------
# 9. two-sided bracket on every overlap graph


def test_criterion_09_alpha2_sandwich():
    checks = []
    for name, label, g, cover in _cover_inventory(list(CORPUS)):
        rep = covers.validate_cover(g, cover)
        alpha2 = eigenvalues_lapack(rep.laplacian()).values[1]
        tag = f"{name}/{label}"
        if not rep.connected:
            checks.append((f"{tag}: disconnected overlap has alpha2 = 0",
                           alpha2 <= 1e-12, f"alpha2 {alpha2:.3g}"))
            continue
        try:
            s = alpha2_sandwich(*rep.vicinity())
        except TooLarge as exc:
            checks.append((f"{tag}: over the exhaustive-cut cap",
                           True, str(exc)))
            continue
        ok = s.lower - 1e-12 <= alpha2 <= s.upper + 1e-12
        checks.append((f"{tag}: bracket holds", ok,
                       f"{s.lower:.6g} <= {alpha2:.6g} <= {s.upper:.6g}"))
    _verdict(9, "alpha2 sandwich on overlap graphs", checks)


# ---------------------------------------------------------------------------
# 10. documented discrepancies stay informational


def test_criterion_10_documented_discrepancies():
    rows = {r.row: r for r in repro.run_case("chain_324")}
    kennedy = rows["kennedy_style"]
    printed = rows["diam_route.printed"]
    checks = [
        ("kennedy row is INFO", kennedy.status == "INFO", kennedy.status),
        _num("kennedy computed value", kennedy.computed, 1 / 27, CLOSED_TOL),
        ("kennedy reference figure", kennedy.expected == 0.055,
         f"{kennedy.expected}"),
        ("diameter-route row is INFO", printed.status == "INFO",
         printed.status),
        _num("diameter-route computed value", printed.computed, PI2 / 39,
             CLOSED_TOL),
        ("diameter-route reference figure", printed.expected == 0.244,
         f"{printed.expected}"),
        ("INFO rows never fail a run",
         repro.all_pass([kennedy, printed, rows["upper.vs.gap"]]), ""),
        ("clean case passes end to end",
         repro.all_pass(repro.run_case("icosahedron")), ""),
    ]
    _verdict(10, "documented discrepancies stay informational", checks)
