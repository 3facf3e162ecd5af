"""Reproduction tables: computed values against published reference figures.

Each case rebuilds one worked example from scratch and compares against an
embedded expected-value table.  Closed forms are checked at 1e-9, rounded
reference figures at +/-0.005.  Rows where the computed value is known to
disagree with the reference as printed are emitted as INFO rows: they show
both numbers but never count as PASS or FAIL.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import bounds, covers, oracle
from . import metric_graph as mg
from .errors import BadParameter, UnknownFamily

PI2 = math.pi**2
SQ5 = math.sqrt(5.0)

CLOSED_FORM_TOL = 1e-9
ROUNDED_TOL = 5e-3


@dataclass(frozen=True)
class Row:
    case: str
    row: str
    computed: float
    expected: Optional[float]
    tolerance: Optional[float]
    status: str
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _check(case: str, row: str, computed: float, expected: float,
           tol: float, note: str = "") -> Row:
    status = "PASS" if abs(computed - expected) <= tol else "FAIL"
    return Row(case, row, computed, expected, tol, status, note)


def _info(case: str, row: str, computed: float, reference: float, note: str) -> Row:
    return Row(case, row, computed, reference, None, "INFO", note)


def _both(case: str, row: str, computed: float, closed: float,
          rounded: Optional[float] = None, note: str = "") -> list:
    """A closed-form check plus, when available, a rounded-figure check."""
    rows = [_check(case, f"{row}.closed", computed, closed, CLOSED_FORM_TOL, note)]
    if rounded is not None:
        rows.append(_check(case, f"{row}.rounded", computed, rounded, ROUNDED_TOL))
    return rows


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _case_icosahedron() -> list:
    case = "icosahedron"
    g = mg.generate("platonic:icosahedron")
    rows = []

    gap = oracle.spectrum(g, count=2).gap
    rows += _both(case, "gap", gap, math.acos(SQ5 / 5) ** 2, 1.226)

    faces = bounds.transfer_bound(g, covers.build_cover(g, "faces"), "exact_cycle")
    rows += _both(case, "faces.i2", faces.bound(2), 2 * PI2 * (3 - SQ5) / 27, 0.558)

    star = bounds.star_bound(g)
    rows += _both(case, "star.i2", star.bound(2), PI2 * (5 - SQ5) / 40, 0.682)

    cls = {r.method: r for r in bounds.classical_bounds(g, k_max=18)}
    rows += _both(case, "kennedy_style", cls["kennedy_style"].bound(2), 1 / 90, 0.011)
    rows += _both(case, "band_levy", cls["band_levy"].bound(2), PI2 / 225, 0.044)
    rows += _both(case, "friedlander.i18", cls["friedlander"].bound(18),
                  324 * PI2 / 3600, 0.888)

    rows.append(_info(
        case, "faces.i18", faces.bound(18), 1.914,
        "computed 2*pi^2*(3+sqrt5)/27; the reference prints half of that"))
    return rows


def _case_dodecahedron() -> list:
    case = "dodecahedron"
    g = mg.generate("platonic:dodecahedron")
    rows = []
    gap = oracle.spectrum(g, count=2).gap
    rows += _both(case, "gap", gap, math.acos(SQ5 / 3) ** 2)
    star = bounds.star_bound(g)
    rows += _both(case, "star.i10", star.bound(10), PI2 / 8)
    rows.append(_info(
        case, "star.i10.label", star.bound(10), PI2 / 8,
        "the reference labels this estimate with index 9; sorted position is 10"))
    faces = bounds.transfer_bound(g, covers.build_cover(g, "faces"), "exact_cycle")
    rows += _both(case, "faces.i2", faces.bound(2), 2 * PI2 * (5 - SQ5) / 125)
    return rows


def _solid_case(name: str, gap: float, faces: float, star: float) -> list:
    """A platonic solid's gap and its face and star bounds at index 2,
    against their closed forms."""
    g = mg.generate(f"platonic:{name}")
    rows = _both(name, "gap", oracle.spectrum(g, count=2).gap, gap)
    rep = bounds.transfer_bound(g, covers.build_cover(g, "faces"), "exact_cycle")
    rows += _both(name, "faces.i2", rep.bound(2), faces)
    rows += _both(name, "star.i2", bounds.star_bound(g).bound(2), star)
    return rows


def _case_tetrahedron_diamond() -> list:
    case = "tetrahedron_diamond"
    g = mg.generate("platonic:tetrahedron")
    rep = bounds.transfer_bound(g, covers.build_cover(g, "face_pairs"), "exact_cycle")
    rows = _both(case, "diamond.i2", rep.bound(2), 3 * PI2 / 16)
    alpha = rep.ingredients["alpha"]
    rows += _both(case, "alpha.i2", alpha[1], 3 / 2)
    return rows


def _case_cube_sixfold() -> list:
    case = "cube_sixfold"
    g = mg.generate("platonic:cube")
    rep = bounds.transfer_bound(g, covers.build_cover(g, "face_pairs"), "exact_cycle")
    alpha = rep.ingredients["alpha"]
    rows = []
    rows += _both(case, "bound.i2", rep.bound(2), 8 * PI2 / 81)
    rows += _both(case, "bound.i11", rep.bound(11), PI2 / 9)
    rows += _both(case, "alpha.i2", alpha[1], 16 / 15)
    rows += _both(case, "alpha.i11", alpha[10], 6 / 5)
    rows.append(_check(case, "fold", rep.ingredients["fold"], 6, 0))
    return rows


def _chain_case(case: str, g: mg.MetricGraph, expect) -> list:
    """Shared body for the two worked pumpkin chains (unit lengths)."""
    rows = []
    for strat in ("layered", "concatenated"):
        rep = bounds.transfer_bound(g, covers.build_cover(g, strat), "doubly_connected")
        alpha2 = rep.ingredients["alpha"][1]
        rows.append(_check(case, f"{strat}.alpha2", alpha2,
                           expect[strat]["alpha2"], ROUNDED_TOL))
        rows.append(_check(case, f"{strat}.bound", rep.bound(2),
                           expect[strat]["bound"], ROUNDED_TOL))
        rows += _both(case, f"{strat}.eta", rep.ingredients["eta"],
                      expect[strat]["eta"])
    return rows


def _case_chain_324() -> list:
    case = "chain_324"
    expect = {
        "layered": {"alpha2": 0.629, "bound": 0.345, "eta": PI2 / 9},
        "concatenated": {"alpha2": 0.229, "bound": 0.282, "eta": PI2 / 4},
    }
    g = mg.pumpkin_chain((3, 2, 4))
    rows = _chain_case(case, g, expect)

    cls = {r.method: r for r in bounds.classical_bounds(g)}
    rows += _both(case, "band_levy", cls["band_levy"].bound(2), 4 * PI2 / 81, 0.487)

    chain = bounds.pumpkin_chain_bounds(g)
    rows += _both(case, "diam_route", chain.bound(2), PI2 / 39)
    friedlander_n1 = chain.ingredients["friedlander_lower_lambda_n_plus_1"]
    rows += _both(case, "upper", friedlander_n1, 4 * PI2 / 81,
                  note="(n+1)^2 pi^2/(4 L^2) with n = 3: Friedlander's lower "
                       "bound on lambda_4, stated as an upper bound on lambda_2")

    gap = oracle.spectrum(g, count=2).gap
    rows.append(_info(
        case, "kennedy_style", cls["kennedy_style"].bound(2), 0.055,
        "formula value 1/27; not reproducible as printed"))
    rows.append(_info(
        case, "diam_route.printed", chain.bound(2), 0.244,
        "formula value pi^2/39 ~ 0.253; the printed figure matches the "
        "harmonic variant 2*pi^2/81 ~ 0.2437 instead"))
    rows.append(_info(
        case, "upper.vs.gap", gap, friedlander_n1,
        "the stated upper bound is a lower bound: it equals Band-Levy's "
        "4 pi^2/L^2 <= lambda_2, attained only on symmetric necklaces"))
    return rows


def _case_chain_342() -> list:
    case = "chain_342"
    expect = {
        "layered": {"alpha2": 0.974, "bound": 0.533, "eta": PI2 / 9},
        "concatenated": {"alpha2": 0.322, "bound": 0.398, "eta": PI2 / 4},
    }
    return _chain_case(case, mg.pumpkin_chain((3, 4, 2)), expect)


def _case_four_pumpkin(a) -> list:
    g = mg.four_pumpkin(a)
    a = float(a)
    case = f"four_pumpkin({a:g})"
    fp = bounds.four_pumpkin_bounds(a)
    rows = []
    rows += _both(case, "grouped", fp.bound_grouped, PI2 / (2 * a * a))
    rows += _both(case, "alternating", fp.bound_alternating, 4 * PI2 / (a + 1) ** 3)
    rows.append(_check(case, "grouped.via_cover", fp.via_cover_grouped,
                       fp.bound_grouped, CLOSED_FORM_TOL))
    rows.append(_check(case, "alternating.via_cover", fp.via_cover_alternating,
                       fp.bound_alternating, CLOSED_FORM_TOL))

    # the two formulas coincide at a = 1 as well as at the crossover, so
    # both boundaries get a dead zone where "tie" is acceptable
    crossover = 2 + SQ5
    if abs(a - crossover) <= 1e-9:
        ok = fp.better in ("tie", "grouped", "alternating")
    elif abs(a - 1.0) <= 1e-9:
        ok = fp.better in ("tie", "alternating")
    elif a > crossover:
        ok = fp.better == "grouped"
    else:
        ok = fp.better == "alternating"
    rows.append(Row(case, "better", fp.bound_grouped - fp.bound_alternating, None, None,
                    "PASS" if ok else "FAIL",
                    f"better={fp.better}, crossover at 2+sqrt5"))

    res = oracle.spectrum(g, count=2)
    tol = 1e-6 if res.method == "subdivision" else 1e-3
    rows.append(_check(case, "gap", res.gap, PI2 / (a * a), tol,
                       f"oracle method {res.method}"))
    return rows


CASES: dict[str, Callable[[], list]] = {
    "icosahedron": _case_icosahedron,
    "dodecahedron": _case_dodecahedron,
    "cube": functools.partial(_solid_case, "cube", math.acos(1 / 3) ** 2,
                              PI2 / 8, PI2 / 12),
    "octahedron": functools.partial(_solid_case, "octahedron", PI2 / 4,
                                    4 * PI2 / 27, PI2 / 8),
    "tetrahedron": functools.partial(_solid_case, "tetrahedron",
                                     math.acos(-1 / 3) ** 2, 8 * PI2 / 27, PI2 / 6),
    "tetrahedron_diamond": _case_tetrahedron_diamond,
    "cube_sixfold": _case_cube_sixfold,
    "chain_324": _case_chain_324,
    "chain_342": _case_chain_342,
}

#: parameter used for the four-pumpkin case when running every case
DEFAULT_FOUR_PUMPKIN_A = 2.0


def case_ids() -> list:
    return sorted(CASES) + ["four_pumpkin(a)"]


def run_case(case_id: str) -> list:
    """Rows for one case; the four-pumpkin id carries its parameter."""
    m = re.fullmatch(r"four_pumpkin\(([^)]*)\)", case_id.strip())
    if m:
        try:
            a = Fraction(m.group(1).strip())
        except (ValueError, ZeroDivisionError):
            raise BadParameter(f"bad four_pumpkin parameter {m.group(1)!r}") from None
        return _case_four_pumpkin(a)
    try:
        return CASES[case_id]()
    except KeyError:
        raise UnknownFamily(
            f"unknown repro case {case_id!r}", known=case_ids()) from None


def run_all() -> list:
    rows = []
    for cid in sorted(CASES):
        rows.extend(CASES[cid]())
    rows.extend(_case_four_pumpkin(DEFAULT_FOUR_PUMPKIN_A))
    return rows


def all_pass(rows) -> bool:
    return not any(r.status == "FAIL" for r in rows)


def format_rows(rows) -> str:
    if not rows:
        return ""
    widths = [
        max(len(r.case) for r in rows),
        max(len(r.row) for r in rows),
    ]
    lines = []
    for r in rows:
        exp = "" if r.expected is None else f"{r.expected:.10g}"
        tol = "" if r.tolerance is None else f"+/-{r.tolerance:g}"
        line = (f"{r.status:4} {r.case:{widths[0]}} {r.row:{widths[1]}} "
                f"computed={r.computed:.10g}")
        if exp:
            line += f" expected={exp}"
        if tol:
            line += f" {tol}"
        if r.note:
            line += f"  # {r.note}"
        lines.append(line)
    return "\n".join(lines)
