"""Eigenvalue lower bounds for metric graphs.

The central estimate: given an m-fold cover of a graph by connected
subgraphs, every Laplacian eigenvalue of the whole graph is bounded below
by ((m-1)/m) * eta * alpha_i, where eta is the smallest spectral gap among
the cover elements and alpha_i runs over the normalized-Laplacian spectrum
of the overlap (vicinity) graph.  Everything else in this module is either
a specialization of that estimate (stars, cycles, pumpkin chains) or a
classical whole-graph bound used for comparison.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .covers import Cover, build_cover, pumpkin_cycle_cover, star_cover, validate_cover
from .errors import (
    BadParameter,
    BadSpec,
    EtaUnavailable,
    QGraphError,
)
from .metric_graph import (
    MetricGraph,
    chain_structure,
    four_pumpkin,
    is_cycle_graph,
    is_count,
    is_doubly_connected,
    is_star_graph,
    metric_diameter,
)
from .spectral import eigenvalues_lapack

_log = logging.getLogger(__name__)

PI2 = math.pi**2


def _nonneg(alpha: float) -> float:
    # normalized-Laplacian eigenvalues sit in [0, 2]; anything up to 1e-12
    # is a zero mode seen through rounding, and must not leak into a
    # positive lower bound for an eigenvalue that is exactly zero
    return alpha if alpha > 1e-12 else 0.0


# ---------------------------------------------------------------------------
# eta strategies: rigorous lower bounds for the spectral gap of one element
# ---------------------------------------------------------------------------


def _eta_doubly_connected(sub: MetricGraph) -> float:
    """4 pi^2 / L^2 (Band-Levy): valid for any doubly connected graph of
    total length L."""
    if not is_doubly_connected(sub):
        raise EtaUnavailable("element is not doubly connected", strategy="doubly_connected")
    return 4.0 * PI2 / float(sub.total_length) ** 2


def _eta_exact_cycle(sub: MetricGraph) -> float:
    """Spectral gap of a cycle, 4 pi^2 / L^2: the doubly connected bound,
    attained.  A cycle is connected and bridgeless, so no further check."""
    if not is_cycle_graph(sub):
        raise EtaUnavailable(
            "element is not a cycle", strategy="exact_cycle", vertices=len(sub.vertices)
        )
    return 4.0 * PI2 / float(sub.total_length) ** 2


def _eta_nicaise(sub: MetricGraph) -> float:
    """pi^2 / L^2: valid for any connected graph of total length L."""
    return PI2 / float(sub.total_length) ** 2


def star_gap_bound(sub: MetricGraph) -> float:
    """Best of two gap bounds for a star-shaped element.

    A star (edges sharing one center, parallel edges allowed) of total
    length S with longest edge l satisfies both of

        lambda_2 >= pi^2 / (4 l^2)      (quarter wave on the longest edge)
        lambda_2 >= pi^2 / S^2          (total-length bound)

    and we may take the maximum.  The diameter bound 1 / (D * S) is left
    out: D >= l and S >= l put it at most 1 / l^2 < pi^2 / (4 l^2).
    """
    if not is_star_graph(sub):
        raise EtaUnavailable("element is not a star", strategy="star_best")
    l_max = max(float(e.length) for e in sub.edges)
    total = float(sub.total_length)
    return max(PI2 / (4.0 * l_max**2), PI2 / total**2)


def _eta_oracle(sub: MetricGraph) -> float:
    from . import oracle

    return oracle.spectrum(sub, count=2).gap


ETA_STRATEGIES: Mapping[str, Callable[[MetricGraph], float]] = {
    "exact_cycle": _eta_exact_cycle,
    "doubly_connected": _eta_doubly_connected,
    "nicaise": _eta_nicaise,
    "star_best": star_gap_bound,
    "oracle": _eta_oracle,
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Per-index lower bounds from one method, with its ingredients.

    ``indices[j]`` is the eigenvalue index (1-based, so index 1 is the
    zero eigenvalue) that ``bounds[j]`` applies to.  ``ingredients`` holds
    everything needed to recompute the numbers: the fold, the per-element
    eta values, the alpha spectrum, and any method-specific scalars.
    ``upper_bounds`` maps an index to an upper bound on that eigenvalue;
    it holds only proven upper bounds, and is empty when the method has
    none.
    """

    method: str
    indices: tuple[int, ...]
    bounds: tuple[float, ...]
    ingredients: dict
    upper_bounds: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.bounds):
            raise BadSpec("indices and bounds disagree in length", method=self.method)
        if any(b > a + 1e-12 for a, b in zip(self.bounds[1:], self.bounds)):
            raise BadSpec("bounds not sorted by index", method=self.method)

    def bound(self, index: int) -> float:
        try:
            return self.bounds[self.indices.index(index)]
        except ValueError:
            raise BadParameter(
                "no bound at this index", method=self.method, index=index
            ) from None

    def to_json(self) -> dict:
        out = {
            "method": self.method,
            "indices": list(self.indices),
            "bounds": list(self.bounds),
            "ingredients": _json_clean(self.ingredients),
        }
        if self.upper_bounds:
            out["upper_bounds"] = {str(k): v for k, v in self.upper_bounds.items()}
        if self.flags:
            out["flags"] = list(self.flags)
        return out


def _json_clean(value):
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_clean(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# the transference bound
# ---------------------------------------------------------------------------


def eta_strategy(eta: str) -> Callable[[MetricGraph], float]:
    """The strategy that ``eta`` names in :data:`ETA_STRATEGIES`; any other
    name is a BadParameter that lists the known ones."""
    try:
        return ETA_STRATEGIES[eta]
    except KeyError:
        raise BadParameter("unknown eta strategy", eta=eta, known=sorted(ETA_STRATEGIES)) from None


def transfer_bound(g: MetricGraph, cover: Cover, eta: str = "exact_cycle") -> BoundReport:
    """Lower bounds lambda_i >= ((m-1)/m) * eta * alpha_i from an m-fold cover.

    ``eta`` names a strategy from :data:`ETA_STRATEGIES`; the scale factor is
    the minimum of the strategy's value over all elements.  A disconnected
    vicinity graph is not an error: alpha_2 = 0 then makes the nontrivial
    bounds vanish, and the report is flagged ``disconnected_vicinity``.
    """
    strategy = eta_strategy(eta)
    analysis = validate_cover(g, cover)
    fold = analysis.fold
    spectrum = eigenvalues_lapack(analysis.laplacian())
    alpha = spectrum.values

    eta_per_element = {}
    for label, sub in analysis.subgraphs.items():
        try:
            eta_per_element[label] = strategy(sub)
        except EtaUnavailable as exc:
            raise EtaUnavailable(
                str(exc), element=label, **{k: v for k, v in exc.context.items() if k != "element"}
            ) from None
    eta_value = min(eta_per_element.values())

    flags = []
    if eta == "oracle":
        flags.append("numerically_assisted")
    if not analysis.connected:
        flags.append("disconnected_vicinity")

    prefactor = (fold - 1) / fold * eta_value
    bounds = tuple(prefactor * _nonneg(a) for a in alpha)
    return BoundReport(
        method=f"transfer[{cover.name},{eta}]",
        indices=tuple(range(1, len(alpha) + 1)),
        bounds=bounds,
        ingredients={
            "fold": fold,
            "eta": eta_value,
            "eta_strategy": eta,
            "eta_per_element": eta_per_element,
            "alpha": list(alpha),
            "alpha_residual": spectrum.achieved,
            "cover": cover.name,
            "element_count": len(cover),
        },
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# specialized bounds
# ---------------------------------------------------------------------------


def star_bound(g: MetricGraph) -> BoundReport:
    """Whole-graph bounds from the cover by vertex stars.

    This is :func:`transfer_bound` over :func:`covers.star_cover` with the
    ``star_best`` eta: the star cover has fold 2 and its vicinity graph is
    the length-weighted reduced graph, so

        lambda_i >= (1/2) * min_v star_gap_bound(star at v) * alpha_i

    where alpha_i is the spectrum of that reduced graph.
    """
    return replace(transfer_bound(g, star_cover(g), "star_best"), method="stars")


def pumpkin_chain_bounds(g: MetricGraph) -> BoundReport:
    """Spectral-gap bounds for a locally equilateral pumpkin chain; BadSpec
    when g is not a chain.

    Two lower bounds on lambda_2, in terms of the pumpkin total lengths
    P_i = m_i * l_i and the longest single edge:

      diameter route   lambda_2 >= pi^2/(4 l_max^2) / (sum P_i * sum 1/P_i)
      harmonic route   lambda_2 >= 4 P_min P_max/(P_min+P_max)^2
                                     * pi^2/(4 n^2 l_max^2)

    The harmonic route never beats the diameter route (mean inequality);
    this is asserted.

    The ingredient ``friedlander_lower_lambda_n_plus_1`` is
    (n+1)^2 pi^2 / (4 L^2), Friedlander's lower bound on lambda_{n+1}.  It
    is no upper bound on lambda_2: on a bridgeless chain Band-Levy gives
    lambda_2 >= 4 pi^2/L^2, which exceeds the value for n = 2 and equals it
    for n = 3, where lambda_2 attains it only on symmetric necklaces such
    as (2, 2, 2).  The report therefore claims no upper bound.
    """
    pumpkins = [[g.edge(eid).length for eid in eids] for _, _, eids in chain_structure(g)]
    n = len(pumpkins)
    totals = [sum(ls, start=Fraction(0)) for ls in pumpkins]
    p_lengths = [float(p) for p in totals]
    l_max = float(max(l for ls in pumpkins for l in ls))
    total = float(sum(totals, start=Fraction(0)))

    sum_p = sum(p_lengths)
    sum_inv = sum(1.0 / p for p in p_lengths)
    diam_lower = PI2 / (4.0 * l_max**2) / (sum_p * sum_inv)

    p_min, p_max = min(p_lengths), max(p_lengths)
    harm_lower = (4.0 * p_min * p_max / (p_min + p_max) ** 2) * PI2 / (4.0 * n**2 * l_max**2)
    assert harm_lower <= diam_lower * (1 + 1e-12), (harm_lower, diam_lower)

    return BoundReport(
        method="pumpkin_chain",
        indices=(2,),
        bounds=(diam_lower,),
        ingredients={
            "diameter_route": diam_lower,
            "harmonic_route": harm_lower,
            "pumpkin_lengths": p_lengths,
            "longest_edge": l_max,
            "total_length": total,
            "n": n,
            "friedlander_lower_lambda_n_plus_1": (n + 1) ** 2 * PI2 / (4.0 * total**2),
        },
    )


@dataclass(frozen=True)
class FourPumpkinBounds:
    """Gap bounds for the 4-pumpkin with edge lengths (1, 1, a, a).

    Two cyclic pairings of the edges give two covers: ``grouped`` keeps the
    equal-length edges adjacent, ``alternating`` interleaves them.  The
    closed forms are pi^2/(2 a^2) and 4 pi^2/(a+1)^3; ``better`` records
    which wins ("grouped" exactly when a > 2+sqrt(5), "tie" within 1e-12).
    ``via_cover_*`` are the same numbers recomputed through the generic
    transference machinery on the explicitly built covers.
    """

    a: float
    bound_grouped: float
    bound_alternating: float
    better: str
    via_cover_grouped: float
    via_cover_alternating: float


def four_pumpkin_bounds(a) -> FourPumpkinBounds:
    """Closed-form cover bounds for pumpkin(4, [1, 1, a, a]), a >= 1, with
    a any length :func:`metric_graph.four_pumpkin` takes."""
    g = four_pumpkin(a)
    a = float(g.edges[-1].length)
    grouped = PI2 / (2.0 * a**2)
    alternating = 4.0 * PI2 / (a + 1.0) ** 3

    rep_g = transfer_bound(g, pumpkin_cycle_cover(g, ordering=("e0", "e1", "e3", "e2")), "exact_cycle")
    rep_a = transfer_bound(g, pumpkin_cycle_cover(g, ordering=("e0", "e2", "e1", "e3")), "exact_cycle")

    scale = max(grouped, alternating)
    if abs(grouped - alternating) <= 1e-12 * scale:
        better = "tie"
    elif grouped > alternating:
        better = "grouped"
    else:
        better = "alternating"
    return FourPumpkinBounds(
        a=a,
        bound_grouped=grouped,
        bound_alternating=alternating,
        better=better,
        via_cover_grouped=rep_g.bound(2),
        via_cover_alternating=rep_a.bound(2),
    )


# ---------------------------------------------------------------------------
# classical comparison bounds
# ---------------------------------------------------------------------------


def classical_bounds(g: MetricGraph, k_max: int = 2) -> list[BoundReport]:
    """Whole-graph comparison bounds that need no cover.

    Reports, as separate entries:

      * ``friedlander``: lambda_k >= pi^2 k^2 / (4 L^2) for k = 2..k_max;
      * ``nicaise``: pi^2/L^2 <= lambda_2 <= pi^2 E^2 / L^2;
      * ``band_levy``: lambda_2 >= 4 pi^2/L^2, only for doubly
        (2-edge-)connected graphs, silently omitted otherwise;
      * ``kennedy_style``: lambda_2 >= 1/(diam * L) with the metric
        diameter; the exact constant is a reconstruction, so the entry is
        flagged.
    """
    if not is_count(k_max, 2):
        raise BadParameter("k_max must be an integer >= 2", k_max=k_max)
    total = float(g.total_length)
    n_edges = len(g.edges)

    reports = [
        BoundReport(
            method="friedlander",
            indices=tuple(range(2, k_max + 1)),
            bounds=tuple(PI2 * k**2 / (4.0 * total**2) for k in range(2, k_max + 1)),
            ingredients={"total_length": total},
        ),
        BoundReport(
            method="nicaise",
            indices=(2,),
            bounds=(PI2 / total**2,),
            ingredients={"total_length": total, "edge_count": n_edges},
            upper_bounds={2: PI2 * n_edges**2 / total**2},
        ),
    ]
    if is_doubly_connected(g):
        reports.append(
            BoundReport(
                method="band_levy",
                indices=(2,),
                bounds=(4.0 * PI2 / total**2,),
                ingredients={"total_length": total},
            )
        )
    diam = float(metric_diameter(g))
    reports.append(
        BoundReport(
            method="kennedy_style",
            indices=(2,),
            bounds=(1.0 / (diam * total),),
            ingredients={"total_length": total, "metric_diameter": diam},
            flags=("reconstructed",),
        )
    )
    return reports


# ---------------------------------------------------------------------------
# the comparison table
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("method", "index", "bound", "oracle", "ratio", "ingredients")
_ORACLE_COUNT_CAP = 40  # most oracle values a table asks for


@dataclass(frozen=True)
class CompareRow:
    method: str
    index: int
    bound: float
    oracle: float | None
    ratio: float | None
    ingredients: str


@dataclass(frozen=True)
class CompareTable:
    """Comparison rows; ``oracle_note`` says why the oracle column is empty
    (``"<code>: <message>"``) or stops short (``"from index <n> on: ..."``),
    and is None when every row has an oracle value."""

    rows: tuple[CompareRow, ...]
    oracle_note: str | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([r.method, r.index, _fmt(r.bound),
                             _fmt(r.oracle), _fmt(r.ratio), r.ingredients])
        return buf.getvalue()


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(x)


def _ingredient_summary(report: BoundReport) -> str:
    parts = []
    ing = report.ingredients
    for key in ("fold", "eta", "eta_strategy", "total_length", "metric_diameter"):
        if key in ing:
            val = ing[key]
            parts.append(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}")
    for flag in report.flags:
        parts.append(f"flag:{flag}")
    return ";".join(parts)


def tabulate(
    g: MetricGraph, reports: Sequence[BoundReport], *, with_oracle: bool = True
) -> CompareTable:
    """Turn reports into (method, index) rows with oracle column and ratio.

    When the oracle raises a QGraphError (too large, threshold, mesh) the
    oracle and ratio columns stay empty, and the table's ``oracle_note``
    and a DEBUG log say why; any other exception is a bug and propagates.
    The oracle gives at most _ORACLE_COUNT_CAP values, and the note names
    the first index past them that a row asks for."""
    needed = max((max(r.indices, default=1) for r in reports), default=2)
    oracle_values: Sequence[float] | None = None
    note = None
    if with_oracle:
        from . import oracle

        if needed > _ORACLE_COUNT_CAP:
            note = (f"from index {_ORACLE_COUNT_CAP + 1} on: the oracle gives "
                    f"at most {_ORACLE_COUNT_CAP} values")
        try:
            oracle_values = oracle.spectrum(g, count=min(needed, _ORACLE_COUNT_CAP)).values
        except QGraphError as exc:
            note = f"{exc.code}: {exc}"
            _log.debug("oracle column left empty: %s", note)

    rows = []
    for rep in reports:
        summary = _ingredient_summary(rep)
        for idx, bnd in zip(rep.indices, rep.bounds):
            orc = None
            if oracle_values is not None and idx - 1 < len(oracle_values):
                orc = oracle_values[idx - 1]
            ratio = bnd / orc if orc is not None and orc > 1e-14 else None
            rows.append(CompareRow(rep.method, idx, bnd, orc, ratio, summary))
    rows.sort(key=lambda r: (r.method, r.index))
    return CompareTable(tuple(rows), note)


def compare_report(g: MetricGraph, cover_names: Sequence[str],
                   eta: str = "exact_cycle") -> CompareTable:
    """One row per (method, index): bound, oracle value, tightness ratio.

    Each cover name is a strategy understood by :func:`covers.build_cover`,
    bounded with ``eta``, or ``"stars"``, which goes to :func:`star_bound`:
    it always takes the ``star_best`` eta, since cycle etas do not apply to
    stars and ``star_best`` is never weaker than ``nicaise``.  Classical
    comparison bounds are always appended.  Rows are ordered by method
    name, then index.  Other covers, etas or oracle settings go through
    :func:`tabulate` with the reports built directly.
    """
    reports = [star_bound(g) if name == "stars" else transfer_bound(g, build_cover(g, name), eta)
               for name in cover_names]
    return tabulate(g, reports + classical_bounds(g))
