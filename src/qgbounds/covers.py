"""Edge covers of metric graphs and their vicinity graphs.

A cover is a finite family of edge subsets ("elements") such that every
edge of the host graph lies in the same number m of elements.  The
vicinity graph has one vertex per element and connects two elements by the
total length of the edges they share; it exists only as arrays, the
weights and degrees of ``CoverReport.vicinity``.  Everything downstream
(transference bounds) consumes covers only through this module.

With J the 0/1 element x edge incidence and k the edges' lengths, the
shared lengths are W = (J k) J^T, the element lengths its diagonal J k,
and the vicinity degrees (m-1) J k.  W is accumulated edge by edge: each
edge adds its k to the entries of every pair of elements that contain it.
A rational graph is analysed on its integer grid (``MetricGraph.grid``):
k holds the edges' step counts, and each entry becomes a float once, as
the correctly rounded w p / q, so no fraction is ever summed.  On a graph
with a float length k holds the lengths themselves, so each entry is a
sum of Python numbers in graph edge order, whatever the hash seed.

A cover is built and analysed once per graph: :func:`build_cover` keeps
each ``Cover`` it builds in the graph's own instance dict, keyed by the
strategy's name, and :func:`validate_cover` keeps each ``CoverReport``
there too, keyed by the cover's content (labels and edge ids, not its
name).  So every bound drawn from one strategy on one graph, with any eta,
shares one immutable cover and one read-only report, and both live as
long as the graph.

Cover JSON format::

    {"name": "...", "elements": {"label": ["e0", "e3", ...], ...}}

Element order inside the file is preserved; the fold number m is always
recomputed from the data, never trusted from a file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import metric_graph as mg
from .errors import (
    BadParameter,
    BadSpec,
    Disconnected,
    DisconnectedElement,
    NotBridgeless,
    NotUniform,
    ParseError,
    TooLarge,
)
from .spectral import normalized_laplacian_dense

_EXACT_FLOAT = 2**53  # integers below it are exact as floats
# Most elements in a cover.  An analysis builds m x m arrays and LAPACK
# solves an m x m eigenproblem, so the cost of ``qgb bounds --no-oracle``
# grows like m^2 to m^3.  On a 2-CPU x86 host with one BLAS thread, a fresh
# process took, for the star cover of a cycle of m edges, 0.5 s and 89 MiB
# of RSS at m = 1000, 0.8 s and 157 MiB at 1500, and 1.6 s and 253 MiB at
# 2000; for m copies of a tetrahedron, 0.6 s and 140 MiB at 1000, 1.6 s and
# 282 MiB at 1500, and 2.8 s and 478 MiB at 2000.
_ELEMENT_CAP = 1000


@dataclass(frozen=True)
class Cover:
    name: str
    elements: tuple  # tuple of (label, tuple of edge ids)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CoverReport:
    """A valid cover's fold, element subgraphs (label -> MetricGraph, in
    cover order) and overlap matrix: ``overlap[i, j]`` is the length that
    elements i and j share, and ``overlap[i, i]`` element i's length, both
    entries of W = (J k) J^T.  On a rational graph the overlaps are
    integer steps of ``grid`` (int64, or Python ints where int64 could
    overflow); otherwise ``grid`` is None and they are the lengths
    themselves, each summed in graph edge order.  The vicinity graph is
    read from the overlaps as float arrays by :meth:`vicinity`.

    One report is shared by every caller that validates the same cover
    content on the same graph, and lives as long as that graph, so it is
    read-only: ``subgraphs`` is a read-only mapping and ``overlap`` a
    read-only array."""

    fold: int
    subgraphs: Mapping
    overlap: np.ndarray
    grid: Optional[mg.Grid]

    def floats(self, steps: np.ndarray) -> np.ndarray:
        """Overlaps, or integer combinations of them, as float lengths: on
        the grid the correctly rounded steps * p / q of each entry."""
        if self.grid is None:
            return steps.astype(float)
        p, q = self.grid.p, self.grid.q
        if q < _EXACT_FLOAT and max(int(steps.max()), 1) * p < _EXACT_FLOAT:
            return steps.astype(float) * p / q  # exact up to the one division
        return (steps.astype(object) * p / q).astype(float)  # in Python ints

    def vicinity(self) -> tuple:
        """The vicinity graph as ``(weights, degrees)``, float lengths in
        cover order: the weights are the overlaps with a zero diagonal,
        and the degrees (m-1) times the element lengths."""
        shared = self.overlap.copy()
        np.fill_diagonal(shared, 0)
        degrees = (self.fold - 1) * self.overlap.diagonal()
        return self.floats(shared), self.floats(degrees)

    def laplacian(self) -> np.ndarray:
        """Symmetric normalized Laplacian of the vicinity graph."""
        return normalized_laplacian_dense(*self.vicinity())

    @cached_property
    def connected(self) -> bool:
        """Whether the vicinity graph is connected."""
        rows, cols = np.nonzero(self.overlap)
        pairs = zip(rows.tolist(), cols.tolist())
        return len(mg.connected_components(range(len(self.overlap)), pairs)) <= 1


def validate_cover(g: mg.MetricGraph, cover: Cover) -> CoverReport:
    """Check the fold is uniform and build each element's subgraph, which
    refuses a disconnected element; return the fold, the element subgraphs
    and the overlaps.

    The first call for a graph and a cover's content (its labels and edge
    ids, compared by ``==``; its name plays no part) analyses the cover;
    later calls return the same read-only report, kept in the graph's own
    instance dict, so it lives as long as the graph.  A cover that fails
    is not kept, and raises again on every call.

    Raises NotUniform when edges are covered unequally (or not at all),
    DisconnectedElement when some element is not connected, BadSpec on
    structural nonsense (elements that are no (label, edge ids) pairs of
    hashable values, unknown edges, duplicate labels, empty cover) and on
    fold 1, where no element overlaps another; TooLarge past _ELEMENT_CAP
    elements."""
    reports = vars(g).setdefault("_cover_reports", {})
    try:
        key = tuple((lbl, tuple(eids)) for lbl, eids in cover.elements)
        report = reports.get(key)
    except (TypeError, ValueError):
        raise BadSpec(f"cover {cover.name!r} has an element that is not a "
                      f"(label, edge ids) pair of hashable values") from None
    if report is None:
        report = reports[key] = _analyse_cover(g, cover)
    return report


def _analyse_cover(g: mg.MetricGraph, cover: Cover) -> CoverReport:
    """The analysis behind :func:`validate_cover`, run once per graph and
    cover content."""
    if not cover.elements:
        raise BadSpec("cover has no elements")
    if len(cover) > _ELEMENT_CAP:
        raise TooLarge(f"cover of {len(cover)} elements (cap {_ELEMENT_CAP})",
                       elements=len(cover), cap=_ELEMENT_CAP)
    index = {e.id: c for c, e in enumerate(g.edges)}
    seen = set()
    rows, cols, places = [], [], []  # places: each element's edge positions, sorted
    for r, (lbl, eids) in enumerate(cover.elements):
        if lbl in seen:
            raise BadSpec(f"duplicate element label {lbl!r}", element=lbl)
        seen.add(lbl)
        if not eids:
            raise BadSpec(f"element {lbl!r} is empty", element=lbl)
        if len(set(eids)) != len(eids):
            raise BadSpec(f"element {lbl!r} repeats an edge", element=lbl)
        try:
            places.append(sorted(index[eid] for eid in eids))
        except KeyError as exc:
            raise BadSpec(f"element {lbl!r} references unknown edge {exc.args[0]!r}",
                          element=lbl, edge=exc.args[0]) from None
        rows += [r] * len(eids)
        cols += places[-1]
    counts = np.bincount(cols, minlength=len(g.edges))
    fold, most = int(counts.min()), int(counts.max())
    if fold != most:
        under = sorted(str(e.id) for e, c in zip(g.edges, counts) if c == fold)
        raise NotUniform(f"edges are covered between {fold} and {most} times",
                         examples=under[:5])
    if fold < 2:
        raise BadSpec(f"a cover needs fold >= 2, got {fold}: every edge lies in "
                      f"one element only, so no element overlaps another")
    grid = g.grid
    if grid is not None:
        # every entry, and every sum on the way, is at most m times the
        # total step count
        small = fold * sum(grid.steps) < 2**63
        k = np.array(grid.steps, dtype=np.int64 if small else object)
    else:  # each overlap a Python sum in graph edge order, whatever the hash seed
        k = np.array([e.length for e in g.edges], dtype=object)
    # members[c] lists the elements that contain edge c; add.at walks the
    # broadcast edge x member x member table in C order, that is edge by edge
    members = np.array(rows)[np.argsort(cols, kind="stable")].reshape(-1, fold)
    overlap = np.zeros((len(cover), len(cover)), dtype=k.dtype)
    np.add.at(overlap, (members[:, :, None], members[:, None, :]), k[:, None, None])
    subgraphs = {}
    for (lbl, _), at, size in zip(cover.elements, places, overlap.diagonal().tolist()):
        edges = tuple(g.edges[c] for c in at)  # in graph order
        used = {w for e in edges for w in e.ends}
        try:
            sub = mg.MetricGraph(tuple(v for v in g.vertices if v in used), edges)
        except Disconnected:
            raise DisconnectedElement(f"element {lbl!r} is disconnected",
                                      element=lbl) from None
        if grid is not None:  # its length is J k: no fraction is summed
            vars(sub)["total_length"] = grid.length(size)
        subgraphs[lbl] = sub
    overlap.flags.writeable = False
    return CoverReport(fold, MappingProxyType(subgraphs), overlap, grid)


def vicinity_graph(g: mg.MetricGraph, cover: Cover) -> tuple:
    """The vicinity graph's ``(weights, degrees)``: the weight of two
    elements is the total length of the edges they share, as floats in
    cover order.  A view of :func:`validate_cover`'s overlaps, so the cover
    is checked first."""
    return validate_cover(g, cover).vicinity()


def proof_identity_residual(g: mg.MetricGraph, cover: Cover,
                            weights: np.ndarray) -> float:
    """Entrywise residual of the algebraic identity behind the transference
    bound, between the cover's overlaps and a vicinity weight matrix built
    some other way.

    ``weights`` is that reference matrix, in cover order, with a zero
    diagonal; its row sums are its degrees, summed in its own arithmetic
    (a Fraction matrix stays exact) and rounded to float once.  With
    incidence matrix J (elements x edges), edge-length diagonal M, the
    degree diagonal D and fold m, the matrix
    m*I - (m-1) * D^{-1/2} J M J^T D^{-1/2} must equal (m-1) times the
    reference's symmetric normalized Laplacian.  J M J^T is the cover's
    overlap matrix.  Returns the maximum absolute entry of the difference;
    exact covers land at rounding error.  The cover is validated first, so
    a malformed cover raises as in :func:`validate_cover`."""
    rep = validate_cover(g, cover)
    fold = rep.fold
    deg = weights.sum(axis=1).astype(float)
    dm = 1.0 / np.sqrt(deg)  # fold >= 2: every element shares its edges
    G = (dm[:, None] * rep.floats(rep.overlap)) * dm[None, :]
    lhs = fold * np.eye(len(deg)) - (fold - 1) * G
    rhs = (fold - 1) * normalized_laplacian_dense(weights.astype(float), deg)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# construction strategies


def star_cover(g: mg.MetricGraph) -> Cover:
    """One element per vertex: its incident edges.  Always 2-fold."""
    elements = tuple((f"star:{v}", tuple(e.id for e, _ in g.incident[v]))
                     for v in g.vertices)
    return Cover("stars", elements)


def _face_edge_sets(g: mg.MetricGraph) -> list:
    walks = mg.faces(g)
    out = []
    for walk in walks:
        ids = [eid for eid, _ in walk]
        out.append(tuple(dict.fromkeys(ids)))
    return out


def face_cover(g: mg.MetricGraph) -> Cover:
    """One element per face of the embedding carried by the graph."""
    sets = _face_edge_sets(g)
    elements = tuple((f"face{k}", eids) for k, eids in enumerate(sets))
    return Cover("faces", elements)


def face_pair_cover(g: mg.MetricGraph) -> Cover:
    """Boundaries of unions of adjacent face pairs, deduplicated.

    For each pair of faces sharing at least one edge, the element is the
    symmetric difference of their edge sets.  Identical edge sets arising
    from different pairs are kept once."""
    sets = [frozenset(eids) for eids in _face_edge_sets(g)]
    seen = set()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                sym = sets[i] ^ sets[j]
                if sym:
                    seen.add(sym)
    ordered = sorted(seen, key=lambda s: sorted(map(str, s)))
    elements = tuple((f"pair{k}", tuple(sorted(s, key=str)))
                     for k, s in enumerate(ordered))
    return Cover("face_pairs", elements)


def copies_cover(g: mg.MetricGraph, m: int) -> Cover:
    """m copies of the whole edge set.  Degenerate but a useful baseline.
    At most _ELEMENT_CAP copies, checked before any is built."""
    if not mg.is_count(m, 2):
        raise BadSpec(f"copies cover needs an integer m >= 2, got {m!r}")
    if m > _ELEMENT_CAP:
        raise TooLarge(f"copies cover of {m} copies (cap {_ELEMENT_CAP})",
                       copies=m, cap=_ELEMENT_CAP)
    all_ids = tuple(e.id for e in g.edges)
    return Cover(f"copies:{m}", tuple((f"copy{k}", all_ids) for k in range(m)))


def pumpkin_cycle_cover(g: mg.MetricGraph, ordering: Optional[Sequence] = None) -> Cover:
    """Cover by consecutive edge pairs within each pumpkin; element
    ``cyc{i}.{j}`` is the j-th pair of pumpkin i.

    For a single pumpkin an explicit cyclic ``ordering`` of the edges may be
    given; different orderings give genuinely different vicinity graphs.  On
    a chain of two or more pumpkins each pumpkin contributes its own run of
    two-edge cycles and the vicinity graph falls apart into one component
    per pumpkin, so the transference bound degenerates; the cover is still
    valid and useful as a cautionary baseline.
    """
    edge_ids = _pumpkin_edge_ids(g)
    if ordering is not None:
        if len(edge_ids) != 1:
            raise BadSpec("edge orderings only apply to a single pumpkin")
        ordering = tuple(ordering)
        if sorted(map(str, ordering)) != sorted(map(str, edge_ids[0])):
            raise BadSpec("ordering must list each pumpkin edge exactly once")
        edge_ids = (ordering,)
    slots = _chain_cycle_slots(edge_ids)
    elements = tuple((f"cyc{i}.{j}", pair) for (i, j), pair in slots.items())
    return Cover("pumpkin_cycles", elements)


def _pumpkin_edge_ids(g: mg.MetricGraph) -> tuple:
    """Each pumpkin's edge ids, in chain order."""
    edge_ids = tuple(eids for _, _, eids in mg.chain_structure(g))
    if any(len(eids) < 2 for eids in edge_ids):
        raise NotBridgeless("chain covers need every pumpkin to have >= 2 edges")
    return edge_ids


def _chain_cycle_slots(edge_ids: Sequence) -> dict:
    """(i, j) -> edge id pair for the j-th consecutive cycle of pumpkin i,
    in that order.

    Pumpkins are 1-based; slot (i, m_i) wraps around to the first edge."""
    slots = {}
    for i, eids in enumerate(edge_ids, start=1):
        m = len(eids)
        for j in range(1, m + 1):
            slots[(i, j)] = (eids[j - 1], eids[j % m])
    return slots


def layered_chain_cover(g: mg.MetricGraph) -> Cover:
    """Layered cover of a pumpkin chain.

    Layer j glues the j-th consecutive cycle of every pumpkin thick enough
    to have one, split into connected runs; the wrap-around cycles of all
    pumpkins form one closing element."""
    edge_ids = _pumpkin_edge_ids(g)
    slots = _chain_cycle_slots(edge_ids)
    ms = [len(eids) for eids in edge_ids]
    n = len(ms)
    elements = []
    for j in range(1, max(ms)):
        for thick, run in itertools.groupby(range(1, n + 1), lambda i: ms[i - 1] > j):
            if thick:
                run = list(run)
                elements.append((f"layer{j}.{run[0]}", _union_slots(slots, run, j)))
    closing = []
    for i in range(1, n + 1):
        closing.extend(slots[(i, ms[i - 1])])
    elements.append(("closing", tuple(dict.fromkeys(closing))))
    return Cover("layered", tuple(elements))


def _union_slots(slots: dict, pumpkins: Sequence[int], j: int) -> tuple:
    out = []
    for i in pumpkins:
        out.extend(slots[(i, j)])
    return tuple(dict.fromkeys(out))


def concatenated_chain_cover(g: mg.MetricGraph) -> Cover:
    """Concatenated cover of a pumpkin chain.

    Element i joins the first cycle of pumpkin i with the second cycle of
    pumpkin i+1; every cycle slot not absorbed that way stays an element of
    its own."""
    edge_ids = _pumpkin_edge_ids(g)
    slots = _chain_cycle_slots(edge_ids)
    ms = [len(eids) for eids in edge_ids]
    n = len(ms)
    used = set()
    elements = []
    for i in range(1, n):
        a, b = (i, 1), (i + 1, 2)
        merged = tuple(dict.fromkeys(slots[a] + slots[b]))
        elements.append((f"join{i}", merged))
        used.update((a, b))
    for i in range(1, n + 1):
        for j in range(1, ms[i - 1] + 1):
            if (i, j) not in used:
                elements.append((f"cyc{i}.{j}", slots[(i, j)]))
    return Cover("concatenated", tuple(elements))


def build_cover(g: mg.MetricGraph, strategy: str) -> Cover:
    """The cover a strategy names: stars, faces, face_pairs, pumpkin_cycles,
    layered, concatenated, or copies:M for M copies of the edge set.

    The first call for a graph and a strategy builds the cover; later calls
    return the same ``Cover``, kept in the graph's own instance dict under
    the strategy, so it lives as long as the graph.  An unknown strategy,
    or one the graph refuses, is not kept and raises again on every call."""
    built = vars(g).setdefault("_covers", {})
    try:
        cover = built.get(strategy)
    except TypeError:  # an unhashable strategy names none
        raise BadSpec(f"unknown cover strategy {strategy!r}") from None
    if cover is None:
        cover = built[strategy] = _construct(g, strategy)
    return cover


def _construct(g: mg.MetricGraph, strategy: str) -> Cover:
    """The construction behind :func:`build_cover`, run once per graph and
    strategy."""
    if strategy == "stars":
        return star_cover(g)
    if strategy == "faces":
        return face_cover(g)
    if strategy == "face_pairs":
        return face_pair_cover(g)
    if strategy == "pumpkin_cycles":
        return pumpkin_cycle_cover(g)
    if strategy == "layered":
        return layered_chain_cover(g)
    if strategy == "concatenated":
        return concatenated_chain_cover(g)
    if isinstance(strategy, str) and strategy.startswith("copies:"):
        m = strategy[len("copies:"):]
        if not m.isdecimal():
            raise BadParameter("copies cover needs an integer m", cover=strategy)
        try:
            m = int(m)
        except ValueError:  # past the digits int() reads, so past the cap
            raise TooLarge(f"copies cover of a {len(m)}-digit count (cap {_ELEMENT_CAP})",
                           cap=_ELEMENT_CAP) from None
        return copies_cover(g, m)
    raise BadSpec(f"unknown cover strategy {strategy!r}")


# ---------------------------------------------------------------------------
# JSON round trip


def cover_to_json(cover: Cover) -> dict:
    return {
        "name": cover.name,
        "elements": {str(lbl): list(eids) for lbl, eids in cover.elements},
    }


def cover_from_json(data) -> Cover:
    if not isinstance(data, dict):
        raise ParseError("cover document must be a JSON object")
    if "elements" not in data:
        raise ParseError("cover document is missing 'elements'")
    raw = data["elements"]
    if not isinstance(raw, dict):
        raise ParseError("'elements' must be an object mapping labels to edge lists")
    elements = []
    for lbl, eids in raw.items():
        if not isinstance(eids, list):
            raise ParseError(f"element {lbl!r} must be an array of edge ids")
        elements.append((lbl, tuple(
            mg.id_from_json(eid, f"an edge of element {lbl!r}") for eid in eids)))
    return Cover(str(data.get("name", "cover")), tuple(elements))
