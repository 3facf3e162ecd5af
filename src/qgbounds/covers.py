"""Edge covers of metric graphs and their vicinity graphs.

A cover is a finite family of edge subsets ("elements") such that every
edge of the host graph lies in the same number m of elements.  The
vicinity graph has one vertex per element and connects two elements by the
total length of the edges they share.  Everything downstream (transference
bounds) consumes covers only through this module.

Cover JSON format::

    {"name": "...", "elements": {"label": ["e0", "e3", ...], ...}}

Element order inside the file is preserved; the fold number m is always
recomputed from the data, never trusted from a file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import metric_graph as mg
from .errors import (
    BadParameter,
    BadSpec,
    DisconnectedElement,
    NoRotation,
    NotBridgeless,
    NotUniform,
    ParseError,
)
from .spectral import WeightedGraph, normalized_laplacian_sym, reduce_multigraph


@dataclass(frozen=True)
class Cover:
    name: str
    elements: tuple  # tuple of (label, tuple of edge ids)

    @cached_property
    def labels(self) -> tuple:
        return tuple(lbl for lbl, _ in self.elements)

    @cached_property
    def edge_sets(self) -> dict:
        return {lbl: frozenset(eids) for lbl, eids in self.elements}

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CoverReport:
    """A valid cover's fold, element subgraphs (label -> MetricGraph) and
    vicinity graph."""

    fold: int
    subgraphs: dict
    vicinity: WeightedGraph


def validate_cover(g: mg.MetricGraph, cover: Cover) -> CoverReport:
    """Check uniform fold and element connectivity; return the fold, the
    element subgraphs and the vicinity graph.

    Raises NotUniform when edges are covered unequally (or not at all),
    DisconnectedElement when some element is not connected, BadSpec on
    structural nonsense (unknown edges, duplicate labels, empty cover)."""
    if not cover.elements:
        raise BadSpec("cover has no elements")
    seen = set()
    for lbl, eids in cover.elements:
        if lbl in seen:
            raise BadSpec(f"duplicate element label {lbl!r}", element=lbl)
        seen.add(lbl)
        if not eids:
            raise BadSpec(f"element {lbl!r} is empty", element=lbl)
        if len(set(eids)) != len(eids):
            raise BadSpec(f"element {lbl!r} repeats an edge", element=lbl)
        for eid in eids:
            if eid not in g.edge_map:
                raise BadSpec(
                    f"element {lbl!r} references unknown edge {eid!r}",
                    element=lbl, edge=eid)
    counts = {e.id: 0 for e in g.edges}
    for _, eids in cover.elements:
        for eid in eids:
            counts[eid] += 1
    folds = set(counts.values())
    if len(folds) != 1:
        under = sorted((str(e) for e, c in counts.items() if c == min(folds)))
        raise NotUniform(
            f"edges are covered between {min(folds)} and {max(folds)} times",
            examples=under[:5])
    fold = folds.pop()
    if fold == 0:
        raise NotUniform("cover elements cover no edges")
    subgraphs = {}
    for lbl, eids in cover.elements:
        subgraphs[lbl] = sub = mg.subgraph(g, eids)
        if not mg.is_connected(sub):
            raise DisconnectedElement(f"element {lbl!r} is disconnected",
                                      element=lbl)
    return CoverReport(fold, subgraphs, vicinity_graph(g, cover))


def _element_length(g: mg.MetricGraph, eids: Iterable) -> mg.Length:
    return sum((g.edge(eid).length for eid in eids), start=Fraction(0))


def vicinity_graph(g: mg.MetricGraph, cover: Cover) -> WeightedGraph:
    """Weighted graph on cover elements; weight = total shared edge length.

    Shared lengths are summed in the first element's own edge order, never
    in set order, so float weights do not depend on the hash seed."""
    sets = cover.edge_sets
    raw = [(a, b, _element_length(g, shared))
           for (a, ea), (b, _) in itertools.combinations(cover.elements, 2)
           if (shared := [eid for eid in ea if eid in sets[b]])]
    return reduce_multigraph(cover.labels, raw)


def proof_identity_residual(g: mg.MetricGraph, cover: Cover) -> float:
    """Entrywise residual of the algebraic identity behind the transference
    bound.

    With incidence matrix J (elements x edges), edge-length diagonal M,
    vicinity degree diagonal D and fold m, the matrix
    m*I - (m-1) * D^{-1/2} J M J^T D^{-1/2} must equal (m-1) times the
    symmetric normalized vicinity Laplacian.  Returns the maximum absolute
    entry of the difference; exact covers land at rounding error.  The
    cover is validated first, so a malformed cover raises as in
    :func:`validate_cover`."""
    rep = validate_cover(g, cover)
    fold, wg = rep.fold, rep.vicinity
    pos = {lbl: k for k, lbl in enumerate(wg.vertices)}
    n = len(wg.vertices)
    edge_ids = [e.id for e in g.edges]
    eix = {eid: k for k, eid in enumerate(edge_ids)}
    J = np.zeros((n, len(edge_ids)))
    for lbl, eids in cover.elements:
        for eid in eids:
            J[pos[lbl], eix[eid]] = 1.0
    M = np.diag([float(e.length) for e in g.edges])
    deg = np.array([float(d) for d in wg.degree_vector()])
    if np.any(deg <= 0):
        raise DisconnectedElement(
            "an element shares no length with any other element")
    dm = 1.0 / np.sqrt(deg)
    G = (dm[:, None] * (J @ M @ J.T)) * dm[None, :]
    lhs = fold * np.eye(n) - (fold - 1) * G
    rhs = (fold - 1) * normalized_laplacian_sym(wg)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# construction strategies


def star_cover(g: mg.MetricGraph) -> Cover:
    """One element per vertex: its incident edges.  Always 2-fold."""
    elements = []
    for v in g.vertices:
        eids = tuple(dict.fromkeys(e.id for e, _ in g.incident[v]))
        if eids:
            elements.append((f"star:{v}", eids))
    return Cover("stars", tuple(elements))


def _face_edge_sets(g: mg.MetricGraph) -> list:
    walks = mg.faces(g)
    out = []
    for walk in walks:
        ids = [eid for eid, _ in walk]
        out.append(tuple(dict.fromkeys(ids)))
    return out


def face_cover(g: mg.MetricGraph) -> Cover:
    """One element per face of the embedding carried by the graph."""
    if g.rotation is None:
        raise NoRotation("face cover needs a rotation system")
    sets = _face_edge_sets(g)
    elements = tuple((f"face{k}", eids) for k, eids in enumerate(sets))
    return Cover("faces", elements)


def face_pair_cover(g: mg.MetricGraph) -> Cover:
    """Boundaries of unions of adjacent face pairs, deduplicated.

    For each pair of faces sharing at least one edge, the element is the
    symmetric difference of their edge sets.  Identical edge sets arising
    from different pairs are kept once."""
    if g.rotation is None:
        raise NoRotation("face-pair cover needs a rotation system")
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
    """m copies of the whole edge set.  Degenerate but a useful baseline."""
    if m < 2:
        raise BadSpec(f"copies cover needs m >= 2, got {m}")
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
        run = []
        for i in range(1, n + 1):
            if ms[i - 1] > j:
                run.append(i)
            elif run:
                elements.append((f"layer{j}.{run[0]}", _union_slots(slots, run, j)))
                run = []
        if run:
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
    """Construct a cover by name: stars, faces, face_pairs, pumpkin_cycles,
    layered, concatenated, or copies:M for M copies of the edge set."""
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
    if strategy.startswith("copies:"):
        m = strategy[len("copies:"):]
        if not m.isdecimal():
            raise BadParameter("copies cover needs an integer m", cover=strategy)
        return copies_cover(g, int(m))
    raise BadSpec(f"unknown cover strategy {strategy!r}")


def cyclic_configurations(items: Sequence) -> list:
    """Distinct cyclic orderings of items up to rotation and reflection.

    (k-1)!/2 orderings for k >= 3; a single ordering for k <= 2."""
    items = list(items)
    k = len(items)
    if k > 9:
        raise BadSpec(f"{k} items give too many cyclic orders to enumerate")
    if k <= 2:
        return [tuple(items)]
    head, rest = items[0], items[1:]
    out = []
    for perm in itertools.permutations(rest):
        if str(perm[0]) <= str(perm[-1]):  # kill reflections
            out.append((head,) + perm)
    return out


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
