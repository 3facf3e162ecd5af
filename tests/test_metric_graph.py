"""Graph data structures, generators, metrics, and the JSON round trip."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import pytest

from qgbounds import metric_graph as mg
from qgbounds.errors import (
    BadParameter,
    BadSpec,
    NonpositiveLength,
    NoRotation,
    ParseError,
    UnknownEndpoint,
    UnknownFamily,
)

from conftest import CORPUS, PLATONIC_NAMES, corpus_graph


# ---------------------------------------------------------------------------
# lengths


def test_as_length_exact_kinds():
    assert mg.as_length(2) == Fraction(2)
    assert mg.as_length("3/2") == Fraction(3, 2)
    assert mg.as_length(Fraction(7, 3)) == Fraction(7, 3)
    got = mg.as_length(0.75)
    assert isinstance(got, float) and got == 0.75


@pytest.mark.parametrize("bad", [True, "abc", "1/0", object()])
def test_as_length_rejects(bad):
    with pytest.raises(BadParameter):
        mg.as_length(bad)


def test_length_json_round_trip():
    assert mg.length_to_json(Fraction(3, 2)) == "3/2"
    assert mg.length_to_json(Fraction(4)) == 4
    assert mg.length_from_json("3/2") == Fraction(3, 2)
    assert mg.length_from_json(4) == Fraction(4)
    # short decimals decode exactly, long ones stay floats
    assert mg.length_from_json(0.5) == Fraction(1, 2)
    third = mg.length_from_json(1 / 3)
    assert isinstance(third, float)
    with pytest.raises(ParseError):
        mg.length_from_json(True)
    with pytest.raises(ParseError):
        mg.length_from_json("??")


@pytest.mark.parametrize("values, want", [
    ([Fraction(1, 2), Fraction(1, 3)], Fraction(1, 6)),
    ([Fraction(3, 4), Fraction(1, 2)], Fraction(1, 4)),
    ([Fraction(2), Fraction(3)], Fraction(1)),
    ([Fraction(5, 7)], Fraction(5, 7)),
])
def test_rational_gcd(values, want):
    assert mg.rational_gcd(values) == want


def test_rational_gcd_empty():
    with pytest.raises(BadParameter):
        mg.rational_gcd([])


# ---------------------------------------------------------------------------
# generators

PLATONIC_SHAPE = {
    # vertices, edges, faces, face size
    "tetrahedron": (4, 6, 4, 3),
    "cube": (8, 12, 6, 4),
    "octahedron": (6, 12, 8, 3),
    "dodecahedron": (20, 30, 12, 5),
    "icosahedron": (12, 30, 20, 3),
}


@pytest.mark.parametrize("name", PLATONIC_NAMES)
def test_platonic_shape(name):
    nv, ne, nf, size = PLATONIC_SHAPE[name]
    g = corpus_graph(name)
    assert len(g.vertices) == nv
    assert len(g.edges) == ne
    assert g.total_length == ne  # unit lengths
    degree = 2 * ne // nv
    assert all(g.degree(v) == degree for v in g.vertices)
    walks = mg.faces(g)
    assert len(walks) == nf
    assert all(len(w) == size for w in walks)
    assert nv - ne + nf == 2
    rep = mg.validate(g)
    assert rep.connected and rep.bridgeless and not rep.loop_edges


def test_platonic_scaled_length():
    g = mg.platonic("octahedron", Fraction(1, 2))
    assert g.total_length == 6
    assert all(e.length == Fraction(1, 2) for e in g.edges)


def test_pumpkin_and_chain_builders():
    p = mg.pumpkin(3)
    assert len(p.vertices) == 2 and len(p.edges) == 3
    assert all(not e.is_loop() for e in p.edges)

    fp = mg.four_pumpkin(Fraction(5, 2))
    assert sorted(e.length for e in fp.edges) == [1, 1, Fraction(5, 2), Fraction(5, 2)]
    with pytest.raises(BadParameter):
        mg.four_pumpkin(Fraction(1, 2))

    chain = mg.pumpkin_chain((3, 2, 4))
    assert len(chain.vertices) == 4
    assert len(chain.edges) == 9
    pumpkins = [[chain.edge(eid).length for eid in eids]
                for _, _, eids in mg.chain_structure(chain)]
    assert tuple(len(ls) for ls in pumpkins) == (3, 2, 4)
    assert tuple(sum(ls) for ls in pumpkins) == (3, 2, 4)
    assert chain.total_length == 9
    assert mg.bridge_edges(chain) == []

    bridges = mg.bridge_edges(mg.pumpkin_chain((2, 1, 2)))
    assert [e.id for e in bridges] == ["e2_1"]


def test_pumpkin_chain_rejects():
    with pytest.raises(BadSpec):
        mg.pumpkin_chain(())
    with pytest.raises(BadSpec):
        mg.pumpkin_chain((2, 0))
    with pytest.raises(BadSpec):
        mg.pumpkin_chain((2, 2), [1])
    with pytest.raises(NonpositiveLength):
        mg.pumpkin_chain((2,), [[1, -1]])


def test_chain_structure_rejects_non_chains():
    with pytest.raises(BadSpec):
        mg.chain_structure(corpus_graph("tetrahedron"))
    with pytest.raises(BadSpec):
        mg.chain_structure(mg.cycle_graph(3, segments=3))


def test_generate_dispatch():
    assert len(mg.generate("pumpkin:5").edges) == 5
    assert len(mg.generate("cycle:2", segments=4).edges) == 4
    assert mg.generate("path:3/2").total_length == Fraction(3, 2)
    chain = mg.generate("pumpkin_chain:3,2,4")
    assert [len(eids) for _, _, eids in mg.chain_structure(chain)] == [3, 2, 4]
    star = mg.generate("star:1,2,3")
    assert mg.is_star_graph(star)
    assert mg.generate("star:1,3/2,2").edges == mg.star_graph([1, "3/2", 2]).edges
    with pytest.raises(BadParameter):
        mg.generate("star")
    with pytest.raises(UnknownFamily):
        mg.generate("moebius:3")
    with pytest.raises(UnknownFamily):
        mg.generate("platonic:enneahedron")
    with pytest.raises(BadParameter):
        mg.generate("pumpkin:zero")
    with pytest.raises(BadParameter):
        mg.generate("pumpkin:0")
    with pytest.raises(BadParameter):
        mg.generate("star")
    with pytest.raises(BadParameter):
        mg.cycle_graph(1, segments=1)
    with pytest.raises(NonpositiveLength):
        mg.path_graph(0)


# ---------------------------------------------------------------------------
# structure predicates and loop splitting


def test_predicates():
    assert mg.is_cycle_graph(mg.cycle_graph(1, segments=5))
    assert not mg.is_cycle_graph(mg.path_graph(1))
    assert mg.is_cycle_graph(mg.pumpkin(2))
    assert not mg.is_cycle_graph(mg.pumpkin(3))
    assert mg.is_star_graph(mg.pumpkin(3))  # all edges share both endpoints
    assert not mg.is_star_graph(corpus_graph("cube"))
    assert mg.is_doubly_connected(corpus_graph("cube"))
    assert not mg.is_doubly_connected(mg.path_graph(1))


def _loop_graph():
    return mg.MetricGraph(
        ("a", "b"),
        (mg.Edge("e0", "a", "b", Fraction(1)),
         mg.Edge("loop", "b", "b", Fraction(2))),
    )


def test_split_loops():
    g = _loop_graph()
    rep = mg.validate(g)
    assert rep.loop_edges == ("loop",)
    split = mg.split_loops(g)
    assert not any(e.is_loop() for e in split.edges)
    assert split.total_length == g.total_length
    assert mg.is_connected(split)
    # the loop becomes a 2-edge cycle hanging off b, so b keeps degree 3
    assert split.degree("b") == 3
    # idempotent on loopless graphs
    assert mg.split_loops(split) is split or not any(
        e.is_loop() for e in mg.split_loops(split).edges)


def test_structural_check_rejects():
    with pytest.raises(UnknownEndpoint):
        mg.validate(mg.MetricGraph(("a",), (mg.Edge("e", "a", "zz", Fraction(1)),)))
    with pytest.raises(NonpositiveLength):
        mg.validate(mg.MetricGraph(("a", "b"), (mg.Edge("e", "a", "b", Fraction(0)),)))
    with pytest.raises(BadParameter):
        mg.validate(mg.MetricGraph(("a", "a"), ()))
    with pytest.raises(BadParameter):
        mg.validate(mg.MetricGraph(
            ("a", "b"),
            (mg.Edge("e", "a", "b", Fraction(1)),
             mg.Edge("e", "b", "a", Fraction(1)))))


def test_disconnected_is_reported_not_raised():
    g = mg.MetricGraph(("a", "b", "c", "d"),
                       (mg.Edge("e0", "a", "b", Fraction(1)),
                        mg.Edge("e1", "c", "d", Fraction(1))))
    rep = mg.validate(g)
    assert not rep.connected
    assert len(mg.components(g)) == 2


def test_faces_need_rotation():
    with pytest.raises(NoRotation):
        mg.faces(mg.pumpkin(3))


# ---------------------------------------------------------------------------
# metric diameter, with an independent sampled oracle


def _sampled_diameter(g: mg.MetricGraph, pieces: int = 16) -> float:
    """Dijkstra over a dense subdivision; exact up to one grid cell."""
    nodes = {v: {} for v in g.vertices}
    adj: dict = {v: [] for v in g.vertices}

    def link(x, y, w):
        adj.setdefault(x, []).append((y, w))
        adj.setdefault(y, []).append((x, w))

    for e in g.edges:
        step = float(e.length) / pieces
        prev = e.u
        for i in range(1, pieces):
            node = (e.id, i)
            link(prev, node, step)
            prev = node
        link(prev, e.v, step)

    names = list(adj)
    best = 0.0
    for src in names:
        dist = {src: 0.0}
        heap = [(0.0, 0, src)]
        tick = 0
        while heap:
            d, _, x = heapq.heappop(heap)
            if d > dist.get(x, math.inf):
                continue
            for y, w in adj[x]:
                nd = d + w
                if nd < dist.get(y, math.inf):
                    dist[y] = nd
                    tick += 1
                    heapq.heappush(heap, (nd, tick, y))
        best = max(best, max(dist.values()))
    return best


DIAMETER_CLOSED = [
    ("path", lambda: mg.path_graph(Fraction(5, 2)), Fraction(5, 2)),
    ("cycle", lambda: mg.cycle_graph(3, segments=3), Fraction(3, 2)),
    ("pumpkin3", lambda: mg.pumpkin(3), Fraction(1)),
    ("icosahedron", lambda: corpus_graph("icosahedron"), Fraction(3)),
    ("tetrahedron", lambda: corpus_graph("tetrahedron"), Fraction(2)),
]


@pytest.mark.parametrize("label, build, want",
                         DIAMETER_CLOSED, ids=[t[0] for t in DIAMETER_CLOSED])
def test_metric_diameter_closed_forms(label, build, want):
    assert mg.metric_diameter(build()) == want


@pytest.mark.parametrize("name", ["cube", "chain_324", "chain_234_mixed",
                                  "four_pumpkin_2"])
def test_metric_diameter_against_sampling(name):
    g = corpus_graph(name)
    diam = float(mg.metric_diameter(g))
    pieces = 16
    grid = max(float(e.length) for e in g.edges) / pieces
    sampled = _sampled_diameter(g, pieces)
    assert sampled - 1e-9 <= diam <= sampled + grid + 1e-9


def test_metrics_summary():
    m = mg.metrics(corpus_graph("icosahedron"))
    assert m.total_length == 30
    assert m.diameter == 3
    out = m.to_json()
    assert out["total_length"] == 30


# ---------------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_graph_json_round_trip(name):
    g = corpus_graph(name)
    back = mg.graph_from_json(mg.graph_to_json(g))
    assert back.vertices == g.vertices
    assert [e.id for e in back.edges] == [e.id for e in g.edges]
    for old, new in zip(g.edges, back.edges):
        if isinstance(old.length, Fraction):
            assert new.length == old.length
        else:
            assert new.length == pytest.approx(old.length, abs=0, rel=1e-15)
    if g.rotation is not None:
        assert len(mg.faces(back)) == len(mg.faces(g))


def test_graph_from_json_splits_loops():
    data = {
        "vertices": ["a"],
        "edges": [{"id": "l", "ends": ["a", "a"], "length": 2}],
    }
    g = mg.graph_from_json(data)
    assert not any(e.is_loop() for e in g.edges)
    assert g.total_length == 2


@pytest.mark.parametrize("data", [
    "not a dict",
    {"vertices": ["a"]},
    {"vertices": "a", "edges": []},
    {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a"], "length": 1}]},
    {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"]}]},
    {"vertices": ["a", "b"],
     "edges": [{"id": "e", "ends": ["a", "b"], "length": "x/y"}]},
])
def test_graph_from_json_rejects(data):
    with pytest.raises(ParseError):
        mg.graph_from_json(data)


@pytest.mark.parametrize("vertices, edge, item", [
    (["a", ["b"]], {"id": "e", "ends": ["a", "a"]}, "vertex #1 is an array"),
    (["a", "b"], {"id": {"k": 1}, "ends": ["a", "b"]}, "the id of edge #0 is an object"),
    (["a", "b"], {"id": "e", "ends": ["a", ["b"]]}, "an end of edge 'e' is an array"),
    (["a", "b"], {"id": "e", "ends": [{}, "b"]}, "an end of edge 'e' is an object"),
])
def test_graph_from_json_rejects_array_and_object_ids(vertices, edge, item):
    data = {"vertices": vertices, "edges": [dict(edge, length=1)]}
    with pytest.raises(ParseError, match=item):
        mg.graph_from_json(data)
