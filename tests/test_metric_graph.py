"""Graph data structures, generators, the metric diameter, and the JSON round trip."""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qgbounds import metric_graph as mg
from qgbounds import covers, oracle
from qgbounds.errors import (
    BadParameter,
    BadSpec,
    Disconnected,
    LoopPresent,
    NonpositiveLength,
    NoRotation,
    ParseError,
    TooLarge,
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
    # short decimals are exact, any other float stays a float for Edge to judge
    assert mg.as_length(0.75) == Fraction(3, 4)
    assert mg.as_length(1e-6) == Fraction(1, 10**6)
    for x in (1 / 3, 1e-7, math.sqrt(2), math.inf):
        got = mg.as_length(x)
        assert isinstance(got, float) and got == x
    assert math.isnan(mg.as_length(math.nan))


@pytest.mark.parametrize("x, want", [
    (0.1234375, Fraction(79, 640)),
    (1e-07, None),
    (1e22, Fraction(10**22)),
    (5e-324, None),
    (-0.5, Fraction(-1, 2)),
    (12345678.125, Fraction(98765425, 8)),
    (-0.0, Fraction(0)),
    (1.5e-6, None),
])
def test_as_length_reads_the_shortest_decimal(x, want):
    # the decimal of the float's repr; a denominator past 10^6 keeps the float
    got = mg.as_length(x)
    if want is None:
        assert type(got) is float and got == x
    else:
        assert type(got) is Fraction and got == want


def test_as_length_takes_numpy_scalars():
    assert mg.as_length(np.int64(2)) == Fraction(2)
    assert mg.as_length(np.float32(0.5)) == Fraction(1, 2)
    assert mg.as_length(np.float64(0.75)) == Fraction(3, 4)
    g = mg.pumpkin(3, np.int64(2))
    assert [e.length for e in g.edges] == [Fraction(2)] * 3
    assert mg.Edge("e", "a", "b", np.int64(3)).length == Fraction(3)


@pytest.mark.parametrize("lengths, grid", [
    ([Fraction(1, 2), Fraction(3, 4), 2], mg.Grid(1, 4, (2, 3, 8))),
    ([6, 4, 10], mg.Grid(2, 1, (3, 2, 5))),
    ([Fraction(2, 3)], mg.Grid(2, 3, (1,))),
])
def test_grid_is_the_gcd_and_the_steps(lengths, grid):
    g = mg.pumpkin(len(lengths), lengths)
    assert g.grid == grid
    assert g.total_length == sum(lengths, start=Fraction(0))


def test_a_float_length_leaves_no_grid():
    g = mg.pumpkin(3, [1, math.sqrt(2), Fraction(1, 2)])
    assert g.grid is None
    assert g.total_length == (1 + math.sqrt(2)) + 0.5


@pytest.mark.parametrize("bad", [True, "abc", "1/0", object(), np.bool_(True)])
def test_as_length_rejects(bad):
    with pytest.raises(BadParameter):
        mg.as_length(bad)


def test_length_json_round_trip():
    assert mg.length_to_json(Fraction(3, 2)) == "3/2"
    assert mg.length_to_json(Fraction(4)) == 4
    for x in (Fraction(3, 2), Fraction(4), Fraction(1, 2), 1 / 3, math.sqrt(2)):
        back = mg.as_length(json.loads(json.dumps(mg.length_to_json(x))))
        assert back == x and type(back) is type(x)


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


def test_rational_gcd_refuses_a_float():
    with pytest.raises(BadParameter, match="positive rationals"):
        mg.rational_gcd([Fraction(1, 2), 0.5])


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
    assert rep.bridgeless and rep.bridge_edges == ()


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
    with pytest.raises(BadSpec, match="pumpkin 1 needs 2 lengths"):
        mg.pumpkin_chain((2, 2), [[1], 1])
    with pytest.raises(NonpositiveLength):
        mg.pumpkin_chain((2,), [[1, -1]])


@pytest.mark.parametrize("build, error", [
    (lambda m: mg.pumpkin(m), BadParameter),
    (lambda m: mg.pumpkin_chain([m, 3]), BadSpec),
    (lambda m: mg.cycle_graph(1, segments=m), BadParameter),
    (lambda m: covers.copies_cover(mg.pumpkin(2), m), BadSpec),
], ids=["pumpkin", "pumpkin_chain", "cycle_graph", "copies_cover"])
def test_a_count_is_a_python_or_numpy_integer(build, error):
    # the error is the one each builder raises for a count out of range
    assert build(np.int64(2)) == build(2)
    for m in (True, 2.0, 2.7, "2"):
        with pytest.raises(error):
            build(m)


def test_generator_edge_cap_is_checked_before_building(monkeypatch):
    cap = mg._EDGE_CAP
    assert len(mg.pumpkin_chain([2] * (cap // 2)).edges) == cap
    monkeypatch.setattr(mg, "Edge", None)  # nothing may be built
    for build in (lambda n: mg.pumpkin(n), lambda n: mg.pumpkin_chain([n - 1, 1]),
                  lambda n: mg.cycle_graph(1, segments=n)):
        for n in (cap + 1, 10**8):
            with pytest.raises(TooLarge, match=f"cap {cap}") as exc:
                build(n)
            assert exc.value.context == {"edges": n, "cap": cap}


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
    with pytest.raises(BadParameter, match="got 2.5"):  # not cut to 2
        mg.generate("cycle:1", segments=2.5)
    with pytest.raises(BadParameter, match="nonempty list"):
        mg.star_graph([])
    with pytest.raises(BadParameter, match="expected 3 lengths, got 2"):
        mg.pumpkin(3, [1, 2])
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


def test_split_loops():
    vertices = ("a", "b")
    edges = (mg.Edge("e0", "a", "b", Fraction(1)),
             mg.Edge("loop", "b", "b", Fraction(2)))
    with pytest.raises(LoopPresent):
        mg.MetricGraph(vertices, edges)
    split = mg.split_loops(vertices, edges)
    assert [(e.id, e.u, e.v, e.length) for e in split.edges] == [
        ("e0", "a", "b", 1), ("loop~a", "b", "b~loop", 1),
        ("loop~b", "b~loop", "b", 1)]
    # the loop becomes a 2-edge cycle hanging off b, so b keeps degree 3
    assert split.degree("b") == 3
    # without loops it is the plain constructor
    assert mg.split_loops(split.vertices, split.edges) == split
    # a rotation follows the split: a loop on the sphere bounds two faces
    lone = mg.split_loops(("a",), (mg.Edge("l", "a", "a", Fraction(1)),),
                          {"a": (("l", 0), ("l", 1))})
    assert len(lone.vertices) == 2 and len(mg.faces(lone)) == 2


def test_split_loops_skips_names_already_taken():
    vertices = ("a", "a~e0")
    edges = (mg.Edge("e0", "a", "a", 2), mg.Edge("e1", "a", "a~e0", 1),
             mg.Edge("e0~a", "a", "a~e0", 1))
    split = mg.split_loops(vertices, edges)
    assert split.vertices == ("a", "a~e0", "a~e0'")
    assert [(e.id, e.u, e.v, e.length) for e in split.edges] == [
        ("e0~a'", "a", "a~e0'", 1), ("e0~b", "a~e0'", "a", 1),
        ("e1", "a", "a~e0", 1), ("e0~a", "a", "a~e0", 1)]


def test_an_unknown_edge_id_is_refused():
    with pytest.raises(UnknownEndpoint, match="unknown edge id 'zz'"):
        mg.path_graph(1).edge("zz")


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


BAD_LENGTHS = {"-1": -1, "0": 0, "nan": math.nan, "inf": math.inf,
               "10**400": Fraction(10**400), "1/10**400": Fraction(1, 10**400)}

BAD_DATA = {  # vertices, edges, and the error raised on building them
    **{f"length {k}": (("a", "b"), [("e", "a", "b", ell)], NonpositiveLength)
       for k, ell in BAD_LENGTHS.items()},
    "dangling end": (("a",), [("e", "a", "zz", 1)], UnknownEndpoint),
    "duplicate vertex id": (("a", "a"), [], BadParameter),
    "duplicate edge id": (("a", "b"), [("e", "a", "b", 1), ("e", "b", "a", 1)],
                          BadParameter),
    "no edges": (("a",), [], BadParameter),
    # values of the wrong type
    "length '1'": (("a", "b"), [("e", "a", "b", "1")], BadParameter),
    "length True": (("a", "b"), [("e", "a", "b", True)], BadParameter),
    "list vertex id": ((["a"],), [], BadParameter),
}

GENERATORS = [  # each generator, with one edge (or every edge) of length ell
    lambda ell: mg.platonic("tetrahedron", ell),
    lambda ell: mg.pumpkin(3, [1, ell, 1]),
    lambda ell: mg.pumpkin_chain((2, 1), [1, [ell]]),
    lambda ell: mg.cycle_graph(ell, segments=3),
    lambda ell: mg.path_graph(ell),
    lambda ell: mg.star_graph([1, ell]),
]


@pytest.mark.parametrize("vertices, edges, error", BAD_DATA.values(), ids=BAD_DATA)
def test_bad_data_never_becomes_a_graph(vertices, edges, error):
    with pytest.raises(error):
        mg.MetricGraph(vertices, tuple(mg.Edge(*e) for e in edges))
    doc = {"vertices": list(vertices),
           "edges": [{"id": i, "ends": [u, v],
                      "length": mg.length_to_json(ell) if isinstance(ell, Fraction) else ell}
                     for i, u, v, ell in edges]}
    if not any(isinstance(e[3], str) for e in edges):  # "1" is a length in a file
        with pytest.raises(ParseError):
            mg.graph_from_json(doc)
    if error is NonpositiveLength:
        for build in GENERATORS:
            with pytest.raises(NonpositiveLength):
                build(edges[0][3])


def test_disconnected_graph_is_refused():
    with pytest.raises(Disconnected):
        mg.MetricGraph(("a", "b", "c", "d"),
                       (mg.Edge("e0", "a", "b", Fraction(1)),
                        mg.Edge("e1", "c", "d", Fraction(1))))
    # a file says the same, not ParseError: its data are well formed
    doc = {"vertices": ["a", "b", "c"],
           "edges": [{"id": "e0", "ends": ["a", "b"], "length": 1}]}
    with pytest.raises(Disconnected):
        mg.graph_from_json(doc)


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


# one builder per generator family, at a given length
FAMILY_AT = {
    "platonic": lambda x: mg.platonic("cube", x),
    "pumpkin": lambda x: mg.pumpkin(3, x),
    "four_pumpkin": lambda x: mg.four_pumpkin(1 + x),
    "pumpkin_chain": lambda x: mg.pumpkin_chain((3, 2, 4), x),
    "cycle": lambda x: mg.cycle_graph(x, 3),
    "path": mg.path_graph,
    "star": lambda x: mg.star_graph([x, 1, x]),
}


@pytest.mark.parametrize("length", [2, 0.5, math.sqrt(2)],
                         ids=["integer", "short_decimal", "irrational"])
@pytest.mark.parametrize("family", sorted(FAMILY_AT))
def test_a_generated_graph_survives_its_json_round_trip(family, length):
    g = FAMILY_AT[family](length)
    back = mg.graph_from_json(json.loads(json.dumps(mg.graph_to_json(g))))
    assert back.edges == g.edges
    assert [type(e.length) for e in back.edges] == [type(e.length) for e in g.edges]
    res, res_back = oracle.spectrum(g, 3), oracle.spectrum(back, 3)
    assert res.method == res_back.method
    assert res.values == res_back.values


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
] + [
    # lengths that are no finite positive float: the JSON values Infinity,
    # NaN and 1e400 (which json decodes to inf), and exact strings whose
    # float overflows or underflows
    {"vertices": ["a", "b"],
     "edges": [{"id": "e", "ends": ["a", "b"], "length": bad}]}
    for bad in (math.inf, -math.inf, math.nan, json.loads("1e400"),
                "1e400", "1/1" + "0" * 400)
] + [
    {"vertices": ["a", "b"], "edges": ["e"]},
])
def test_graph_from_json_rejects(data):
    with pytest.raises(ParseError):
        mg.graph_from_json(data)


_PATH = {"vertices": ["a", "b", "c"],
         "edges": [{"id": "e", "ends": ["a", "b"], "length": 1},
                   {"id": "f", "ends": ["b", "c"], "length": 1}]}
_PATH_ROTATION = {"a": [{"edge": "e", "end": 0}],
                  "b": [{"edge": "e", "end": 1}, {"edge": "f", "end": 0}],
                  "c": [{"edge": "f", "end": 1}]}


@pytest.mark.parametrize("rotation, message, vertex", [
    ([], "'rotation' must be an object", None),
    ({"a": {"edge": "e", "end": 0}}, "rotation at vertex 'a' must be an array", "a"),
    ({"a": [{"edge": "e", "end": 2}]}, "rotation at vertex 'a' has a malformed half-edge",
     "a"),
    ({"a": ["e"]}, "rotation at vertex 'a' has a malformed half-edge", "a"),
    ({**_PATH_ROTATION, "zz": []}, "rotation lists unknown vertex 'zz'", "zz"),
    ({**_PATH_ROTATION, "b": [{"edge": "e", "end": 1}, {"edge": "e", "end": 1}]},
     "rotation at vertex 'b' does not list each incident half-edge exactly once", "b"),
], ids=["not_an_object", "not_an_array", "bad_end", "half_edge_not_an_object",
        "unknown_vertex", "a_half_edge_twice"])
def test_graph_from_json_refuses_a_bad_rotation(rotation, message, vertex):
    with pytest.raises(ParseError) as exc:
        mg.graph_from_json({**_PATH, "rotation": rotation})
    assert str(exc.value) == message
    assert exc.value.context == ({} if vertex is None else {"vertex": vertex})


_INT_PATH = (("a", "b", "c"), (mg.Edge(0, "a", "b", 1), mg.Edge(1, "b", "c", 1)))
_INT_PATH_ROTATION = {"a": ((0, 0),), "b": ((0, 1), (1, 0)), "c": ((1, 1),)}


@pytest.mark.parametrize("at_b", [
    ((0, 1),),
    ((0, 1), (1, 0), (1, 0)),
    ((0, 1), (0, 1)),
    ((0, 1), (7, 0)),
    ((0, 1), (1, 1)),
    ((0, 1), [1, 0]),
    ((0, 1), (1, 0, 0)),
    ((0, 1), ([1], 0)),
    ((0, 1), (True, 0)),
    ((0, 1), (1.0, 0)),
    ((0, True), (1, 0)),
    ((0, 1.0), (1, 0)),
], ids=["missing", "doubled", "doubled_for_another", "unknown_edge", "wrong_end",
        "list_for_tuple", "triple", "unhashable_edge", "true_for_edge_1",
        "float_for_edge_1", "true_for_end_1", "float_for_end_1"])
def test_a_rotation_lists_each_half_edge_once_by_its_own_values(at_b):
    vertices, edges = _INT_PATH
    assert mg.MetricGraph(vertices, edges, _INT_PATH_ROTATION).rotation == _INT_PATH_ROTATION
    with pytest.raises(BadParameter) as exc:
        mg.MetricGraph(vertices, edges, {**_INT_PATH_ROTATION, "b": at_b})
    assert str(exc.value) == ("rotation at vertex 'b' does not list each incident "
                              "half-edge exactly once")
    assert exc.value.context == {"vertex": "b"}


def test_a_rotation_entry_built_in_python_must_be_a_sequence():
    path = mg.path_graph(1)
    with pytest.raises(BadParameter, match="is not a sequence of half-edges") as exc:
        mg.MetricGraph(path.vertices, path.edges, {path.vertices[0]: 5})
    assert exc.value.context == {"vertex": path.vertices[0]}


@pytest.mark.parametrize("rotation", [5, ["a", "b"], "ab"])
def test_a_rotation_built_in_python_must_be_a_mapping(rotation):
    path = mg.path_graph(1)
    with pytest.raises(BadParameter, match="a rotation must map vertices"):
        mg.MetricGraph(path.vertices, path.edges, rotation)


def test_a_null_vertex_id_with_a_rotation_round_trips():
    # a rotation key is the str() of its vertex id, so the id null is "None"
    doc = {"vertices": [None, "b", "c"],
           "edges": [{"id": "e", "ends": [None, "b"], "length": 1}, _PATH["edges"][1]],
           "rotation": {"None": _PATH_ROTATION["a"], "b": _PATH_ROTATION["b"],
                        "c": _PATH_ROTATION["c"]}}
    g = mg.graph_from_json(doc)
    assert g.rotation[None] == (("e", 0),)
    assert mg.graph_from_json(json.loads(json.dumps(mg.graph_to_json(g)))) == g


@pytest.mark.parametrize("length, message", [
    ("x", "edge 'e': cannot parse length 'x'"),
    (True, "edge 'e': boolean is not a length"),
    (None, "edge 'e': cannot interpret None as a length"),
    ([1], "edge 'e': cannot interpret [1] as a length"),
])
def test_graph_from_json_names_the_edge_of_a_length_it_cannot_read(length, message):
    doc = {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], "length": length}]}
    with pytest.raises(ParseError) as exc:
        mg.graph_from_json(doc)
    assert str(exc.value) == message and exc.value.context == {"edge": "e"}


def test_graph_from_json_coerces_each_length_once(monkeypatch):
    calls = []
    coerce = mg.as_length
    monkeypatch.setattr(mg, "as_length", lambda x: calls.append(x) or coerce(x))
    doc = {"vertices": ["a", "b"],
           "edges": [{"id": "e", "ends": ["a", "b"], "length": math.sqrt(2)},
                     {"id": "f", "ends": ["a", "b"], "length": "1/2"},
                     {"id": "g", "ends": ["a", "b"], "length": 0.25}]}
    g = mg.graph_from_json(doc)
    assert [e.length for e in g.edges] == [math.sqrt(2), Fraction(1, 2), Fraction(1, 4)]
    # a string is parsed as the file is read, and reaches Edge as a Fraction,
    # which passes through; a number is coerced as its Edge is built
    assert [x for x in calls if not isinstance(x, Fraction)] == ["1/2", math.sqrt(2), 0.25]


def test_vertex_ids_that_share_a_rotation_key_are_refused():
    # a rotation key is the str() of its vertex id, and 1 and "1" give one
    g = mg.MetricGraph((1, "1"), (mg.Edge("e", 1, "1", Fraction(1)),),
                       {1: (("e", 0),), "1": (("e", 1),)})
    with pytest.raises(BadParameter, match="vertex ids 1 and '1' share the rotation key '1'"):
        mg.graph_to_json(g)
    doc = {"vertices": [1, "1"], "edges": [{"id": "e", "ends": [1, "1"], "length": 1}]}
    assert mg.graph_to_json(mg.graph_from_json(doc)) == doc  # no rotation, no key
    with pytest.raises(ParseError, match="vertex ids 1 and '1' share the rotation key '1'"):
        mg.graph_from_json({**doc, "rotation": {"1": [{"edge": "e", "end": 0}]}})


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
