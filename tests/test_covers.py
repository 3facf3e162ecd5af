"""Cover constructions, vicinity graphs, and the exact structural identities.

Two identities hold for every uniform m-fold cover and are checked in exact
rational arithmetic: each element's vicinity degree is (m-1) times its
length, and the vicinity volume is m(m-1) times the graph's total length.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qgbounds import covers
from qgbounds import metric_graph as mg
from qgbounds.errors import (
    BadParameter,
    BadSpec,
    DisconnectedElement,
    NoRotation,
    NotBridgeless,
    NotUniform,
    ParseError,
)
from qgbounds.spectral import normalized_spectrum

from conftest import CHAIN_NAMES, PLATONIC_NAMES, corpus_graph


def expand(groups):
    return [v for v, m in groups for _ in range(m)]


# ---------------------------------------------------------------------------
# constructions


@pytest.mark.parametrize("name", PLATONIC_NAMES)
def test_star_cover_fold_two(name):
    g = corpus_graph(name)
    cover = covers.star_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 2
    assert len(rep.subgraphs) == len(g.vertices)
    for lbl in cover.labels:
        v = lbl.split(":", 1)[1]
        assert rep.subgraphs[lbl].total_length == g.weighted_degree(v)


FACE_COUNT = {"tetrahedron": 4, "cube": 6, "octahedron": 8,
              "dodecahedron": 12, "icosahedron": 20}
FACE_LEN = {"tetrahedron": 3, "cube": 4, "octahedron": 3,
            "dodecahedron": 5, "icosahedron": 3}


@pytest.mark.parametrize("name", PLATONIC_NAMES)
def test_face_cover_is_a_cycle_double_cover(name):
    g = corpus_graph(name)
    cover = covers.face_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 2
    assert len(rep.subgraphs) == FACE_COUNT[name]
    assert {sub.total_length for sub in rep.subgraphs.values()} == {FACE_LEN[name]}
    for lbl in cover.labels:
        assert mg.is_cycle_graph(rep.subgraphs[lbl])


def test_cube_face_vicinity_is_the_octahedron():
    g = corpus_graph("cube")
    gamma = covers.vicinity_graph(g, covers.face_cover(g))
    got = normalized_spectrum(gamma).values
    want = expand([(0, 1), (1, 3), (3 / 2, 2)])
    for a, b in zip(got, want):
        assert a == pytest.approx(b, abs=1e-9)


def test_tetrahedron_face_pairs_are_three_diamonds():
    g = corpus_graph("tetrahedron")
    cover = covers.face_pair_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 2
    assert len(rep.subgraphs) == 3
    assert {sub.total_length for sub in rep.subgraphs.values()} == {4}
    gamma = covers.vicinity_graph(g, cover)
    got = normalized_spectrum(gamma).values
    assert got == pytest.approx((0.0, 1.5, 1.5), abs=1e-9)


def test_cube_face_pairs_form_a_sixfold_cover():
    g = corpus_graph("cube")
    cover = covers.face_pair_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 6
    assert len(rep.subgraphs) == 12
    assert {sub.total_length for sub in rep.subgraphs.values()} == {6}
    # each element shares weight 2 with 3 others and weight 3 with 8 others
    gamma = covers.vicinity_graph(g, cover)
    for v in gamma.vertices:
        weights = sorted(w for a, b, w in gamma.edges if v in (a, b))
        assert weights == [2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]


def test_copies_cover():
    g = mg.pumpkin(3)
    cover = covers.copies_cover(g, 3)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 3
    gamma = covers.vicinity_graph(g, cover)
    assert all(w == g.total_length for _, _, w in gamma.edges)
    assert len(gamma.edges) == 3  # complete graph on three copies
    with pytest.raises(BadSpec):
        covers.copies_cover(g, 1)


def test_pumpkin_cycle_cover_orderings():
    g = mg.four_pumpkin(2)
    default = covers.pumpkin_cycle_cover(g)
    assert covers.validate_cover(g, default).fold == 2
    explicit = covers.pumpkin_cycle_cover(g, ordering=("e0", "e2", "e1", "e3"))
    assert covers.validate_cover(g, explicit).fold == 2
    assert default.edge_sets != explicit.edge_sets
    with pytest.raises(BadSpec):
        covers.pumpkin_cycle_cover(g, ordering=("e0", "e1"))
    with pytest.raises(BadSpec):
        covers.pumpkin_cycle_cover(g, ordering=("e0", "e1", "e2", "e2"))
    with pytest.raises(NotBridgeless):
        covers.pumpkin_cycle_cover(mg.pumpkin(1))


def test_single_pumpkin_cycle_cover_is_a_chain_of_one():
    g = mg.pumpkin(4)
    assert covers.pumpkin_cycle_cover(g).elements == (
        ("cyc1.1", ("e0", "e1")), ("cyc1.2", ("e1", "e2")),
        ("cyc1.3", ("e2", "e3")), ("cyc1.4", ("e3", "e0")))
    explicit = covers.pumpkin_cycle_cover(g, ordering=("e0", "e2", "e1", "e3"))
    assert explicit.elements == (
        ("cyc1.1", ("e0", "e2")), ("cyc1.2", ("e2", "e1")),
        ("cyc1.3", ("e1", "e3")), ("cyc1.4", ("e3", "e0")))


@pytest.mark.parametrize("strategy", ["pumpkin_cycles", "layered", "concatenated"])
def test_chain_covers_recognise_the_chain_once(strategy, monkeypatch):
    calls = []
    recognise = mg.chain_structure
    monkeypatch.setattr(mg, "chain_structure",
                        lambda g: calls.append(g) or recognise(g))
    covers.build_cover(corpus_graph("chain_324"), strategy)
    assert len(calls) == 1


def test_pumpkin_cycle_cover_on_a_chain_splits_per_pumpkin():
    g = corpus_graph("chain_324")
    cover = covers.pumpkin_cycle_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 2
    assert len(rep.subgraphs) == 9  # one 2-edge cycle per pumpkin edge slot
    gamma = covers.vicinity_graph(g, cover)
    assert not gamma.is_connected()
    with pytest.raises(BadSpec):
        covers.pumpkin_cycle_cover(g, ordering=("e1_1",))


def test_chain_covers_shape():
    g = corpus_graph("chain_324")
    layered = covers.build_cover(g, "layered")
    rep = covers.validate_cover(g, layered)
    assert rep.fold == 2
    assert sorted(sub.total_length for sub in rep.subgraphs.values()) == [2, 2, 2, 6, 6]

    concat = covers.build_cover(g, "concatenated")
    rep = covers.validate_cover(g, concat)
    assert rep.fold == 2
    assert sorted(sub.total_length for sub in rep.subgraphs.values()) == [2, 2, 2, 2, 2, 4, 4]

    for cover in (layered, concat):
        assert covers.vicinity_graph(g, cover).is_connected()


def test_chain_covers_need_bridgeless_chains():
    g = mg.pumpkin_chain((2, 1, 2))
    for strat in ("layered", "concatenated", "pumpkin_cycles"):
        with pytest.raises(NotBridgeless):
            covers.build_cover(g, strat)


def test_build_cover_dispatch():
    g = corpus_graph("tetrahedron")
    assert covers.build_cover(g, "stars").name == "stars"
    assert covers.build_cover(g, "copies:2").name == "copies:2"
    with pytest.raises(BadSpec):
        covers.build_cover(g, "copies")
    with pytest.raises(BadSpec):
        covers.build_cover(g, "copies:1")
    with pytest.raises(BadParameter) as exc:
        covers.build_cover(g, "copies:abc")
    assert exc.value.context == {"cover": "copies:abc"}
    with pytest.raises(BadSpec):
        covers.build_cover(g, "nonsense")
    with pytest.raises(NoRotation):
        covers.build_cover(mg.pumpkin(3), "faces")


def test_cyclic_configurations():
    assert covers.cyclic_configurations(["a", "b"]) == [("a", "b")]
    assert len(covers.cyclic_configurations(list("abcd"))) == 3
    assert len(covers.cyclic_configurations(list("abcde"))) == 12
    with pytest.raises(BadSpec):
        covers.cyclic_configurations(list(range(10)))


# ---------------------------------------------------------------------------
# validation errors


def test_validate_cover_rejects():
    g = corpus_graph("tetrahedron")
    eids = [e.id for e in g.edges]
    with pytest.raises(BadSpec):
        covers.validate_cover(g, covers.Cover("x", ()))
    with pytest.raises(BadSpec):
        covers.validate_cover(g, covers.Cover("x", (("a", ()),)))
    with pytest.raises(BadSpec):
        covers.validate_cover(
            g, covers.Cover("x", (("a", ("e0",)), ("a", ("e1",)))))
    with pytest.raises(BadSpec):
        covers.validate_cover(g, covers.Cover("x", (("a", ("e0", "e0")),)))
    with pytest.raises(BadSpec):
        covers.validate_cover(g, covers.Cover("x", (("a", ("bogus",)),)))
    with pytest.raises(NotUniform):
        covers.validate_cover(g, covers.Cover("x", (("a", tuple(eids[:3])),)))
    # two opposite cube edges do not touch
    cube = corpus_graph("cube")
    far = None
    for e in cube.edges:
        for f in cube.edges:
            if not set(e.ends) & set(f.ends):
                far = (e.id, f.id)
                break
        if far:
            break
    rest = tuple(e.id for e in cube.edges if e.id not in far)
    uniform = covers.Cover(
        "x", (("a", far), ("b", rest), ("c", far), ("d", rest)))
    with pytest.raises(DisconnectedElement):
        covers.validate_cover(cube, uniform)


# ---------------------------------------------------------------------------
# exact identities


def _cover_inventory():
    out = []
    for name in PLATONIC_NAMES:
        g = corpus_graph(name)
        out.append((f"{name}:stars", g, covers.star_cover(g)))
        out.append((f"{name}:faces", g, covers.face_cover(g)))
        out.append((f"{name}:copies3", g, covers.copies_cover(g, 3)))
    tetra = corpus_graph("tetrahedron")
    out.append(("tetrahedron:face_pairs", tetra, covers.face_pair_cover(tetra)))
    cube = corpus_graph("cube")
    out.append(("cube:face_pairs", cube, covers.face_pair_cover(cube)))
    for name in ("chain_324", "chain_222", "chain_234_mixed"):
        g = corpus_graph(name)
        out.append((f"{name}:layered", g, covers.layered_chain_cover(g)))
        out.append((f"{name}:concatenated", g, covers.concatenated_chain_cover(g)))
    fp = corpus_graph("four_pumpkin_2")
    out.append(("four_pumpkin_2:cycles", fp, covers.pumpkin_cycle_cover(fp)))
    return out


_INVENTORY = _cover_inventory()


@pytest.mark.parametrize("label, g, cover", _INVENTORY,
                         ids=[t[0] for t in _INVENTORY])
def test_degree_and_volume_identities_exact(label, g, cover):
    rep = covers.validate_cover(g, cover)
    m = rep.fold
    degrees = dict(zip(rep.vicinity.vertices, rep.vicinity.degree_vector()))
    for lbl in cover.labels:
        assert degrees[lbl] == (m - 1) * rep.subgraphs[lbl].total_length
    assert rep.vicinity.volume == m * (m - 1) * g.total_length


@pytest.mark.parametrize("label, g, cover", _INVENTORY,
                         ids=[t[0] for t in _INVENTORY])
def test_proof_identity_residual_tiny(label, g, cover):
    assert covers.proof_identity_residual(g, cover) <= 1e-12


def test_proof_identity_residual_validates_the_cover():
    g = corpus_graph("tetrahedron")
    (lbl, eids), *rest = covers.star_cover(g).elements
    unknown = covers.Cover("x", ((lbl, eids + ("bogus",)), *rest))
    with pytest.raises(BadSpec):
        covers.proof_identity_residual(g, unknown)
    # e0 = v0v1 and e5 = v2v3 do not touch; the rest of the cover is uniform
    whole = tuple(e.id for e in g.edges)
    split = covers.Cover("x", (("far", ("e0", "e5")),
                               ("ring", ("e1", "e2", "e3", "e4")),
                               ("all", whole)))
    with pytest.raises(DisconnectedElement):
        covers.proof_identity_residual(g, split)


def test_vicinity_graph_has_no_self_overlap():
    g = corpus_graph("icosahedron")
    gamma = covers.vicinity_graph(g, covers.face_cover(g))
    assert all(u != v for u, v, _ in gamma.edges)


def test_vicinity_weights_do_not_depend_on_the_hash_seed():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit
    code = ("from qgbounds import covers, metric_graph as mg\n"
            "g = mg.pumpkin(3, [0.1, 0.2, 0.3])\n"
            "print(repr(covers.vicinity_graph(g, covers.star_cover(g)).edges[0][2]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(covers.__file__)))
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == repr(0.1 + 0.2 + 0.3), seed


# ---------------------------------------------------------------------------
# JSON round trip


def test_cover_json_round_trip():
    g = corpus_graph("cube")
    cover = covers.face_pair_cover(g)
    back = covers.cover_from_json(covers.cover_to_json(cover))
    assert back.name == cover.name
    assert back.edge_sets == cover.edge_sets
    assert covers.validate_cover(g, back).fold == 6


@pytest.mark.parametrize("data", [
    [],
    {"name": "x"},
    {"name": "x", "elements": ["e0"]},
])
def test_cover_from_json_rejects(data):
    with pytest.raises(ParseError):
        covers.cover_from_json(data)


@pytest.mark.parametrize("eid, kind", [(["e0"], "an array"), ({"id": "e0"}, "an object")])
def test_cover_from_json_rejects_array_and_object_edge_ids(eid, kind):
    data = {"elements": {"a": ["e1", eid]}}
    with pytest.raises(ParseError, match=f"an edge of element 'a' is {kind}"):
        covers.cover_from_json(data)
