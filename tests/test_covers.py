"""Cover constructions, vicinity graphs, and the exact structural identities.

Two identities hold for every uniform m-fold cover and are checked in exact
rational arithmetic on the pairwise reference vicinity matrix: each
element's vicinity degree is (m-1) times its length, and the vicinity
volume is m(m-1) times the graph's total length.  The library's vicinity
arrays, a view of its integer-grid overlaps, must equal the floats of that
reference.  On
graphs with float lengths the same overlap product sums in graph edge
order, so its vicinity Laplacian must match the reference's to rounding
and must not depend on the hash seed.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qgbounds import bounds, covers
from qgbounds import metric_graph as mg
from qgbounds.errors import (
    BadParameter,
    BadSpec,
    DisconnectedElement,
    NoRotation,
    NotBridgeless,
    NotUniform,
    ParseError,
    TooLarge,
)
from qgbounds.spectral import eigenvalues_lapack, normalized_laplacian_dense

from conftest import (
    CHAIN_NAMES,
    CORPUS,
    PLATONIC_NAMES,
    corpus_graph,
    edge_sets,
    float_cube,
    reference_laplacian,
    reference_vicinity,
)


def expand(groups):
    return [v for v, m in groups for _ in range(m)]


def _alpha(g: mg.MetricGraph, cover: covers.Cover) -> tuple:
    return eigenvalues_lapack(normalized_laplacian_dense(*covers.vicinity_graph(g, cover))).values


# ---------------------------------------------------------------------------
# constructions


@pytest.mark.parametrize("name", PLATONIC_NAMES)
def test_star_cover_fold_two(name):
    g = corpus_graph(name)
    cover = covers.star_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 2
    assert len(rep.subgraphs) == len(g.vertices)
    for lbl, _ in cover.elements:
        v = lbl.split(":", 1)[1]
        assert rep.subgraphs[lbl].total_length == sum(
            (e.length for e, _ in g.incident[v]), start=Fraction(0))


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
    for lbl, _ in cover.elements:
        assert mg.is_cycle_graph(rep.subgraphs[lbl])


def test_cube_face_vicinity_is_the_octahedron():
    g = corpus_graph("cube")
    got = _alpha(g, covers.face_cover(g))
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
    got = _alpha(g, cover)
    assert got == pytest.approx((0.0, 1.5, 1.5), abs=1e-9)


def test_cube_face_pairs_form_a_sixfold_cover():
    g = corpus_graph("cube")
    cover = covers.face_pair_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 6
    assert len(rep.subgraphs) == 12
    assert {sub.total_length for sub in rep.subgraphs.values()} == {6}
    # each element shares weight 2 with 3 others and weight 3 with 8 others
    weights, _ = covers.vicinity_graph(g, cover)
    for row in weights:
        assert sorted(row[row > 0].tolist()) == [2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]


def test_copies_cover():
    g = mg.pumpkin(3)
    cover = covers.copies_cover(g, 3)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 3
    weights, _ = covers.vicinity_graph(g, cover)
    # complete graph on three copies
    assert (weights[~np.eye(3, dtype=bool)] == float(g.total_length)).all()
    with pytest.raises(BadSpec):
        covers.copies_cover(g, 1)


def test_copies_cover_cap_is_checked_before_building(monkeypatch):
    g = mg.pumpkin(3)
    assert len(covers.copies_cover(g, covers._ELEMENT_CAP)) == covers._ELEMENT_CAP
    monkeypatch.setattr(covers, "Cover", None)  # nothing may be built
    for m in (covers._ELEMENT_CAP + 1, 99999999999):
        with pytest.raises(TooLarge, match=f"cap {covers._ELEMENT_CAP}") as exc:
            covers.copies_cover(g, m)
        assert exc.value.context == {"copies": m, "cap": covers._ELEMENT_CAP}
    # a count past the digits int() reads is refused alike (an int() with no
    # such limit reads it, and copies_cover refuses it)
    with pytest.raises(TooLarge, match=f"cap {covers._ELEMENT_CAP}"):
        covers.build_cover(g, "copies:" + "9" * 5000)


def test_a_cover_past_the_element_cap_is_refused(monkeypatch):
    g = mg.cycle_graph(1, segments=covers._ELEMENT_CAP + 1)
    stars = covers.star_cover(g)
    monkeypatch.setattr(covers, "np", None)  # no array is built
    with pytest.raises(TooLarge, match=f"cap {covers._ELEMENT_CAP}") as exc:
        covers.validate_cover(g, stars)
    assert exc.value.context == {"elements": len(stars), "cap": covers._ELEMENT_CAP}


def test_pumpkin_cycle_cover_orderings():
    g = mg.four_pumpkin(2)
    default = covers.pumpkin_cycle_cover(g)
    assert covers.validate_cover(g, default).fold == 2
    explicit = covers.pumpkin_cycle_cover(g, ordering=("e0", "e2", "e1", "e3"))
    assert covers.validate_cover(g, explicit).fold == 2
    assert edge_sets(default) != edge_sets(explicit)
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
    covers.build_cover(CORPUS["chain_324"](), strategy)  # a fresh graph keeps no cover
    assert len(calls) == 1


@pytest.mark.parametrize("strategy", ["stars", "layered", "copies:3"])
def test_a_cover_is_built_once_per_graph(strategy, monkeypatch):
    g = CORPUS["chain_324"]()
    first = covers.build_cover(g, strategy)
    calls = []
    recognise = mg.chain_structure
    monkeypatch.setattr(mg, "chain_structure",
                        lambda g: calls.append(g) or recognise(g))
    monkeypatch.setattr(covers, "Cover", None)  # nothing may be built again
    assert covers.build_cover(g, strategy) is first
    assert calls == []
    # another graph of the same shape builds its own
    monkeypatch.undo()
    assert covers.build_cover(CORPUS["chain_324"](), strategy) is not first


@pytest.mark.parametrize("g, strategy, error", [
    (mg.pumpkin(3), "faces", NoRotation),
    (mg.pumpkin(3), "copies:0", BadSpec),
    (mg.pumpkin(3), ["stars"], BadSpec),
    (mg.pumpkin(3), "nonsense", BadSpec),
    (mg.pumpkin_chain((2, 1, 2)), "layered", NotBridgeless),
], ids=["faces_without_rotation", "copies_0", "unhashable", "unknown", "bridge"])
def test_a_refused_strategy_raises_on_every_call(g, strategy, error):
    for _ in range(2):
        with pytest.raises(error):
            covers.build_cover(g, strategy)
    assert not vars(g).get("_covers")


def test_star_bound_shares_the_stars_cover(monkeypatch):
    g = CORPUS["chain_324"]()
    built = []
    star_cover = covers.star_cover
    monkeypatch.setattr(covers, "star_cover", lambda g: built.append(g) or star_cover(g))
    star = bounds.star_bound(g)
    cover = covers.build_cover(g, "stars")
    assert bounds.transfer_bound(g, cover, "star_best").bounds == star.bounds
    assert built == [g]


def test_pumpkin_cycle_cover_on_a_chain_splits_per_pumpkin():
    g = corpus_graph("chain_324")
    cover = covers.pumpkin_cycle_cover(g)
    rep = covers.validate_cover(g, cover)
    assert rep.fold == 2
    assert len(rep.subgraphs) == 9  # one 2-edge cycle per pumpkin edge slot
    assert not rep.connected
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
        assert covers.validate_cover(g, cover).connected


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
    # an unhashable edge id, and an element that is no (label, ids) pair
    for elements in ((("a", (["e0"],)),), (("a",),)):
        with pytest.raises(BadSpec, match="not a .label, edge ids. pair"):
            covers.validate_cover(g, covers.Cover("x", elements))
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
    ref = reference_vicinity(g, cover)
    degrees = ref.sum(axis=1)
    for (lbl, _), degree in zip(cover.elements, degrees):
        assert degree == (m - 1) * rep.subgraphs[lbl].total_length
    assert degrees.sum() == m * (m - 1) * g.total_length
    weights, float_degrees = covers.vicinity_graph(g, cover)
    assert np.array_equal(weights, ref.astype(float))
    assert np.array_equal(float_degrees, degrees.astype(float))


@pytest.mark.parametrize("label, g, cover", _INVENTORY,
                         ids=[t[0] for t in _INVENTORY])
def test_proof_identity_residual_tiny(label, g, cover):
    assert covers.proof_identity_residual(g, cover, reference_vicinity(g, cover)) <= 1e-12


def test_proof_identity_residual_validates_the_cover():
    g = corpus_graph("tetrahedron")
    stars = covers.star_cover(g)
    (lbl, eids), *rest = stars.elements
    unknown = covers.Cover("x", ((lbl, eids + ("bogus",)), *rest))
    with pytest.raises(BadSpec):
        covers.proof_identity_residual(g, unknown, reference_vicinity(g, stars))
    # e0 = v0v1 and e5 = v2v3 do not touch; the rest of the cover is uniform
    whole = tuple(e.id for e in g.edges)
    split = covers.Cover("x", (("far", ("e0", "e5")),
                               ("ring", ("e1", "e2", "e3", "e4")),
                               ("all", whole)))
    with pytest.raises(DisconnectedElement):
        covers.proof_identity_residual(g, split, reference_vicinity(g, split))


_WHOLE = ("e0", "e1", "e2", "e3", "e4", "e5")  # the tetrahedron's edges
_BAD_COVERS = {
    "empty": ((), BadSpec, "cover has no elements", {}),
    "duplicate label": ((("a", ("e0",)), ("a", ("e1",))), BadSpec,
                        "duplicate element label 'a'", {"element": "a"}),
    "empty element": ((("a", ()),), BadSpec, "element 'a' is empty", {"element": "a"}),
    "repeated edge": ((("a", ("e0", "e0")),), BadSpec, "element 'a' repeats an edge",
                      {"element": "a"}),
    "unknown edge": ((("a", ("e0", "zz")),), BadSpec,
                     "element 'a' references unknown edge 'zz'",
                     {"element": "a", "edge": "zz"}),
    "unequal": ((("a", _WHOLE), ("b", ("e0", "e1", "e2"))), NotUniform,
                "edges are covered between 1 and 2 times",
                {"examples": ["e3", "e4", "e5"]}),
    "uncovered": ((("a", _WHOLE[:-1]), ("b", _WHOLE[:-1])), NotUniform,
                  "edges are covered between 0 and 2 times", {"examples": ["e5"]}),
    "fold one": ((("a", _WHOLE[:3]), ("b", _WHOLE[3:])), BadSpec,
                 "a cover needs fold >= 2, got 1: every edge lies in one element "
                 "only, so no element overlaps another", {}),
    "disconnected": ((("far", ("e0", "e5")), ("ring", ("e1", "e2", "e3", "e4")),
                      ("all", _WHOLE)), DisconnectedElement,
                     "element 'far' is disconnected", {"element": "far"}),
}


@pytest.mark.parametrize("elements, error, message, context", _BAD_COVERS.values(),
                         ids=_BAD_COVERS)
def test_validate_cover_errors_and_their_context(elements, error, message, context,
                                                analyses):
    # a failed analysis is not kept: every call raises the same error again
    g = mg.platonic("tetrahedron")
    for call in range(1, 3):
        with pytest.raises(error) as exc:
            covers.validate_cover(g, covers.Cover("x", elements))
        assert str(exc.value) == message
        assert exc.value.context == context
        assert len(analyses) == call


def test_a_fold_one_cover_is_refused():
    # every edge of the tetrahedron lies in exactly one of the two halves,
    # so neither half overlaps the other
    g = corpus_graph("tetrahedron")
    halves = covers.Cover("halves", (("a", ("e0", "e1", "e2")),
                                     ("b", ("e3", "e4", "e5"))))
    residual = lambda g, c: covers.proof_identity_residual(g, c, reference_vicinity(g, c))
    for call in (covers.validate_cover, residual, bounds.transfer_bound):
        with pytest.raises(BadSpec, match="fold >= 2"):
            call(g, halves)


def test_vicinity_graph_has_no_self_overlap():
    g = corpus_graph("icosahedron")
    weights, _ = covers.vicinity_graph(g, covers.face_cover(g))
    assert not weights.diagonal().any()


def test_vicinity_weights_do_not_depend_on_the_hash_seed():
    # thirds and ninths are no short decimals, so they stay floats, and
    # summed in two orders they differ in the last bit
    a, b, c = 1 / 3, 2 / 3, 1 / 9
    assert a + b + c != c + b + a
    assert all(isinstance(e.length, float) for e in mg.pumpkin(3, [a, b, c]).edges)
    assert float_cube().grid is None
    # the weights and the Laplacian of the pumpkin's stars and the cube's faces
    code = ("from qgbounds import covers, metric_graph as mg\n"
            "from conftest import float_cube\n"
            f"for g, name in ((mg.pumpkin(3, {[a, b, c]!r}), 'stars'),\n"
            "                 (float_cube(), 'faces')):\n"
            "    rep = covers.validate_cover(g, covers.build_cover(g, name))\n"
            "    weights, degrees = rep.vicinity()\n"
            "    print([w.hex() for w in weights.ravel().tolist() + degrees.tolist()])\n"
            "    print(repr(rep.laplacian().tolist()))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(covers.__file__)))
    path = os.pathsep.join((src, os.path.dirname(os.path.abspath(__file__))))
    outputs = set()
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        s = a + b + c
        assert out.stdout.splitlines()[0] == repr(
            [w.hex() for w in (0.0, s, s, 0.0, s, s)]), seed
        outputs.add(out.stdout)
    assert len(outputs) == 1


def _float_covers():
    cube = float_cube()
    out = [(f"cube:{name}", cube, covers.build_cover(cube, name))
           for name in ("faces", "face_pairs", "stars")]
    fp = corpus_graph("four_pumpkin_golden")
    return out + [("four_pumpkin_golden:pumpkin_cycles", fp, covers.pumpkin_cycle_cover(fp))]


_FLOAT_COVERS = _float_covers()


@pytest.mark.parametrize("label, g, cover", _FLOAT_COVERS,
                         ids=[t[0] for t in _FLOAT_COVERS])
def test_float_overlaps_give_the_pairwise_laplacian(label, g, cover):
    # float overlaps are summed in graph edge order, the reference's in each
    # element's own order, so the two agree to rounding
    rep = covers.validate_cover(g, cover)
    assert rep.grid is None
    want = reference_laplacian(reference_vicinity(g, cover))
    np.testing.assert_allclose(rep.laplacian(), want, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# JSON round trip


def test_cover_json_round_trip():
    g = corpus_graph("cube")
    cover = covers.face_pair_cover(g)
    back = covers.cover_from_json(covers.cover_to_json(cover))
    assert back.name == cover.name
    assert edge_sets(back) == edge_sets(cover)
    assert covers.validate_cover(g, back).fold == 6


@pytest.mark.parametrize("data", [
    [],
    {"name": "x"},
    {"name": "x", "elements": ["e0"]},
    {"name": "x", "elements": {"a": "e0"}},
])
def test_cover_from_json_rejects(data):
    with pytest.raises(ParseError):
        covers.cover_from_json(data)


@pytest.mark.parametrize("eid, kind", [(["e0"], "an array"), ({"id": "e0"}, "an object")])
def test_cover_from_json_rejects_array_and_object_edge_ids(eid, kind):
    data = {"elements": {"a": ["e1", eid]}}
    with pytest.raises(ParseError, match=f"an edge of element 'a' is {kind}"):
        covers.cover_from_json(data)


# ---------------------------------------------------------------------------
# one analysis per graph and cover content

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_SWEEP_GRAPHS = {
    "chain": lambda: mg.pumpkin_chain((3, 2, 4), [Fraction(1, 2), 1, Fraction(3, 2)]),
    "platonic": lambda: mg.platonic("cube"),
    "four_pumpkin": lambda: mg.four_pumpkin(2 + math.sqrt(5)),
}


@pytest.fixture
def analyses(monkeypatch):
    """Every cover content the analysis runs on, in call order."""
    seen = []
    analyse = covers._analyse_cover

    def counted(g, cover):
        seen.append(cover.elements)
        return analyse(g, cover)

    monkeypatch.setattr(covers, "_analyse_cover", counted)
    return seen


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def _fingerprint(rep):
    """Everything a report carries, floats in float.hex."""
    return (rep.fold, rep.grid, list(rep.subgraphs),
            [(sub.vertices, sub.edges, _hex(sub.total_length))
             for sub in rep.subgraphs.values()],
            _hex(rep.overlap.tolist()), _hex(rep.laplacian().tolist()),
            rep.connected, _hex([a.tolist() for a in rep.vicinity()]))


@pytest.mark.parametrize("family", _SWEEP_GRAPHS)
def test_a_bounds_sweep_analyses_each_cover_once(family, analyses, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import APPLICABLE

    g = _SWEEP_GRAPHS[family]()
    used = [covers.build_cover(g, name) for name, _ in APPLICABLE[family]]
    for cover, (_, eta) in zip(used, APPLICABLE[family]):
        bounds.transfer_bound(g, cover, eta)
    bounds.star_bound(g)
    distinct = {cover.elements for cover in used + [covers.star_cover(g)]}
    assert sorted(analyses) == sorted(distinct)
    fresh = mg.graph_from_json(mg.graph_to_json(g))
    for cover in used:
        assert _fingerprint(covers.validate_cover(g, cover)) == _fingerprint(
            covers.validate_cover(fresh, cover))


def test_a_cover_is_keyed_by_content_not_name(analyses):
    g = mg.platonic("tetrahedron")
    elements = covers.star_cover(g).elements
    rep = covers.validate_cover(g, covers.Cover("a", elements))
    assert covers.validate_cover(g, covers.Cover("b", elements)) is rep
    assert len(analyses) == 1
    # element lists analyse like tuples, and share their report
    listed = covers.Cover("c", tuple((lbl, list(eids)) for lbl, eids in elements))
    assert covers.validate_cover(g, listed) is rep
    assert rep.fold == 2
    assert len(analyses) == 1
    # content that makes no key is refused before any analysis
    with pytest.raises(BadSpec, match="cover 'd' has an element that is not a "
                                      r"\(label, edge ids\) pair of hashable values"):
        covers.validate_cover(g, covers.Cover("d", (("a", None),)))
    assert len(analyses) == 1


def test_a_report_is_read_only():
    g = mg.platonic("tetrahedron")
    rep = covers.validate_cover(g, covers.face_cover(g))
    with pytest.raises(ValueError):
        rep.overlap[0, 0] = 0
    with pytest.raises(TypeError):
        rep.subgraphs["face0"] = g


def test_two_graphs_never_share_a_report(analyses):
    g, h = mg.platonic("cube"), mg.platonic("cube")
    assert g == h
    rep = covers.validate_cover(g, covers.face_cover(g))
    assert covers.validate_cover(h, covers.face_cover(h)) is not rep
    assert covers.validate_cover(g, covers.face_cover(g)) is rep
    assert len(analyses) == 2
