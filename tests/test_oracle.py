"""Exact and finite-element eigenvalue oracles.

The two routes are independent by construction (own Householder/QL solver
vs LAPACK), so cross-agreement between them is the main correctness check.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qgbounds import metric_graph as mg
from qgbounds import bounds, oracle
from qgbounds.errors import (
    BadParameter,
    Disconnected,
    IncommensurableLengths,
    MeshTooCoarse,
    NoConvergence,
    NotEquilateral,
    ThresholdExceeded,
    TooLarge,
    UnknownKind,
)

from conftest import lumped_matrix

PI2 = math.pi ** 2

PLATONIC_GAP = {
    "tetrahedron": math.acos(-1 / 3) ** 2,
    "cube": math.acos(1 / 3) ** 2,
    "octahedron": PI2 / 4,
    "dodecahedron": math.acos(math.sqrt(5) / 3) ** 2,
    "icosahedron": math.acos(math.sqrt(5) / 5) ** 2,
}


# ---------------------------------------------------------------------------
# transcendental route


@pytest.mark.parametrize("name, gap", sorted(PLATONIC_GAP.items()))
def test_von_below_gaps_match_closed_forms(name, gap):
    res = oracle.von_below_spectrum(mg.platonic(name), 2)
    assert res.values[0] == 0.0
    assert res.gap == pytest.approx(gap, abs=1e-12)
    assert res.method == "von_below"


def test_von_below_branch_budget():
    g = mg.platonic("icosahedron")
    full = oracle.von_below_spectrum(g, 12)
    assert len(full.values) == 12  # discrete spectrum stays below 2 entirely
    with pytest.raises(ThresholdExceeded) as exc:
        oracle.von_below_spectrum(g, 13)
    assert exc.value.context["available"] == 12
    assert exc.value.context["grid"] == "1"


def test_von_below_rejects():
    with pytest.raises(NotEquilateral):
        oracle.von_below_spectrum(mg.pumpkin(2, [1, 2]))
    # a disconnected graph is refused when built, before any oracle runs
    with pytest.raises(Disconnected):
        mg.MetricGraph(("a", "b", "c", "d"),
                       (mg.Edge("e0", "a", "b", Fraction(1)),
                        mg.Edge("e1", "c", "d", Fraction(1))))


def test_scaling_law():
    small = oracle.von_below_spectrum(mg.platonic("cube"), 6)
    big = oracle.von_below_spectrum(mg.platonic("cube", 2), 6)
    for a, b in zip(small.values, big.values):
        assert b == pytest.approx(a / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# subdivision route


COUNT_BY_SOLID = {"tetrahedron": 4, "cube": 6, "octahedron": 6,
                  "dodecahedron": 6, "icosahedron": 6}


@pytest.mark.parametrize("name, count", sorted(COUNT_BY_SOLID.items()))
def test_subdivision_agrees_with_direct_route(name, count):
    g = mg.platonic(name)
    direct = oracle.von_below_spectrum(g, count)
    halved = oracle.subdivision_spectrum(g, count, h=Fraction(1, 2))
    for a, b in zip(direct.values, halved.values):
        assert b == pytest.approx(a, abs=1e-9)
    assert halved.meta["grid"] == "1/2"


def test_dummy_vertices_do_not_change_the_spectrum():
    bent = mg.star_graph([Fraction(1, 2), Fraction(1, 3)])
    res = oracle.subdivision_spectrum(bent, 2)
    assert res.gap == pytest.approx(36 * PI2 / 25, abs=1e-9)

    cyc = mg.MetricGraph(
        ("a", "b", "c"),
        (mg.Edge("e0", "a", "b", Fraction(2)),
         mg.Edge("e1", "b", "c", Fraction(3)),
         mg.Edge("e2", "c", "a", Fraction(5))), None)
    res = oracle.subdivision_spectrum(cyc, 3)
    want = 4 * PI2 / 100
    assert res.values[1] == pytest.approx(want, abs=1e-9)
    assert res.values[2] == pytest.approx(want, abs=1e-9)  # circle pairs up


def test_equilateral_pumpkin_gap():
    # a short decimal such as 0.5 is as exact as Fraction(1, 2)
    for ell in (Fraction(1), Fraction(1, 2), 0.5):
        g = mg.pumpkin(3, [ell] * 3)
        res = oracle.subdivision_spectrum(g, 2)
        assert res.gap == pytest.approx(PI2 / float(ell) ** 2, abs=1e-12)


def test_pinned_grid_must_divide():
    g = mg.platonic("tetrahedron")
    with pytest.raises(IncommensurableLengths):
        oracle.subdivision_spectrum(g, 2, h=Fraction(2, 5))
    for h in (Fraction(0), math.inf, math.nan):
        with pytest.raises(BadParameter):
            oracle.subdivision_spectrum(g, 2, h=h)
    with pytest.raises(IncommensurableLengths):
        oracle.subdivision_spectrum(mg.four_pumpkin(2 + math.sqrt(5)), 2)
    # a pinned grid is read as an edge length is, here and through spectrum
    g = mg.pumpkin(2, [1 / 2, 1 / 2])
    res = oracle.subdivision_spectrum(g, 2, h=0.1)
    assert res.meta["grid"] == "1/10"
    routed = oracle.spectrum(g, 2, method="subdivision", mesh=0.1)
    assert routed.values == res.values and routed.meta["grid"] == "1/10"
    assert oracle.subdivision_spectrum(g, 2, h="1/4").meta["grid"] == "1/4"
    with pytest.raises(ThresholdExceeded) as exc:  # a circle of length 1
        oracle.subdivision_spectrum(g, 2, h="1/2")
    assert exc.value.context["grid"] == "1/2"
    with pytest.raises(BadParameter):
        oracle.subdivision_spectrum(g, 2, h=True)


def test_pinned_grid_threshold_is_strict():
    # at grid 1 the only certified eigenvalue of a circle of length 2 is 0
    with pytest.raises(ThresholdExceeded) as exc:
        oracle.subdivision_spectrum(mg.pumpkin(2), 2, h=Fraction(1))
    assert exc.value.context["grid"] == "1"
    res = oracle.subdivision_spectrum(mg.pumpkin(2), 2, h=Fraction(1, 4))
    assert res.gap == pytest.approx(PI2, abs=1e-9)


def test_a_grid_with_fewer_vertices_than_count_is_halved_unsolved(monkeypatch):
    # the unit dodecahedron has 20 vertices on its own grid: 26 values need
    # one halving, to 50 vertices, and no 20 x 20 matrix is solved on the way
    g = mg.platonic("dodecahedron")
    at_half = oracle.subdivision_spectrum(g, 26, h=Fraction(1, 2))
    sizes = []
    solve = oracle.eigenvalues_sym
    monkeypatch.setattr(oracle, "eigenvalues_sym", lambda A: sizes.append(len(A)) or solve(A))
    res = oracle.subdivision_spectrum(g, 26)
    assert sizes == [50]
    assert res.values == at_half.values
    assert res.meta == {**at_half.meta, "halvings": 1} and res.meta["grid"] == "1/2"
    # a pinned grid is solved all the same, to say how many values it has
    sizes.clear()
    with pytest.raises(ThresholdExceeded) as exc:
        oracle.subdivision_spectrum(mg.platonic("tetrahedron"), 5, h=1)
    assert sizes == [4] and exc.value.context["available"] == 4


def test_subdivision_size_cap():
    g = mg.pumpkin(2, [Fraction(1), Fraction(6001)])
    with pytest.raises(TooLarge):
        oracle.subdivision_spectrum(g, 2)


def test_subdivision_size_cap_is_checked_before_assembly():
    # ten million vertices: a dense matrix would need 800 TB
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        oracle.subdivision_spectrum(mg.pumpkin(2, [1, 10**7]), 2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("g", [
    mg.pumpkin_chain((4, 3, 2), [2, Fraction(2, 3), Fraction(5, 4)]),
    mg.pumpkin(3, [Fraction(1, 2), Fraction(1, 2), 1]),
    mg.platonic("cube"),
])
def test_both_routes_number_the_segments_alike(g):
    # at half the grid every edge has at least two segments, the fewest a
    # finite-element edge has, so both routes cut every edge alike, and the
    # lumped matrix on the exact route's numbering has the subdivided
    # graph's edges
    h = g.grid.h / 2
    steps = [2 * k for k in g.grid.steps]
    chains = oracle._Chains(g, float(h))
    assert chains.n.tolist() == steps
    A = lumped_matrix(g, chains.n)
    L = oracle._subdivided_laplacian(g, steps)
    assert L.shape == A.shape == (chains.nodes, chains.nodes)
    off = ~np.eye(chains.nodes, dtype=bool)
    np.testing.assert_array_equal((A != 0) & off, (L != 0) & off)


# ---------------------------------------------------------------------------
# finite element route


def test_fd_matches_closed_form_gap():
    res = oracle.fd_spectrum(mg.platonic("icosahedron"), 6)
    assert res.method == "fd"
    want = PLATONIC_GAP["icosahedron"]
    assert res.gap == pytest.approx(want, rel=1e-6)
    assert res.values[0] == 0.0
    assert all(e <= 1e-3 * max(abs(v), 1.0)
               for e, v in zip(res.meta["error_estimates"], res.values))


def test_fd_pinned_mesh_is_strict():
    with pytest.raises(MeshTooCoarse) as exc:
        oracle.fd_spectrum(mg.platonic("icosahedron"), 6, mesh=0.3)
    assert exc.value.context["mesh"] == pytest.approx(0.3)


def test_fd_pinned_mesh_above_half_the_shortest_edge_is_refused():
    # a pin is never replaced by a finer mesh behind the caller's back
    g = mg.pumpkin(2, [1, 3])
    with pytest.raises(BadParameter, match="exceeds half the shortest edge") as exc:
        oracle.fd_spectrum(g, 2, mesh=5)
    assert exc.value.context == {"mesh": 5.0, "limit": 0.5}
    with pytest.raises(BadParameter):  # through auto, when the pin is no grid
        oracle.spectrum(g, 2, mesh=0.7)
    # half the shortest edge itself is a mesh
    assert oracle.fd_spectrum(g, 1, mesh=0.5).meta["mesh"] == 0.5


def test_fd_unpinned_reach():
    # the finest pair is (1/64, 1/128) on unit edges: lambda_8 of the unit
    # two-pumpkin needs it, and lambda_9 is past it
    res = oracle.fd_spectrum(mg.pumpkin(2), 9)
    assert (res.meta["mesh"], res.meta["nodes"]) == (1 / 64, 2 + 2 * 127)
    with pytest.raises(MeshTooCoarse, match=r"at indices \[9\]$") as exc:
        oracle.fd_spectrum(mg.pumpkin(2), 10)
    assert exc.value.context["mesh"] == 1 / 64
    assert exc.value.context["estimates"] == [pytest.approx(0.30888, rel=1e-4)]


def test_fd_node_cap_reach(monkeypatch):
    # a chain 10,500 long on a unit shortest edge is served on its first pair
    g = mg.pumpkin_chain([2, 2], [[1, math.sqrt(2)], [6000, 4500 + math.pi]])
    res = oracle.fd_spectrum(g, 2)
    assert res.meta["refinements"] == 0 and res.meta["nodes"] > 160_000
    # twice as long, it passes the cap before any solve
    g = mg.pumpkin_chain([2, 2], [[1, math.sqrt(2)], [12000, 9000 + math.pi]])
    monkeypatch.setattr(oracle._Chains, "modes", None)
    with pytest.raises(TooLarge, match=f"nodes \\(cap {oracle._FD_NODE_CAP}\\)"):
        oracle.fd_spectrum(g, 2)


def test_fd_gap_on_a_pinned_mesh():
    res = oracle.fd_spectrum(mg.pumpkin(2), 2, mesh=1 / 40)
    assert res.meta["mesh"] == pytest.approx(1 / 40)
    assert res.gap == pytest.approx(PI2, rel=1e-5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mesh", [
    -1, 0, math.nan, math.inf, 5e-324, pytest.param(10**400, id="10**400"),
    pytest.param(Fraction(10**400), id="Fraction(10**400)"), True])
def test_fd_rejects_mesh_that_is_not_finite_and_positive(mesh):
    # -1 and inf would put two segments on every edge of both meshes, so
    # coarse would equal fine and a wrong gap would pass its error estimate;
    # half of 5e-324, the finer mesh, underflows to 0; 10**400 overflows a
    # float, and True is no length (read as 1, it would be a mesh of this
    # cube, whose half edge is 2.83)
    with pytest.raises(BadParameter):
        oracle.fd_spectrum(mg.platonic("cube", length=4 * math.sqrt(2)), 3, mesh=mesh)


def test_spectrum_rejects_a_mesh_past_the_float_range():
    # on a rational graph 10**400 divides no edge, so auto falls back to fd
    for g in (mg.platonic("cube"), mg.platonic("cube", length=math.sqrt(2))):
        with pytest.raises(BadParameter, match="too large for a float"):
            oracle.spectrum(g, 2, mesh=10**400)


def test_fd_pinned_fraction_mesh_equals_its_float():
    g = mg.platonic("cube", length=math.sqrt(2))
    exact = oracle.fd_spectrum(g, 3, mesh=Fraction(1, 20))
    assert exact == oracle.fd_spectrum(g, 3, mesh=0.05)


def test_fd_node_cap_is_checked_before_assembly():
    # the refined mesh would need ~3e8 nodes; the cap must fire first.  At
    # 1e-300 the segment count would wrap a fixed-width integer.
    for mesh in (1e-7, 1e-300):
        with pytest.raises(TooLarge):
            oracle.fd_spectrum(mg.platonic("cube", length=math.sqrt(2)), 3, mesh=mesh)


def test_fd_vertex_cap_is_checked_before_assembly(monkeypatch):
    # every lam costs a dense eigensolve of the vertex matrix, so a graph past
    # the cap raises TooLarge, through auto's fall back too, before anything
    # the size of that matrix is built
    g = mg.pumpkin_chain([2] * oracle._FD_VERTEX_CAP, math.sqrt(2))
    assert len(g.vertices) == oracle._FD_VERTEX_CAP + 1
    monkeypatch.setattr(oracle._Chains, "modes", None)
    rational = mg.pumpkin_chain([2] * oracle._FD_VERTEX_CAP)
    monkeypatch.setattr(oracle, "_MATRIX_CAP", 10)  # the exact route gives way
    for solve in (lambda: oracle.fd_spectrum(g, 4), lambda: oracle.spectrum(g, 40),
                  lambda: oracle.spectrum(rational, 40)):
        with pytest.raises(TooLarge, match=f"finite elements on 501 vertices "
                                           f"\\(cap {oracle._FD_VERTEX_CAP}\\)"):
            solve()
    # the comparison table leaves its oracle column empty
    assert bounds.tabulate(g, []).oracle_note.startswith("TooLarge: finite elements")


def test_fd_vertex_matrices_depend_on_their_own_lam_alone(monkeypatch):
    # stacks of one width and bounded size: a lam solved alone, in a batch
    # with lams that border other modes, or in stacks of one matrix, gives
    # the same bits
    g = mg.four_pumpkin(2 + math.sqrt(5))
    chains = oracle._Chains(g, 0.05)
    d = chains.dirichlet
    # the first two next to a pole: both unit edges border a mode there
    lam = np.array([d[3] * (1 + 1e-6), d[5] * (1 - 1e-7), d[0] * 1.5, (d[7] + d[8]) / 2])
    k = np.array([0, 1, 0, 1])
    assert len({T.shape for _, T, _ in chains.stacks(lam)}) > 1
    together = chains.newton(lam, k)
    monkeypatch.setattr(oracle, "_FD_STACK", 1)
    for i in range(lam.size):
        alone = chains.newton(lam[i:i + 1], k[i:i + 1])
        assert (alone[0][0], alone[1][0]) == (together[0][i], together[1][i])
    assert chains.count(lam).tolist() == [chains.count(lam[i:i + 1])[0] for i in range(4)]


@pytest.mark.parametrize("g, count", [(mg.four_pumpkin(2 + math.sqrt(5)), 8),
                                      (mg.platonic("cube", length=math.sqrt(2)), 12)])
def test_fd_bordered_vertex_matrices_give_the_same_eigenvalues(g, count, monkeypatch):
    # a mode is bordered only next to a pole, so outside the count probes a
    # whole solve may border none; with the threshold low, every row of every
    # count and Newton batch is bordered, and the roots stay put
    def slope_error(chains):
        # Newton's slope is d mu/d lam: against a central difference
        centre = np.unique(chains.dirichlet)
        lam, k = (centre[:5] + centre[1:6]) / 2, np.zeros(5, dtype=int)
        slope, h = chains.newton(lam, k)[1], 1e-6 * lam
        diff = (chains.newton(lam + h, k)[0] - chains.newton(lam - h, k)[0]) / (2 * h)
        return np.max(np.abs(slope / diff - 1))

    plain = oracle.fd_spectrum(g, count)
    assert slope_error(oracle._Chains(g, 0.05)) < 1e-6
    stacks = oracle._Chains.stacks
    borders = {False: [], True: []}

    def watched(self, lam, slopes=False):
        for out in stacks(self, lam, slopes):
            borders[slopes].append(out[1].shape[1] - self.V)
            yield out

    monkeypatch.setattr(oracle._Chains, "stacks", watched)
    monkeypatch.setattr(oracle, "_FD_BORDER", 1e-2)
    bordered = oracle.fd_spectrum(g, count)
    assert slope_error(oracle._Chains(g, 0.05)) < 1e-6
    assert min(borders[False]) > 0 and min(borders[True]) > 0
    assert bordered.values == pytest.approx(plain.values, rel=1e-12, abs=0)
    assert bordered.meta["mesh"] == plain.meta["mesh"]


def test_fd_vertex_names_cannot_clash_with_mesh_nodes():
    def triangle(third):
        return mg.graph_from_json({
            "vertices": ["a", "b", third],
            "edges": [{"id": "e0", "ends": ["a", "b"], "length": 1.0},
                      {"id": "e1", "ends": ["b", third], "length": 1.0},
                      {"id": "e2", "ends": [third, "a"], "length": 1.0}]})

    plain = oracle.fd_spectrum(triangle("c"), 3, mesh=0.05)
    # "e0%1" spells an interior node of e0 in a label-keyed mesh
    clash = oracle.fd_spectrum(triangle("e0%1"), 3, mesh=0.05)
    assert clash.values == plain.values
    assert clash.gap == pytest.approx(4 * PI2 / 9, rel=1e-6)


def test_fd_fine_mesh_repeats_bit_for_bit():
    # past a thousand nodes the solve still works on the cube's 8 x 8 vertex
    # matrices alone
    g = mg.platonic("cube", length=math.sqrt(2))
    first = oracle.fd_spectrum(g, 4, mesh=0.02)
    assert first.meta["nodes"] > 1000
    assert list(first.values) == sorted(first.values)
    # no state survives a call: another graph in between changes nothing
    oracle.fd_spectrum(mg.four_pumpkin(2 + math.sqrt(5)), 8, mesh=0.05)
    assert oracle.fd_spectrum(g, 4, mesh=0.02) == first


@pytest.mark.parametrize("count, mesh", [(32, 1 / 30), (30, None)])
def test_fd_finds_every_copy_of_multiple_eigenvalues(count, mesh):
    # the icosahedron of edge sqrt 2 has the spectrum of the unit one over 2,
    # with multiplicities up to 18; missed copies used to pass the
    # Richardson check on 2,532 nodes and raise MeshTooCoarse unpinned
    exact = oracle.subdivision_spectrum(mg.platonic("icosahedron"), count).values
    res = oracle.spectrum(mg.platonic("icosahedron", length=math.sqrt(2)), count, mesh=mesh)
    assert res.method == "fd" and res.meta["nodes"] > 900
    assert res.values == pytest.approx([x / 2 for x in exact], rel=1e-4, abs=1e-12)


def test_fd_never_returns_a_list_its_inertia_count_contradicts(monkeypatch):
    stacks = oracle._Chains.stacks

    def falling(self, lam, slopes=False):
        # the count at the top probe drops by 100, as no spectrum's count can
        for rows, T, extra, *rest in stacks(self, lam, slopes):
            yield (rows, T, extra + 100 * (lam[rows] == lam.max()), *rest)

    g = mg.platonic("cube", length=math.sqrt(2))
    monkeypatch.setattr(oracle._Chains, "stacks", falling)
    with pytest.raises(NoConvergence, match="inconsistent eigenvalue counts"):
        oracle.fd_spectrum(g, 4, mesh=0.02)
    monkeypatch.undo()
    # Newton's method that runs out of rounds
    monkeypatch.setattr(oracle, "_FD_NEWTON_ROUNDS", 1)
    with pytest.raises(NoConvergence, match="did not settle"):
        oracle.fd_spectrum(g, 4, mesh=0.02)


def test_fd_vertex_count_continues_past_the_top_of_a_chain():
    # on few nodes the top value lies past 4/s_e^2, the top of the 1- and
    # 1.5-edges' own chains (2 and 3 segments), where theta_e = pi + i phi_e
    # and tan, cot continue as tanh, coth: for even and odd counts alike
    g = mg.pumpkin(3, [1.0, 1.5, 3.3])
    chains = oracle._Chains(g, 0.5)
    assert chains.n.tolist() == [2, 3, 7]
    values = chains.values(chains.nodes)
    assert values.size == chains.nodes - 1
    assert (values[-1] * chains.s**2 > 4).tolist() == [True, True, False]
    dense = np.linalg.eigvalsh(lumped_matrix(g, chains.n))
    np.testing.assert_allclose(values, dense[:-1], rtol=1e-12, atol=1e-12)
    # past 4/min(s_e)^2 every eigenvalue lies below
    assert chains.count(np.array([4.04 / chains.s.min() ** 2])).tolist() == [chains.nodes]


def test_fd_dirichlet_values_closer_than_the_window_share_one():
    # two edges of nearly one length put their chains' Dirichlet values in
    # pairs 6e-11 apart, within a window (2e-10 wide): each pair must be one
    # window, or the probes around the two would not ascend
    g = mg.pumpkin(2, [math.sqrt(2), math.sqrt(2) * (1 + 3e-11)])
    chains = oracle._Chains(g, math.sqrt(2) / 8)
    d = chains.dirichlet
    np.testing.assert_allclose(d[1::2] / d[0::2] - 1, 6e-11, rtol=1e-5)
    values = chains.values(chains.nodes)
    dense = np.linalg.eigvalsh(lumped_matrix(g, chains.n))
    np.testing.assert_allclose(values, dense[:-1], rtol=1e-12, atol=1e-12)


def test_fd_dirichlet_table_is_every_chains_values_edge_by_edge():
    # the vectorised table against the chains' values computed one edge at
    # a time, (4/s_e^2) sin^2(j pi/(2 n_e)) for j = 1..n_e-1: the same bits
    chains = oracle._Chains(mg.pumpkin(3, [1.0, 1.5, 3.3]), 0.2)
    assert chains.n.tolist() == [5, 8, 16]
    loop = np.sort(np.concatenate([4 / s**2 * np.sin(np.pi * (np.arange(1, n) / (2 * n))) ** 2
                                   for s, n in zip(chains.s, chains.n.tolist())]))
    assert chains.dirichlet.tobytes() == loop.tobytes()


def test_fd_modes_inside_every_chain_band_match_the_general_path():
    # a batch whose every lam lies below each 4/s_e^2 skips the tanh and coth
    # branch; with one lam past the top of two chains it runs, and the rows
    # they share are the same bits
    chains = oracle._Chains(mg.pumpkin(3, [1.0, 1.5, 3.3]), 0.5)
    top = 4 / chains.s**2
    inside = np.linspace(0.3, 0.95 * top.min(), 11)
    past = np.append(inside, (top.min() + top.max()) / 2)
    assert (past[-1] > top).tolist() == [True, True, False]
    alone, mixed = chains.modes(inside, slopes=True), chains.modes(past, slopes=True)
    for a, b in zip(alone, mixed):
        assert a.tobytes() == b[:inside.size].tobytes()


def test_fd_rejects_disconnected():
    # the file is refused as it is read, with the same error as in Python
    doc = {"vertices": ["a", "b", "c", "d"],
           "edges": [{"id": "e0", "ends": ["a", "b"], "length": 1.5},
                     {"id": "e1", "ends": ["c", "d"], "length": 1.5}]}
    with pytest.raises(Disconnected):
        mg.graph_from_json(doc)


def test_a_loop_in_a_file_is_split_like_split_loops():
    # a loop one grid step long: the circle of length 1 hanging off a
    doc = {"vertices": ["a", "b"],
           "edges": [{"id": "e", "ends": ["a", "b"], "length": 1},
                     {"id": "l", "ends": ["a", "a"], "length": 1}]}
    parts = (("a", "b"), (mg.Edge("e", "a", "b", Fraction(1)),
                          mg.Edge("l", "a", "a", Fraction(1))))
    from_file = oracle.spectrum(mg.graph_from_json(doc), 2)
    assert from_file == oracle.spectrum(mg.split_loops(*parts), 2)
    assert from_file.method == "subdivision"
    fd = oracle.fd_spectrum(mg.split_loops(*parts), 2)
    assert from_file.values[1] == pytest.approx(fd.values[1], rel=1e-3)


# ---------------------------------------------------------------------------
# dispatch


def test_auto_dispatch_prefers_exact_route():
    g = mg.pumpkin_chain((2, 2, 2))
    assert oracle.spectrum(g, 4).method == "subdivision"
    irr = mg.four_pumpkin(2 + math.sqrt(5))
    assert oracle.spectrum(irr, 2, mesh=0.05).method == "fd"


def test_auto_dispatch_pinned_mesh():
    g = mg.pumpkin_chain((2, 2, 2))
    exact = oracle.spectrum(g, 4, mesh=Fraction(1, 4))
    assert exact.method == "subdivision"
    assert exact.meta["grid"] == "1/4"
    assert "fallback" not in exact.meta
    # a grid that does not divide the unit edges falls back to elements
    blurred = oracle.spectrum(g, 4, mesh=0.03)
    assert blurred.method == "fd"
    assert blurred.gap == pytest.approx(PI2 / 9, rel=1e-4)
    assert blurred.meta["fallback"] == (
        "IncommensurableLengths: grid 3/100 does not divide edge e1_1 of length 1")
    assert blurred.to_json()["fallback"] == blurred.meta["fallback"]
    # the fall back is the finite-element result plus its reason, and the
    # route asked for
    assert blurred.meta["requested"] == "auto"
    fd = oracle.spectrum(g, 4, mesh=0.03, method="fd")
    assert fd.meta["requested"] == "fd"
    assert fd.meta == {**{k: v for k, v in blurred.meta.items() if k != "fallback"},
                       "requested": "fd"}


def test_auto_dispatch_records_a_too_large_fallback(monkeypatch):
    # a cap below the graph's own vertex count stands for a huge subdivision
    monkeypatch.setattr(oracle, "_MATRIX_CAP", 3)
    g = mg.pumpkin_chain((2, 2, 2))
    res = oracle.spectrum(g, 4)
    assert res.method == "fd"
    assert res.meta["fallback"] == (
        "TooLarge: subdivision at grid 1 needs 4 vertices (cap 3)")
    assert res.to_json()["fallback"] == res.meta["fallback"]
    assert res.values == oracle.spectrum(g, 4, method="fd").values
    # an irrational graph never had the exact route to fall back from
    assert "fallback" not in oracle.spectrum(mg.four_pumpkin(2 + math.sqrt(5)), 2).meta


def test_meta_records_halvings_refinements_and_newton_rounds():
    # the unit tetrahedron has 4 eigenvalues below (pi/1)^2: a fifth needs
    # exactly one halving of its grid
    exact = oracle.spectrum(mg.platonic("tetrahedron"), 5)
    assert exact.meta == {"threshold": (2 * math.pi) ** 2, "grid": "1/2",
                          "subdivided_vertices": 10, "halvings": 1,
                          "requested": "auto"}
    assert exact.to_json()["halvings"] == 1
    # the start pair sqrt(2)/16, sqrt(2)/32 meets the estimate; the lam
    # points counted and the Newton rounds are those of the two meshes
    g = mg.platonic("cube", length=math.sqrt(2))
    res = oracle.spectrum(g, 6)
    meta = {k: v for k, v in res.to_json().items()
            if k not in ("values", "error_estimates", "count_evaluations", "newton_rounds")}
    assert meta == {"method": "fd", "requested": "auto", "mesh": math.sqrt(2) / 16,
                    "nodes": 380, "refinements": 0}
    assert list(res.to_json())[:3] == ["method", "requested", "values"]
    h = [math.sqrt(2) / 16, math.sqrt(2) / 32]
    coarse, fine = (oracle._Chains(g, x) for x in h)
    fine.values(6, oracle._finer(coarse.values(6), h[0], h[1]))  # from the coarse values
    assert res.meta["count_evaluations"] == coarse.evaluations + fine.evaluations
    assert res.meta["newton_rounds"] == coarse.rounds + fine.rounds > 0
    pinned = oracle.fd_spectrum(mg.pumpkin(2), 2, mesh=1 / 40)
    assert pinned.meta["refinements"] == 0 and pinned.meta["count_evaluations"] > 0
    # its lambda_1 sits on the chains' Dirichlet value: counts alone settle it
    assert pinned.meta["newton_rounds"] == 0
    assert "requested" not in pinned.meta
    # at most two halvings: lambda_3 of the unit two-pumpkin takes one,
    # lambda_8 both
    assert oracle.fd_spectrum(mg.pumpkin(2), 4).meta["refinements"] == 1
    assert oracle.fd_spectrum(mg.pumpkin(2), 9).meta["refinements"] == 2


IRRATIONAL = (1.0, math.sqrt(2), (1 + math.sqrt(5)) / 2, math.pi / 2)


def _irrational(g):
    """g with its edge lengths taken from IRRATIONAL in turn."""
    return mg.MetricGraph(g.vertices, tuple(
        mg.Edge(e.id, e.u, e.v, IRRATIONAL[i % 4]) for i, e in enumerate(g.edges)), g.rotation)


@pytest.mark.parametrize("g, count, rounds", [
    (_irrational(mg.platonic("tetrahedron")), 6, 9),
    (_irrational(mg.platonic("cube")), 8, 11),
    (mg.four_pumpkin(2 + math.sqrt(5)), 8, 11),
], ids=["tetrahedron", "cube", "four_pumpkin"])
def test_fd_newton_rounds_stay_pinned(g, count, rounds):
    # the batched rounds of both meshes, each solve ending in the round whose
    # straddle closes its last bracket (11, 13 and 13 rounds before the
    # straddle): a change that adds a round fails here
    res = oracle.spectrum(g, count)
    assert res.method == "fd" and res.meta["refinements"] == 0
    assert res.meta["newton_rounds"] == rounds


def test_explicit_methods_and_unknown():
    g = mg.platonic("tetrahedron")
    assert oracle.spectrum(g, 4, method="von_below").method == "von_below"
    assert oracle.spectrum(g, 4, method="subdivision").method == "subdivision"
    assert oracle.spectrum(g, 4, method="fd").method == "fd"
    with pytest.raises(UnknownKind):
        oracle.spectrum(g, 4, method="magic")
    with pytest.raises(NotEquilateral):
        oracle.spectrum(mg.pumpkin(2, [1, 2]), 2, method="von_below")


def test_von_below_refuses_a_mesh():
    # its grid is the common edge length, so a mesh would be ignored
    with pytest.raises(BadParameter, match="von_below takes no mesh"):
        oracle.spectrum(mg.platonic("tetrahedron"), 2, method="von_below",
                        mesh=Fraction(1, 7))


@pytest.mark.parametrize("length", [1, np.int64(1), 1.0, np.float32(1)])
def test_a_graph_of_edges_is_exact_whatever_its_length_type(length):
    g = mg.MetricGraph(("a", "b"), (mg.Edge("e0", "a", "b", length),
                                    mg.Edge("e1", "a", "b", length)))
    assert g.grid == mg.Grid(1, 1, (1, 1))
    res = oracle.spectrum(g, 2)
    assert res.method == "subdivision"
    assert res.gap == pytest.approx(PI2, rel=1e-12)


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda g, n: oracle.spectrum(g, n),
    lambda g, n: oracle.spectrum(g, n, method="fd"),
    lambda g, n: oracle.von_below_spectrum(g, n),
    lambda g, n: oracle.subdivision_spectrum(g, n),
    lambda g, n: oracle.fd_spectrum(g, n),
], ids=["spectrum", "spectrum_fd", "von_below", "subdivision", "fd"])
def test_every_route_rejects_a_count_below_one(call, count, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before checking the count")

    monkeypatch.setattr(oracle, "eigenvalues_sym", no_solve)
    monkeypatch.setattr(oracle, "_Chains", no_solve)
    with pytest.raises(BadParameter):
        call(mg.platonic("tetrahedron"), count)


@pytest.mark.parametrize("method, g", [
    ("von_below", mg.platonic("tetrahedron")),
    ("subdivision", mg.pumpkin_chain((3, 2, 4))),
    ("fd", mg.pumpkin(3, [1, math.sqrt(2), math.pi / 2])),
    ("auto", mg.pumpkin(3, [1, math.sqrt(2), math.pi / 2])),
    ("auto", mg.pumpkin(2, [Fraction(1), Fraction(3, 2)])),
])
def test_every_route_returns_plain_floats(method, g):
    res = oracle.spectrum(g, 3, method=method)
    assert all(type(v) is float for v in res.values)
    for est in res.meta.get("error_estimates", []):
        assert type(est) is float


def test_result_shape():
    res = oracle.spectrum(mg.platonic("cube"), 5)
    assert len(res) == 5
    assert res[0] == 0.0
    data = res.to_json()
    assert data["method"] == res.method
    assert data["values"] == list(res.values)
    with pytest.raises(BadParameter):
        oracle.SpectrumResult((0.0,), "stub").gap
