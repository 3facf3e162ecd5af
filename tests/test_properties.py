"""Property tests: transference bounds on random small rational graphs.

Every bound from the star cover and from two- and three-fold copies covers,
with every rigorous eta strategy that applies, must sit below the exact
oracle spectrum; the vicinity spectrum must lie in [0, 2]; the normalized
vicinity Laplacian must have trace equal to the number of elements; and the
algebraic identity behind the bound must hold to rounding error.  The star
bound must also be no weaker than the best-of-worsts star factor times
alpha.  On random rational graphs and covers, the vicinity Laplacian built
on the integer grid, and the bounds from it, must equal bit for bit those
from the pairwise Fraction reference, and every vicinity degree must be
(m-1) times its element's length.  On random symmetric matrices and
vicinity Laplacians, the LAPACK solver and the package's own must agree
within both their error bounds, and LAPACK's bound must be small.  The exact metric diameter must equal the largest vertex distance
after subdividing every edge at a quarter of the length gcd, where the
farthest points sit.  The exact oracle's Laplacian, assembled from the
edge list and step counts, must equal bit for bit the normalized Laplacian
of the subdivided graph built as a metric graph.  The finite-element
route's vertex solve must return, sorted, what dense LAPACK finds on the
full lumped matrix, multiple eigenvalues included, and its count must
bracket every value it returned.
Examples are drawn by the derandomised profile registered in conftest.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from qgbounds import bounds, covers, oracle
from qgbounds import metric_graph as mg
from qgbounds.errors import EtaUnavailable
from qgbounds.spectral import (
    eigenvalues_lapack,
    eigenvalues_sym,
    normalized_laplacian_sym,
    underlying_weighted,
)

from conftest import lumped_matrix, reference_vicinity

LENGTHS = ("1/2", "1", "3/2", "2")
BOUND_SLACK = 1e-6
ALPHA_SLACK = 1e-10


@st.composite
def multigraphs(draw, lengths=st.sampled_from(LENGTHS)):
    """Connected loopless multigraph on 2-5 vertices: a random spanning tree
    plus up to three extra (possibly parallel) edges, with lengths drawn
    from ``lengths`` (the rational LENGTHS by default)."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]), max_size=3))
    edges = [{"id": f"e{k}", "ends": [f"v{u}", f"v{v}"],
              "length": draw(lengths)}
             for k, (u, v) in enumerate(pairs)]
    return mg.graph_from_json(
        {"vertices": [f"v{i}" for i in range(n)], "edges": edges})


def _best_of_worsts_star_factor(g: mg.MetricGraph) -> float:
    """max(pi^2/(8 l_max^2), pi^2/(2 wdeg_max^2), 1/(2 (D*wdeg)_max)): the
    best of three factors, each the worst over all vertices, with D a
    star's diameter (its two longest edges, or twice its only one)."""
    l_max = max(float(e.length) for e in g.edges)
    wdeg_max = dd_max = 0.0
    for v in g.vertices:
        lengths = sorted((float(e.length) for e, _ in g.incident[v]), reverse=True)
        wdeg = float(g.weighted_degree(v))
        diam = lengths[0] + lengths[1] if len(lengths) >= 2 else 2.0 * lengths[0]
        wdeg_max = max(wdeg_max, wdeg)
        dd_max = max(dd_max, diam * wdeg)
    return max(math.pi ** 2 / (8.0 * l_max ** 2), math.pi ** 2 / (2.0 * wdeg_max ** 2),
               1.0 / (2.0 * dd_max))


@settings(max_examples=40)
@given(multigraphs())
def test_transfer_bounds_hold_on_random_rational_graphs(g):
    cover_list = [covers.star_cover(g), covers.copies_cover(g, 2),
                  covers.copies_cover(g, 3)]
    star = bounds.star_bound(g)
    factor = _best_of_worsts_star_factor(g)
    for b, a in zip(star.bounds, star.ingredients["alpha"]):
        assert b >= factor * a - 1e-12, (b, factor, a)
    reports = [star]
    for cover in cover_list:
        L = covers.validate_cover(g, cover).laplacian()
        assert abs(np.trace(L) - len(cover)) <= 1e-12
        assert covers.proof_identity_residual(g, cover, reference_vicinity(g, cover)) < 1e-12
        for eta in sorted(bounds.RIGOROUS_ETA):
            try:
                reports.append(bounds.transfer_bound(g, cover, eta))
            except EtaUnavailable:
                continue
    count = max(len(r.indices) for r in reports)
    exact = oracle.spectrum(g, count=count).values
    for r in reports:
        alpha = r.ingredients["alpha"]
        assert all(-ALPHA_SLACK <= a <= 2.0 + ALPHA_SLACK for a in alpha), r.method
        for i, b in zip(r.indices, r.bounds):
            assert b <= exact[i - 1] + BOUND_SLACK, (r.method, i, b, exact[i - 1])


RATIONALS = st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))


@st.composite
def rational_covers(draw):
    """A rational graph and a cover of it: a random multigraph's star or
    copies:2 / copies:3 cover, or a platonic solid with random rational
    lengths and its face or face-pair cover."""
    kind = draw(st.sampled_from(("stars", "copies:2", "copies:3", "faces", "face_pairs")))
    if kind in ("faces", "face_pairs"):
        solid = mg.platonic(draw(st.sampled_from(
            ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"))))
        g = mg.MetricGraph(solid.vertices, tuple(
            mg.Edge(e.id, e.u, e.v, draw(RATIONALS)) for e in solid.edges), solid.rotation)
    else:
        g = draw(multigraphs(RATIONALS))
    return g, covers.build_cover(g, kind)


def _hex(values) -> list:
    return [float(x).hex() for x in np.ravel(values)]


def _assert_grid_analysis_is_the_reference(g: mg.MetricGraph, cover: covers.Cover) -> None:
    rep = covers.validate_cover(g, cover)
    ref = reference_vicinity(g, cover)
    laplacian = normalized_laplacian_sym(ref)
    assert _hex(rep.laplacian()) == _hex(laplacian)
    assert rep.connected == ref.is_connected()
    degrees = dict(zip(ref.vertices, ref.degree_vector))
    for lbl, eids in cover.elements:
        length = sum((g.edge(eid).length for eid in eids), start=Fraction(0))
        assert rep.subgraphs[lbl].total_length == length
        assert degrees[lbl] == (rep.fold - 1) * length
    alpha = eigenvalues_lapack(laplacian).values
    for eta in sorted(bounds.RIGOROUS_ETA):
        try:
            got = bounds.transfer_bound(g, cover, eta)
        except EtaUnavailable:
            continue
        etas = [bounds.ETA_STRATEGIES[eta](mg.subgraph(g, eids)) for _, eids in cover.elements]
        factor = (rep.fold - 1) / rep.fold * min(etas)
        assert _hex(list(got.ingredients["eta_per_element"].values())) == _hex(etas)
        assert _hex(got.ingredients["alpha"]) == _hex(alpha)
        assert _hex(got.bounds) == _hex([factor * a if a > 1e-12 else 0.0 for a in alpha])


@settings(max_examples=60)
@given(rational_covers())
def test_grid_analysis_equals_the_pairwise_reference(graph_and_cover):
    _assert_grid_analysis_is_the_reference(*graph_and_cover)


@pytest.mark.parametrize("strategy", ["stars", "copies:2", "copies:3", "copies:6"])
def test_grid_analysis_past_float_and_int64_precision(strategy):
    g = mg.pumpkin(4, ["1/1000003", "1/1000033", "1/1000037", 2])
    # the steps pass 2^53, and the vicinity degrees (m-1) * sum(k) of
    # copies:6 pass int64
    assert g.grid.q >= 2**53 and max(g.grid.steps) >= 2**53
    cover = covers.build_cover(g, strategy)
    assert ((len(cover) - 1) * sum(g.grid.steps) >= 2**63) == (strategy == "copies:6")
    _assert_grid_analysis_is_the_reference(g, cover)


@st.composite
def symmetric_matrices(draw):
    """A random symmetric matrix of order 1-30, or the normalized vicinity
    Laplacian of a random rational cover."""
    if draw(st.booleans()):
        return covers.validate_cover(*draw(rational_covers())).laplacian()
    n = draw(st.integers(1, 30))
    B = draw(arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3)))
    return (B + B.T) / 2


@settings(max_examples=100)
@given(symmetric_matrices())
def test_both_eigensolvers_agree_within_their_error_bounds(A):
    lapack, own = eigenvalues_lapack(A), eigenvalues_sym(A)
    n = len(A)
    norm = max(1.0, float(np.linalg.norm(A)))
    slack = lapack.achieved + own.achieved + 8 * n * np.finfo(float).eps * norm
    assert len(lapack.values) == len(own.values) == n
    assert all(abs(a - b) <= slack for a, b in zip(lapack.values, own.values))
    assert 0.0 <= lapack.achieved <= 1e-12 * norm


def _subdivided_vertex_diameter(g: mg.MetricGraph) -> float:
    """Largest vertex distance of g with every edge cut into pieces of a
    quarter of the length gcd.  Every edge gets at least four pieces, so
    the subdivided graph has no parallel arcs; all pieces are multiples of
    1/8, so the float path sums are exact."""
    h = mg.rational_gcd([e.length for e in g.edges]) / 4
    index = {v: i for i, v in enumerate(g.vertices)}
    size = len(index)
    rows, cols = [], []
    for e in g.edges:
        n = int(e.length / h)
        path = [index[e.u], *range(size, size + n - 1), index[e.v]]
        size += n - 1
        rows += path[:-1]
        cols += path[1:]
    adj = coo_matrix(([float(h)] * len(rows), (rows, cols)), shape=(size, size))
    return float(shortest_path(adj.tocsr(), directed=False).max())


@settings(max_examples=200)
@given(multigraphs())
def test_metric_diameter_matches_subdivided_vertex_diameter(g):
    assert float(mg.metric_diameter(g)) == _subdivided_vertex_diameter(g)


def _subdivided(g: mg.MetricGraph, h) -> mg.MetricGraph:
    """g with every edge cut into pieces of length h, as a metric graph:
    the vertices of g first, then each edge's interior points in edge
    order."""
    vertices, edges = list(g.vertices), []
    for e in g.edges:
        path = [e.u, *((e.id, k) for k in range(1, int(e.length / h))), e.v]
        vertices += path[1:-1]
        edges += [mg.Edge((e.id, k, "s"), a, b, h)
                  for k, (a, b) in enumerate(zip(path, path[1:]))]
    return mg.MetricGraph(tuple(vertices), tuple(edges))


def _assert_assembly_is_subdivided_laplacian(g: mg.MetricGraph, h) -> None:
    steps = [int(e.length / h) for e in g.edges]
    want = normalized_laplacian_sym(underlying_weighted(_subdivided(g, h)))
    assert np.array_equal(oracle._subdivided_laplacian(g, steps), want)


@settings(max_examples=100)
@given(multigraphs(), st.integers(1, 3))
# parallel edges of one step merge into one weight
@example(mg.pumpkin(3), 1)
@example(mg.pumpkin(4, ["1/2", "1/2", "1", "3/2"]), 1)
@example(mg.pumpkin(4, ["1/2", "1/2", "1", "3/2"]), 2)
def test_subdivided_laplacian_matches_the_subdivided_graph(g, divisor):
    h = mg.rational_gcd([e.length for e in g.edges]) / divisor
    _assert_assembly_is_subdivided_laplacian(g, h)


def test_subdivided_laplacian_of_a_loop():
    # a loop of one grid step is built as two half-length edges, so the
    # coarsest grid already has a vertex inside the loop
    g = mg.split_loops(("a", "b"), (mg.Edge("e", "a", "b", Fraction(1)),
                                    mg.Edge("l", "a", "a", Fraction(1))))
    assert [e.length for e in g.edges] == [1, Fraction(1, 2), Fraction(1, 2)]
    _assert_assembly_is_subdivided_laplacian(g, Fraction(1, 2))
    _assert_assembly_is_subdivided_laplacian(g, Fraction(1, 4))


@st.composite
def fd_graphs(draw):
    """A multigraph with float lengths, an equilateral platonic solid, or an
    equilateral pumpkin of 2-18 edges."""
    kind = draw(st.sampled_from(("random", "platonic", "pumpkin")))
    if kind == "platonic":
        return mg.platonic(draw(st.sampled_from(
            ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"))),
            length=draw(st.sampled_from((1.0, math.sqrt(2)))))
    if kind == "pumpkin":
        return mg.pumpkin(draw(st.integers(2, 18)), 1.0)
    return draw(multigraphs(st.floats(0.25, 2.0)))


@settings(max_examples=40)
@given(fd_graphs(), st.integers(1, 30), st.integers(300, 900))
# multiple eigenvalues, many of them on a chain's Dirichlet value
@example(mg.platonic("icosahedron"), 30, 500)
@example(mg.platonic("dodecahedron", length=math.sqrt(2)), 30, 300)
@example(mg.pumpkin(18, 1.0), 8, 900)
# a double root where the whole vertex matrix vanishes
@example(mg.pumpkin(2, [0.5, 1.5]), 23, 900)
# Newton's method cycles between two points unless it is made to halve
@example(mg.MetricGraph(tuple(f"v{i}" for i in range(6)), tuple(
    mg.Edge(f"e{i}", f"v{a}", f"v{b}", length) for i, (a, b, length) in enumerate(
        [(0, 1, 1.0), (1, 2, math.sqrt(2)), (0, 3, math.sqrt(2)), (1, 4, 0.5),
         (1, 5, 1.5), (2, 5, 0.75)]))), 32, 100)
# a steep and a shallow eigencurve of S meet next to a close pair of roots,
# where a small Newton step does not mean a root is near
@example(mg.pumpkin(2, [0.5646087065052985, 0.5643333384014506]), 38, 401)
def test_fd_sparse_solve_matches_dense(g, want, nodes):
    chains = oracle._Chains(g, sum(float(e.length) for e in g.edges) / nodes)
    A = lumped_matrix(g, chains.n)
    dense = np.linalg.eigvalsh(A)[:want]
    seen = []  # every lam at which the vertex matrix was formed
    stacks = chains.stacks
    chains.stacks = lambda lam, slopes=False: seen.append(lam) or stacks(lam, slopes)
    values = chains.values(want)
    # never on a Dirichlet value, where the vertex matrix has a pole
    assert not np.isin(np.concatenate(seen), chains.dirichlet).any()
    assert np.all(np.diff(values) >= 0)
    # absolute floor: LAPACK rounds at about eps * ||A|| (the zero
    # eigenvalue comes out near 1e-10 on fine meshes)
    floor = 10 * np.finfo(float).eps * abs(A).sum(axis=1).max()
    np.testing.assert_allclose(values, dense, rtol=1e-9, atol=floor)
    # the vertex count brackets every value it returned: i - 1 values lie
    # below the i-th, and at least i just above it
    i = np.arange(2, values.size + 1)
    assert np.all(chains.count(values[1:] * (1 - 1e-9)) < i)
    assert np.all(i <= chains.count(values[1:] * (1 + 1e-9)))
