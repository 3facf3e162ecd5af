"""Shared fixtures: the graph corpus, a cached spectral oracle, the
unit-weight underlying graph, the pairwise reference for vicinity graphs
and the dense finite-element matrix."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from qgbounds import metric_graph as mg
from qgbounds import oracle
from qgbounds.spectral import normalized_laplacian_dense

# property tests draw the same examples on every run, so tier-1 stays
# deterministic; no deadline, because example times follow the host's load
settings.register_profile("qgbounds", derandomize=True, deadline=None)
settings.load_profile("qgbounds")

PLATONIC_NAMES = ("tetrahedron", "cube", "octahedron", "dodecahedron",
                  "icosahedron")

# name -> zero-argument builder.  Platonics, pumpkin chains with
# multiplicities in {2,3,4} and rational lengths, and 4-pumpkins across the
# crossover (including one irrational side length).
CORPUS = {
    **{name: (lambda n=name: mg.platonic(n)) for name in PLATONIC_NAMES},
    "chain_324": lambda: mg.pumpkin_chain((3, 2, 4)),
    "chain_342": lambda: mg.pumpkin_chain((3, 4, 2)),
    "chain_222": lambda: mg.pumpkin_chain((2, 2, 2)),
    "chain_234_mixed": lambda: mg.pumpkin_chain(
        (2, 3, 4), [Fraction(1, 2), 1, Fraction(3, 2)]),
    "chain_432_mixed": lambda: mg.pumpkin_chain(
        (4, 3, 2), [2, Fraction(2, 3), Fraction(5, 4)]),
    "four_pumpkin_1": lambda: mg.four_pumpkin(1),
    "four_pumpkin_2": lambda: mg.four_pumpkin(2),
    "four_pumpkin_golden": lambda: mg.four_pumpkin(2 + math.sqrt(5)),
    "four_pumpkin_5": lambda: mg.four_pumpkin(5),
    "four_pumpkin_10": lambda: mg.four_pumpkin(10),
}

# no two of them commensurable, and no short decimals, so a graph with
# these lengths has no integer grid
FLOAT_LENGTHS = (1 / 3, math.sqrt(2), math.pi / 2)


def float_cube() -> mg.MetricGraph:
    """The cube with edge lengths FLOAT_LENGTHS in turn, in edge order."""
    g = mg.platonic("cube")
    edges = tuple(mg.Edge(e.id, e.u, e.v, FLOAT_LENGTHS[i % 3])
                  for i, e in enumerate(g.edges))
    return mg.MetricGraph(g.vertices, edges, g.rotation)


CHAIN_NAMES = tuple(n for n in CORPUS if n.startswith("chain_"))
PUMPKIN_NAMES = tuple(n for n in CORPUS if n.startswith("four_pumpkin"))

_graphs: dict = {}
_spectra: dict = {}


def corpus_graph(name: str) -> mg.MetricGraph:
    if name not in _graphs:
        _graphs[name] = CORPUS[name]()
    return _graphs[name]


def corpus_oracle(name: str, count: int = 6) -> oracle.SpectrumResult:
    """Reference spectrum for a corpus graph, cached across tests.

    Rational graphs take the exact route; the irrational 4-pumpkin gets a
    fine finite-element mesh so its values are still good to ~1e-7."""
    cached = _spectra.get(name)
    if cached is not None and len(cached) >= count:
        return oracle.SpectrumResult(cached.values[:count], cached.method,
                                     cached.meta)
    g = corpus_graph(name)
    if all(isinstance(e.length, Fraction) for e in g.edges):
        res = oracle.spectrum(g, count=count)
    else:
        res = oracle.spectrum(g, count=count, mesh=0.02)
    _spectra[name] = res
    return res


@pytest.fixture(scope="session")
def graph_of():
    return corpus_graph


@pytest.fixture(scope="session")
def oracle_of():
    return corpus_oracle


def underlying(g: mg.MetricGraph) -> tuple:
    """The graph underlying a metric graph, each edge of weight one, so
    parallel edges add up: ``(weights, degrees)`` in vertex order, the
    floats of an integer adjacency matrix and of its row sums."""
    index = {v: i for i, v in enumerate(g.vertices)}
    A = np.zeros((len(index), len(index)), dtype=np.int64)
    for e in g.edges:
        A[index[e.u], index[e.v]] += 1
        A[index[e.v], index[e.u]] += 1
    return A.astype(float), A.sum(axis=1).astype(float)


def edge_sets(cover) -> dict:
    """Each element's label -> the set of its edge ids."""
    return {lbl: frozenset(eids) for lbl, eids in cover.elements}


def reference_vicinity(g: mg.MetricGraph, cover) -> np.ndarray:
    """The vicinity weight matrix built pair by pair, in cover order: each
    pair of elements gets the sum of its shared edge lengths, in Fraction
    arithmetic and in the first element's own edge order, and the
    diagonal is zero, so the row sums are the exact degrees.  It shares no
    code with the library's integer-grid overlaps, so it is the reference
    they are checked against."""
    sets = edge_sets(cover)
    n = len(cover)
    W = np.full((n, n), Fraction(0), dtype=object)
    for (i, (_, ea)), (j, (b, _)) in itertools.combinations(enumerate(cover.elements), 2):
        W[i, j] = W[j, i] = sum((g.edge(eid).length for eid in ea if eid in sets[b]),
                                start=Fraction(0))
    return W


def reference_laplacian(weights: np.ndarray) -> np.ndarray:
    """The normalized Laplacian of a reference weight matrix: the floats of
    its entries and of its row sums, each sum taken in the matrix's own
    arithmetic and rounded once."""
    return normalized_laplacian_dense(weights.astype(float),
                                      weights.sum(axis=1).astype(float))


def lumped_matrix(g: mg.MetricGraph, n) -> np.ndarray:
    """The lumped P1 stiffness over mass, M^-1/2 K M^-1/2, dense, with edge e
    cut into n[e] equal segments and the nodes numbered by oracle._segments:
    the matrix the finite-element route reduces onto the vertices."""
    left, right, N = oracle._segments(g, n)
    s = np.repeat([float(e.length) / k for e, k in zip(g.edges, n)], n)
    K = np.zeros((N, N))
    np.add.at(K, (left, left), 1 / s)
    np.add.at(K, (right, right), 1 / s)
    np.add.at(K, (left, right), -1 / s)
    np.add.at(K, (right, left), -1 / s)
    scale = 1 / np.sqrt(np.bincount(np.concatenate((left, right)),
                                    np.concatenate((s, s)) / 2, N))
    return scale[:, None] * K * scale[None, :]
