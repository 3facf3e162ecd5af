"""Weighted graphs, the two eigensolvers, and the alpha_2 sandwich.

The Householder/QL eigensolver is checked against numpy's LAPACK route on
random symmetric matrices; the two implementations share no code, so
agreement is meaningful.  Both solvers refuse the same bad input.  The
Cheeger constant gets a second, plain-Python brute force.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qgbounds import covers
from qgbounds import metric_graph as mg
from qgbounds import spectral
from qgbounds.errors import Disconnected, NoConvergence, NotSymmetric, TooLarge

from conftest import corpus_graph

SQ5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# WeightedGraph basics


def test_weighted_graph_validation():
    with pytest.raises(NotSymmetric):
        spectral.WeightedGraph(("a",), (("a", "a", Fraction(1)),))
    with pytest.raises(NotSymmetric):
        spectral.WeightedGraph(("a",), (("a", "zz", Fraction(1)),))
    with pytest.raises(NotSymmetric):
        spectral.WeightedGraph(("a", "b"), (("a", "b", Fraction(0)),))


def test_reduce_multigraph_merges_parallel_edges():
    wg = spectral.reduce_multigraph(
        ("u", "v"), [("u", "v", Fraction(1)), ("v", "u", Fraction(2))])
    assert wg.edges == (("u", "v", Fraction(3)),)
    assert wg.degree_vector == (Fraction(3), Fraction(3))
    assert wg.degree_vector is wg.degree_vector  # computed once
    assert wg.volume == Fraction(6)


def test_underlying_weighted_of_pumpkin():
    unit = spectral.underlying_weighted(mg.pumpkin(3))
    assert unit.edges == (("u", "v", Fraction(3)),)
    # the length-weighted reduced graph is the star cover's vicinity graph
    p = mg.pumpkin(2, [Fraction(1, 2), Fraction(3, 2)])
    by_len = covers.vicinity_graph(p, covers.star_cover(p))
    assert by_len.edges == (("star:u", "star:v", Fraction(2)),)


# ---------------------------------------------------------------------------
# eigensolver vs LAPACK (the test_jacobi_* names are kept: ROADMAP gates on them)


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (5, 2), (8, 3), (12, 4),
                                     (12, 5), (20, 6)])
def test_jacobi_matches_lapack_random(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    A = (B + B.T) / 2
    ours = spectral.eigenvalues_sym(A).values
    lapack = np.linalg.eigvalsh(A)
    assert len(ours) == n
    for a, b in zip(ours, lapack):
        assert a == pytest.approx(b, abs=1e-9)


def test_jacobi_small_and_exact_cases():
    assert spectral.eigenvalues_sym(np.zeros((0, 0))).values == ()
    assert spectral.eigenvalues_sym([[4.0]]).values == (4.0,)
    vals = spectral.eigenvalues_sym(np.diag([3.0, 1.0, 2.0])).values
    assert vals == (1.0, 2.0, 3.0)


SOLVERS = (spectral.eigenvalues_sym, spectral.eigenvalues_lapack)


def test_jacobi_rejects_bad_matrices():
    for solve in SOLVERS:
        with pytest.raises(NotSymmetric):
            solve(np.zeros((2, 3)))
        with pytest.raises(NotSymmetric):
            solve([[0.0, 1.0], [2.0, 0.0]])


def test_small_asymmetry_is_rejected():
    # 1e-6 is far above the 1e-10 * max|A| allowance
    for solve in SOLVERS:
        with pytest.raises(NotSymmetric):
            solve([[1.0, 1.0], [1.0 + 1e-6, 1.0]])
        with pytest.raises(NotSymmetric):
            solve([[1.0, math.nan], [math.nan, 1.0]])


def _complete_graph(n):
    return spectral.WeightedGraph(
        tuple(range(n)),
        tuple((i, j, Fraction(1)) for i in range(n) for j in range(i + 1, n)))


def test_repeated_eigenvalues_of_k7():
    spec = spectral.normalized_spectrum(_complete_graph(7))
    assert spec.values[0] == pytest.approx(0.0, abs=1e-12)
    for a in spec.values[1:]:
        assert a == pytest.approx(7 / 6, abs=1e-12)
    grouped = spec.grouped()
    assert [m for _, m in grouped] == [1, 6]
    assert grouped[1][0] == pytest.approx(7 / 6, abs=1e-12)


def test_diagonal_and_tridiagonal_inputs_come_back_exactly():
    rng = np.random.default_rng(11)
    diag = rng.normal(size=9)
    spec = spectral.eigenvalues_sym(np.diag(diag))
    assert spec.values == tuple(sorted(diag.tolist()))
    assert spec.achieved == 0.0

    n = 12
    main = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    T = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    d, e = spectral._tridiagonalize(T.copy())
    assert d == main.tolist()
    assert e == off.tolist() + [0.0]

    # second-difference matrix: eigenvalues 2 - 2 cos(k pi / (n + 1))
    L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    want = [2 - 2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)]
    assert spectral.eigenvalues_sym(L).values == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n, seed", [(60, 21), (150, 22)])
def test_matches_lapack_random_large(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    A = (B + B.T) / 2
    ours = spectral.eigenvalues_sym(A).values
    lapack = np.linalg.eigvalsh(A)
    assert len(ours) == n
    assert np.abs(np.array(ours) - lapack).max() <= 1e-9


@pytest.mark.parametrize("n, seed", [(5, 31), (40, 32), (40, 33), (100, 34)])
def test_achieved_within_tolerance(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    A = (B + B.T) / 2
    spec = spectral.eigenvalues_sym(A)
    assert 0.0 <= spec.achieved <= spectral._QL_TOL * np.abs(A).max()


def test_vectors_with_repeated_eigenvalue():
    n = 30
    rng = np.random.default_rng(41)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.concatenate([np.full(5, 0.5), rng.uniform(-3, 3, size=n - 5)])
    A = (Q * lam) @ Q.T
    A = (A + A.T) / 2
    spec = spectral.eigenvalues_sym(A)
    assert spec.values == pytest.approx(sorted(lam), abs=1e-12)
    assert [m for _, m in spec.grouped() if m > 1] == [5]


def test_no_convergence_is_reported(monkeypatch):
    monkeypatch.setattr(spectral, "_QL_MAX_STEPS", 0)
    with pytest.raises(NoConvergence):
        spectral.eigenvalues_sym([[1.0, 1.0], [1.0, 2.0]])
    # eigenvectors that are far from orthonormal void the residual bound
    monkeypatch.setattr(spectral.np.linalg, "eigh",
                        lambda A: (np.array([0.0, 3.0]), np.array([[1.0, 0.9], [0.0, 0.5]])))
    with pytest.raises(NoConvergence):
        spectral.eigenvalues_lapack([[1.0, 1.0], [1.0, 2.0]])


def test_spectrum_grouped():
    spec = spectral.Spectrum((0.0, 1.0, 1.0 + 1e-10, 2.0), 0.0)
    grouped = spec.grouped()
    assert [m for _, m in grouped] == [1, 2, 1]


# ---------------------------------------------------------------------------
# normalized spectra: closed forms


def _alpha(g: mg.MetricGraph):
    wg = spectral.underlying_weighted(g)
    return spectral.normalized_spectrum(wg).values


def test_alpha_known_small_graphs():
    # single edge (K2): {0, 2}
    assert _alpha(mg.path_graph(1)) == pytest.approx((0.0, 2.0), abs=1e-12)
    # reduced pumpkin is K2 again, any weight
    assert _alpha(mg.pumpkin(3)) == pytest.approx((0.0, 2.0), abs=1e-12)
    # 4-cycle: 1 - cos(2 pi k / 4) = {0, 1, 1, 2}
    assert _alpha(mg.cycle_graph(1, segments=4)) == pytest.approx(
        (0.0, 1.0, 1.0, 2.0), abs=1e-9)
    # 3-leaf star: {0, 1, 1, 2}
    assert _alpha(mg.star_graph([1, 1, 1])) == pytest.approx(
        (0.0, 1.0, 1.0, 2.0), abs=1e-9)
    # K4: {0, (4/3)^3}
    assert _alpha(corpus_graph("tetrahedron")) == pytest.approx(
        (0.0, 4 / 3, 4 / 3, 4 / 3), abs=1e-9)


# closed-form normalized spectra of the platonic vertex graphs as
# (value, multiplicity) lists
PLATONIC_ALPHA = {
    "tetrahedron": [(0, 1), (4 / 3, 3)],
    "cube": [(0, 1), (2 / 3, 3), (4 / 3, 3), (2, 1)],
    "octahedron": [(0, 1), (1, 3), (3 / 2, 2)],
    "dodecahedron": [(0, 1), ((3 - SQ5) / 3, 3), (2 / 3, 5), (1, 4),
                     (5 / 3, 4), ((3 + SQ5) / 3, 3)],
    "icosahedron": [(0, 1), ((5 - SQ5) / 5, 3), (6 / 5, 5), ((5 + SQ5) / 5, 3)],
}


def expand(groups):
    return [v for v, m in groups for _ in range(m)]


@pytest.mark.parametrize("name", sorted(PLATONIC_ALPHA))
def test_platonic_alpha_spectra(name):
    want = expand(PLATONIC_ALPHA[name])
    got = _alpha(corpus_graph(name))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron",
                                  "chain_324", "four_pumpkin_2"])
def test_alpha_range_and_trace(name):
    wg = spectral.underlying_weighted(corpus_graph(name))
    got = spectral.normalized_spectrum(wg).values
    assert got[0] == pytest.approx(0.0, abs=1e-10)
    assert got[1] > 1e-9  # connected
    assert all(-1e-10 <= a <= 2 + 1e-10 for a in got)
    assert sum(got) == pytest.approx(len(wg.vertices), abs=1e-8)


# ---------------------------------------------------------------------------
# Cheeger constant, second brute force


def _cheeger_slow(wg: spectral.WeightedGraph) -> float:
    verts = wg.vertices
    deg = dict(zip(verts, (float(d) for d in wg.degree_vector)))
    total = sum(deg.values())
    best = math.inf
    for r in range(1, len(verts)):
        for subset in itertools.combinations(verts, r):
            s = set(subset)
            cut = sum(float(w) for u, v, w in wg.edges if (u in s) != (v in s))
            vol = sum(deg[v] for v in s)
            best = min(best, cut / min(vol, total - vol))
    return best


def _star_vicinity(g: mg.MetricGraph) -> spectral.WeightedGraph:
    return covers.vicinity_graph(g, covers.star_cover(g))


@pytest.mark.parametrize("build, known", [
    (lambda: spectral.underlying_weighted(mg.path_graph(1)), 1.0),
    (lambda: spectral.underlying_weighted(mg.cycle_graph(1, segments=4)), 0.5),
    (lambda: spectral.underlying_weighted(corpus_graph("tetrahedron")), 2 / 3),
    (lambda: spectral.underlying_weighted(corpus_graph("octahedron")), None),
    (lambda: spectral.underlying_weighted(corpus_graph("cube")), None),
    (lambda: _star_vicinity(mg.pumpkin_chain((3, 2, 4))), None),
])
def test_cheeger_against_slow_version(build, known):
    wg = build()
    h = spectral.cheeger_constant(wg)
    assert h == pytest.approx(_cheeger_slow(wg), abs=1e-12)
    if known is not None:
        assert h == pytest.approx(known, abs=1e-12)


def test_cheeger_guards():
    path23 = spectral.WeightedGraph(
        tuple(range(23)),
        tuple((i, i + 1, Fraction(1)) for i in range(22)))
    with pytest.raises(TooLarge):
        spectral.cheeger_constant(path23)
    broken = spectral.WeightedGraph(("a", "b", "c"), (("a", "b", Fraction(1)),))
    with pytest.raises(Disconnected):
        spectral.cheeger_constant(broken)


def test_inverse_weight_diameter():
    wg = spectral.WeightedGraph(
        ("a", "b", "c"),
        (("a", "b", Fraction(1)), ("b", "c", Fraction(2))))
    assert spectral.inverse_weight_diameter(wg) == pytest.approx(1.5)
    with pytest.raises(Disconnected):
        spectral.inverse_weight_diameter(
            spectral.WeightedGraph(("a", "b"), ()))


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron",
                                  "icosahedron", "chain_324", "four_pumpkin_2"])
def test_alpha2_sandwich_brackets_alpha2(name):
    wg = spectral.underlying_weighted(corpus_graph(name))
    alpha2 = spectral.normalized_spectrum(wg).values[1]
    sandwich = spectral.alpha2_sandwich(wg)
    assert sandwich.lower <= alpha2 + 1e-12
    assert alpha2 <= sandwich.upper + 1e-12
    assert sandwich.lower == max(sandwich.lower_cheeger, sandwich.lower_diameter)
