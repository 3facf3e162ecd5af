"""Normalized spectra of weighted graphs given as arrays, the two
eigensolvers, and the alpha_2 sandwich.

The Householder/QL eigensolver is checked against numpy's LAPACK route on
random symmetric matrices; the two implementations share no code, so
agreement is meaningful.  Both solvers refuse the same bad input.  The
Cheeger constant gets a second, plain-Python brute force.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qgbounds import covers
from qgbounds import metric_graph as mg
from qgbounds import spectral
from qgbounds.errors import BadParameter, Disconnected, NoConvergence, NotSymmetric, TooLarge

from conftest import corpus_graph, underlying

SQ5 = math.sqrt(5.0)


def _spectrum(weights, degrees) -> spectral.Spectrum:
    return spectral.eigenvalues_lapack(spectral.normalized_laplacian_dense(weights, degrees))


# ---------------------------------------------------------------------------
# the star vicinity of a pumpkin


def test_underlying_weighted_of_pumpkin():
    # the star cover's vicinity graph is the length-weighted underlying
    # graph: the two edges of a pumpkin merge into one K2 edge of weight 2
    p = mg.pumpkin(2, ["1/2", "3/2"])
    weights, degrees = covers.vicinity_graph(p, covers.star_cover(p))
    assert weights.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert degrees.tolist() == [2.0, 2.0]


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


def test_repeated_eigenvalues_of_k7():
    spec = _spectrum(np.ones((7, 7)) - np.eye(7), np.full(7, 6.0))
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
    return _spectrum(*underlying(g)).values


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
    got = _alpha(corpus_graph(name))
    assert got[0] == pytest.approx(0.0, abs=1e-10)
    assert got[1] > 1e-9  # connected
    assert all(-1e-10 <= a <= 2 + 1e-10 for a in got)
    assert sum(got) == pytest.approx(len(corpus_graph(name).vertices), abs=1e-8)


# ---------------------------------------------------------------------------
# Cheeger constant, second brute force


def _cheeger_slow(weights, degrees) -> float:
    w, deg = weights.tolist(), degrees.tolist()
    n = len(deg)
    total = sum(deg)
    best = math.inf
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            s = set(subset)
            cut = sum(w[u][v] for u in s for v in range(n) if v not in s)
            vol = sum(deg[v] for v in s)
            best = min(best, cut / min(vol, total - vol))
    return best


def _star_vicinity(g: mg.MetricGraph) -> tuple:
    return covers.vicinity_graph(g, covers.star_cover(g))


@pytest.mark.parametrize("build, known", [
    (lambda: underlying(mg.path_graph(1)), 1.0),
    (lambda: underlying(mg.cycle_graph(1, segments=4)), 0.5),
    (lambda: underlying(corpus_graph("tetrahedron")), 2 / 3),
    (lambda: underlying(corpus_graph("octahedron")), None),
    (lambda: underlying(corpus_graph("cube")), None),
    (lambda: _star_vicinity(mg.pumpkin_chain((3, 2, 4))), None),
])
def test_cheeger_against_slow_version(build, known):
    weights, degrees = build()
    h = spectral.cheeger_constant(weights, degrees)
    assert h == pytest.approx(_cheeger_slow(weights, degrees), abs=1e-12)
    if known is not None:
        assert h == pytest.approx(known, abs=1e-12)


def _path(n: int) -> tuple:
    weights = np.eye(n, k=1) + np.eye(n, k=-1)
    return weights, weights.sum(axis=1)


def test_cheeger_guards():
    with pytest.raises(TooLarge):
        spectral.cheeger_constant(*_path(23))
    # a path on two vertices and an isolated third one
    broken = np.zeros((3, 3))
    broken[:2, :2] = _path(2)[0]
    with pytest.raises(Disconnected):
        spectral.cheeger_constant(broken, broken.sum(axis=1))


def test_cheeger_needs_two_vertices():
    one = np.zeros((1, 1)), np.ones(1)
    with pytest.raises(BadParameter, match="needs at least two vertices"):
        spectral.cheeger_constant(*one)
    with pytest.raises(BadParameter, match="needs at least two vertices"):
        spectral.alpha2_sandwich(*one)


def test_inverse_weight_diameter():
    weights = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    assert spectral.inverse_weight_diameter(weights) == pytest.approx(1.5)
    with pytest.raises(Disconnected):
        spectral.inverse_weight_diameter(np.zeros((2, 2)))


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron",
                                  "icosahedron", "chain_324", "four_pumpkin_2"])
def test_alpha2_sandwich_brackets_alpha2(name):
    weights, degrees = underlying(corpus_graph(name))
    alpha2 = _spectrum(weights, degrees).values[1]
    sandwich = spectral.alpha2_sandwich(weights, degrees)
    assert sandwich.lower <= alpha2 + 1e-12
    assert alpha2 <= sandwich.upper + 1e-12
    assert sandwich.lower == max(sandwich.lower_cheeger, sandwich.lower_diameter)
