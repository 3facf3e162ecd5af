"""Discrete spectral tools for weighted multigraphs.

Holds the symmetric normalized Laplacian, two dense symmetric eigensolvers,
and the Cheeger-constant machinery used to sandwich the second normalized
eigenvalue.  Each solver has one job:

* ``eigenvalues_lapack`` gives the vicinity spectrum alpha of every
  transference bound.  It calls LAPACK (``numpy.linalg.eigh``) and measures
  an a-posteriori error bound on the eigenpairs it returns;
* ``eigenvalues_sym`` (Householder tridiagonalisation followed by implicit
  QL with Wilkinson shifts) serves only the exact oracle.  It calls no
  LAPACK eigenroutine, so the exact oracle never shares a code route with
  the finite-element oracle's LAPACK path when the two cross-check each
  other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import metric_graph as mg
from .errors import (
    Disconnected,
    IsolatedVertex,
    NoConvergence,
    NotSymmetric,
    TooLarge,
)

_CHEEGER_CAP = 22


@dataclass(frozen=True)
class WeightedGraph:
    """Finite weighted graph without parallel edges.

    vertices are labels; edges is a tuple of (u, v, weight) with exact
    weights where possible.  Loops are not allowed here: callers reduce
    multigraphs first."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        idx = self.index
        for u, v, w in self.edges:
            if u not in idx or v not in idx:
                raise NotSymmetric(f"edge ({u!r}, {v!r}) references unknown vertex")
            if u == v:
                raise NotSymmetric(f"loop at {u!r} not supported")
            if not w > 0:
                raise NotSymmetric(f"edge ({u!r}, {v!r}) has nonpositive weight {w}")

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def degree_vector(self) -> tuple:
        deg = [Fraction(0)] * len(self.vertices)
        idx = self.index
        for u, v, w in self.edges:
            deg[idx[u]] += w
            deg[idx[v]] += w
        return tuple(deg)

    @property
    def volume(self):
        return sum(self.degree_vector, start=Fraction(0))

    def is_connected(self) -> bool:
        pairs = ((u, v) for u, v, _ in self.edges)
        return len(mg.connected_components(self.vertices, pairs)) <= 1


def reduce_multigraph(vertices: Sequence, raw_edges: Sequence) -> WeightedGraph:
    """Merge parallel (u, v, w) edges by adding weights; reject loops upstream."""
    acc: dict = {}
    for u, v, w in raw_edges:
        key = (u, v) if str(u) <= str(v) else (v, u)
        acc[key] = acc.get(key, Fraction(0)) + w
    edges = tuple((u, v, w) for (u, v), w in sorted(acc.items(), key=lambda t: (str(t[0][0]), str(t[0][1]))))
    return WeightedGraph(tuple(vertices), edges)


def underlying_weighted(g) -> WeightedGraph:
    """Weighted graph underlying a metric graph: each edge has weight one,
    so parallel edges merge into their multiplicity."""
    return reduce_multigraph(g.vertices, [(e.u, e.v, Fraction(1)) for e in g.edges])


def normalized_laplacian_sym(wg: WeightedGraph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.  The degrees
    are summed exactly, in the weights' own arithmetic (int or Fraction),
    and rounded to float once."""
    idx = wg.index
    n = len(wg.vertices)
    A = np.zeros((n, n))
    for u, v, w in wg.edges:
        i, j = idx[u], idx[v]
        A[i, j] += float(w)
        A[j, i] += float(w)
    deg = wg.degree_vector
    for v, d in zip(wg.vertices, deg):
        if d == 0:
            raise IsolatedVertex(f"vertex {v!r} has weighted degree zero")
    return normalized_laplacian_dense(A, np.array([float(d) for d in deg]))


def normalized_laplacian_dense(A: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """I - D^{-1/2} A D^{-1/2} from a float adjacency matrix A and positive
    float degrees."""
    dinv = 1.0 / np.sqrt(deg)
    return np.eye(len(deg)) - (dinv[:, None] * A) * dinv[None, :]


# ---------------------------------------------------------------------------
# dense symmetric eigensolvers

_QL_MAX_STEPS = 30
_QL_TOL = 1e-12  # relative deflation floor of the QL sweep


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, plus ``achieved``, a bound on the
    distance of each from the exact eigenvalue at the same index, up to
    rounding in forming the bound.  ``eigenvalues_sym`` sets it to the
    Frobenius norm of the off-diagonal entries its QL sweep dropped;
    ``eigenvalues_lapack`` to a bound measured on its residual."""

    values: tuple
    achieved: float

    def grouped(self) -> list:
        """Cluster eigenvalues equal to a relative 1e-8 into (value,
        multiplicity) pairs."""
        out = []
        for v in self.values:
            if out and abs(v - out[-1][0]) <= 1e-8 * max(1.0, abs(v)):
                val, mult = out[-1]
                out[-1] = ((val * mult + v) / (mult + 1), mult + 1)
            else:
                out.append((v, 1))
        return out


def _tridiagonalize(B: np.ndarray):
    """Reduce symmetric B (overwritten) to tridiagonal form by Householder
    reflections.  Returns the diagonal d and the subdiagonal e (e[n-1] = 0)
    as float lists.

    Columns whose entries below the subdiagonal are already zero are left
    alone, so diagonal and tridiagonal inputs come back exactly."""
    n = B.shape[0]
    e = [0.0] * n
    for k in range(n - 2):
        x = B[k + 1:, k]
        x0 = float(x[0])
        sigma = float(x[1:] @ x[1:])
        if sigma == 0.0:
            e[k] = x0
            continue
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        u = x.copy()
        u[0] = x0 - alpha
        u /= math.sqrt(u[0] * u[0] + sigma)
        # H = I - 2uu^T: H S H = S - (u w^T + w u^T), p = 2Su, w = p - (u.p)u
        S = B[k + 1:, k + 1:]
        p = S @ u
        p *= 2.0
        uw = np.array([u, p - float(u @ p) * u])
        S -= uw.T @ uw[::-1]  # one BLAS product for u w^T + w u^T
        e[k] = alpha
    if n >= 2:
        e[n - 2] = float(B[n - 1, n - 2])
    return B.diagonal().tolist(), e


def _checked_symmetric(matrix):
    """The matrix as a fresh float array, symmetrised, and the largest entry
    of the input in magnitude (0.0 when empty).  Raises NotSymmetric unless
    it is square and symmetric to 1e-10 of that entry; a NaN fails too."""
    A = np.array(matrix, dtype=float, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        return A, 0.0
    scale = float(np.abs(A).max())
    if not float(np.abs(A - A.T).max()) <= 1e-10 * max(1.0, scale):  # NaN fails too
        raise NotSymmetric("matrix is not symmetric")
    return (A + A.T) / 2, scale


def eigenvalues_lapack(matrix) -> Spectrum:
    """All eigenvalues of a real symmetric matrix, ascending, from LAPACK,
    with a measured error bound.

    ``numpy.linalg.eigh`` returns values L and vectors V.  With the residual
    R = AV - VL and the loss of orthogonality F = V^T V - I, the orthogonal
    polar factor Q of V satisfies ||A - Q L Q^T||_F <= (||R||_F +
    2 ||F||_F max|L|) / sqrt(1 - ||F||_F), so by Weyl's inequality every
    value is within that bound, ``achieved``, of the exact one, up to
    rounding in R and F.  Raises NoConvergence if ||F||_F >= 1/2."""
    A, _ = _checked_symmetric(matrix)
    n = A.shape[0]
    if n == 0:
        return Spectrum((), 0.0)
    values, V = np.linalg.eigh(A)
    residual = float(np.linalg.norm(A @ V - V * values))
    drift = float(np.linalg.norm(V.T @ V - np.eye(n)))
    if not drift < 0.5:
        raise NoConvergence(
            f"eigenvectors from LAPACK are not orthonormal on {n} rows "
            f"(||V^T V - I||_F = {drift:.3g})", size=n)
    achieved = (residual + 2.0 * drift * float(np.abs(values).max())) / math.sqrt(1.0 - drift)
    return Spectrum(tuple(values.tolist()), achieved)


def eigenvalues_sym(matrix) -> Spectrum:
    """All eigenvalues of a real symmetric matrix, ascending, from this
    package's own solver; the exact oracle's only.

    Householder reflections reduce the matrix to tridiagonal form; implicit
    QL with Wilkinson shifts then diagonalises it.  An off-diagonal e_i is
    dropped once |e_i| <= max(eps (|d_i| + |d_{i+1}|), _QL_TOL * scale / (2n)),
    where scale is the largest entry in magnitude and _QL_TOL is 1e-12.
    ``achieved`` is the Frobenius norm of everything dropped, so by Weyl's
    inequality every value is within it of the exact one up to rounding.
    Uses no LAPACK eigenroutine, so it shares no code with the
    finite-element oracle it is checked against."""
    A, scale = _checked_symmetric(matrix)
    n = A.shape[0]
    if n == 0:
        return Spectrum((), 0.0)
    scale = max(scale, 1e-300)
    floor = _QL_TOL * scale / (2 * n)
    eps = sys.float_info.epsilon
    d, e = _tridiagonalize(A)
    dropped = 0.0
    for l in range(n):
        steps = 0
        while True:
            m = l
            while m < n - 1:
                em = abs(e[m])
                if em <= eps * (abs(d[m]) + abs(d[m + 1])) or em <= floor:
                    dropped += em * em
                    e[m] = 0.0
                    break
                m += 1
            if m == l:
                break
            if steps == _QL_MAX_STEPS:
                raise NoConvergence(
                    f"QL needed more than {_QL_MAX_STEPS} steps for "
                    f"eigenvalue {l} of {n}", index=l, size=n)
            steps += 1
            # Wilkinson shift from the leading 2x2 block, then chase the bulge
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: split here and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return Spectrum(tuple(sorted(d)), math.sqrt(2.0 * dropped))


def normalized_spectrum(wg: WeightedGraph) -> Spectrum:
    return eigenvalues_lapack(normalized_laplacian_sym(wg))


# ---------------------------------------------------------------------------
# Cheeger constant and the sandwich for the second eigenvalue


def cheeger_constant(wg: WeightedGraph) -> float:
    """Weighted Cheeger constant by exhaustive cuts.

    h = min over proper vertex subsets S of w(boundary S) / min(vol S,
    vol complement).  Enumerates the 2^(n-1) subsets containing a fixed
    vertex's complement side, so the size cap keeps this affordable."""
    n = len(wg.vertices)
    if n < 2:
        raise TooLarge("Cheeger constant needs at least two vertices")
    if n > _CHEEGER_CAP:
        raise TooLarge(f"{n} vertices exceeds the exhaustive-cut cap {_CHEEGER_CAP}")
    if not wg.is_connected():
        raise Disconnected("Cheeger constant of a disconnected graph is zero")
    idx = wg.index
    deg = np.array([float(d) for d in wg.degree_vector])
    total = deg.sum()
    ids = np.arange(1, 2 ** (n - 1), dtype=np.uint64)
    membership = np.zeros((len(ids), n), dtype=bool)
    for b in range(n - 1):
        membership[:, b] = (ids >> np.uint64(b)) & np.uint64(1)
    # vertex n-1 is pinned to the complement, so every proper subset shows up once
    cut = np.zeros(len(ids))
    for u, v, w in wg.edges:
        iu, iv = idx[u], idx[v]
        su = membership[:, iu] if iu < n - 1 else np.zeros(len(ids), dtype=bool)
        sv = membership[:, iv] if iv < n - 1 else np.zeros(len(ids), dtype=bool)
        cut += float(w) * (su ^ sv)
    vol = membership @ deg
    ratio = cut / np.minimum(vol, total - vol)
    return float(ratio.min())


def inverse_weight_diameter(wg: WeightedGraph) -> float:
    """Max over vertex pairs of the shortest path metric with edge costs 1/w."""
    dist = mg.shortest_distances(
        wg.vertices, ((u, v, 1.0 / float(w)) for u, v, w in wg.edges))
    m = float(max(max(row.values()) for row in dist.values()))
    if math.isinf(m):
        raise Disconnected("inverse-weight diameter of a disconnected graph")
    return m


@dataclass(frozen=True)
class Alpha2Sandwich:
    lower_cheeger: float
    lower_diameter: float
    upper: float

    @property
    def lower(self) -> float:
        return max(self.lower_cheeger, self.lower_diameter)


def alpha2_sandwich(wg: WeightedGraph) -> Alpha2Sandwich:
    """Two-sided bracket for the second normalized eigenvalue.

    Lower bounds: h^2/2 from the Cheeger inequality and 4/(diam_{1/w} * vol)
    from the inverse-weight diameter; upper bound 2h."""
    h = cheeger_constant(wg)
    diam = inverse_weight_diameter(wg)
    vol = float(wg.volume)
    return Alpha2Sandwich(
        lower_cheeger=h * h / 2,
        lower_diameter=4.0 / (diam * vol),
        upper=2 * h,
    )
