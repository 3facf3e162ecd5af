"""Reference eigenvalue computations for the standard Laplacian on metric
graphs.

Two independent routes:

* one exact route, ``subdivision_spectrum``: every edge is cut into l_e/h
  steps of a common grid h, which leaves the metric space and hence the
  spectrum untouched, and below the first branch threshold (pi/h)^2 the
  eigenvalues correspond one-to-one to the normalized Laplacian
  eigenvalues of the subdivided vertex graph (von Below 1985).  The grid is
  the graph's own integer grid (``MetricGraph.grid``: the gcd of the
  rational edge lengths and the integer step counts), halved until enough
  eigenvalues lie below the threshold, or pinned by the caller; a graph
  has that grid exactly when this route applies.  ``von_below_spectrum`` is
  the route pinned at the common length of an equilateral graph, rational
  or float.  No subdivided graph is built: the normalized Laplacian of its
  vertex graph is assembled straight from the edge list and the integer
  step counts;

* a finite-element route (piecewise linear, lumped mass) with Richardson
  extrapolation over a halved mesh, for arbitrary lengths and as a genuinely
  separate cross-check of the first route.  Up to _DENSE_CUTOFF mesh nodes
  it diagonalizes densely with LAPACK.  Above it, ARPACK in shift-invert
  mode computes only the eigenvalues asked for, and they are returned only
  when a SuperLU inertia count (Sylvester's law) confirms that ARPACK
  skipped none, as it can on a multiple eigenvalue.

Both routes cut edge e into n_e segments and number the nodes one way,
in ``_segments``: the vertices first, then each edge's interior points,
edge by edge.  The exact route diagonalizes with this package's own
Householder and implicit-QL solver (``spectral.eigenvalues_sym``); the
finite-element route uses LAPACK, ARPACK and SuperLU.  They share no
eigensolver, so agreement between them is meaningful.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import metric_graph as mg
from .errors import (
    BadParameter,
    IncommensurableLengths,
    MeshTooCoarse,
    NoConvergence,
    NotEquilateral,
    QGraphError,
    ThresholdExceeded,
    TooLarge,
    UnknownKind,
)
from .spectral import eigenvalues_sym, normalized_laplacian_dense

_BRANCH_EPS = 1e-9
# Largest finite-element matrix solved densely.  One solve on a 2-CPU x86
# host with one BLAS thread, best of 15, dense eigvalsh against the
# inertia-checked shift-invert route, on solids with random float lengths
# and a four-pumpkin, for 6-30 values: 1.0 against 3-6 ms at ~130 nodes,
# 1.9 against 4-6 ms at ~180, 4 against 4-7 ms at ~230, 6 against 4-8 ms
# at ~280 and 9.5 against 3.5-9 ms at ~350.
_DENSE_CUTOFF = 250
# Largest subdivided graph the exact route diagonalises.  The dense solve
# grows like n^3: on a 2-CPU x86 host with one BLAS thread it took 0.15 s at
# 295 vertices, 0.5 s at 600, 1.8 s at 1000, 3.9 s at 1300, 5.7-7.0 s at 1500
# and 18 s at 2000, so at 1500 auto falls back to finite elements well
# within ~10 s.  It also bounds the grid halvings: after k of them the grid
# has at least V + (2^k - 1) E vertices, and E >= 1, so by the 11th the cap
# raises TooLarge.
_MATRIX_CAP = 1500
_FD_NODE_CAP = 250_000
_FD_RTOL = 1e-3  # relative error estimate a finite-element value must meet
_FD_SOLVE_ATTEMPTS = 4  # shift-invert solves per mesh before NoConvergence
# The inertia count is taken this far (relative) above an ARPACK value.  Next
# to 12- and 18-fold eigenvalues of pumpkins (590-3,584 nodes) the count was
# wrong at 1e-9 and 1e-8 and right from 1e-7 on; ARPACK's own error is ~1e-12.
_FD_COUNT_GAP = 1e-5


@dataclass(frozen=True)
class SpectrumResult:
    """First eigenvalues of a metric graph, sorted ascending, 0 first."""

    values: tuple
    method: str
    meta: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """Second eigenvalue (the spectral gap for connected graphs)."""
        if len(self.values) < 2:
            raise BadParameter("need at least two eigenvalues for a gap")
        return self.values[1]

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        out = {"method": self.method, "values": list(self.values)}
        out.update({k: v for k, v in self.meta.items()
                    if isinstance(v, (int, float, str, list))})
        return out


def _check_count(count) -> None:
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise BadParameter(f"count must be an integer >= 1, got {count!r}")


# ---------------------------------------------------------------------------
# transcendental route


def equilateral_length(g: mg.MetricGraph) -> mg.Length:
    lens = {e.length for e in g.edges}
    if len(lens) != 1:
        raise NotEquilateral(
            f"edges have {len(lens)} distinct lengths")
    return lens.pop()


def _segments(g: mg.MetricGraph, n):
    """The two ends of each segment, edge by edge, and the node count, with
    edge e of g cut into n[e] equal segments: the vertices of g come first,
    then each edge's interior points, edge by edge."""
    n = np.asarray(n, dtype=np.int64)
    index = {v: i for i, v in enumerate(g.vertices)}
    u, v = np.array([(index[e.u], index[e.v]) for e in g.edges], dtype=np.int64).T
    fresh = len(g.vertices) + np.cumsum(n - 1) - (n - 1)  # first interior node
    edge = np.repeat(np.arange(len(n)), n)  # the edge of each segment
    k = np.arange(edge.size) - (np.cumsum(n) - n)[edge]  # its place on the edge
    left = np.where(k == 0, u[edge], fresh[edge] + k - 1)
    right = np.where(k == n[edge] - 1, v[edge], fresh[edge] + k)
    return left, right, len(g.vertices) + int(np.sum(n - 1))


def _subdivided_laplacian(g: mg.MetricGraph, steps) -> np.ndarray:
    """Normalized Laplacian of the vertex graph of g with edge e cut into
    steps[e] equal segments, numbered as in :func:`_segments`; parallel
    segments add weight one each."""
    left, right, N = _segments(g, steps)
    A = np.zeros((N, N))
    np.add.at(A, (left, right), 1.0)
    np.add.at(A, (right, left), 1.0)
    degrees = np.bincount(np.concatenate((left, right)), minlength=N)
    return normalized_laplacian_dense(A, degrees.astype(float))


def subdivision_spectrum(g: mg.MetricGraph, count: int = 6,
                         h: Optional[mg.Length] = None) -> SpectrumResult:
    """The first count eigenvalues, exactly, by cutting every edge into
    steps of a common grid h.

    Degree-2 points do not change the metric space, so von Below's
    relation applies to the subdivided graph: every eigenvalue
    lambda < (pi/h)^2 equals (arccos(1 - alpha) / h)^2 for exactly one
    normalized eigenvalue alpha of its vertex graph, with matching
    multiplicities.  Discrete eigenvalues within _BRANCH_EPS of 2 map to the
    threshold itself and are left out.  With no explicit ``h`` the grid
    starts at the gcd of the (rational) edge lengths and is halved until
    count eigenvalues sit strictly below the threshold.  An explicit ``h``,
    rational or float, must divide every edge length exactly and is used
    as-is; if the threshold then cuts off the requested eigenvalues,
    ThresholdExceeded asks for a smaller h.
    """
    _check_count(count)
    pinned = h is not None
    if pinned:
        if not 0 < h < math.inf:
            raise BadParameter(f"grid must be finite and positive, got {h}")
        grid = Fraction(h)  # the exact value of a float h
        steps = []
        for e in g.edges:
            k = Fraction(e.length) / grid
            if k.denominator != 1:
                raise IncommensurableLengths(
                    f"grid {h} does not divide edge {e.id} of length {e.length}")
            steps.append(k.numerator)
    elif g.grid is not None:
        h = grid = g.grid.h
        steps = list(g.grid.steps)
    else:
        raise IncommensurableLengths("subdivision needs exact rational edge lengths")
    halvings = 0
    while True:  # each halving adds vertices until the cap stops it
        n_vertices = len(g.vertices) + sum(steps) - len(steps)
        if n_vertices > _MATRIX_CAP:
            raise TooLarge(
                f"subdivision at grid {h} needs {n_vertices} vertices "
                f"(cap {_MATRIX_CAP})")
        ell = float(grid)
        values = []
        for a in eigenvalues_sym(_subdivided_laplacian(g, steps)).values:
            a = min(max(a, 0.0), 2.0)
            if a <= 2.0 - _BRANCH_EPS:
                values.append((math.acos(1.0 - a) / ell) ** 2)
        values.sort()
        threshold = (math.pi / ell) ** 2
        if len(values) >= count:
            values[0] = 0.0  # alpha_1 = 0 exactly on a connected graph
            return SpectrumResult(tuple(values[:count]), "subdivision", {
                "threshold": threshold, "grid": str(h),
                "subdivided_vertices": n_vertices, "halvings": halvings})
        if pinned:
            raise ThresholdExceeded(
                f"only {len(values)} eigenvalues lie below the branch threshold "
                f"(pi/h)^2 = {threshold:.6g} at grid {h}; shrink h to expose {count}",
                available=len(values), grid=str(h))
        h = grid = grid / 2
        steps = [2 * k for k in steps]
        halvings += 1


def von_below_spectrum(g: mg.MetricGraph, count: int = 6) -> SpectrumResult:
    """The first count eigenvalues of an equilateral graph (von Below 1985):
    the subdivision route pinned at the common edge length, rational or
    float, so the normalized spectrum of the graph's own vertex graph
    (parallel edges add weight) gives them.  Eigenvalues at or past the
    branch threshold raise ThresholdExceeded; the subdivision route
    reaches them on a finer grid."""
    res = subdivision_spectrum(g, count, h=equilateral_length(g))
    return SpectrumResult(res.values, "von_below", res.meta)


# ---------------------------------------------------------------------------
# finite element route


def _fd_matrix(g: mg.MetricGraph, h_target: float):
    """Lumped P1 stiffness over mass on a per-edge uniform mesh, as the
    symmetric M^-1/2 K M^-1/2, on the nodes of :func:`_segments`.  The node
    count is checked against _FD_NODE_CAP before anything is assembled."""
    lengths = np.array([float(e.length) for e in g.edges])
    # float, so that a tiny mesh cannot wrap a fixed-width integer
    segments = np.maximum(2.0, np.rint(lengths / h_target))
    N = len(g.vertices) + float(np.sum(segments - 1))
    if N > _FD_NODE_CAP:
        raise TooLarge(f"mesh {float(h_target):g} needs {N:.3g} nodes (cap {_FD_NODE_CAP})")
    import scipy.sparse as sparse  # only this route needs scipy (~30 MiB)

    n = segments.astype(np.int64)
    left, right, N = _segments(g, n)
    s = np.repeat(lengths / n, n)
    ends = np.concatenate((left, right))
    dinv = 1.0 / np.sqrt(np.bincount(ends, np.concatenate((s, s)) / 2, N))
    stiff = np.bincount(ends, np.concatenate((1.0 / s, 1.0 / s)), N)
    off = -dinv[left] * dinv[right] / s
    diag = np.arange(N)
    A = sparse.csr_matrix(
        (np.concatenate((off, off, stiff * dinv * dinv)),
         (np.concatenate((ends, diag)), np.concatenate((right, left, diag)))),
        shape=(N, N))
    return A, N


def _shifted_lu(A, mu: float):
    """SuperLU of A - mu I in symmetric mode: a minimum-degree ordering of
    A + A^T, applied to rows and columns alike, and no threshold pivoting, so
    every pivot stays on the diagonal unless one is exactly zero."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as sparse_linalg

    shifted = (A - mu * sparse.identity(A.shape[0], format="csr")).tocsc()
    return sparse_linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0, options={"SymmetricMode": True})


def _count_below(A, mu: float) -> Optional[int]:
    """How many eigenvalues of the symmetric A lie below mu.

    By Sylvester's law of inertia, A - mu I = P^T L D L^T P has as many
    negative eigenvalues as D has negative entries, and with every pivot on
    the diagonal (perm_r equal to perm_c) U's diagonal is D.  None when
    SuperLU had to pivot off the diagonal, or A - mu I is singular."""
    try:
        lu = _shifted_lu(A, mu)
    except RuntimeError:  # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _fd_eigs(A, N: int, want: int):
    """The want smallest eigenvalues of the symmetric positive semidefinite
    A, ascending, and the number of ARPACK solves made (0 for a dense one).

    Dense LAPACK up to _DENSE_CUTOFF nodes.  Above it, ARPACK in
    shift-invert mode, whose values are returned only when an inertia count
    confirms them: at the first gap after the values wanted (or just above
    the largest value returned) the count of eigenvalues below must equal
    the count returned below, because ARPACK can miss copies of a multiple
    eigenvalue.  A short count asks for as many more values as were missed,
    plus a margin."""
    if N <= _DENSE_CUTOFF:
        return np.linalg.eigvalsh(A.toarray())[:want], 0
    import scipy.sparse.linalg as sparse_linalg

    # seeded, so the result repeats; random, because a constant start stays
    # in an invariant subspace of a symmetric graph and misses eigenvalues
    v0 = np.random.default_rng(0).standard_normal(N)
    # A - shift I is positive definite: one factorisation serves every attempt
    shift = -1e-2
    inverse = sparse_linalg.LinearOperator((N, N), _shifted_lu(A, shift).solve,
                                           dtype=A.dtype)
    k = want + 2  # two spare values, so a gap after the last wanted is in view
    for attempt in range(1, _FD_SOLVE_ATTEMPTS + 1):
        k = min(k, N - 1)
        vals = np.sort(sparse_linalg.eigsh(A, k=k, sigma=shift, which="LM", v0=v0,
                                           OPinv=inverse, return_eigenvectors=False))
        tol = _FD_COUNT_GAP * np.maximum(vals, 1.0)
        gaps = np.flatnonzero(vals[want:] - vals[want - 1:-1] > 2 * tol[want - 1:-1])
        j = want + int(gaps[0]) if gaps.size else k  # certify vals[:j]
        below = _count_below(A, vals[j - 1] + tol[j - 1])
        if below == j:
            return vals[:want], attempt
        k += max(below or 0, j) - j + 8
    raise NoConvergence(
        f"shift-invert Lanczos did not match its inertia count on {N} nodes "
        f"after {_FD_SOLVE_ATTEMPTS} attempts", nodes=N, want=want)


def _fd_values(g: mg.MetricGraph, h: float, count: int):
    """The first count eigenvalues (fewer on a mesh with few nodes), the
    node count of the mesh of width ~h, and the ARPACK solves made."""
    A, N = _fd_matrix(g, h)
    values, attempts = _fd_eigs(A, N, min(count, N - 1))
    return values, N, attempts


def _extrapolate(coarse, fine, mesh: float, nodes: int, refinements: int,
                 sparse_attempts: int) -> SpectrumResult:
    ext, errs = [], []
    for lc, lf in zip(coarse.tolist(), fine.tolist()):
        e = (lf - lc) / 3
        ext.append(lf + e)
        errs.append(abs(e))
    ext[0] = 0.0
    bad = [i for i, (x, e) in enumerate(zip(ext, errs))
           if e > _FD_RTOL * max(abs(x), 1.0)]
    if bad:
        raise MeshTooCoarse(
            f"error estimate exceeds rtol={_FD_RTOL:g} at indices {bad}",
            estimates=[errs[i] for i in bad], mesh=mesh)
    return SpectrumResult(tuple(ext), "fd", {
        "mesh": mesh, "nodes": nodes, "error_estimates": errs,
        "refinements": refinements, "sparse_attempts": sparse_attempts})


def fd_spectrum(g: mg.MetricGraph, count: int = 6,
                mesh: Optional[float] = None) -> SpectrumResult:
    """Finite-element eigenvalues with Richardson extrapolation.

    Solves on a mesh of width ~mesh and on its uniform refinement by two;
    the lumped P1 scheme converges at second order, so the extrapolation
    lam_fine + (lam_fine - lam_coarse)/3 cancels the leading error term and
    (lam_fine - lam_coarse)/3 estimates the remaining one.  Raises
    MeshTooCoarse when that estimate exceeds _FD_RTOL relative to the
    value; when no mesh was pinned explicitly the mesh is halved a few
    times first, each refinement reusing the previous fine mesh as its
    coarse one.  A pinned mesh must be finite and positive, and so must
    its half, the width of the finer mesh.  The meta records the halvings
    made (``refinements``) and the ARPACK solves on the two meshes
    extrapolated (``sparse_attempts``, 0 when both were dense)."""
    _check_count(count)
    if mesh is not None:
        mesh = float(mesh)  # the command line pins an exact Fraction
        if not (math.isfinite(mesh) and mesh / 2 > 0):
            raise BadParameter(f"mesh and its half must be finite and positive, got {mesh}")
    min_len = min(float(e.length) for e in g.edges)
    refinements = 0 if mesh is not None else 3
    mesh = min(mesh, min_len / 2) if mesh is not None else min_len / 8
    # the finer mesh first: it hits the cap
    fine, nodes, fine_attempts = _fd_values(g, mesh / 2, count)
    coarse, _, coarse_attempts = _fd_values(g, mesh, count)
    for done in range(refinements):
        try:
            return _extrapolate(coarse, fine, mesh, nodes, done,
                                coarse_attempts + fine_attempts)
        except MeshTooCoarse:
            # mesh/2 rounds to the same segments, so its solve carries over
            mesh /= 2
            coarse, coarse_attempts = fine, fine_attempts
            fine, nodes, fine_attempts = _fd_values(g, mesh / 2, count)
    return _extrapolate(coarse, fine, mesh, nodes, refinements,
                        coarse_attempts + fine_attempts)


# ---------------------------------------------------------------------------
# dispatch


def spectrum(g: mg.MetricGraph, count: int = 6, method: str = "auto",
             mesh: Optional[float] = None) -> SpectrumResult:
    """Best available oracle for the first count eigenvalues.

    auto picks the exact route for rational lengths (equilateral graphs
    included), that is when g has an integer grid, and falls back to finite
    elements otherwise.  A pinned mesh is interpreted as the subdivision
    grid when it divides all (rational) edge lengths, and as the
    finite-element mesh width otherwise.  von_below takes no mesh: its grid
    is the common edge length.  When auto falls back to finite elements
    from the exact route, ``meta["fallback"]`` says why, as the error code
    and its message."""
    if method == "auto":
        if g.grid is not None:
            if mesh is not None:
                try:
                    return subdivision_spectrum(g, count, h=mg.as_length(mesh))
                except IncommensurableLengths as exc:
                    return _fd_fallback(g, count, mesh, exc)
            try:
                return subdivision_spectrum(g, count)
            except TooLarge as exc:
                return _fd_fallback(g, count, None, exc)
        return fd_spectrum(g, count, mesh=mesh)
    if method == "von_below":
        if mesh is not None:
            raise BadParameter("von_below takes no mesh: its grid is the common "
                               "edge length", mesh=str(mesh))
        return von_below_spectrum(g, count)
    if method == "subdivision":
        h = None if mesh is None else mg.as_length(mesh)
        return subdivision_spectrum(g, count, h=h)
    if method == "fd":
        return fd_spectrum(g, count, mesh=mesh)
    raise UnknownKind(f"unknown oracle method {method!r}")


def _fd_fallback(g: mg.MetricGraph, count: int, mesh: Optional[float],
                 exc: QGraphError) -> SpectrumResult:
    """The finite-element spectrum, recording why the exact route gave way."""
    res = fd_spectrum(g, count, mesh=mesh)
    res.meta["fallback"] = f"{exc.code}: {exc}"
    return res


# ---------------------------------------------------------------------------
# closed forms


def analytic_gap(kind: str) -> float:
    """Known spectral gaps, for spot checks: ``"cycle(L)"`` gives
    4 pi^2/L^2, ``"path(L)"`` gives pi^2/L^2, and
    ``"equilateral_pumpkin(m, l)"`` gives pi^2/l^2 (any m >= 2)."""
    text = kind.strip()
    m = re.fullmatch(r"(\w+)\s*\(([^)]*)\)", text)
    if not m:
        raise UnknownKind(f"cannot parse {kind!r}; expected name(args)")
    name, raw_args = m.group(1), m.group(2)
    try:
        args = [float(Fraction(s.strip())) for s in raw_args.split(",") if s.strip()]
    except (ValueError, ZeroDivisionError):
        raise UnknownKind(f"bad arguments in {kind!r}") from None
    if any(a <= 0 for a in args):
        raise UnknownKind(f"arguments must be positive in {kind!r}")
    pi2 = math.pi**2
    if name == "cycle" and len(args) == 1:
        return 4.0 * pi2 / args[0] ** 2
    if name == "path" and len(args) == 1:
        return pi2 / args[0] ** 2
    if name == "equilateral_pumpkin" and len(args) == 2:
        if args[0] < 2 or args[0] != int(args[0]):
            raise UnknownKind(f"pumpkin multiplicity must be an integer >= 2 in {kind!r}")
        return pi2 / args[1] ** 2
    raise UnknownKind(f"no closed form for {kind!r}")
