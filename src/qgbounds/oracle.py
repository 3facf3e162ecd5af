"""Reference eigenvalue computations for the standard Laplacian on metric
graphs.

Two independent routes:

* an exact transcendental route for equilateral graphs (eigenvalues below
  the first branch threshold correspond one-to-one to discrete normalized
  Laplacian eigenvalues), extended to rational edge lengths by subdividing
  every edge at the common length grid, which leaves the metric space and
  hence the spectrum untouched;

* a finite-element route (piecewise linear, lumped mass) with Richardson
  extrapolation over a halved mesh, for arbitrary lengths and as a genuinely
  separate cross-check of the first route.

The transcendental route diagonalizes with this package's own Householder
and implicit-QL solver (``spectral.eigenvalues_sym``); the finite-element
route uses LAPACK/ARPACK.  They share no eigensolver, so agreement between
them is meaningful.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import metric_graph as mg
from .errors import (
    BadParameter,
    CountExceedsBranch,
    Disconnected,
    IncommensurableLengths,
    MeshTooCoarse,
    NotEquilateral,
    ThresholdExceeded,
    TooLarge,
    UnknownKind,
)
from .spectral import eigenvalues_sym, normalized_laplacian_sym, underlying_weighted

_BRANCH_EPS = 1e-9
_DENSE_CUTOFF = 900
# Largest subdivided graph the exact route diagonalises.  The dense solve
# grows like n^3: on a 2-CPU x86 host with one BLAS thread it took 0.15 s at
# 295 vertices, 0.5 s at 600, 1.8 s at 1000, 3.9 s at 1300, 5.7-7.0 s at 1500
# and 18 s at 2000, so at 1500 auto falls back to finite elements well
# within ~10 s.
_MATRIX_CAP = 1500
_MAX_HALVINGS = 12
_FD_NODE_CAP = 250_000
_FD_RTOL = 1e-3  # relative error estimate a finite-element value must meet


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
            raise CountExceedsBranch("need at least two eigenvalues for a gap")
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


# ---------------------------------------------------------------------------
# transcendental route


def equilateral_length(g: mg.MetricGraph) -> mg.Length:
    lens = {e.length for e in g.edges}
    if len(lens) != 1:
        raise NotEquilateral(
            f"edges have {len(lens)} distinct lengths")
    return lens.pop()


def von_below_spectrum(g: mg.MetricGraph,
                       count: Optional[int] = None) -> SpectrumResult:
    """All Laplacian eigenvalues below the first branch threshold of an
    equilateral graph, via the discrete normalized spectrum.

    For common edge length l, every eigenvalue lambda < (pi/l)^2 equals
    (arccos(1 - alpha) / l)^2 for exactly one normalized eigenvalue alpha
    of the reduced weighted vertex graph (parallel edges add weight), with
    matching multiplicities.  Discrete eigenvalues within _BRANCH_EPS of 2
    map to the threshold itself and are excluded; the subdivision wrapper
    recovers them on a finer grid.  With count=None returns everything
    below the threshold, otherwise exactly count values or raises
    CountExceedsBranch."""
    if not mg.is_connected(g):
        raise Disconnected("spectrum of a disconnected graph")
    ell = float(equilateral_length(g))
    wg = underlying_weighted(g)
    alphas = eigenvalues_sym(normalized_laplacian_sym(wg))
    threshold = (math.pi / ell) ** 2
    values = []
    for a in alphas.values:
        a = min(max(a, 0.0), 2.0)
        if a > 2.0 - _BRANCH_EPS:
            continue
        values.append((math.acos(1.0 - a) / ell) ** 2)
    values.sort()
    if values:
        values[0] = 0.0  # alpha_1 = 0 exactly on a connected graph
    if count is not None:
        if len(values) < count:
            raise CountExceedsBranch(
                f"only {len(values)} eigenvalues lie below the branch "
                f"threshold {threshold:.6g}, need {count}",
                available=len(values))
        values = values[:count]
    return SpectrumResult(tuple(values), "von_below",
                          {"threshold": threshold, "edge_length": ell,
                           "discrete_size": len(wg.vertices)})


def _subdivide(g: mg.MetricGraph, h: Fraction) -> mg.MetricGraph:
    vertices = list(g.vertices)
    edges = []
    for e in g.edges:
        n = e.length / h
        assert n.denominator == 1
        n = int(n)
        if n == 1:
            edges.append(e)
            continue
        prev = e.u
        for k in range(1, n):
            w = f"{e.id}#{k}"
            vertices.append(w)
            edges.append(mg.Edge(f"{e.id}#{k}s", prev, w, h))
            prev = w
        edges.append(mg.Edge(f"{e.id}#{n}s", prev, e.v, h))
    return mg.MetricGraph(tuple(vertices), tuple(edges), None)


def subdivision_spectrum(g: mg.MetricGraph, count: int = 6,
                         h: Optional[Fraction] = None) -> SpectrumResult:
    """Exact spectrum for rational edge lengths.

    Subdivides every edge on a common grid; degree-2 subdivision points do
    not change the metric space, so the equilateral result applies
    verbatim.  With no explicit ``h`` the grid starts at the gcd of the
    edge lengths and is halved until at least count eigenvalues sit
    strictly below the branch threshold (pi/h)^2.  An explicit ``h`` must
    divide every edge length and is used as-is; if the threshold then cuts
    off the requested eigenvalues, ThresholdExceeded asks for a smaller h.
    """
    if not all(isinstance(e.length, Fraction) for e in g.edges):
        raise IncommensurableLengths(
            "subdivision needs exact rational edge lengths")
    if not mg.is_connected(g):
        raise Disconnected("spectrum of a disconnected graph")
    pinned = h is not None
    if pinned:
        h = Fraction(h)
        if h <= 0:
            raise BadParameter(f"grid must be positive, got {h}")
        for e in g.edges:
            if (e.length / h).denominator != 1:
                raise IncommensurableLengths(
                    f"grid {h} does not divide edge {e.id} of length {e.length}")
    else:
        h = mg.rational_gcd([e.length for e in g.edges])
    attempts = 1 if pinned else _MAX_HALVINGS + 1
    for _ in range(attempts):
        n_vertices = len(g.vertices) + sum(
            int(e.length / h) - 1 for e in g.edges)
        if n_vertices > _MATRIX_CAP:
            raise TooLarge(
                f"subdivision at grid {h} needs {n_vertices} vertices "
                f"(cap {_MATRIX_CAP})")
        fine = _subdivide(g, h)
        try:
            res = von_below_spectrum(fine, count)
        except CountExceedsBranch as exc:
            if pinned:
                raise ThresholdExceeded(
                    f"grid {h} certifies only eigenvalues below (pi/h)^2; "
                    f"shrink h to expose {count}",
                    grid=str(h), **exc.context) from None
            h = h / 2
            continue
        meta = dict(res.meta)
        meta.update({"grid": str(h), "subdivided_vertices": n_vertices})
        return SpectrumResult(res.values, "subdivision", meta)
    raise CountExceedsBranch(
        f"could not expose {count} eigenvalues within {_MAX_HALVINGS} grid halvings")


# ---------------------------------------------------------------------------
# finite element route


def _fd_matrix(g: mg.MetricGraph, h_target: float):
    """Lumped P1 stiffness/mass pair on a per-edge uniform mesh.  The node
    count is checked against _FD_NODE_CAP before anything is assembled."""
    segments = [max(2, round(float(e.length) / h_target)) for e in g.edges]
    N = len(g.vertices) + sum(n - 1 for n in segments)
    if N > _FD_NODE_CAP:
        raise TooLarge(f"mesh {float(h_target):g} needs {N} nodes (cap {_FD_NODE_CAP})")
    import scipy.sparse as sparse  # only this route needs scipy (~30 MiB)

    index = {v: i for i, v in enumerate(g.vertices)}
    rows, cols, vals = [], [], []
    mass = [0.0] * N
    fresh = len(index)  # interior nodes are numbered after the vertices
    for e, n in zip(g.edges, segments):
        s = float(e.length) / n
        w = 1.0 / s
        path = [index[e.u], *range(fresh, fresh + n - 1), index[e.v]]
        fresh += n - 1
        for i, j in zip(path, path[1:]):
            rows.extend([i, j, i, j])
            cols.extend([i, j, j, i])
            vals.extend([w, w, -w, -w])
            mass[i] += s / 2
            mass[j] += s / 2
    K = sparse.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()
    dinv = 1.0 / np.sqrt(np.array(mass))
    A = sparse.diags(dinv) @ K @ sparse.diags(dinv)
    return A, N


def _fd_eigs(A, N: int, count: int) -> np.ndarray:
    if N <= _DENSE_CUTOFF:
        vals = np.linalg.eigvalsh(A.toarray())
        return vals[:count]
    import scipy.sparse.linalg as sparse_linalg

    k = min(count, N - 2)
    vals = sparse_linalg.eigsh(A, k=k, sigma=-1e-2, which="LM",
                               return_eigenvectors=False)
    return np.sort(vals)[:count]


def _fd_once(g: mg.MetricGraph, count: int, mesh: float) -> SpectrumResult:
    A2, N2 = _fd_matrix(g, mesh / 2)  # the finer mesh first: it hits the cap
    A1, N1 = _fd_matrix(g, mesh)
    want = min(count + 2, N1 - 1)
    coarse = _fd_eigs(A1, N1, want)
    fine = _fd_eigs(A2, N2, want)
    ext, errs = [], []
    for lc, lf in zip(coarse.tolist(), fine.tolist()):
        e = (lf - lc) / 3
        ext.append(lf + e)
        errs.append(abs(e))
    ext[0] = 0.0
    scale = [max(abs(x), 1.0) for x in ext]
    bad = [i for i in range(min(count, len(ext)))
           if errs[i] > _FD_RTOL * scale[i]]
    if bad:
        raise MeshTooCoarse(
            f"error estimate exceeds rtol={_FD_RTOL:g} at indices {bad}",
            estimates=[errs[i] for i in bad], mesh=mesh)
    return SpectrumResult(tuple(ext[:count]), "fd",
                          {"mesh": mesh, "nodes": N2,
                           "error_estimates": list(errs[:count])})


def fd_spectrum(g: mg.MetricGraph, count: int = 6,
                mesh: Optional[float] = None) -> SpectrumResult:
    """Finite-element eigenvalues with Richardson extrapolation.

    Solves on a mesh of width ~mesh and on its uniform refinement by two;
    the lumped P1 scheme converges at second order, so the extrapolation
    lam_fine + (lam_fine - lam_coarse)/3 cancels the leading error term and
    (lam_fine - lam_coarse)/3 estimates the remaining one.  Raises
    MeshTooCoarse when that estimate exceeds _FD_RTOL relative to the
    value; when no mesh was pinned explicitly the mesh is refined a few
    times first.  A pinned mesh must be finite and positive."""
    if mesh is not None and not (math.isfinite(mesh) and mesh > 0):
        raise BadParameter(f"mesh must be finite and positive, got {mesh}")
    if not mg.is_connected(g):
        raise Disconnected("spectrum of a disconnected graph")
    min_len = min(float(e.length) for e in g.edges)
    if mesh is not None:
        return _fd_once(g, count, min(mesh, min_len / 2))
    mesh = min_len / 8
    for _ in range(3):
        try:
            return _fd_once(g, count, mesh)
        except MeshTooCoarse:
            mesh /= 2
    return _fd_once(g, count, mesh)


# ---------------------------------------------------------------------------
# dispatch


def spectrum(g: mg.MetricGraph, count: int = 6, method: str = "auto",
             mesh: Optional[float] = None) -> SpectrumResult:
    """Best available oracle for the first count eigenvalues.

    auto picks the exact route for rational lengths (equilateral graphs
    included) and falls back to finite elements otherwise.  A pinned mesh
    is interpreted as the subdivision grid when it divides all (rational)
    edge lengths, and as the finite-element mesh width otherwise."""
    if method == "auto":
        if all(isinstance(e.length, Fraction) for e in g.edges):
            if mesh is not None:
                try:
                    return subdivision_spectrum(g, count, h=_as_grid(mesh))
                except IncommensurableLengths:
                    return fd_spectrum(g, count, mesh=float(mesh))
            try:
                return subdivision_spectrum(g, count)
            except TooLarge:
                return fd_spectrum(g, count, mesh=mesh)
        return fd_spectrum(g, count, mesh=mesh)
    if method == "von_below":
        return von_below_spectrum(g, count)
    if method == "subdivision":
        h = None if mesh is None else _as_grid(mesh)
        return subdivision_spectrum(g, count, h=h)
    if method == "fd":
        return fd_spectrum(g, count, mesh=mesh)
    raise UnknownKind(f"unknown oracle method {method!r}")


def _as_grid(mesh) -> Fraction:
    try:
        return Fraction(str(mesh)) if isinstance(mesh, float) else Fraction(mesh)
    except (ValueError, ZeroDivisionError):
        raise BadParameter(f"cannot use {mesh!r} as a rational grid") from None


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
