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
  separate cross-check of the first route.  Every interior mesh node has
  degree 2, so the pencil reduces exactly onto the graph's vertices
  (Wittrick & Williams 1971): the number of eigenvalues below lam is the
  chains' Dirichlet count plus the negative inertia of a V x V Schur
  complement S(lam), known in closed form (``_Chains``).  Counts place
  every wanted index; Newton's method on the eigenvalue of S that crosses
  0 then finds it, with numpy alone.  The cost grows with the number of
  vertices V (a dense V x V eigensolve per lam) rather than with the mesh,
  and graphs past _FD_VERTEX_CAP vertices raise TooLarge.

The exact route cuts edge e into n_e segments and numbers the nodes in
``_segments``: the vertices first, then each edge's interior points, edge by
edge; the finite-element route cuts its edges alike but never numbers the
interior points.  The exact route diagonalizes with this package's own
Householder and implicit-QL solver (``spectral.eigenvalues_sym``); the
finite-element route uses LAPACK on V x V matrices.  They share no
eigensolver, so agreement between them is meaningful.
"""

from __future__ import annotations

import math
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
# Largest subdivided graph the exact route diagonalises.  The dense solve
# grows like n^3: on a 2-CPU x86 host with one BLAS thread it took 0.15 s at
# 295 vertices, 0.5 s at 600, 1.8 s at 1000, 3.9 s at 1300, 5.7-7.0 s at 1500
# and 18 s at 2000, so at 1500 auto falls back to finite elements well
# within ~10 s.  It also bounds the grid halvings: after k of them the grid
# has at least V + (2^k - 1) E vertices, and E >= 1, so by the 11th the cap
# raises TooLarge.
_MATRIX_CAP = 1500
# Most nodes one finite-element mesh may have.  The solve works on V x V
# matrices whatever the mesh; the cap bounds the chains' sorted Dirichlet
# table, one float per interior node, and its temporaries.  Unpinned, the
# first fine mesh is min_len/32, so a graph has about twice the nodes it had
# when the schedule began one halving coarser under a cap of 250,000: the
# same graphs are served, but for those within E - V/2 nodes of that cap,
# where the rounding of the segment counts decides.  On a 2-CPU x86 host
# with one BLAS thread, 2 values of a two-pumpkin chain about 15,600 long
# (best of 15, fresh process) took 0.043 s and peaked at 63 MiB of RSS at
# 498,577 nodes, 31 MiB of it the import; that schedule took 0.022 s and
# 49 MiB on it, at 249,288.
_FD_NODE_CAP = 500_000
# Most vertices the finite-element route takes.  Every lam it evaluates
# costs a dense V x V eigensolve, whatever the mesh: on a 2-CPU x86 host with
# one BLAS thread, 40 values of a pumpkin chain with irrational lengths took
# 0.4 s at 100 vertices, 1.5 s at 200, 5.6 s at 400 and 10 s at 500 (6
# values: 0.07, 0.23, 0.8 and 1.6 s).
_FD_VERTEX_CAP = 500
_FD_STACK = 1 << 20  # most entries in one stack of vertex matrices
_FD_RTOL = 1e-3  # relative error estimate a finite-element value must meet
# The finite-element count is taken this far (relative) on either side of a
# chain's Dirichlet value, where the vertex matrix has a pole, and an
# eigenvalue in between is reported at the Dirichlet value.
_FD_WINDOW = 1e-10
_FD_NEWTON_STOP = 1e-12  # Newton's method stops on a bracket this narrow (relative)
_FD_NEWTON_ROUNDS = 60  # per mesh, before NoConvergence
# Newton's method straddles its root once its last move is at most this
# (relative), about sqrt(_FD_NEWTON_STOP)/10: converging quadratically, x
# then lies well within _FD_NEWTON_STOP of the root
_FD_STRADDLE = 1e-7
# A chain mode whose coefficient (times s_e) exceeds this, next to a pole,
# is bordered rather than added into the vertex matrix.
_FD_BORDER = 100
_BELOW_ONE = np.nextafter(1.0, 0.0)


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
        meta = {k: v for k, v in self.meta.items()
                if isinstance(v, (int, float, str, list))}
        out = {"method": self.method}
        if "requested" in meta:
            out["requested"] = meta.pop("requested")
        out["values"] = list(self.values)
        out.update(meta)
        return out


def _check_count(count) -> None:
    if not mg.is_count(count, 1):
        raise BadParameter(f"count must be an integer >= 1, got {count!r}")


# ---------------------------------------------------------------------------
# transcendental route


def _ends(g: mg.MetricGraph):
    """Positions in ``g.vertices`` of each edge's two ends, as two int64 arrays."""
    index = {v: i for i, v in enumerate(g.vertices)}
    return np.array([(index[e.u], index[e.v]) for e in g.edges], dtype=np.int64).T


def _segments(g: mg.MetricGraph, n):
    """The two ends of each segment, edge by edge, and the node count, with
    edge e of g cut into n[e] equal segments: the vertices of g come first,
    then each edge's interior points, edge by edge.  The exact route's
    numbering; the tests assemble the finite-element matrix on it too."""
    n = np.asarray(n, dtype=np.int64)
    u, v = _ends(g)
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
    count eigenvalues sit strictly below the threshold, without a solve
    while it has fewer than count vertices.  An explicit ``h``
    is read by ``mg.as_length``, as edge lengths are (so 0.1 is 1/10), must
    divide every edge length exactly and is used as-is; if the threshold
    then cuts off the requested eigenvalues, ThresholdExceeded asks for a
    smaller h.
    """
    _check_count(count)
    pinned = h is not None
    if pinned:
        h = mg.as_length(h)
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
        # no grid gives more values than it has vertices, so a grid with
        # fewer is halved unsolved; a pinned one is solved, for ``available``
        if pinned or n_vertices >= count:
            ell = float(grid)
            values = []
            for a in eigenvalues_sym(_subdivided_laplacian(g, steps)).values:
                a = min(max(a, 0.0), 2.0)
                if a <= 2.0 - _BRANCH_EPS:
                    values.append((math.acos(1.0 - a) / ell) ** 2)
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
    lengths = {e.length for e in g.edges}
    if len(lengths) != 1:
        raise NotEquilateral(f"edges have {len(lengths)} distinct lengths")
    res = subdivision_spectrum(g, count, h=lengths.pop())
    return SpectrumResult(res.values, "von_below", res.meta)


# ---------------------------------------------------------------------------
# finite element route


class _Chains:
    """The lumped P1 pencil K - lam M on a per-edge uniform mesh of width ~h,
    reduced exactly onto the vertices of g.

    Edge e is cut into n_e = max(2, rint(l_e/h)) segments of width s_e.
    Its n_e - 1 interior nodes all have degree 2, so they form a chain
    whose Dirichlet eigenvalues are (4/s_e^2) sin^2(j pi/(2 n_e)),
    j = 1..n_e-1 (``dirichlet``: every chain's, sorted).  Away from them
    the chains can be eliminated, which leaves a V x V Schur complement
    S(lam), and by Haynsworth's inertia additivity the pencil has
    #(dirichlet < lam) + #(negative eigenvalues of S(lam)) eigenvalues below
    lam (Wittrick & Williams 1971).  With theta_e = 2 asin(s_e sqrt(lam)/2),
    edge e = uv adds (p_e a a^T + q_e b b^T)/s_e to S, a = e_u + e_v and
    b = e_u - e_v, with p_e = -(sin theta_e/2) tan(n_e theta_e/2) and
    q_e = (sin theta_e/2) cot(n_e theta_e/2): its symmetric and antisymmetric
    modes.  Past the top of a chain's spectrum (s_e^2 lam > 4) theta_e is
    pi + i phi_e, and the two continue as -(sinh phi_e/2) tanh(n_e phi_e/2)
    and -(sinh phi_e/2) coth(n_e phi_e/2), swapped for odd n_e.
    S decreases with lam, strictly, between Dirichlet values."""

    def __init__(self, g: mg.MetricGraph, h: float):
        if len(g.vertices) > _FD_VERTEX_CAP:
            raise TooLarge(f"finite elements on {len(g.vertices)} vertices "
                           f"(cap {_FD_VERTEX_CAP})")
        lengths = np.array([float(e.length) for e in g.edges])
        # float, so that a tiny mesh cannot wrap a fixed-width integer
        segments = np.maximum(2.0, np.rint(lengths / h))
        nodes = len(g.vertices) + float(np.sum(segments - 1))
        if nodes > _FD_NODE_CAP:
            raise TooLarge(f"mesh {float(h):g} needs {nodes:.3g} nodes (cap {_FD_NODE_CAP})")
        self.n = segments.astype(np.int64)
        self.s = lengths / self.n
        self.nodes = int(nodes)
        self.u, self.v = _ends(g)
        self.V = len(g.vertices)
        # j/(2 n_e) for j = 1..n_e-1, edge by edge
        inner = self.n - 1
        j = ((np.arange(1, inner.sum() + 1) - np.repeat(np.cumsum(inner) - inner, inner))
             / np.repeat(2 * self.n, inner))
        self.dirichlet = np.sort(np.repeat(4 / self.s**2, inner) * np.sin(np.pi * j) ** 2)
        self.evaluations = 0
        self.rounds = 0
        # per mesh: the constants of ``modes``; the floor of ``newton``'s
        # shift; where each edge's diag, diag, off, off entries land in a
        # flat V x V matrix; inverse iteration's fixed start at every width
        # up to two borders an edge, with a batch axis so that solve reads it
        # as a stack of matrices on any numpy
        self._half_s, self._half_n, self._q4 = self.s / 2, self.n / 2, self.s**2 / 4
        self._floor = 1 / self.s.min()
        V = self.V
        self._slots = np.concatenate((self.u * (V + 1), self.v * (V + 1),
                                      self.u * V + self.v, self.v * V + self.u))
        self._start = np.cos(np.arange(V + 2 * self.u.size))[None, :, None]

    def modes(self, lam: np.ndarray, slopes: bool = False):
        """p_e and q_e of every edge at every lam, and with slopes also
        their derivatives in lam."""
        x = self._half_s * np.sqrt(lam)[:, None]
        n, n2, q4 = self.n, self._half_n, self._q4
        inside = x <= 1
        every = inside.all()  # as nearly always: no np.where below
        # harmless where the other branch holds; at x = 1 both branches are
        # 0/0, and the coefficients are smooth there
        xi = np.minimum(x if every else np.where(inside, x, 0.5), _BELOW_ONE)
        xx = xi * xi
        half = xi * np.sqrt(1 - xx)  # (sin theta)/2
        t = np.tan(n * np.arcsin(xi))  # tan(n theta/2)
        p, q = -half * t, half / t
        if slopes:
            cot = (1 - 2 * xx) / (2 * half)
            tt = t * t
            dp = -q4 * (cot * t + n2 * (1 + tt))
            dq = q4 * (cot / t - n2 * (1 + 1 / tt))
        if not every:
            xo = np.where(inside, 2.0, x)
            sinh = 2 * xo * np.sqrt(xo * xo - 1)  # sinh phi
            tau = np.tanh(n * np.arccosh(xo))  # tanh(n phi/2)
            odd = n % 2 == 1
            tanh_mode, coth_mode = -sinh / 2 * tau, -sinh / 2 / tau
            p = np.where(inside, p, np.where(odd, coth_mode, tanh_mode))
            q = np.where(inside, q, np.where(odd, tanh_mode, coth_mode))
            if slopes:
                coth = (2 * xo * xo - 1) / sinh
                d_tanh = -q4 * (coth * tau + n2 * (1 - tau * tau))
                d_coth = -q4 * (coth / tau - n2 * (1 / (tau * tau) - 1))
                dp = np.where(inside, dp, np.where(odd, d_coth, d_tanh))
                dq = np.where(inside, dq, np.where(odd, d_tanh, d_coth))
        return (p, q, dp, dq) if slopes else (p, q)

    def stacks(self, lam: np.ndarray, slopes: bool = False):
        """S at every lam, each mode whose |c| > _FD_BORDER bordered, in
        stacks of one width and at most _FD_STACK entries: yields the places
        in lam of a stack, the stack, and the negative eigenvalues the
        bordering added to each matrix; with slopes, also the derivatives in
        lam of the modes kept in S, as a pair (p'/s_e, q'/s_e), and of the
        gammas (None in a stack with no border).  Each matrix depends on its
        lam alone.

        Next to a Dirichlet value a mode's coefficient c grows without bound,
        and rounding in S would hide the sign of its small eigenvalues.  Such
        a mode enters as a row and column of its own instead, w/s_e off the
        diagonal and gamma = -1/(c s_e) on it (w = a or b), whose elimination
        adds c w w^T/s_e back.  By Haynsworth the bordered matrix has one
        more negative eigenvalue than S for each such c > 0, no entry larger
        than _FD_BORDER/min(s_e), and it is singular where S is.  When no
        mode borders, as nearly always, S is one scatter of p/s_e and q/s_e
        into V x V matrices, and the stacks are slices of lam; the bordering
        work (grouping by width, border rows and columns, their gammas and
        slopes) runs only when some lam borders a mode."""
        modes = self.modes(lam, slopes)
        self.evaluations += lam.size
        p, q = modes[:2]
        if max(np.abs(p).max(initial=0.0), np.abs(q).max(initial=0.0)) <= _FD_BORDER:
            kept, groups = modes, [(0, None)]  # as nearly always: every lam at once
        else:
            c = np.stack((p, q), axis=2)
            big = np.abs(c) > _FD_BORDER
            kept = [np.where(big[..., i % 2], 0.0, m) for i, m in enumerate(modes)]
            if slopes:
                dc = np.stack(modes[2:], axis=2)
            borders = np.count_nonzero(big, axis=(1, 2))
            # the widths in ascending order (np.unique would load numpy.ma)
            groups = [(b, np.flatnonzero(borders == b))
                      for b in np.flatnonzero(np.bincount(borders)).tolist()]
        kp, kq = kept[0] / self.s, kept[1] / self.s
        diag, off = kp + kq, kp - kq
        w = np.concatenate((diag, diag, off, off), axis=1)
        if slopes:
            dp, dq = kept[2] / self.s, kept[3] / self.s
        V = self.V
        for b, group in groups:
            size = max(1, _FD_STACK // (V + b) ** 2)
            for at in range(0, lam.size if group is None else group.size, size):
                rows = slice(at, at + size) if group is None else group[at:at + size]
                chunk = w[rows]
                n = len(chunk)
                S = np.bincount((np.arange(n)[:, None] * V**2 + self._slots).ravel(),
                                chunk.ravel(), n * V**2).reshape(n, V, V)
                if not b:
                    yield (rows, S, 0, (dp[rows], dq[rows]), None) if slopes else (rows, S, 0)
                    continue
                T = np.zeros((n, V + b, V + b))
                T[:, :V, :V] = S
                cs, bigs = c[rows], big[rows]
                mats, edges, kinds = np.nonzero(bigs)
                slot = V + np.tile(np.arange(b), n)
                s = self.s[edges]
                for ends, x in ((self.u[edges], 1 / s), (self.v[edges], (1 - 2 * kinds) / s)):
                    T[mats, ends, slot] = T[mats, slot, ends] = x
                T[mats, slot, slot] = -1 / (cs[bigs] * s)
                extra = np.count_nonzero(bigs & (cs > 0), axis=(1, 2))
                if slopes:
                    yield (rows, T, extra, (dp[rows], dq[rows]),
                           (dc[rows][bigs] / (cs[bigs] ** 2 * s)).reshape(n, b))
                else:
                    yield rows, T, extra

    def count(self, lam: np.ndarray) -> np.ndarray:
        """How many eigenvalues of the pencil lie below each lam; no lam may
        be a Dirichlet value."""
        negative = np.empty(lam.size, dtype=np.int64)
        for rows, T, extra in self.stacks(lam):
            negative[rows] = np.count_nonzero(np.linalg.eigvalsh(T) < 0, axis=1) - extra
        return np.searchsorted(self.dirichlet, lam) + negative

    def newton(self, lam: np.ndarray, k: np.ndarray):
        """The eigenvalue of the bordered S that has k of S's below it, at
        each lam with its own k, and its derivative z^T T'(lam) z / z^T z.
        Its eigenvector z is one step of inverse iteration, shifted just
        below it, from a fixed start.  Each call is one batched round,
        counted in ``rounds``."""
        self.rounds += 1
        mu, slope = np.empty(lam.size), np.empty(lam.size)
        for rows, T, extra, (dp, dq), dgamma in self.stacks(lam, slopes=True):
            n, width = T.shape[:2]
            m = np.linalg.eigvalsh(T)[np.arange(n), k[rows] + extra]
            # just below mu, on a scale that stays when S vanishes (at a root
            # where every eigenvalue of S crosses 0 at once)
            shift = m - 1e-13 * (np.abs(T).max(axis=(1, 2)) + self._floor)
            T.reshape(n, width * width)[:, ::width + 1] -= shift[:, None]
            z = np.linalg.solve(T, self._start[:, :width])[..., 0]
            zu, zv = z.take(self.u, axis=1), z.take(self.v, axis=1)
            mu[rows] = m
            top = (dp * (zu + zv) ** 2 + dq * (zu - zv) ** 2).sum(axis=1)
            if dgamma is not None:
                top = top + (dgamma * z[:, self.V:] ** 2).sum(axis=1)
            slope[rows] = top / (z * z).sum(axis=1)
        return mu, slope

    def values(self, count: int, guess: Optional[np.ndarray] = None) -> np.ndarray:
        """The count smallest eigenvalues of the pencil (fewer on a mesh
        with few nodes), ascending.

        First, one count at both edges of every window of Dirichlet values
        (a cluster, widened by _FD_WINDOW relative), up to the window of
        the count-th Dirichlet value, places each index in a window or
        between two.  A window settles its eigenvalues at its centre.
        Between two windows S is smooth and decreasing, so the count rises
        by one exactly where an eigenvalue of S crosses 0: index i is the
        root of mu_k, the k-th eigenvalue of S from below, k = i -
        #(dirichlet below).  Newton's method, with its bracket as a
        safeguard, finds it from ``guess`` (when inside the bracket) or the
        middle of the bracket, and stops once the signs of mu_k have closed
        the bracket to tol = _FD_NEWTON_STOP x relative.  Once its last move
        is at most _FD_STRADDLE x, a round straddles x: it evaluates
        x - 0.45 tol and x + 0.45 tol, kept in the bracket, in place of x.
        Two signs that differ close the bracket in that round; two that
        agree shrink it to one side, and Newton's method goes on from the
        point nearer the root, whose step must pass the same safeguard
        against x's last move.  A round is one batched ``newton`` call,
        straddles included.  Multiple eigenvalues
        are roots of as many mu_k, and neither they nor eigenvalues on a
        Dirichlet value need more than that.  Each lam's matrix depends on
        lam alone, so a call repeats bit for bit; another count probes other
        windows, and may move the last bits."""
        want = min(count, self.nodes - 1)
        values = np.zeros(want)  # lam_0 = 0 on a connected graph, exactly
        d = self.dirichlet
        # one window per cluster of the sorted table, so that the probes
        # below ascend strictly; equal values never cut
        cut = np.flatnonzero(d[1:] * (1 - _FD_WINDOW) > d[:-1] * (1 + _FD_WINDOW)) + 1
        first = d[np.concatenate(([0], cut))]
        last = d[np.concatenate((cut, [d.size])) - 1]
        if d.size >= want:
            first = first[:np.searchsorted(first, d[want - 1], "right")]
            last = last[:first.size]
        probes = np.empty(2 * first.size)
        probes[0::2] = first * (1 - _FD_WINDOW)
        probes[1::2] = last * (1 + _FD_WINDOW)
        if d.size < want:  # past every eigenvalue: 4/min(s_e)^2 bounds them
            probes = np.append(probes, 4.04 / self.s.min() ** 2)
        counts = self.count(probes)
        if np.any(np.diff(counts) < 0) or counts[-1] < want:
            raise NoConvergence(f"inconsistent eigenvalue counts on {self.nodes} nodes",
                                nodes=self.nodes, want=want)
        index = np.arange(1, want)
        above = np.searchsorted(counts, index, "right")  # first probe counting i
        window = above % 2 == 1
        values[index[window]] = (first[above[window] // 2] + last[above[window] // 2]) / 2
        index, above = index[~window], above[~window]
        k = index - np.searchsorted(d, probes[above])
        lo, hi = np.where(above > 0, probes[above - 1], 0.0), probes[above]
        x = (lo + hi) / 2
        if guess is not None:
            guess = np.append(guess, np.full(max(0, want - guess.size), np.nan))[index]
            x = np.where((guess > lo) & (guess < hi), guess, x)
        move = hi - lo  # x's last move, bisections included
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope bisects
            for _ in range(_FD_NEWTON_ROUNDS):
                if not index.size:
                    return np.sort(values)
                reach = np.abs(move)
                near = np.flatnonzero(reach <= _FD_STRADDLE * x)
                if near.size:  # straddle: x - 0.45 tol in place of x, x + 0.45 tol besides
                    half = 0.45 * _FD_NEWTON_STOP * x[near]
                    upper = np.minimum(x[near] + half, hi[near])
                    x[near] = np.maximum(x[near] - half, lo[near])
                    mu, slope = self.newton(np.concatenate((x, upper)), np.concatenate((k, k[near])))
                    n = x.size
                    mu, mu_up, slope, slope_up = mu[:n], mu[n:], slope[:n], slope[n:]
                else:
                    mu, slope = self.newton(x, k)
                below = mu < 0
                lo, hi = np.where(below, lo, x), np.where(below, x, hi)
                if near.size:
                    # where the root lies past the upper point too, Newton's
                    # method goes on from there
                    past = mu_up >= 0
                    lo[near] = np.where(past, upper, lo[near])
                    hi[near] = np.where(past, hi[near], np.minimum(hi[near], upper))
                    on = near[past]
                    x[on], mu[on], slope[on] = upper[past], mu_up[past], slope_up[past]
                step = -mu / slope
                ahead = x + step
                done = hi - lo <= _FD_NEWTON_STOP * x
                if done.any():
                    # a nan step (zero slope) settles at x, an infinite one
                    # at the end of the bracket
                    values[index[done]] = np.clip(np.where(np.isnan(step), x, ahead), lo, hi)[done]
                    keep = ~done
                    index, k, x, lo, hi, move, reach, step, ahead = (
                        a[keep] for a in (index, k, x, lo, hi, move, reach, step, ahead))
                # Newton's step when it stays in the bracket, and goes on in
                # the last move's direction or at least halves it (so that it
                # cannot cycle); else bisection
                newton = ((ahead > lo) & (ahead < hi)
                          & ((step * move > 0) | (2 * np.abs(step) <= reach)))
                move = np.where(newton, ahead, (lo + hi) / 2) - x
                x = x + move
        raise NoConvergence(f"Newton's method did not settle {index.size} eigenvalues "
                            f"on {self.nodes} nodes", nodes=self.nodes, want=want)


def _finer(values: np.ndarray, h: float, h_new: float) -> np.ndarray:
    """Guesses for the eigenvalues on mesh h_new from those on mesh h, by the
    leading error term of the lumped scheme, lam_h ~ lam (1 - lam h^2/12)."""
    return values * (1 + values * (h * h - h_new * h_new) / 12)


def fd_spectrum(g: mg.MetricGraph, count: int = 6,
                mesh: Optional[float] = None) -> SpectrumResult:
    """Finite-element eigenvalues with Richardson extrapolation.

    Solves on a mesh of width ~mesh and on its uniform refinement by two;
    the lumped P1 scheme converges at second order, so the extrapolation
    lam_fine + (lam_fine - lam_coarse)/3 cancels the leading error term and
    (lam_fine - lam_coarse)/3 estimates the remaining one.  Raises
    MeshTooCoarse when that estimate exceeds _FD_RTOL relative to the
    value.  With no mesh pinned, the first pair is (min_len/16,
    min_len/32), min_len the shortest edge, and a failed estimate halves
    both meshes, at most twice, each refinement reusing the previous fine
    mesh as its coarse one: the finest pair is (min_len/64, min_len/128).
    A pinned mesh is never refined.  It is read by ``mg.as_length`` (a bool
    is no mesh), and its float must be finite and positive, and so must
    its half, the width of the finer mesh; and it may be at most
    min_len/2, where every edge still has two segments, else BadParameter
    gives the mesh and that limit.  Each solve starts Newton's method from
    the previous mesh's values.  The meta records the halvings made
    (``refinements``), and on the two meshes extrapolated the lam points
    counted (``count_evaluations``) and the batched Newton rounds
    (``newton_rounds``)."""
    _check_count(count)
    min_len = min(float(e.length) for e in g.edges)
    if mesh is None:
        refinements, mesh = 2, min_len / 16
    else:
        try:  # an exact mesh past the float range overflows
            refinements, mesh = 0, float(mg.as_length(mesh))
        except OverflowError:
            raise BadParameter("mesh is too large for a float") from None
        if not (math.isfinite(mesh) and mesh / 2 > 0):
            raise BadParameter(f"mesh and its half must be finite and positive, got {mesh}")
        if mesh > min_len / 2:
            raise BadParameter(f"mesh {mesh:g} exceeds half the shortest edge, {min_len / 2:g}",
                               mesh=mesh, limit=min_len / 2)
    fine = _Chains(g, mesh / 2)  # the finer mesh first: it hits the cap
    coarse = _Chains(g, mesh)
    coarse_values = coarse.values(count)
    for done in range(refinements + 1):
        if done:  # mesh/2 rounds to the same segments, so its solve carries over
            mesh /= 2
            coarse, coarse_values = fine, fine_values
            fine = _Chains(g, mesh / 2)
        fine_values = fine.values(count, _finer(coarse_values, mesh, mesh / 2))
        n = min(coarse_values.size, fine_values.size)
        error = (fine_values[:n] - coarse_values[:n]) / 3
        values = fine_values[:n] + error
        values[0] = 0.0
        errs = np.abs(error)
        bad = np.flatnonzero(errs > _FD_RTOL * np.maximum(np.abs(values), 1.0))
        if not bad.size:
            return SpectrumResult(tuple(values.tolist()), "fd", {
                "mesh": mesh, "nodes": fine.nodes, "error_estimates": errs.tolist(),
                "refinements": done,
                "count_evaluations": coarse.evaluations + fine.evaluations,
                "newton_rounds": coarse.rounds + fine.rounds})
    raise MeshTooCoarse(f"error estimate exceeds rtol={_FD_RTOL:g} at indices {bad.tolist()}",
                        estimates=errs[bad].tolist(), mesh=mesh)


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
    and its message.  ``meta["requested"]`` is the method asked for, next to
    the one that ran (``method``)."""
    res = _route(g, count, method, mesh)
    res.meta["requested"] = method
    return res


def _route(g: mg.MetricGraph, count: int, method: str,
           mesh: Optional[float]) -> SpectrumResult:
    if method == "auto":
        if g.grid is not None:
            if mesh is not None:
                try:
                    return subdivision_spectrum(g, count, h=mesh)
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
        return subdivision_spectrum(g, count, h=mesh)
    if method == "fd":
        return fd_spectrum(g, count, mesh=mesh)
    raise UnknownKind(f"unknown oracle method {method!r}")


def _fd_fallback(g: mg.MetricGraph, count: int, mesh: Optional[float],
                 exc: QGraphError) -> SpectrumResult:
    """The finite-element spectrum, recording why the exact route gave way."""
    res = fd_spectrum(g, count, mesh=mesh)
    res.meta["fallback"] = f"{exc.code}: {exc}"
    return res
