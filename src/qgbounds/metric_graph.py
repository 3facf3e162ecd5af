"""Metric graphs: data model, validation and family generators.

A metric graph is a finite connected multigraph with at least one edge,
whose edges carry strictly positive lengths.  Parallel edges are allowed
everywhere.  A loop of length l is the same metric space as two edges of
length l/2 joined at a degree-2 vertex, so loops are split when a graph is
built (``split_loops``, which files go through) and a ``MetricGraph``
never has one.

A graph is valid by construction, however it is built (in Python, by a
generator or from JSON).  ``Edge`` refuses a length that is not a real
number (``BadParameter``) or not positive, or whose float is not finite
and positive (``NonpositiveLength``).  ``MetricGraph`` refuses unhashable
or duplicate ids and an incoherent rotation (``BadParameter``), dangling
ends (``UnknownEndpoint``), a loop (``LoopPresent``), no edges
(``BadParameter``) and more than one component (``Disconnected``).
Nothing downstream checks them again.

Every length, whether given to ``Edge`` or a generator or read from a
file, goes through one coercion, ``as_length``: integers (numpy's
included), fraction strings ("3/2"), Fractions and short decimals (0.5,
1.25) are stored as exact ``fractions.Fraction`` values, everything else
as a plain float (e.g. lengths involving sqrt(5)).  So ``pumpkin(3, 0.5)``
and its JSON round trip have the same exact edges.  A graph whose lengths
are all rational has one integer grid (``MetricGraph.grid``): every
length is a whole number of steps of h = p/q, the gcd of the lengths.
Totals, shortest paths, the metric diameter, cover overlaps and the
exact oracle work on those integer steps and scale by h once, so they
stay exact without fraction arithmetic.

JSON serialization format::

    {
      "vertices": ["v0", "v1", ...],
      "edges":    [{"id": "e0", "ends": ["v0", "v1"], "length": 1}, ...],
      "rotation": {"v0": [{"edge": "e0", "end": 0}, ...], ...}   # optional
    }

``rotation`` is an optional combinatorial embedding: for each vertex, the
cyclic counterclockwise order of its incident half-edges.  A half-edge is a
tuple (edge id, end index) with ``ends[end] == vertex``, of the edge's own
id and an int end.  Rotations are only ever accepted as input (from files
or generators), never inferred.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    BadParameter,
    BadSpec,
    Disconnected,
    LoopPresent,
    NonpositiveLength,
    NoRotation,
    ParseError,
    TooLarge,
    UnknownEndpoint,
    UnknownFamily,
)

Length = Union[Fraction, float]
VertexId = Union[str, int]
EdgeId = Union[str, int]

_MAX_DECIMAL_DEN = 10**6
# the types a length usually has, tested by identity before the slower
# numbers.Real check (a bool is no length, and its type is not here)
_PLAIN_LENGTHS = (float, int, Fraction)
# Most edges ``pumpkin``, ``pumpkin_chain`` and ``cycle_graph`` build.  Each
# edge costs about 20 us and 1.5 KiB: on a 2-CPU x86 host, a fresh ``qgb gen``
# took 0.3 s and 45 MiB at 10,000 edges, 0.9-1.3 s and 102-114 MiB at
# 50,000, 1.7-2.4 s and 173-201 MiB at 100,000, and 13.7-16.6 s and about
# 1.4 GiB at 1,000,000.
_EDGE_CAP = 50_000


def _check_edge_count(count: int, family: str) -> None:
    """Refuse a generated graph past _EDGE_CAP edges, before any is built."""
    if count > _EDGE_CAP:
        raise TooLarge(f"{family} of {count} edges (cap {_EDGE_CAP})",
                       edges=count, cap=_EDGE_CAP)


def _no_number(x) -> bool:
    """Whether x is no real number (a bool is none), by type first."""
    return type(x) not in _PLAIN_LENGTHS and (
        isinstance(x, bool) or not isinstance(x, numbers.Real))


def is_count(x, least: int) -> bool:
    """Whether x is a Python or numpy integer, not a bool, of at least ``least``."""
    return not isinstance(x, bool) and isinstance(x, numbers.Integral) and x >= least


def as_length(x) -> Length:
    """Coerce a length given in Python or read from JSON: integers (numpy's
    too), "p/q" strings, Fractions and short decimals (floats, numpy's too,
    whose shortest decimal has a denominator up to 10^6, such as 0.5)
    become exact Fractions; any other float stays a float, for ``Edge`` to
    judge."""
    if type(x) is int:  # JSON's two number types before the ABC checks
        return Fraction(x)
    if type(x) is not float:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, bool):
            raise BadParameter("boolean is not a length")
        if isinstance(x, numbers.Integral):
            return Fraction(int(x))
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise BadParameter(f"cannot parse length {x!r}") from exc
        if not isinstance(x, numbers.Real):
            raise BadParameter(f"cannot interpret {x!r} as a length")
        x = float(x)
    if math.isfinite(x):
        # the shortest decimal is digits * 10^shift, read from the repr
        mantissa, _, exponent = repr(x).partition("e")
        whole, _, decimals = mantissa.partition(".")
        digits = int(whole + decimals)
        shift = int(exponent or 0) - len(decimals)
        if shift >= 0:
            return Fraction(digits * 10**shift)
        den = 10**-shift
        common = math.gcd(digits, den)
        if den // common <= _MAX_DECIMAL_DEN:
            return Fraction(digits // common, den // common)
    return x


def _half_edge_key(h) -> Optional[tuple]:
    """A rotation entry as (id type, edge id, end type, end), so that only
    a plain (edge id, end) tuple whose values have the incident half-edge's
    own types matches it (True or 1.0 name no edge 1); None for anything
    but a pair."""
    if type(h) is not tuple or len(h) != 2:
        return None
    eid, end = h
    return type(eid), eid, type(end), end


def id_from_json(raw, item: str):
    """Decode a JSON vertex or edge id, named ``item`` in the error; ids
    are dict keys, so an array or object cannot be one."""
    if isinstance(raw, (list, dict)):
        kind = "an array" if isinstance(raw, list) else "an object"
        raise ParseError(f"{item} is {kind}, not a string or number")
    return raw


def length_to_json(value: Length):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """Greatest common divisor of a collection of positive rationals."""
    values = list(values)
    if not values or not all(isinstance(x, numbers.Rational) and not isinstance(x, bool)
                             and x > 0 for x in values):
        raise BadParameter("gcd needs a nonempty collection of positive rationals")
    return Grid.of(values).h


@dataclass(frozen=True)
class Grid:
    """The integer grid of a graph whose lengths are all rational: edge i
    is steps[i] steps of length h = p/q, the gcd of the lengths."""

    p: int
    q: int
    steps: tuple

    @classmethod
    def of(cls, lengths: Sequence[Fraction]) -> "Grid":
        """The grid of positive rational lengths: over their least common
        denominator d they are integers n_i, whose gcd c gives h = c/d and
        the steps n_i/c."""
        den = math.lcm(*(x.denominator for x in lengths))
        nums = [x.numerator * (den // x.denominator) for x in lengths]
        top = math.gcd(*nums)
        h = Fraction(top, den)
        return cls(h.numerator, h.denominator, tuple(n // top for n in nums))

    @property
    def h(self) -> Fraction:
        return Fraction(self.p, self.q)

    def length(self, k: int) -> Fraction:
        """The exact length of k steps."""
        return Fraction(k * self.p, self.q)


@dataclass(frozen=True)
class Edge:
    """An edge; its length is coerced by ``as_length``."""

    id: EdgeId
    u: VertexId
    v: VertexId
    length: Length

    def __post_init__(self):
        if _no_number(self.length):
            raise BadParameter(
                f"edge {self.id!r} has length {self.length!r}, which is not a "
                f"number", edge=self.id)
        object.__setattr__(self, "length", as_length(self.length))
        try:
            ok = self.length > 0 and 0.0 < float(self.length) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            shown = str(self.length)
            shown = shown if len(shown) <= 24 else shown[:12] + "..."
            raise NonpositiveLength(
                f"edge {self.id!r} has length {shown}; a length must be "
                f"positive and its float finite and positive", edge=self.id)

    @property
    def ends(self) -> tuple:
        return (self.u, self.v)

    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph.  Construct, then treat as read-only.  The pass
    that checks its ids and ends also builds ``incident`` (vertex -> tuple of
    (Edge, other end), in edge order) and ``edge_map`` (edge id -> Edge)."""

    vertices: tuple
    edges: tuple
    rotation: Optional[Mapping] = None  # vertex -> tuple of (edge id, end)
    incident: dict = field(init=False, repr=False, compare=False)
    edge_map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Refuse unhashable or duplicate ids, dangling ends, loops, no
        edges, more than one component and an incoherent rotation."""
        incident = {}
        edge_map = {}
        try:
            for v in self.vertices:
                if v in incident:
                    raise BadParameter(f"duplicate vertex id {v!r}", vertex=v)
                incident[v] = []
            for e in self.edges:
                if e.id in edge_map:
                    raise BadParameter(f"duplicate edge id {e.id!r}", edge=e.id)
                edge_map[e.id] = e
                for w in (e.u, e.v):
                    if w not in incident:
                        raise UnknownEndpoint(
                            f"edge {e.id!r} references unknown vertex {w!r}",
                            edge=e.id, vertex=w)
                incident[e.u].append((e, e.v))
                incident[e.v].append((e, e.u))
        except TypeError as exc:  # a list or dict id
            raise BadParameter(f"vertex and edge ids must be hashable: {exc}") from None
        for e in self.edges:
            if e.u == e.v:
                raise LoopPresent(f"edge {e.id!r} is a loop; build the graph "
                                  f"with split_loops", edge=e.id)
        if not self.edges:
            raise BadParameter("a metric graph needs at least one edge")
        reached = {self.vertices[0]}  # one search over the table just filled
        queue = [self.vertices[0]]
        for x in queue:  # queue grows while it is scanned
            for _, w in incident[x]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        if len(reached) < len(incident):
            raise Disconnected("a metric graph must be connected")
        if self.rotation is not None:
            if not isinstance(self.rotation, Mapping):
                raise BadParameter("a rotation must map vertices to sequences "
                                   "of half-edges")
            for v in self.rotation:
                if v not in incident:
                    raise BadParameter(
                        f"rotation lists unknown vertex {v!r}", vertex=v)
            for v, ends in incident.items():
                try:
                    listed = list(self.rotation.get(v, ()))
                except TypeError:  # not a sequence
                    raise BadParameter(f"rotation at vertex {v!r} is not a sequence "
                                       f"of half-edges", vertex=v) from None
                # no loops, so v's half-edges are distinct: v is end 0 of e
                # exactly when its other end is e.v
                expected = {(type(e.id), e.id, int, 0 if w == e.v else 1) for e, w in ends}
                try:
                    keys = {_half_edge_key(h) for h in listed}
                except TypeError:  # an unhashable edge id
                    keys = None
                if keys != expected or len(listed) != len(expected):
                    raise BadParameter(
                        f"rotation at vertex {v!r} does not list each incident "
                        f"half-edge exactly once", vertex=v)
        object.__setattr__(self, "incident", {v: tuple(ends) for v, ends in incident.items()})
        object.__setattr__(self, "edge_map", edge_map)

    @cached_property
    def grid(self) -> Optional[Grid]:
        """The integer grid when every length is rational, else None."""
        lengths = [e.length for e in self.edges]
        if not all(isinstance(x, Fraction) for x in lengths):
            return None
        return Grid.of(lengths)

    @cached_property
    def total_length(self) -> Length:
        grid = self.grid
        if grid is not None:
            return grid.length(sum(grid.steps))
        return sum((e.length for e in self.edges), start=Fraction(0))

    def edge(self, eid: EdgeId) -> Edge:
        try:
            return self.edge_map[eid]
        except KeyError:
            raise UnknownEndpoint(f"unknown edge id {eid!r}") from None

    def degree(self, v: VertexId) -> int:
        return len(self.incident[v])


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    vertex_count: int
    edge_count: int
    total_length: Length
    bridge_edges: tuple
    bridgeless: bool

    def to_json(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "total_length": length_to_json(self.total_length),
            "bridge_edges": list(self.bridge_edges),
            "bridgeless": self.bridgeless,
        }


def validate(g: MetricGraph) -> ValidationReport:
    """Report basic facts about g; its structure was checked when it was
    built."""
    bridge = tuple(e.id for e in bridge_edges(g))
    return ValidationReport(
        vertex_count=len(g.vertices),
        edge_count=len(g.edges),
        total_length=g.total_length,
        bridge_edges=bridge,
        bridgeless=not bridge,
    )


def connected_components(vertices: Sequence, pairs: Iterable) -> list:
    """Components of the graph on ``vertices`` with (u, v) edges ``pairs``,
    as vertex lists in breadth-first order from roots in the given order."""
    adj = {v: [] for v in vertices}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    out = []
    for root in vertices:
        if root not in seen:
            seen.add(root)
            comp = [root]
            for x in comp:  # comp grows while it is scanned
                for w in adj[x]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            out.append(comp)
    return out


def bridge_edges(g: MetricGraph) -> list:
    """Bridges of the underlying multigraph, by one depth-first search
    (g is connected)."""
    root = g.vertices[0]
    index = {root: 0}
    low = {root: 0}
    counter = itertools.count(1)
    bridges = []
    stack = [(root, None, iter(g.incident[root]))]
    while stack:
        v, in_eid, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] > index[p]:
                    bridges.append(g.edge_map[in_eid])
                if low[v] < low[p]:
                    low[p] = low[v]
            continue
        e, w = nxt
        if e.id == in_eid:
            continue
        if w not in index:
            index[w] = low[w] = next(counter)
            stack.append((w, e.id, iter(g.incident[w])))
        elif index[w] < low[v]:
            low[v] = index[w]
    return bridges


def is_doubly_connected(g: MetricGraph) -> bool:
    """Bridgeless (g is connected)."""
    return not bridge_edges(g)


def is_cycle_graph(g: MetricGraph) -> bool:
    """A genuine cycle: every vertex of degree exactly 2 (g is connected)."""
    return all(g.degree(v) == 2 for v in g.vertices)


def is_star_graph(g: MetricGraph) -> bool:
    """All edges share one common vertex (parallel edges count as stars)."""
    common = set(g.edges[0].ends)
    for e in g.edges[1:]:
        common &= set(e.ends)
        if not common:
            return False
    return True


# ---------------------------------------------------------------------------
# loop splitting


def split_loops(vertices: Sequence, edges: Sequence,
                rotation: Optional[Mapping] = None) -> MetricGraph:
    """The metric graph on vertices and edges, with every loop of length l
    replaced by two edges of length l/2 and a fresh midpoint vertex; the
    one constructor that accepts loops.  A rotation, if given, is updated
    so the embedding is preserved."""
    if not any(e.is_loop() for e in edges):
        return MetricGraph(tuple(vertices), tuple(edges), rotation)
    vertices = list(vertices)
    # fresh names are strings: compare them with every id's string, so an
    # id of any type is fine here and MetricGraph judges it
    vertex_names = set(map(str, vertices))
    edge_names = {str(e.id) for e in edges}
    split = []
    rot = {v: list(hes) for v, hes in rotation.items()} if rotation is not None else None

    def fresh(base, pool):
        cand = base
        while cand in pool:
            cand = cand + "'"
        pool.add(cand)
        return cand

    for e in edges:
        if not e.is_loop():
            split.append(e)
            continue
        w = fresh(f"{e.u}~{e.id}", vertex_names)
        vertices.append(w)
        half = e.length / 2
        ida = fresh(f"{e.id}~a", edge_names)
        idb = fresh(f"{e.id}~b", edge_names)
        split += [Edge(ida, e.u, w, half), Edge(idb, w, e.v, half)]
        if rot is not None:
            at_v = rot.get(e.u, [])
            for i, he in enumerate(at_v):
                if he == (e.id, 0):
                    at_v[i] = (ida, 0)
                elif he == (e.id, 1):
                    at_v[i] = (idb, 1)
            rot[w] = [(ida, 1), (idb, 0)]
    rotation = {v: tuple(hes) for v, hes in rot.items()} if rot is not None else None
    return MetricGraph(tuple(vertices), tuple(split), rotation)


# ---------------------------------------------------------------------------
# shortest paths and the metric-space diameter


def shortest_distances(vertices: Sequence, arcs: Iterable) -> dict:
    """All-pairs shortest paths (Floyd-Warshall) over undirected (u, v, cost)
    ``arcs``; unreachable pairs are math.inf, integer and rational costs
    stay exact."""
    dist = {u: {v: (0 if u == v else math.inf) for v in vertices}
            for u in vertices}
    for u, v, c in arcs:
        if u != v and c < dist[u][v]:
            dist[u][v] = dist[v][u] = c
    for w in vertices:
        dw = dist[w]
        for u in vertices:
            duw = dist[u][w]
            if duw == math.inf:
                continue
            du = dist[u]
            for v in vertices:
                alt = duw + dw[v]
                if alt < du[v]:
                    du[v] = alt
    return dist


def _edge_costs(g: MetricGraph):
    """Edge lengths in steps of g's grid (integers), or the lengths
    themselves when g has no grid."""
    return g.grid.steps if g.grid is not None else [e.length for e in g.edges]


def vertex_distances(g: MetricGraph) -> dict:
    """All-pairs shortest path distances between vertices of g, counted in
    steps of g's grid (integers) when g has one, else in length."""
    return shortest_distances(
        g.vertices, ((e.u, e.v, c) for e, c in zip(g.edges, _edge_costs(g))))


def metric_diameter(g: MetricGraph) -> Length:
    """Diameter of g as a metric space, edge interiors included.

    Take edges e = u1v1 and f = u2v2, points at offsets x from u1 and y
    from u2, and A, B, C, D = d(u1,u2), d(u1,v2), d(v1,u2), d(v1,v2).  The
    distance is the least of four routes: x+A+y, x+B+(lf-y), (le-x)+C+y and
    (le-x)+D+(lf-y).  The two straight routes (through A and D) average to
    (le+lf+A+D)/2 and the two crossed ones to (le+lf+B+C)/2, so the
    distance never exceeds (le + lf + min(A+D, B+C))/2.  Both pairs tie at
    x* = (2le+C+D-A-B)/4 and y* = (2lf+B+D-A-C)/4, which lie on the edges
    because ends of one edge differ in distance to anything by at most its
    length (|C-A|, |D-B| <= le and |B-A|, |D-C| <= lf); so the bound is
    attained.  Two points of one edge are at most (d(u,v) + le)/2 apart.
    Vertex pairs need no term of their own: in a connected graph with two
    or more edges any two vertices lie on two distinct edges, whose pair
    term bounds their distance, and with one edge its own term does.

    The terms are taken doubled, in the units of ``vertex_distances``, and
    the largest is halved and scaled by the grid step once."""
    dist = vertex_distances(g)
    edges = list(zip(g.edges, _edge_costs(g)))
    singles = (dist[e.u][e.v] + le for e, le in edges)
    pairs = (le + lf + min(dist[e.u][f.u] + dist[e.v][f.v],
                           dist[e.u][f.v] + dist[e.v][f.u])
             for (e, le), (f, lf) in itertools.combinations(edges, 2))
    twice = max(itertools.chain(singles, pairs))
    return g.grid.length(twice) / 2 if g.grid is not None else twice / 2


# ---------------------------------------------------------------------------
# faces of an embedded graph


def faces(g: MetricGraph) -> list:
    """Face walks of the embedding given by g.rotation.

    Each face is a list of directed half-edges (edge id, tail end); the edge
    ids along a walk trace the face boundary.  Every directed half-edge lies
    on exactly one face, so for a connected embedding Euler's formula
    V - E + F = 2 identifies the genus-zero case."""
    if g.rotation is None:
        raise NoRotation("graph carries no rotation system")
    pos = {}
    for v, lst in g.rotation.items():
        for i, he in enumerate(lst):
            pos[tuple(he)] = (v, i)
    seen = set()
    out = []
    for e in g.edges:
        for tail_end in (0, 1):
            start = (e.id, tail_end)
            if start in seen:
                continue
            walk = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                eid, te = cur
                v, i = pos[(eid, 1 - te)]
                lst = g.rotation[v]
                cur = tuple(lst[(i + 1) % len(lst)])
            out.append(walk)
    return out


# ---------------------------------------------------------------------------
# generators


def _norm(p):
    n = math.sqrt(sum(x * x for x in p))
    return tuple(x / n for x in p)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


_PHI = (1 + math.sqrt(5)) / 2

_PLATONIC_COORDS = {
    "tetrahedron": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
    "cube": [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)],
    "icosahedron": [p for a in (-1, 1) for b in (-_PHI, _PHI)
                    for p in ((0, a, b), (a, b, 0), (b, 0, a))],
    "dodecahedron": (
        [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        + [p for a in (-1 / _PHI, 1 / _PHI) for b in (-_PHI, _PHI)
           for p in ((0, a, b), (a, b, 0), (b, 0, a))]),
}

_PLATONIC_COUNTS = {  # vertices, edges, faces
    "tetrahedron": (4, 6, 4),
    "cube": (8, 12, 6),
    "octahedron": (6, 12, 8),
    "dodecahedron": (20, 30, 12),
    "icosahedron": (12, 30, 20),
}


def platonic(name: str, length=1) -> MetricGraph:
    """Equilateral platonic solid graph with its standard spherical rotation."""
    if name not in _PLATONIC_COORDS:
        raise UnknownFamily(f"unknown platonic solid {name!r}")
    ell = as_length(length)
    coords = sorted(_PLATONIC_COORDS[name],
                    key=lambda p: tuple(round(x, 9) for x in p))
    nv, ne, nf = _PLATONIC_COUNTS[name]
    assert len(coords) == nv
    d2 = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in coords]
          for p in coords]
    mind2 = min(d2[i][j] for i in range(nv) for j in range(i + 1, nv))
    pairs = sorted((i, j) for i in range(nv) for j in range(i + 1, nv)
                   if d2[i][j] < mind2 * (1 + 1e-9))
    assert len(pairs) == ne
    vid = [f"v{i}" for i in range(nv)]
    eid_of = {p: f"e{k}" for k, p in enumerate(pairs)}
    edges = tuple(Edge(eid_of[(i, j)], vid[i], vid[j], ell) for i, j in pairs)
    neighbors = {i: [] for i in range(nv)}
    for i, j in pairs:
        neighbors[i].append(j)
        neighbors[j].append(i)
    rotation = {}
    for i in range(nv):
        p = coords[i]
        n = _norm(p)
        ref = (1.0, 0.0, 0.0)
        if abs(abs(_dot(n, ref)) - 1) < 1e-6:
            ref = (0.0, 1.0, 0.0)
        u = _norm(_cross(n, ref))
        w = _cross(n, u)
        def angle(j, p=p, u=u, w=w):
            d = tuple(a - b for a, b in zip(coords[j], p))
            return math.atan2(_dot(d, w), _dot(d, u))
        order = sorted(neighbors[i], key=angle)
        hes = []
        for j in order:
            a, b = min(i, j), max(i, j)
            hes.append((eid_of[(a, b)], 0 if i == a else 1))
        k = min(range(len(hes)), key=lambda t: str(hes[t]))
        rotation[vid[i]] = tuple(hes[k:] + hes[:k])
    g = MetricGraph(tuple(vid), edges, rotation)
    assert len(faces(g)) == nf
    return g


def pumpkin(m: int, lengths=1) -> MetricGraph:
    """m parallel edges between two vertices."""
    if not is_count(m, 1):
        raise BadParameter(f"pumpkin needs an integer count of edges >= 1, got {m!r}")
    _check_edge_count(m, "pumpkin")
    if isinstance(lengths, (list, tuple)):
        if len(lengths) != m:
            raise BadParameter(
                f"expected {m} lengths, got {len(lengths)}")
        ls = [as_length(x) for x in lengths]
    else:
        ls = [as_length(lengths)] * m
    edges = tuple(Edge(f"e{j}", "u", "v", ls[j]) for j in range(m))
    return MetricGraph(("u", "v"), edges, None)


def four_pumpkin(a) -> MetricGraph:
    """Pumpkin with two unit edges and two edges of length a >= 1."""
    a = as_length(a)
    if not a >= 1:
        raise BadParameter(f"length ratio must be >= 1, got {a}")
    return pumpkin(4, [1, 1, a, a])


def pumpkin_chain(multiplicities: Sequence[int], lengths=1) -> MetricGraph:
    """Metric graph of a pumpkin chain: pumpkin i has multiplicities[i]
    parallel edges from v{i} to v{i+1}; edges come pumpkin by pumpkin.

    ``lengths`` is one length for every edge, or one entry per pumpkin:
    a length for all its edges, or a list of its edge lengths."""
    ms = tuple(multiplicities)
    if not ms:
        raise BadSpec("a pumpkin chain needs at least one pumpkin")
    if not all(is_count(m, 1) for m in ms):
        raise BadSpec(f"multiplicities must be integers >= 1, got {ms!r}")
    ms = tuple(map(int, ms))
    _check_edge_count(sum(ms), "pumpkin chain")
    if not isinstance(lengths, (list, tuple)):
        lengths = [lengths] * len(ms)
    elif len(lengths) != len(ms):
        raise BadSpec(f"expected {len(ms)} length entries, got {len(lengths)}")
    verts = tuple(f"v{i}" for i in range(len(ms) + 1))
    edges = []
    for i, (m, entry) in enumerate(zip(ms, lengths), start=1):
        if not isinstance(entry, (list, tuple)):
            entry = [entry] * m
        elif len(entry) != m:
            raise BadSpec(f"pumpkin {i} needs {m} lengths")
        for j, x in enumerate(entry, start=1):
            edges.append(Edge(f"e{i}_{j}", verts[i - 1], verts[i], as_length(x)))
    return MetricGraph(verts, tuple(edges), None)


def cycle_graph(total_length=1, segments: int = 2) -> MetricGraph:
    """Cycle of the given total length, realized with `segments` equal edges."""
    if not is_count(segments, 2):
        raise BadParameter(f"a loopless cycle needs an integer count of segments >= 2, "
                           f"got {segments!r}")
    _check_edge_count(segments, "cycle")
    piece = as_length(total_length) / int(segments)
    verts = tuple(f"v{i}" for i in range(segments))
    edges = tuple(Edge(f"e{i}", verts[i], verts[(i + 1) % segments], piece)
                  for i in range(segments))
    return MetricGraph(verts, edges, None)


def path_graph(total_length=1) -> MetricGraph:
    """A single interval of the given length."""
    edge = Edge("e0", "a", "b", as_length(total_length))
    return MetricGraph(("a", "b"), (edge,), None)


def star_graph(lengths) -> MetricGraph:
    """Star with one central vertex and one leaf per length."""
    if not isinstance(lengths, (list, tuple)) or not lengths:
        raise BadParameter("star needs a nonempty list of edge lengths")
    ls = [as_length(x) for x in lengths]
    verts = ("c",) + tuple(f"t{i}" for i in range(len(ls)))
    edges = tuple(Edge(f"e{i}", "c", f"t{i}", ls[i]) for i in range(len(ls)))
    return MetricGraph(verts, edges, None)


def generate(family: str, *, length=None, segments=None) -> MetricGraph:
    """Dispatch on a family spec string like ``platonic:cube``,
    ``pumpkin_chain:3,2,4``, ``cycle:6`` or ``star:1,3/2,2``.

    ``length`` is the uniform edge length (default 1) of the platonic,
    pumpkin and pumpkin_chain families; cycle, path and star carry their
    lengths in the spec.  ``segments`` is the edge count of a cycle
    (default 2).  An option the family does not take raises BadParameter.
    Loops never arise from these families."""
    kind, _, arg = str(family).partition(":")
    uniform = kind in ("platonic", "pumpkin", "pumpkin_chain")
    if not uniform and kind not in ("cycle", "path", "star"):
        raise UnknownFamily(f"unknown family {kind!r}")
    if length is not None and not uniform:
        raise BadParameter(f"{kind} takes its lengths from the spec", family=family)
    if segments is not None and kind != "cycle":
        raise BadParameter("only the cycle family takes segments", family=family)
    length = 1 if length is None else length
    try:
        if kind == "platonic":
            return platonic(arg, length)
        if kind == "pumpkin":
            return pumpkin(int(arg), length)
        if kind == "pumpkin_chain":
            return pumpkin_chain([int(x) for x in arg.split(",") if x], length)
        if kind == "cycle":
            return cycle_graph(arg or 1, 2 if segments is None else segments)
        if kind == "path":
            return path_graph(arg or 1)
        if not arg:
            raise BadParameter("star needs its edge lengths, as in star:1,3/2,2")
        return star_graph(arg.split(","))
    except ValueError as exc:
        raise BadParameter(f"bad parameter in family {family!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# pumpkin chain detection


def chain_structure(g: MetricGraph) -> list:
    """Recognize g as a pumpkin chain; a single pumpkin is a chain of one.

    Returns the ordered pumpkins as (left vertex, right vertex, edge ids);
    edge ids keep the graph's edge order within each pumpkin.  Raises
    BadSpec when g is not a chain."""
    groups: dict = {}
    for e in g.edges:
        key = frozenset((e.u, e.v))
        groups.setdefault(key, []).append(e.id)
    adj: dict = {v: [] for v in g.vertices}
    for key in groups:
        u, v = sorted(key, key=str)
        adj[u].append(v)
        adj[v].append(u)
    # g is connected, so two ends and no degree above 2 make a path
    ends = [v for v in g.vertices if len(adj[v]) == 1]
    if len(ends) != 2 or any(len(adj[v]) > 2 for v in g.vertices):
        raise BadSpec("underlying simple graph is not a path")
    start = min(ends, key=str)
    order = [start]
    prev = None
    while True:
        nxts = [w for w in adj[order[-1]] if w != prev]
        if not nxts:
            break
        prev = order[-1]
        order.append(nxts[0])
    out = []
    for a, b in zip(order, order[1:]):
        out.append((a, b, tuple(groups[frozenset((a, b))])))
    return out


# ---------------------------------------------------------------------------
# JSON round trip


def graph_to_json(g: MetricGraph) -> dict:
    out = {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "ends": [e.u, e.v],
                   "length": length_to_json(e.length)} for e in g.edges],
    }
    if g.rotation is not None:
        out["rotation"] = {
            key: [{"edge": eid, "end": end} for eid, end in g.rotation[v]]
            for key, v in _rotation_keys(g.vertices).items() if v in g.rotation}
    return out


def _rotation_keys(vertices) -> dict:
    """The rotation's keys in a file, the str of each vertex id, mapped to
    the ids; two ids that are not equal cannot share one."""
    keys = {}
    for v in vertices:
        w = keys.setdefault(str(v), v)
        if w != v:
            raise BadParameter(f"vertex ids {w!r} and {v!r} share the rotation key "
                               f"{str(v)!r}", key=str(v))
    return keys


def graph_from_json(data) -> MetricGraph:
    """Decode a graph through split_loops, so loops are split.  What the
    graph types refuse at construction is raised as a ParseError, except
    Disconnected, which passes through."""
    if not isinstance(data, dict):
        raise ParseError("graph document must be a JSON object")
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise ParseError(f"missing required key {exc.args[0]!r}") from exc
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise ParseError("'vertices' and 'edges' must be arrays")
    vertices = tuple(id_from_json(v, f"vertex #{k}") for k, v in enumerate(raw_vertices))
    edges = []
    for k, re in enumerate(raw_edges):
        if not isinstance(re, dict):
            raise ParseError(f"edge #{k} must be an object")
        try:
            eid = re["id"]
            ends = re["ends"]
            raw_len = re["length"]
        except KeyError as exc:
            raise ParseError(
                f"edge #{k} is missing key {exc.args[0]!r}") from exc
        eid = id_from_json(eid, f"the id of edge #{k}")
        if not isinstance(ends, list) or len(ends) != 2:
            raise ParseError(f"edge {eid!r}: 'ends' must be a pair")
        ends = [id_from_json(w, f"an end of edge {eid!r}") for w in ends]
        if _no_number(raw_len):
            try:  # a "p/q" string; anything else but a number is refused
                raw_len = as_length(raw_len)
            except BadParameter as exc:
                raise ParseError(f"edge {eid!r}: {exc}", edge=eid) from exc
        edges.append((eid, ends[0], ends[1], raw_len))  # Edge coerces a number
    rotation = None
    if "rotation" in data and data["rotation"] is not None:
        raw_rot = data["rotation"]
        if not isinstance(raw_rot, dict):
            raise ParseError("'rotation' must be an object")
        # keys are strings: map each to the vertex it names, and pass an
        # unknown one through for MetricGraph to refuse
        try:
            by_str = _rotation_keys(vertices)
        except BadParameter as exc:
            raise ParseError(str(exc), **exc.context) from exc
        rotation = {}
        for key, lst in raw_rot.items():
            if not isinstance(lst, list):
                raise ParseError(f"rotation at vertex {key!r} must be an array",
                                 vertex=key)
            hes = []
            for item in lst:
                if (not isinstance(item, dict) or "edge" not in item
                        or item.get("end") not in (0, 1)):
                    raise ParseError(
                        f"rotation at vertex {key!r} has a malformed half-edge",
                        vertex=key)
                hes.append((item["edge"], item["end"]))
            rotation[by_str.get(key, key)] = tuple(hes)
    try:
        return split_loops(vertices, [Edge(*e) for e in edges], rotation)
    except (BadParameter, UnknownEndpoint, NonpositiveLength) as exc:
        raise ParseError(str(exc), **exc.context) from exc
