"""Seeded input generators: graph JSON documents in qgbounds' file format.

Every pool is stratified: the seed picks edge lengths, multiplicity orders
and parameters, while the list of families and sizes is fixed.  That keeps
the cost of a pool nearly the same from seed to seed, so runs with
different seeds measure the same amount of work.

Nothing here imports qgbounds; the platonic solids are built from their
vertex coordinates with the usual outward-normal rotation system.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

PHI = (1 + math.sqrt(5)) / 2

RATIONAL_LENGTHS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                    Fraction(5, 2), Fraction(3))
IRRATIONAL_LENGTHS = (1.0, math.sqrt(2), PHI, math.pi / 2)
IRRATIONAL_A = (2 + math.sqrt(5), math.pi, math.sqrt(7), 3 * math.sqrt(2),
                math.e + 1, 2 * math.sqrt(3))

_COORDS = {
    "tetrahedron": [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
    "cube": [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)],
    "icosahedron": [p for a in (-1, 1) for b in (-PHI, PHI)
                    for p in ((0, a, b), (a, b, 0), (b, 0, a))],
    "dodecahedron": (
        [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        + [p for a in (-1 / PHI, 1 / PHI) for b in (-PHI, PHI)
           for p in ((0, a, b), (a, b, 0), (b, 0, a))]),
}

EDGE_COUNT = {"tetrahedron": 6, "cube": 12, "octahedron": 12,
              "dodecahedron": 30, "icosahedron": 30}
VERTEX_COUNT = {name: len(c) for name, c in _COORDS.items()}


def length_json(x):
    """A length as qgbounds reads it: int, "p/q" string, or float."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return float(x)


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def platonic(name: str, lengths) -> dict:
    """Platonic solid with the given per-edge lengths and a planar rotation."""
    pts = _COORDS[name]
    nv = len(pts)
    d2 = {(i, j): _dot(_sub(pts[i], pts[j]), _sub(pts[i], pts[j]))
          for i in range(nv) for j in range(i + 1, nv)}
    shortest = min(d2.values())
    pairs = sorted(p for p, d in d2.items() if d < shortest * (1 + 1e-9))
    assert len(pairs) == EDGE_COUNT[name] == len(lengths)
    eid = {p: f"e{k}" for k, p in enumerate(pairs)}
    rotation = {}
    for i in range(nv):
        nbrs = [j for p in pairs for j in p if i in p and j != i]
        ref = (1.0, 0.0, 0.0) if abs(pts[i][0]) < 0.5 else (0.0, 1.0, 0.0)
        u = _cross(pts[i], ref)
        w = _cross(pts[i], u)
        nbrs.sort(key=lambda j: math.atan2(_dot(_sub(pts[j], pts[i]), w),
                                           _dot(_sub(pts[j], pts[i]), u)))
        rotation[f"v{i}"] = [{"edge": eid[(min(i, j), max(i, j))],
                              "end": 0 if i < j else 1} for j in nbrs]
    return {
        "vertices": [f"v{i}" for i in range(nv)],
        "edges": [{"id": eid[(i, j)], "ends": [f"v{i}", f"v{j}"],
                   "length": length_json(ell)} for (i, j), ell in zip(pairs, lengths)],
        "rotation": rotation,
    }


def pumpkin_chain(multiplicities, lengths) -> dict:
    """Chain of pumpkins; ``lengths`` has one entry per edge, pumpkin by pumpkin."""
    n = len(multiplicities)
    edges, it = [], iter(lengths)
    for i, m in enumerate(multiplicities, start=1):
        for j in range(1, m + 1):
            edges.append({"id": f"e{i}_{j}", "ends": [f"v{i - 1}", f"v{i}"],
                          "length": length_json(next(it))})
    return {"vertices": [f"v{i}" for i in range(n + 1)], "edges": edges}


def four_pumpkin(a) -> dict:
    """Pumpkin with edge lengths (1, 1, a, a)."""
    return pumpkin_chain((4,), (Fraction(1), Fraction(1), a, a))


def _composition(rng, total: int, parts: int, lo: int, hi: int) -> list:
    """Random integers in [lo, hi] summing to total, with gcd 1."""
    assert parts * lo <= total <= parts * hi
    while True:
        xs = [lo] * parts
        for _ in range(total - parts * lo):
            i = rng.choice([k for k in range(parts) if xs[k] < hi])
            xs[i] += 1
        if math.gcd(*xs) == 1:
            return xs


def _chain_order(rng, base) -> tuple:
    order = list(base)
    rng.shuffle(order)
    return tuple(order)


def _spread_lengths(rng, values, n: int) -> list:
    """n lengths that use each of values equally often (to within one), shuffled.

    Fixing the multiset fixes total and shortest length, which set the cost
    of every solver here; the seed decides which edge gets which length."""
    lens = [values[i % len(values)] for i in range(n)]
    rng.shuffle(lens)
    return lens


# ---------------------------------------------------------------------------
# pools


def bounds_pool(seed: int, tiny: bool = False) -> list:
    """Graphs for the bounds sweep: (family, document) pairs.

    Five small platonic solids (tetrahedron, and two each of the cube and
    the octahedron) and ten chains of four pumpkins with multiplicities 2,
    3, 3, 4 in seeded order, all with rational lengths (one length per
    pumpkin), and eight four-pumpkins, half with irrational a.  Every op
    takes well under 0.2 s, so each graph is timed many times in a run:
    the icosahedron and dodecahedron (0.4-0.7 s an op) are left out."""
    rng = random.Random(f"bounds_sweep:{seed}")
    pool = []
    solids = ("tetrahedron",) if tiny else (
        "tetrahedron", "cube", "octahedron", "cube", "octahedron")
    for name in solids:
        lens = _spread_lengths(rng, RATIONAL_LENGTHS, EDGE_COUNT[name])
        pool.append(("platonic", platonic(name, lens)))
    for _ in range(1 if tiny else 10):
        ms = _chain_order(rng, (2, 3, 4, 3))
        per_pumpkin = _spread_lengths(rng, RATIONAL_LENGTHS, len(ms))
        lens = [ell for m, ell in zip(ms, per_pumpkin) for _ in range(m)]
        pool.append(("chain", pumpkin_chain(ms, lens)))
    n_fp = 1 if tiny else 4
    for a in rng.sample([Fraction(k, 2) for k in range(2, 13)], n_fp):
        pool.append(("four_pumpkin", four_pumpkin(a)))
    for a in rng.sample(IRRATIONAL_A, n_fp):
        pool.append(("four_pumpkin", four_pumpkin(a)))
    return pool


def _targeted_chain(rng, base, n_target: int) -> dict:
    """Chain whose subdivision at the gcd grid has exactly n_target vertices."""
    ms = _chain_order(rng, base)
    e, v = sum(ms), len(ms) + 1
    q = rng.choice((1, 2, 3, 4))
    steps = _composition(rng, n_target - v + e, e, 2, 3 * (n_target - v + e) // e)
    return pumpkin_chain(ms, [Fraction(s, q) for s in steps])


def _targeted_platonic(rng, name: str, n_target: int, lo: int, hi: int) -> dict:
    e, v = EDGE_COUNT[name], VERTEX_COUNT[name]
    q = rng.choice((1, 2, 3))
    steps = _composition(rng, n_target - v + e, e, lo, hi)
    return platonic(name, [Fraction(s, q) for s in steps])


def _targeted_four_pumpkin(rng, n_target: int) -> dict:
    # lengths (1, 1, p/q, p/q) on grid 1/q give 2 + 2(q-1) + 2(p-1) vertices
    s = (n_target + 2) // 2
    while True:
        q = rng.randint(s // 5, s // 2)
        if math.gcd(q, s - q) == 1:
            return four_pumpkin(Fraction(s - q, q))


def exact_pool(seed: int, tiny: bool = False) -> list:
    """Rational graphs for the subdivision oracle: (label, document, count).

    Sizes are the subdivided vertex counts the exact route solves, 40 to
    62, so that every op takes well under 0.3 s and each graph is timed
    many times in a run.  The dodecahedron asks for more eigenvalues than
    its first grid holds, so the oracle halves the grid once (26 then 62
    vertices)."""
    rng = random.Random(f"oracle_exact:{seed}")
    if tiny:
        return [("chain_n30", _targeted_chain(rng, (2, 3, 4), 30), 4)]
    return [
        ("chain_n40", _targeted_chain(rng, (2, 3, 4), 40), 6),
        ("chain_n50", _targeted_chain(rng, (4, 3, 2), 50), 6),
        ("chain_n60", _targeted_chain(rng, (2, 3, 4), 60), 6),
        ("tetrahedron_n40", _targeted_platonic(rng, "tetrahedron", 40, 2, 12), 8),
        ("cube_n48", _targeted_platonic(rng, "cube", 48, 2, 7), 8),
        ("icosahedron_n50", _targeted_platonic(rng, "icosahedron", 50, 2, 3), 8),
        ("dodecahedron_n26_halved", _targeted_platonic(rng, "dodecahedron", 26, 1, 2), 30),
        ("four_pumpkin_n50", _targeted_four_pumpkin(rng, 50), 4),
    ]


def fd_pool(seed: int, tiny: bool = False) -> list:
    """Irrational graphs for the finite-element oracle: (label, document, count).

    Platonic solids take lengths from {1, sqrt2, phi, pi/2}, each about
    equally often; four-pumpkins take an irrational a.  The high
    counts on the 12- and 30-edge solids force a refinement whose fine mesh
    passes 900 nodes, which runs the sparse eigensolver."""
    rng = random.Random(f"oracle_fd:{seed}")

    def solid(name):
        return platonic(name, _spread_lengths(rng, IRRATIONAL_LENGTHS, EDGE_COUNT[name]))

    if tiny:
        return [("tetrahedron_k4", solid("tetrahedron"), 4)]
    pool = [(f"{name}_k{k}", solid(name), k) for name, k in (
        ("tetrahedron", 6), ("cube", 8), ("octahedron", 8),
        ("dodecahedron", 12), ("icosahedron", 12),
        ("cube", 24), ("dodecahedron", 30), ("icosahedron", 30))]
    for k, a in zip((4, 4, 8, 8), rng.sample(IRRATIONAL_A, 4)):
        pool.append((f"four_pumpkin_k{k}", four_pumpkin(a), k))
    return pool
