"""Seeded instance generator for the four benchmark workloads.

Instances are plain JSON-ready data built from (workload, seed, index) alone,
without importing the program under test, so that the same seed gives
byte-identical inputs on every commit.  Exact scalars are written as rational
strings or {"zeta8": [c0, c1, c2, c3]} literals over the basis
(1, z, z^2, z^3), z = exp(i*pi/4); `z8mul` below is the generator's own
arithmetic in Q(z), used to build holographic transforms of family members.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("contract-exact", "contract-float", "family-dispatch", "cli-cold")

# -- arithmetic in Q(zeta_8): 4-tuples of Fractions --------------------------

Z0 = (Fraction(0),) * 4
Z1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
_H = Fraction(1, 2)
INV_SQRT2 = (Fraction(0), _H, Fraction(0), -_H)        # (z - z^3) / 2
I_SQRT2 = (Fraction(0), _H, Fraction(0), _H)           # (z + z^3) / 2


def z8(c0=0, c1=0, c2=0, c3=0):
    return (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))


def z8add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def z8neg(a):
    return tuple(-x for x in a)


def z8mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    # z^4 = -1
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def z8json(a):
    """Scalar literal the CLI grammar accepts: rational string or zeta8 object."""
    if not (a[1] or a[2] or a[3]):
        return _frac_text(a[0])
    return {"zeta8": [_frac_text(c) for c in a]}


def rand_z8(rng, lo=-2, hi=2, rational=False):
    """A nonzero element; non-rational unless `rational`."""
    while True:
        cs = [rng.randint(lo, hi) for _ in range(1 if rational else 4)]
        a = z8(*cs)
        if any(a) and (rational or any(a[1:])):
            return a


def turn(a, k):
    """a * z**k: the same coefficients, cycled with one sign change."""
    for _ in range(k % 8):
        a = (-a[3], a[0], a[1], a[2])
    return a


def rand_dense_z8(rng):
    """A weight with two or more nonzero coefficients, so no turn makes it rational."""
    while True:
        a = z8(*(rng.randint(-1, 1) for _ in range(4)))
        if sum(1 for c in a if c) >= 2:
            return a


def holo(m, values, arity):
    """Values of M o f: apply the 2x2 matrix m (rows) to every argument."""
    vals = list(values)
    for j in range(arity):
        stride = 1 << (arity - 1 - j)
        new = [None] * len(vals)
        for idx in range(len(vals)):
            if idx & stride:
                continue
            v0, v1 = vals[idx], vals[idx | stride]
            new[idx] = z8add(z8mul(m[0][0], v0), z8mul(m[0][1], v1))
            new[idx | stride] = z8add(z8mul(m[1][0], v0), z8mul(m[1][1], v1))
        vals = new
    return vals


ORTHO = ((z8(Fraction(3, 5)), z8(Fraction(4, 5))),
         (z8(Fraction(-4, 5)), z8(Fraction(3, 5))))
K1 = ((INV_SQRT2, INV_SQRT2), (I_SQRT2, z8neg(I_SQRT2)))


def fn_json(values, arity):
    return {"arity": arity, "values": [z8json(v) for v in values]}


def grid_json(fns, edges):
    """fns: list of (values, arity) with ids 0..n-1; edges: ((v, s), (w, t))."""
    return {"vertices": [{"id": n, "fn": fn_json(vals, k)}
                         for n, (vals, k) in enumerate(fns)],
            "edges": [[list(p), list(q)] for p, q in edges],
            "dangling": []}


# -- graphs --------------------------------------------------------------------

def random_cubic_graph(rng, n):
    """Uniform-ish simple 3-regular graph on n (even) vertices, by rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for k in range(0, len(stubs), 2):
            u, v = sorted((stubs[k], stubs[k + 1]))
            if u == v or (u, v) in edges:
                ok = False
                break
            edges.add((u, v))
        if ok:
            return {"n": n, "edges": [list(e) for e in sorted(edges)]}


def torus(fixed, rng, rows, cols):
    """4-regular torus, slots (left, right, up, down), dense Q(z8) tables.

    `fixed` draws the zero pattern and the weights' magnitudes, `rng` turns
    every weight by an 8th root of unity.
    """
    fns = []
    for _ in range(rows * cols):
        vals = [turn(rand_dense_z8(fixed), rng.randrange(8))
                if fixed.random() < 0.75 else Z0 for _ in range(16)]
        fns.append((vals, 4))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append(((v, 2), (r * cols + (c + 1) % cols, 1)))
            edges.append(((v, 4), (((r + 1) % rows) * cols + c, 3)))
    return grid_json(fns, edges)


# -- contract-exact / contract-float --------------------------------------------

# One cycle of the mix: (family, size).  Each instance of a cycle is one
# closed grid; the sizes put one exact instance at roughly 0.05-1 s.
CONTRACT_MIX = {
    "contract-exact": (("torus", (3, 3)), ("is", 18), ("md", 16),
                       ("torus", (3, 3)), ("is", 20), ("md", 18)),
    "contract-float": (("torus", (4, 4)), ("is", 26), ("md", 26),
                       ("torus", (3, 5)), ("is", 28), ("md", 28)),
}


def contract_instance(workload, rng, index):
    # Each slot of the mix keeps one graph shape and one set of weight
    # magnitudes, drawn from streams fixed per slot; the seed turns every
    # weight by a random 8th root of unity.  Exact contraction costs follow
    # the greedy width of the graph and the sizes of the coefficients, which
    # vary too much to let the seed, or the number of cycles a run reaches,
    # pick them.
    slot = index % len(CONTRACT_MIX[workload])
    family, size = CONTRACT_MIX[workload][slot]
    fixed = random.Random(f"weights/{workload}/{slot}")
    if family == "torus":
        return {"family": "torus", "size": list(size),
                "grid": torus(fixed, rng, *size)}
    graph = random_cubic_graph(random.Random(f"cubic/{size}/{slot}"), size)
    weight = turn(rand_dense_z8(fixed), rng.randrange(8))
    if family == "is":
        act = weight
    else:
        # a perfect square, so the exact sqrt the reduction takes exists
        act = z8mul(weight, weight)
    return {"family": family, "size": size, "graph": graph,
            "activity": z8json(act)}


# -- family-dispatch --------------------------------------------------------------

FAMILY_MIX = (("T", True), ("T", False), ("OE", True), ("OE", False),
              ("KE", True), ("KE", False), ("KM", True), ("KM", False))
FAMILY_SIZE = {("T", True): 400, ("T", False): 80, ("OE", True): 400,
               ("OE", False): 40, ("KE", True): 400, ("KE", False): 32,
               ("KM", True): 150, ("KM", False): 30}


def _chord_ring_edges(n):
    """Ring i -> i+1 on slots (2, 1); chords 2k <-> 2k+3 on slot 3."""
    edges = [((v, 2), ((v + 1) % n, 1)) for v in range(n)]
    edges += [((2 * k, 3), ((2 * k + 3) % n, 3)) for k in range(n // 2)]
    return edges


def _parity_member(rng, a, arity):
    """An E function: support {a, complement of a}, non-rational weights."""
    vals = [Z0] * (1 << arity)
    vals[a] = rand_z8(rng, -1, 1)
    vals[a ^ ((1 << arity) - 1)] = rand_z8(rng, -1, 1)
    return vals


def _e_grid(rng, n, shared, transform, neq_edges):
    edges = _chord_ring_edges(n)
    if shared:
        # slots 1 and 2 carry the same bit, so every cycle is consistent
        b = rng.randint(0, 1)
        a = (b << 2) | (b << 1) | rng.randint(0, 1)
        f = holo(transform, _parity_member(rng, a, 3), 3)
        return grid_json([(f, 3)] * n, edges)
    # a random edge colouring fixes every vertex's support, so Z != 0
    bits = [[0, 0, 0] for _ in range(n)]
    for (u, s), (v, t) in edges:
        c = rng.randint(0, 1)
        bits[u][s - 1] = c
        bits[v][t - 1] = c ^ neq_edges
    fns = []
    for v in range(n):
        a = (bits[v][0] << 2) | (bits[v][1] << 1) | bits[v][2]
        fns.append((holo(transform, _parity_member(rng, a, 3), 3), 3))
    return grid_json(fns, edges)


def _w_member(rng):
    """An M function of arity 3 with every weight-<=1 entry nonzero."""
    vals = [Z0] * 8
    for idx in (0, 4, 2, 1):
        vals[idx] = rand_z8(rng, -1, 1)
    return vals


def _km_grid(rng, m, shared):
    """Caterpillar: spine of m arity-3 K1 o M vertices, unary K1 o u leaves."""
    def leaf():
        return holo(K1, [rand_z8(rng, -1, 1), rand_z8(rng, -1, 1)], 1)

    # leaves: one per spine vertex, then one at each end of the spine
    if shared:
        spine = [holo(K1, _w_member(rng), 3)] * m
        leaves = [leaf()] * (m + 2)
    else:
        spine = [holo(K1, _w_member(rng), 3) for _ in range(m)]
        leaves = [leaf() for _ in range(m + 2)]
    fns = [(f, 3) for f in spine] + [(f, 1) for f in leaves]
    edges = [((v, 2), (v + 1, 1)) for v in range(m - 1)]
    edges += [((v, 3), (m + v, 1)) for v in range(m)]
    edges += [((0, 1), (2 * m, 1)), ((m - 1, 2), (2 * m + 1, 1))]
    return grid_json(fns, edges)


def family_instance(rng, index):
    family, shared = FAMILY_MIX[index % len(FAMILY_MIX)]
    n = FAMILY_SIZE[family, shared]
    if family == "T":
        mats = [rand_z8(rng, -1, 1) for _ in range(4)]
        fns = []
        for _ in range(n):
            if not shared:
                mats = [rand_z8(rng, -1, 1) for _ in range(4)]
            fns.append((mats, 2))
        grid = grid_json(fns, [((v, 2), ((v + 1) % n, 1)) for v in range(n)])
    elif family == "OE":
        grid = _e_grid(rng, n, shared, ORTHO, 0)
    elif family == "KE":
        grid = _e_grid(rng, n, shared, K1, 1)
    else:
        grid = _km_grid(rng, n, shared)
    return {"family": family, "shared": shared, "grid": grid}


# -- cli-cold ------------------------------------------------------------------------

# The command mix, one instance each per cycle.  Activities for reduce-is come
# from a fixed set that includes negative rationals.
CLI_MIX = ("eval-exact", "eval-float", "eval-brute-fallback", "realize-grid",
           "realize-formula", "classify", "synth-pldu", "synth-triangularize",
           "synth-unitary-completion", "synth-binary-from-ghz",
           "synth-binary-from-tractable-pair", "synth-ghz-from-w",
           "synth-express-E", "synth-express-M", "transform", "reduce-is",
           "csp2holant", "suite-oracle-equivalence", "suite-closure-laws",
           "verify-identities")
IS_ACTIVITIES = ("3", "1/2", "-1/2", "-2", "i", "-1/3")


def _cubic_grid(rng, nv):
    """Closed grid on a simple random cubic graph: every first contraction
    step joins two vertices by one edge, so it needs arity 4."""
    graph = random_cubic_graph(rng, nv)
    slot = [0] * nv
    edges = []
    for u, v in graph["edges"]:
        slot[u] += 1
        slot[v] += 1
        edges.append(((u, slot[u]), (v, slot[v])))
    fns = [([rand_z8(rng, -2, 2) for _ in range(8)], 3) for _ in range(nv)]
    return grid_json(fns, edges)


def _small_closed(rng, nv):
    """Closed grid of nv arity-3 vertices on a random cubic multigraph."""
    stubs = [(v, s) for v in range(nv) for s in (1, 2, 3)]
    rng.shuffle(stubs)
    edges = [(stubs[k], stubs[k + 1]) for k in range(0, len(stubs), 2)]
    fns = [([rand_z8(rng, -2, 2, rational=rng.random() < 0.5)
             for _ in range(8)], 3) for _ in range(nv)]
    return grid_json(fns, edges)


def _rat_matrix(rng):
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c:
            return [[a, b], [c, d]]


def cli_instance(rng, index):
    kind = CLI_MIX[index % len(CLI_MIX)]
    files = {}
    opts = []
    if kind == "eval-exact":
        files["g.json"] = _small_closed(rng, rng.choice((4, 6)))
        argv = ["eval", "g.json"]
    elif kind == "eval-float":
        files["g.json"] = _small_closed(rng, 4)
        opts = ["--backend", "float"]
        argv = ["eval", "g.json"]
    elif kind == "eval-brute-fallback":
        # a cap below the greedy plan's width makes contraction fall back
        files["g.json"] = _cubic_grid(rng, 6)
        opts = ["--cap", "3"]
        argv = ["eval", "g.json"]
    elif kind == "realize-grid":
        g = _small_closed(rng, 4)
        p, q = g["edges"].pop(rng.randrange(len(g["edges"])))
        g["dangling"] = [p, q]
        files["g.json"] = g
        argv = ["realize", "g.json"]
    elif kind == "realize-formula":
        files["psi.json"] = {
            "free": ["x", "z"], "bound": ["y"],
            "atoms": [{"fn": fn_json([rand_z8(rng, -2, 2) for _ in range(4)], 2),
                       "scope": ["x", "y"]},
                      {"fn": fn_json([rand_z8(rng, -2, 2) for _ in range(4)], 2),
                       "scope": ["y", "z"]}]}
        argv = ["realize", "psi.json"]
    elif kind == "classify":
        a = rng.randrange(8)
        fns = [fn_json(holo(ORTHO, _parity_member(rng, a, 3), 3), 3),
               fn_json(holo(K1, _w_member(rng), 3), 3),
               fn_json([rand_z8(rng, -2, 2) for _ in range(4)], 2)]
        files["fns.json"] = {"functions": fns[:rng.randint(1, 3)]}
        argv = ["classify", "fns.json"]
    elif kind == "synth-pldu":
        files["req.json"] = {"kind": "pldu", "matrix": _rat_matrix(rng)}
        argv = ["synth", "req.json"]
    elif kind == "synth-triangularize":
        files["req.json"] = {"kind": "triangularize", "matrix": _rat_matrix(rng),
                             "side": rng.choice(("upper", "lower"))}
        argv = ["synth", "req.json"]
    elif kind == "synth-unitary-completion":
        col = rng.choice(([3, 4], [5, 12], [8, 15], [1, 1], [2, 1]))
        files["req.json"] = {"kind": "unitary-completion", "column": col}
        argv = ["synth", "req.json"]
    elif kind == "synth-binary-from-ghz":
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        # (a, b; 0, 1/a) o EQ3 with b != 0 is a non-triangular GHZ function
        m = ((z8(a), z8(b)), (Z0, z8(Fraction(1, a))))
        eq3 = [Z1] + [Z0] * 6 + [Z1]
        files["req.json"] = {"kind": "binary-from-ghz",
                             "f": fn_json(holo(m, eq3, 3), 3),
                             "target": fn_json([z8(rng.randint(1, 4))
                                                for _ in range(4)], 2)}
        argv = ["synth", "req.json"]
    elif kind == "synth-binary-from-tractable-pair":
        a = rng.randint(2, 4)
        b, c = rng.randint(2, 4), rng.randint(2, 4)
        files["req.json"] = {
            "kind": "binary-from-tractable-pair",
            "f": {"values": ["1", "0", "0", "0", "0", "0", "0", str(a)]},
            "g": {"values": [str(b), "1", "1", str(c)]},
            "target": {"values": [str(rng.randint(1, 4)) for _ in range(4)]}}
        argv = ["synth", "req.json"]
    elif kind == "synth-ghz-from-w":
        while True:
            m = _rat_matrix(rng)
            if m[0][1] and m[1][0]:
                break
        one3 = [Z0, Z1, Z1, Z0, Z1, Z0, Z0, Z0]
        mm = tuple(tuple(z8(x) for x in row) for row in m)
        files["req.json"] = {"kind": "ghz-from-w",
                             "f": fn_json(holo(mm, one3, 3), 3),
                             "s1": {"named": "EQ", "arity": 2},
                             "s2": {"named": "EQ", "arity": 2}}
        argv = ["synth", "req.json"]
    elif kind == "synth-express-E":
        k = rng.randint(2, 4)
        files["req.json"] = {"kind": "express-E",
                             "f": fn_json(_parity_member(rng, rng.randrange(1 << k), k), k)}
        argv = ["synth", "req.json"]
    elif kind == "synth-express-M":
        k = rng.randint(2, 4)
        vals = [Z0] * (1 << k)
        vals[0] = rand_z8(rng, -3, 3, rational=True)
        for j in range(k):
            vals[1 << j] = rand_z8(rng, -3, 3, rational=True)
        files["req.json"] = {"kind": "express-M", "f": fn_json(vals, k)}
        argv = ["synth", "req.json"]
    elif kind == "transform":
        # bipartite: EQ vertices on the left, random binaries on the right
        n = rng.randint(2, 3)
        fns = [([Z1, Z0, Z0, Z1], 2) for _ in range(n)]
        fns += [([rand_z8(rng, -2, 2, rational=True) for _ in range(4)], 2)
                for _ in range(n)]
        edges = [((v, 2), (n + v, 1)) for v in range(n)]
        edges += [((n + v, 2), ((v + 1) % n, 1)) for v in range(n)]
        g = grid_json(fns, edges)
        g["bipartition"] = {str(v): ("L" if v < n else "R") for v in range(2 * n)}
        files["g.json"] = g
        argv = ["transform", "g.json", json.dumps(_rat_matrix(rng))]
    elif kind == "reduce-is":
        files["graph.json"] = random_cubic_graph(rng, rng.choice((6, 8)))
        argv = ["reduce-is", "graph.json", rng.choice(IS_ACTIVITIES), "--check"]
    elif kind == "csp2holant":
        variables = ["x", "y", "z"]
        cons = []
        for _ in range(rng.randint(2, 3)):
            scope = rng.sample(variables, 2)
            cons.append({"fn": fn_json([z8(rng.randint(0, 2)) for _ in range(4)], 2),
                         "scope": scope})
        used = sorted({v for c in cons for v in c["scope"]})
        files["csp.json"] = {"variables": used, "constraints": cons}
        argv = ["csp2holant", "csp.json"]
    elif kind == "suite-oracle-equivalence":
        opts = ["--seed", str(rng.randint(0, 999))]
        argv = ["suite", "oracle-equivalence", "--draws", "4"]
    elif kind == "suite-closure-laws":
        opts = ["--seed", str(rng.randint(0, 999))]
        argv = ["suite", "closure-laws", "--draws", "2"]
    else:
        opts = ["--seed", str(rng.randint(0, 999))]
        argv = ["verify-identities", "--draws", "2"]
    return {"family": kind, "argv": opts + argv, "files": files}


# -- entry point --------------------------------------------------------------------

def cycle_length(workload: str) -> int:
    """Instances in one cycle of the workload's mix."""
    if workload == "family-dispatch":
        return len(FAMILY_MIX)
    if workload == "cli-cold":
        return len(CLI_MIX)
    return len(CONTRACT_MIX[workload])


def instance(workload: str, seed: int, index: int) -> dict:
    """Instance `index` of `workload` under `seed`.

    Index -1 is the warm-up, part of set-up.  It is the same for every seed,
    so that set-up time does not depend on the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/warm-up" if index < 0
                        else f"{workload}/{seed}/{index}")
    slot = 0 if index < 0 else index
    if workload == "family-dispatch":
        out = family_instance(rng, slot)
    elif workload == "cli-cold":
        out = cli_instance(rng, slot)
    else:
        out = contract_instance(workload, rng, slot)
    out["index"] = index
    return out


def instance_bytes(workload: str, seed: int, index: int) -> bytes:
    return json.dumps(instance(workload, seed, index), sort_keys=True,
                      separators=(",", ":")).encode()
