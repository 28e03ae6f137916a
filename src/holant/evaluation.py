"""Holant computation engines.

realize_gadget enumerates edge assignments; holant_brute is it on a closed
grid.  holant_contract plans, then executes: plan_greedy orders the pairwise
merges on wire lists alone, and one kernel runs each merge in a single pass,
a sparse (free x shared) by (shared x free) product that skips zero entries,
or a trace for self-loops.  holant_T, holant_E and holant_KM are the
polynomial-time evaluators for the three nontrivial tractable families (arity
<= 2 atoms; parity-constrained supports; weight <= 1 supports under a K
transform), validated against holant_brute, never trusted on faith.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .formulas import BudgetExceeded
from .grids import SignatureGrid, ValidationError, require_valid
from .scalars import Cyc, ONE, ZERO, as_scalar, to_complex
from .signatures import (Signature, Transform2, decompose_atoms, holo, in_E,
                         in_M, matrix_view)


def _lower(v):
    """Rational Cyc -> int or Fraction, so long product chains stay cheap."""
    if isinstance(v, Cyc) and v.is_rational():
        q = v.c0
        return q.numerator if q.denominator == 1 else q
    return v


class FamilyViolation(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class HolantValue:
    value: object
    backend: str  # "exact" | "approx"

    def __complex__(self):
        return to_complex(self.value)

    def magnitude(self) -> float:
        return abs(to_complex(self.value))

    def argument(self) -> float:
        """Principal argument folded into [0, 2pi)."""
        import cmath
        z = to_complex(self.value)
        if z == 0:
            return 0.0
        a = cmath.phase(z)
        return a if a >= 0 else a + 2 * cmath.pi


def _backend_tag(grid: SignatureGrid) -> str:
    return "exact" if grid.is_exact() else "approx"


def _require_closed(grid: SignatureGrid):
    require_valid(grid)
    if grid.dangling:
        raise ValidationError("grid has dangling edges; realize it as a gadget")


# -- brute force ---------------------------------------------------------------

def holant_brute(grid: SignatureGrid, budget: int = 24) -> HolantValue:
    _require_closed(grid)
    return HolantValue(realize_gadget(grid, budget).values[0], _backend_tag(grid))


def realize_gadget(grid: SignatureGrid, budget: int = 24) -> Signature:
    """Enumerate every edge assignment under every assignment to the dangling
    legs: one bit per edge, then one per leg with leg 1 on top."""
    require_valid(grid)
    m, k = len(grid.edges), len(grid.dangling)
    if m > budget:
        raise BudgetExceeded(f"{m} edges > brute budget {budget}")
    wire = {}
    for n, (p, q) in enumerate(grid.edges):
        wire[p] = wire[q] = n
    for n, p in enumerate(grid.dangling):
        wire[p] = m + k - 1 - n
    slots = [(f, [wire[(vid, s)] for s in range(1, f.arity + 1)])
             for vid, f in sorted(grid.vertices.items())]

    vals = []
    for legs in range(1 << k):
        total = None
        for mask in range(legs << m, (legs + 1) << m):
            term = ONE
            for f, ws in slots:
                idx = 0
                for w in ws:
                    idx = (idx << 1) | ((mask >> w) & 1)
                term = term * f.values[idx]
            total = term if total is None else total + term
        vals.append(total)
    return Signature(vals, k)


# -- plan, then execute --------------------------------------------------------

@dataclass(frozen=True)
class ContractionPlan:
    steps: tuple  # (node u, node v, predicted resulting arity); u == v for loops

    @property
    def max_arity(self) -> int:
        return max((a for _, _, a in self.steps), default=0)


class _Network:
    """Wire bookkeeping of a grid under contraction; it holds no tables."""

    def __init__(self, grid: SignatureGrid):
        wid = {p: n for n, e in enumerate(grid.edges) for p in e}
        base = len(grid.edges)
        wid.update((p, base + n) for n, p in enumerate(grid.dangling))
        self.dangling_wires = [wid[p] for p in grid.dangling]
        # node -> wire ids, position = argument - 1; wire -> its 1 or 2 ends
        self.wires = {v: [wid[(v, s)] for s in range(1, f.arity + 1)]
                      for v, f in grid.vertices.items()}
        self.ends = {}
        for v, ws in self.wires.items():
            for w in ws:
                self.ends.setdefault(w, []).append(v)
        self.internal = len(grid.edges)

    def _both(self, u, v):
        return self.wires[u] if u == v else self.wires[u] + self.wires[v]

    def arity(self, u, v):
        """Legs left once u and v merge; a wire appears at most twice in _both."""
        ws = self._both(u, v)
        return 2 * len(set(ws)) - len(ws)

    def linked(self, u, v):
        if u == v:
            return len(set(self.wires[u])) < len(self.wires[u])
        return not set(self.wires[u]).isdisjoint(self.wires[v])

    def join(self, u, v):
        """Drop every wire joining u and v, self-loops included; the survivor,
        min(u, v), keeps the other wires, u's first.  Returns the survivor."""
        both = self._both(u, v)
        ws = [w for w in both if both.count(w) == 1]
        for w in set(both).difference(ws):
            del self.ends[w]
            self.internal -= 1
        keep = min(u, v)
        del self.wires[max(u, v)]
        self.wires[keep] = ws
        for w in ws:
            self.ends[w] = [keep if e in (u, v) else e for e in self.ends[w]]
        return keep


def _greedy(net: _Network, cap: int) -> ContractionPlan:
    """Merge the linked pair with the smallest (result arity, first id, second
    id) until no internal wire is left.  Pairs enter the lazy heap as (min id,
    max id), and a survivor's pairs with the survivor first, so that ties go
    to the cluster that grew last: this needs arity 12 on the independent-set
    grid of the 10x10 grid graph, where (min id, max id) alone needs 14."""
    heap = [(net.arity(*e), *e) for e in
            {(min(es), max(es)) for es in net.ends.values() if len(es) == 2}]
    heapq.heapify(heap)
    steps = []
    while heap:
        arity, u, v = heapq.heappop(heap)
        if u not in net.wires or v not in net.wires or not net.linked(u, v):
            continue
        if net.arity(u, v) != arity:  # stale: re-score
            heapq.heappush(heap, (net.arity(u, v), u, v))
            continue
        if arity > cap:
            raise CapExceeded(
                f"best available contraction needs arity {arity} > cap {cap}; "
                "raise the cap or use the brute evaluator")
        steps.append((u, v, arity))
        keep = net.join(u, v)
        for t in {t for w in net.wires[keep] for t in net.ends[w]} - {keep}:
            heapq.heappush(heap, (net.arity(keep, t), keep, t))
    return ContractionPlan(tuple(steps))


def plan_greedy(grid: SignatureGrid, cap: int = 12) -> ContractionPlan:
    """The greedy contraction order, planned on wire lists alone."""
    require_valid(grid)
    return _greedy(_Network(grid), cap)


def _sparse(vals, wires, major, minor):
    """The table as a (major x minor) matrix over those wire lists: one list
    of (minor index, value) per major index, zero entries left out.  A wire
    listed twice in `wires` (a self-loop) reads both of its positions."""
    k = len(wires)

    def offsets(ws):  # every index the wires in ws address, ws[0] on top
        out = [0]
        for w in ws:
            b = sum(1 << (k - 1 - p) for p, x in enumerate(wires) if x == w)
            out = [x + c for x in out for c in (0, b)]
        return out

    lo = list(enumerate(offsets(minor)))
    return [[(x, v) for x, o in lo if (v := vals[s + o])] for s in offsets(major)]


def _trace(vals, wires, zero):
    """Sum out every self-loop of one table in a single pass."""
    free = [w for w in wires if wires.count(w) == 1]
    if len(free) == len(wires):
        return vals, wires
    loops = list(dict.fromkeys(w for w in wires if w not in free))
    return [sum((v for _, v in g[1:]), g[0][1]) if g else zero
            for g in _sparse(vals, wires, free, loops)], free


def _pair(a, a_wires, b, b_wires, zero):
    """out[x, y] = sum_s A[x, s] * B[s, y] over the wires s that A and B share;
    the result's legs are A's free wires, then B's."""
    shared = [w for w in a_wires if w in b_wires]
    a_free = [w for w in a_wires if w not in shared]
    b_free = [w for w in b_wires if w not in shared]
    n = 1 << len(b_free)
    out = [None] * (n << len(a_free))
    for row, col in zip(_sparse(a, a_wires, shared, a_free),
                        _sparse(b, b_wires, shared, b_free)):
        if not col:
            continue
        for x, p in row:
            x *= n
            for y, q in col:
                t = out[x + y]
                out[x + y] = p * q if t is None else t + p * q
    return [zero if t is None else t for t in out], a_free + b_free


def _execute(grid: SignatureGrid, plan, cap: int) -> Signature:
    """Run the plan (the greedy one if None) on a validated grid.  Exact tables
    stay exact, rational entries as int/Fraction; any other grid runs on
    complex floats."""
    if plan is None:
        plan = _greedy(_Network(grid), cap)
    net = _Network(grid)
    exact = grid.is_exact()
    zero, lift = (ZERO, _lower) if exact else (0j, to_complex)
    tables = {v: [lift(x) for x in f.values] for v, f in grid.vertices.items()}
    for u, v, _ in plan.steps:
        if net.arity(u, v) > cap:
            raise CapExceeded(f"step ({u},{v}) exceeds arity cap {cap}")
        a, a_wires = _trace(tables.pop(u), net.wires[u], zero)
        if u != v:
            b, b_wires = _trace(tables.pop(v), net.wires[v], zero)
            a, _ = _pair(a, a_wires, b, b_wires, zero)
        tables[net.join(u, v)] = a
    if net.internal:
        raise ValueError(f"plan leaves {net.internal} internal wires uncontracted")

    # the remains: outer products in id order, then dangling legs in order
    parts = [(tables[v], net.wires[v]) for v in sorted(tables)] or [([ONE], [])]
    vals, ws = parts[0]
    for b, b_wires in parts[1:]:
        vals, ws = _pair(vals, ws, b, b_wires, zero)
    out = Signature(vals, len(ws))
    # slot m of `out` carries wire ws[m-1]; permute() feeds old slot m from
    # new argument pi[m-1], so pi maps tensor slots to dangling positions
    pos_of = {w: n for n, w in enumerate(net.dangling_wires)}
    pi = tuple(pos_of[w] + 1 for w in ws)
    if pi and pi != tuple(range(1, len(pi) + 1)):
        out = out.permute(pi)
    return out


def contract_network(grid: SignatureGrid, plan: ContractionPlan = None,
                     cap: int = 12) -> Signature:
    """Reduce the grid to the signature it realizes (arity 0 when closed)."""
    require_valid(grid)
    return _execute(grid, plan, cap)


def holant_contract(grid: SignatureGrid, plan: ContractionPlan = None,
                    cap: int = 12) -> HolantValue:
    _require_closed(grid)
    return HolantValue(_execute(grid, plan, cap).values[0], _backend_tag(grid))


# -- family evaluators ---------------------------------------------------------

def _split_into_atoms(grid: SignatureGrid, strip: Transform2 = None,
                      tol: float = 1e-9):
    """Strip a transform off every vertex and split into tensor atoms.

    Returns (scalar, atom signature list, remapped edges); atom ids are dense.
    """
    cache = {}
    scalar = ONE
    atoms = []
    port_map = {}
    inv = strip.inverse() if strip is not None else None
    for vid in sorted(grid.vertices):
        f = grid.vertices[vid]
        if f not in cache:
            g = holo(inv, f) if inv is not None else f
            cache[f] = decompose_atoms(g, tol=tol)
        dec = cache[f]
        scalar = scalar * dec.scalar
        for atom, places in zip(dec.atoms, dec.placement):
            nid = len(atoms)
            atoms.append(atom)
            for t, p in enumerate(places, start=1):
                port_map[(vid, p)] = (nid, t)
    edges = [(port_map[p], port_map[q]) for p, q in grid.edges]
    return scalar, atoms, edges


def holant_T(grid: SignatureGrid, tol: float = 1e-9) -> HolantValue:
    """Closed grids whose vertices factor into atoms of arity <= 2."""
    _require_closed(grid)
    scalar, atoms, edges = _split_into_atoms(grid, tol=tol)
    bad = [n for n, a in enumerate(atoms) if a.arity > 2]
    if bad:
        raise FamilyViolation(f"atom of arity {atoms[bad[0]].arity} > 2")

    adj = {n: [] for n in range(len(atoms))}
    for p, q in edges:
        adj[p[0]].append((p[1], q))
        adj[q[0]].append((q[1], p))

    total = scalar
    seen = [False] * len(atoms)
    for start in range(len(atoms)):
        if seen[start]:
            continue
        if atoms[start].arity == 2 and len(adj[start]) == 2:
            # might be interior of a path; handle paths from their endpoints
            if not any(q[0] == start for _, q in adj[start]):
                continue
        comp = _trace_chain(atoms, adj, seen, start)
        total = total * comp
    # leftover unseen vertices belong to cycles of binary atoms
    for start in range(len(atoms)):
        if not seen[start]:
            total = total * _trace_cycle(atoms, adj, seen, start)
    return HolantValue(total, _backend_tag(grid))


def _step_matrix(atom: Signature, enter_slot: int) -> Transform2:
    m = matrix_view(atom)
    return m if enter_slot == 1 else m.transpose()


def _trace_chain(atoms, adj, seen, start):
    """Evaluate the path component containing `start` (an endpoint or isolated)."""
    seen[start] = True
    a = atoms[start]
    if a.arity == 0:
        return a.values[0]
    if a.arity == 2 and len(adj[start]) == 2 and any(q[0] == start for _, q in adj[start]):
        # self-looped binary: trace of the matrix, a cycle of length 1
        m = matrix_view(a)
        return m.a + m.d
    # unary endpoint: walk to the other end
    vec = (a.values[0], a.values[1])
    slot_prev, cur = adj[start][0]
    while True:
        nid, slot = cur
        seen[nid] = True
        g = atoms[nid]
        if g.arity == 1:
            return vec[0] * g.values[0] + vec[1] * g.values[1]
        m = _step_matrix(g, slot)
        vec = (vec[0] * m.a + vec[1] * m.c, vec[0] * m.b + vec[1] * m.d)
        nxt = [q for s, q in adj[nid] if s != slot]
        cur = nxt[0]


def _trace_cycle(atoms, adj, seen, start):
    seen[start] = True
    acc = matrix_view(atoms[start])  # enter at slot 1 by convention
    _, cur = [e for e in adj[start] if e[0] == 2][0]
    while cur[0] != start:
        nid, slot = cur
        seen[nid] = True
        acc = acc @ _step_matrix(atoms[nid], slot)
        cur = [q for s, q in adj[nid] if s != slot][0]
    return acc.a + acc.d


class _ParityUF:
    """Union-find tracking a bit along each link (state_v = state_root xor par)."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.par = [0] * n
        self.rank = [0] * n
        self.dead = [False] * n

    def find(self, x):
        root, p = x, 0
        while self.parent[root] != root:
            p ^= self.par[root]
            root = self.parent[root]
        total = p
        while self.parent[x] != root:
            nxt = self.parent[x]
            nxt_p = p ^ self.par[x]
            self.parent[x] = root
            self.par[x] = p
            p = nxt_p
            x = nxt
        return root, total

    def union(self, x, y, d):
        rx, px = self.find(x)
        ry, py = self.find(y)
        need = d ^ px ^ py
        if rx == ry:
            if need:
                self.dead[rx] = True
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.par[ry] = need
        self.dead[rx] = self.dead[rx] or self.dead[ry]
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def holant_E(grid: SignatureGrid, strip=None, tol: float = 1e-9) -> HolantValue:
    """Closed grids of parity-pair supports: every vertex function is zero
    outside some {a, complement of a}.

    strip=None and strip=<orthogonal Transform2> keep edges as equality;
    strip="K1" removes the K1 transform from every vertex, which turns each
    edge into a disequality.
    """
    _require_closed(grid)
    flip = 0
    inv = None
    if strip == "K1":
        from .signatures import K1
        inv = K1.inverse()
        flip = 1
    elif isinstance(strip, Transform2):
        if not strip.is_orthogonal(tol):
            raise FamilyViolation("strip transform is not orthogonal")
        inv = strip.inverse()
    elif strip is not None:
        raise ValueError(f"unknown strip mode: {strip!r}")

    cache = {}
    ids = sorted(grid.vertices)
    idx = {vid: n for n, vid in enumerate(ids)}
    info = []
    nullary = 1
    for vid in ids:
        f = grid.vertices[vid]
        if f not in cache:
            g = holo(inv, f) if inv is not None else f
            if not in_E(g, tol):
                raise FamilyViolation(f"vertex {vid} not supported on a "
                                      "complementary pair")
            sup = g.support(tol)
            a = sup[0] if sup else 0
            abar = a ^ ((1 << g.arity) - 1)
            cache[f] = (g.arity, a, _lower(g.values[a]), _lower(g.values[abar]))
        info.append(cache[f])
        if cache[f][0] == 0:
            nullary = nullary * cache[f][2]

    uf = _ParityUF(len(ids))
    for (pu, su), (pv, sv) in grid.edges:
        ku, au, _, _ = info[idx[pu]]
        kv, av, _, _ = info[idx[pv]]
        bu = (au >> (ku - su)) & 1
        bv = (av >> (kv - sv)) & 1
        uf.union(idx[pu], idx[pv], bu ^ bv ^ flip)

    prod = {}
    for n, vid in enumerate(ids):
        k, a, w0, w1 = info[n]
        if k == 0:
            continue
        root, p = uf.find(n)
        p0, p1 = prod.get(root, (1, 1))
        if p:
            w0, w1 = w1, w0
        prod[root] = (p0 * w0, p1 * w1)

    total = nullary
    for root, (p0, p1) in prod.items():
        total = total * (0 if uf.dead[root] else p0 + p1)
    return HolantValue(as_scalar(total), _backend_tag(grid))


def holant_KM(grid: SignatureGrid, K: Transform2 = None,
              tol: float = 1e-9) -> HolantValue:
    """Closed grids over K-transformed weight<=1 supports.

    Stripping K turns each edge into "exactly one endpoint reads a 1"; the
    nonzero terms are edge orientations with in-degree at most 1, counted per
    component: trees by summing over the in-degree-0 root, unicyclic
    components by the two coherent cycle orientations.
    """
    from .signatures import K1
    _require_closed(grid)
    if K is None:
        K = K1
    scalar, atoms, edges = _split_into_atoms(grid, strip=K, tol=tol)
    for n, a in enumerate(atoms):
        if not in_M(a, tol):
            raise FamilyViolation(f"atom {n} has support of weight > 1")

    n_atoms = len(atoms)
    adj = {n: [] for n in range(n_atoms)}  # node -> (my slot, (other, other slot))
    for p, q in edges:
        adj[p[0]].append((p[1], q))
        adj[q[0]].append((q[1], p))

    low = [tuple(_lower(x) for x in a.values) for a in atoms]
    arities = [a.arity for a in atoms]

    def val_root(v):
        return low[v][0]

    def val_in(v, slot):
        return low[v][1 << (arities[v] - slot)]

    comp_of = [-1] * n_atoms
    comps = []
    for s in range(n_atoms):
        if comp_of[s] >= 0:
            continue
        cid = len(comps)
        stack = [s]
        comp_of[s] = cid
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for _, (u, _) in adj[v]:
                if comp_of[u] < 0:
                    comp_of[u] = cid
                    stack.append(u)
        comps.append(members)

    total = scalar
    for members in comps:
        n_v = len(members)
        n_e = sum(len(adj[v]) for v in members)
        # each non-loop edge counted twice, each self-loop twice as well
        n_e //= 2
        if n_e > n_v:
            total = total * 0
            continue
        if n_e == n_v:
            total = total * _orient_unicyclic(atoms, adj, members, val_in)
        else:
            total = total * _orient_tree(adj, members, val_root, val_in)
    return HolantValue(as_scalar(total), _backend_tag(grid))


def _orient_tree(adj, members, val_root, val_in):
    """Sum over roots of prod f_v(indicator of the port toward the root).

    Two-pass rerooting keeps this linear: sub[] products looking down from an
    arbitrary root, up[] products looking up, combined per candidate root.
    """
    root = members[0]
    if len(members) == 1:
        return val_root(root)
    parent = {root: None}  # node -> (parent, slot on me toward parent)
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for slot, (u, uslot) in adj[v]:
            if u not in parent:
                parent[u] = (v, uslot)
                order.append(u)
                stack.append(u)

    # t[v] = sub[v] * f_v(port toward parent); sub = product of children's t
    sub = {}
    t = {}
    for v in reversed(order):
        acc = 1
        for _, (u, _) in adj[v]:
            if parent.get(u) is not None and parent[u][0] == v:
                acc = acc * t[u]
        sub[v] = acc
        if parent[v] is not None:
            t[v] = acc * val_in(v, parent[v][1])

    up = {root: 1}
    for v in order:
        kids = [(slot, u) for slot, (u, _) in adj[v]
                if parent.get(u) is not None and parent[u][0] == v]
        if not kids:
            continue
        ts = [t[u] for _, u in kids]
        pref = [1]
        for x in ts:
            pref.append(pref[-1] * x)
        suf = [1]
        for x in reversed(ts):
            suf.append(suf[-1] * x)
        suf.reverse()
        for n, (slot, u) in enumerate(kids):
            up[u] = up[v] * val_in(v, slot) * pref[n] * suf[n + 1]

    acc = None
    for v in order:
        term = val_root(v) * sub[v] * up[v]
        acc = term if acc is None else acc + term
    return acc


def _orient_unicyclic(atoms, adj, members, val_in):
    """Two coherent cycle orientations; branch trees point away from the cycle."""
    deg = {v: len(adj[v]) for v in members}
    leaves = [v for v in members if deg[v] == 1]
    on_cycle = {v: True for v in members}
    while leaves:
        v = leaves.pop()
        on_cycle[v] = False
        for _, (u, _) in adj[v]:
            if on_cycle[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    leaves.append(u)

    hang = 1
    cyc = [v for v in members if on_cycle[v]]
    inside = set(cyc)
    frontier = list(cyc)
    seen_tree = set(cyc)
    while frontier:
        v = frontier.pop()
        for slot, (u, uslot) in adj[v]:
            if u not in seen_tree:
                seen_tree.add(u)
                hang = hang * val_in(u, uslot)
                frontier.append(u)

    # walk the cycle, collecting its ordered (vertex, entry slot, exit slot)
    start = min(cyc)
    if len(cyc) == 1:
        slots = [s for s, (u, _) in adj[start] if u == start]
        fwd = val_in(start, slots[0])
        bwd = val_in(start, slots[1])
        return (fwd + bwd) * hang

    cyc_adj = {v: [] for v in cyc}
    for n, v in enumerate(cyc):
        for slot, (u, uslot) in adj[v]:
            if u in inside:
                cyc_adj[v].append((slot, u, uslot))
    # parallel-edge 2-cycles list both links; longer cycles have two neighbors
    first = cyc_adj[start][0]
    path = [(start, None, first[0])]  # (vertex, entry slot, exit slot)
    v, came_from_slot = first[1], first[2]
    prev = start
    while v != start:
        nxt = [(slot, u, uslot) for slot, u, uslot in cyc_adj[v]
               if slot != came_from_slot]
        slot, u, uslot = nxt[0]
        path.append((v, came_from_slot, slot))
        prev, v, came_from_slot = v, u, uslot
    path[0] = (start, came_from_slot, first[0])

    fwd = 1
    bwd = 1
    for v, entry, exit_ in path:
        fwd = fwd * val_in(v, entry)
        bwd = bwd * val_in(v, exit_)
    return (fwd + bwd) * hang
