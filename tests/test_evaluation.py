import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holant.evaluation import (
    CapExceeded,
    ContractionPlan,
    FamilyViolation,
    contract_network,
    holant_KM,
    holant_E,
    holant_T,
    holant_brute,
    holant_contract,
    plan_greedy,
    realize_gadget,
)
from holant.grids import SignatureGrid, disjoint_union
from holant.scalars import to_complex
from holant.signatures import (
    K1,
    K2,
    Signature,
    Transform2,
    holo,
    sig_max_residual,
)

from conftest import rand_closed_grid, rand_open_grid, rand_sig

EQ2 = Signature.named("EQ", 2)
EQ3 = Signature.named("EQ", 3)
NEQ = Signature.named("NEQ")


def eq2_cycle(n):
    verts = {v: EQ2 for v in range(n)}
    edges = [((v, 2), ((v + 1) % n, 1)) for v in range(n)]
    return SignatureGrid(verts, edges)


class TestBrute:
    def test_eq2_cycle_counts_two_colourings(self):
        z = holant_brute(eq2_cycle(5))
        assert z.value == 2
        assert z.backend == "exact"

    def test_neq_triangle_is_zero(self):
        verts = {0: NEQ, 1: NEQ, 2: NEQ}
        edges = [((0, 2), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (0, 1))]
        z = holant_brute(SignatureGrid(verts, edges))
        assert z.value == 0

    def test_requires_closed(self):
        g = SignatureGrid({0: EQ2}, dangling=[(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            holant_brute(g)

    def test_budget_guard(self):
        from holant.formulas import BudgetExceeded
        with pytest.raises(BudgetExceeded):
            holant_brute(eq2_cycle(30), budget=10)

    def test_float_backend_tag(self):
        g = eq2_cycle(3).with_vertex(0, Signature([1.0, 0, 0, 1.0]))
        z = holant_brute(g)
        assert z.backend == "approx"

    def test_magnitude_argument(self):
        g = SignatureGrid({0: Signature([2j, 0]), 1: Signature([1, 0])},
                          edges=[((0, 1), (1, 1))])
        z = holant_brute(g)
        assert z.magnitude() == pytest.approx(2.0)
        assert z.argument() == pytest.approx(math.pi / 2)


class TestContractNetwork:
    def test_closed_gives_arity_zero(self):
        f = contract_network(eq2_cycle(4))
        assert f.arity == 0
        assert f.values[0] == 2

    def test_open_matches_realize(self):
        g = SignatureGrid({0: EQ3, 1: NEQ},
                          edges=[((0, 3), (1, 1))],
                          dangling=[(0, 1), (0, 2), (1, 2)])
        assert contract_network(g) == realize_gadget(g)

    def test_cap_raises(self):
        # star of EQ_9 fan-out forces a big intermediate
        hub = Signature.named("EQ", 8)
        verts = {0: hub}
        verts.update({i: Signature([1, 1]) for i in range(1, 9)})
        edges = [((0, i), (i, 1)) for i in range(1, 9)]
        g = SignatureGrid(verts, edges)
        # fine at cap 8, refused at cap 4
        assert contract_network(g, cap=8).values[0] == 2
        with pytest.raises(CapExceeded):
            contract_network(g, cap=4)

    def test_explicit_plan(self):
        g = eq2_cycle(3)
        plan = ContractionPlan(steps=((0, 1, 2), (0, 2, 0)))
        assert plan.max_arity == 2
        f = contract_network(g, plan=plan)
        assert f.values[0] == 2

    def test_plan_greedy_is_usable(self, rng):
        for _ in range(10):
            g = rand_closed_grid(rng, max_vertices=5)
            plan = plan_greedy(g)
            assert contract_network(g, plan=plan).values[0] == \
                contract_network(g).values[0]

    def test_single_vertex_loop(self):
        # EQ2 with both legs tied together: trace = 2
        g = SignatureGrid({0: EQ2}, edges=[((0, 1), (0, 2))])
        assert contract_network(g).values[0] == 2

    def test_disconnected_components_multiply(self):
        g = disjoint_union(eq2_cycle(3), eq2_cycle(4))
        assert contract_network(g).values[0] == 4

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_on_random_closed(self, seed):
        rng = random.Random(seed)
        g = rand_closed_grid(rng, max_vertices=5, max_arity=3)
        assert holant_contract(g).value == holant_brute(g).value

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_open_gadget_matches_bruteforce_requantified(self, seed):
        # regression: dangling legs must come out in declared argument order
        rng = random.Random(seed)
        g = rand_open_grid(rng, max_vertices=4, max_arity=3, max_legs=4)
        got = contract_network(g)
        want = realize_gadget(g)
        assert got.arity == g.arity
        assert got == want


@st.composite
def sparse_open_grids(draw, max_vertices=4, max_arity=4):
    """Open exact grids whose tables are at least half zeros.  Stubs pair up in
    a drawn order, so self-loops and parallel edges are common, and the order
    a failure shrinks to (the identity) ties each vertex's first two slots."""
    sigs, stubs = {}, []
    for v in range(draw(st.integers(1, max_vertices))):
        k = draw(st.integers(1, max_arity))
        n = 1 << k
        vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        for i in draw(st.permutations(range(n)))[:(n + 1) // 2]:
            vals[i] = 0
        sigs[v] = Signature(vals, k)
        stubs += [(v, s) for s in range(1, k + 1)]
    stubs = draw(st.permutations(stubs))
    legs = min((len(stubs) % 2 or 2) + 2 * draw(st.integers(0, 1)), len(stubs))
    rest = stubs[legs:]
    edges = [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
    return SignatureGrid(sigs, edges, stubs[:legs])


def _raises_cap(fn):
    try:
        fn()
    except CapExceeded:
        return True
    return False


class TestKernelDifferential:
    """The fused kernel and the planner against the enumeration oracle."""

    @given(sparse_open_grids())
    @settings(max_examples=80, deadline=None)
    def test_matches_realize_gadget_exactly(self, g):
        assert contract_network(g) == realize_gadget(g)

    @given(sparse_open_grids())
    @settings(max_examples=80, deadline=None)
    def test_float_backend_within_1e9(self, g):
        approx = SignatureGrid({v: f.to_approx() for v, f in g.vertices.items()},
                               g.edges, g.dangling)
        got = contract_network(approx)
        assert all(isinstance(x, complex) for x in got.values)
        assert sig_max_residual(got, contract_network(g)) <= 1e-9

    @given(sparse_open_grids())
    @settings(max_examples=80, deadline=None)
    def test_explicit_greedy_plan_is_the_default(self, g):
        assert contract_network(g, plan=plan_greedy(g)) == contract_network(g)

    @given(sparse_open_grids(), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_planner_and_driver_refuse_together(self, g, cap):
        assert _raises_cap(lambda: plan_greedy(g, cap=cap)) == \
            _raises_cap(lambda: contract_network(g, cap=cap))

    @given(sparse_open_grids())
    @settings(max_examples=40, deadline=None)
    def test_planner_builds_no_table(self, g):
        built = []
        original = Signature.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Signature, "__init__", counting)
            plan_greedy(g)
        assert built == []

    def test_loop_on_a_node_merged_with_a_neighbour(self):
        # vertex 0 carries a self-loop and two parallel edges to vertex 1;
        # every table is half zeros
        f = Signature([0, 1, 0, 2, 3, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1], 4)
        h = Signature([0, 3, 0, 0, 0, 0, 2, 5], 3)
        g = SignatureGrid({0: f, 1: h},
                          edges=[((0, 1), (0, 3)), ((0, 2), (1, 3)),
                                 ((0, 4), (1, 1))],
                          dangling=[(1, 2)])
        plan = ContractionPlan(steps=((0, 1, 1),))
        assert contract_network(g, plan=plan) == realize_gadget(g)
        assert contract_network(g) == realize_gadget(g)


class TestHolantT:
    def test_chain_of_binaries(self, rng):
        for _ in range(20):
            n = rng.randint(2, 6)
            verts = {v: rand_sig(rng, 2) for v in range(n)}
            edges = [((v, 2), (v + 1, 1)) for v in range(n - 1)]
            verts[n] = rand_sig(rng, 1)
            verts[n + 1] = rand_sig(rng, 1)
            edges += [((n, 1), (0, 1)), ((n - 1, 2), (n + 1, 1))]
            g = SignatureGrid(verts, edges)
            assert holant_T(g).value == holant_brute(g).value

    def test_cycles_and_unaries(self, rng):
        for _ in range(20):
            g = rand_closed_grid(rng, max_vertices=6, max_arity=2)
            assert holant_T(g).value == holant_brute(g).value

    def test_rejects_high_arity_atoms(self):
        verts = {0: EQ3}
        edges = []
        g = SignatureGrid(verts, edges, dangling=[])
        # close the three legs through unaries to stay well formed
        verts = {0: EQ3, 1: Signature([1, 1]), 2: Signature([1, 1]),
                 3: Signature([1, 1])}
        edges = [((0, 1), (1, 1)), ((0, 2), (2, 1)), ((0, 3), (3, 1))]
        with pytest.raises(FamilyViolation):
            holant_T(SignatureGrid(verts, edges))


def _rand_E_sig(rng, k):
    # supported on one complementary pair of inputs
    a = rng.randrange(1 << k)
    vals = [0] * (1 << k)
    vals[a] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    vals[a ^ ((1 << k) - 1)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Signature(vals, k)


def _closed_grid_from(rng, sig_factory, n_verts=4):
    ports = []
    verts = {}
    for v in range(n_verts):
        k = rng.randint(1, 3)
        verts[v] = sig_factory(rng, k)
        ports += [(v, s) for s in range(1, k + 1)]
    if len(ports) % 2:
        verts[n_verts] = sig_factory(rng, 1)
        ports.append((n_verts, 1))
    rng.shuffle(ports)
    edges = [(ports[i], ports[i + 1]) for i in range(0, len(ports), 2)]
    return SignatureGrid(verts, edges)


class TestHolantE:
    def test_matches_brute_plain(self, rng):
        for _ in range(25):
            g = _closed_grid_from(rng, _rand_E_sig)
            assert holant_E(g).value == holant_brute(g).value

    def test_orthogonal_strip(self, rng):
        th = Fraction(3, 5), Fraction(4, 5)  # exact rotation pair
        O = Transform2(th[0], -th[1], th[1], th[0])
        for _ in range(15):
            g = _closed_grid_from(rng, _rand_E_sig)
            twisted = SignatureGrid({v: holo(O, f) for v, f in g.vertices.items()},
                                    g.edges)
            z = holant_E(twisted, strip=O)
            assert z.value == holant_brute(twisted).value

    def test_k1_strip(self, rng):
        for _ in range(15):
            g = _closed_grid_from(rng, _rand_E_sig)
            twisted = SignatureGrid({v: holo(K1, f) for v, f in g.vertices.items()},
                                    g.edges)
            z = holant_E(twisted, strip="K1")
            want = holant_brute(twisted).value
            assert abs(to_complex(z.value) - to_complex(want)) < 1e-9

    def test_rejects_non_E(self):
        g = eq2_cycle(3).with_vertex(0, Signature([1, 1, 1, 0]))
        with pytest.raises(FamilyViolation):
            holant_E(g)

    def test_scales_to_large_instances(self):
        z = holant_E(eq2_cycle(2000))
        assert z.value == 2


def _rand_M_sig(rng, k):
    # support only on Hamming weight <= 1
    vals = [0] * (1 << k)
    vals[0] = Fraction(rng.randint(-3, 3))
    for j in range(k):
        vals[1 << (k - 1 - j)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Signature(vals, k)


class TestHolantKM:
    def test_matches_brute_k1(self, rng):
        for _ in range(15):
            g = _closed_grid_from(rng, _rand_M_sig)
            twisted = SignatureGrid({v: holo(K1, f) for v, f in g.vertices.items()},
                                    g.edges)
            z = holant_KM(twisted)
            want = holant_brute(twisted).value
            assert abs(to_complex(z.value) - to_complex(want)) < 1e-9

    def test_matches_brute_k2(self, rng):
        for _ in range(15):
            g = _closed_grid_from(rng, _rand_M_sig)
            twisted = SignatureGrid({v: holo(K2, f) for v, f in g.vertices.items()},
                                    g.edges)
            z = holant_KM(twisted, K=K2)
            want = holant_brute(twisted).value
            assert abs(to_complex(z.value) - to_complex(want)) < 1e-9

    def test_rejects_untwisted_M(self, rng):
        g = _closed_grid_from(rng, _rand_M_sig)
        # plain M-grid without the K twist has wide support after stripping
        with pytest.raises(FamilyViolation):
            for _ in range(10):
                holant_KM(g)
                g = _closed_grid_from(rng, _rand_M_sig)


class TestRealize:
    def test_identity_wire(self):
        g = SignatureGrid({0: EQ2}, dangling=[(0, 1), (0, 2)])
        assert realize_gadget(g) == EQ2

    def test_basis_twist_gadget(self):
        # EQ3 with one leg capped by [1, t]
        t = Fraction(2, 3)
        g = SignatureGrid({0: EQ3, 1: Signature([1, t])},
                          edges=[((0, 3), (1, 1))],
                          dangling=[(0, 1), (0, 2)])
        assert realize_gadget(g) == Signature([1, 0, 0, t])

    def test_leg_order_respected(self):
        f = Signature([1, 2, 3, 4, 5, 6, 7, 8])
        g = SignatureGrid({0: f}, dangling=[(0, 2), (0, 3), (0, 1)])
        got = realize_gadget(g)
        # argument m of the gadget is dangling[m-1]
        assert got.value((1, 0, 0)) == f.value((0, 1, 0))
        assert got == f.permute((3, 1, 2))
