"""Broadcast by column generation: the pricing oracle, the packer and the
float backend's duals it runs on (§4.3 via [5])."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.broadcast import broadcast_lp_bound, solve_broadcast, solve_reduce
from repro.core.multicast import solve_multicast
from repro.core.activities import commodity_endpoints
from repro.core.scatter import build_commodity_lp, reversed_platform
from repro.core.steiner import heuristic_multicast_packing
from repro.core.trees import (
    enumerate_arborescences,
    min_cost_arborescence,
    tree_recv_time,
    tree_send_time,
)
from repro.lp import LinearProgram, lp_sum
from repro.platform import generators as gen
from repro.platform.graph import Platform
from repro.problems import BroadcastSpec, ReduceSpec, solve


def cost_of(tree, cost):
    return sum((cost[e] for e in tree), Fraction(0))


class TestMinCostArborescence:
    def test_equals_the_brute_force_minimum(self):
        """Chu-Liu/Edmonds against every spanning arborescence, on
        random <= 6-node platforms and random costs, zeros included."""
        rng = random.Random(2004)
        for _ in range(300):
            platform = gen.random_connected(
                rng.randint(2, 6), extra_edge_prob=rng.choice([0.1, 0.3, 0.6]),
                seed=rng.getrandbits(32), bidirectional=rng.random() < 0.5)
            cost = {(e.src, e.dst): Fraction(rng.randint(0, 6),
                                             rng.randint(1, 4))
                    for e in platform.edges()}
            tree = min_cost_arborescence(platform, "R0", cost)
            trees = enumerate_arborescences(platform, "R0")
            assert tree in trees
            assert cost_of(tree, cost) == min(cost_of(t, cost) for t in trees)

    def test_ties_keep_the_first_edge(self):
        platform = Platform("tie")
        for node in "rab":
            platform.add_node(node, 1)
        for u, v in (("r", "a"), ("r", "b"), ("a", "b"), ("b", "a")):
            platform.add_edge(u, v, 1)
        zero = {(e.src, e.dst): Fraction(0) for e in platform.edges()}
        # a and b first take each other ((b, a) and (a, b) sort before
        # (r, *)); the contracted pair is then entered by (r, a), first
        assert min_cost_arborescence(platform, "r", zero) == frozenset(
            {("r", "a"), ("a", "b")})

    def test_a_node_out_of_reach_has_no_arborescence(self):
        platform = Platform("cut")
        for node in "rab":
            platform.add_node(node, 1)
        platform.add_edge("r", "a", 1)
        platform.add_edge("b", "a", 1)
        cost = {(e.src, e.dst): Fraction(1) for e in platform.edges()}
        assert min_cost_arborescence(platform, "r", cost) is None


@st.composite
def collective_platform(draw):
    return gen.random_connected(
        draw(st.integers(min_value=3, max_value=8)),
        extra_edge_prob=draw(st.sampled_from([0.0, 0.1, 0.2])),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        bidirectional=draw(st.booleans()),
    )


def assert_optimal_packing(sol, platform, root, bound):
    """``sol`` packs spanning arborescences of ``platform`` rooted at
    ``root`` within every port, at the max-rule LP ``bound``."""
    assert sol.achieved == sol.lp_bound == bound
    assert sum(sol.packing.values(), Fraction(0)) == sol.achieved
    others = set(platform.nodes()) - {root}
    send = {}
    recv = {}
    for tree, rate in sol.packing.items():
        assert rate > 0
        heads = [v for (_u, v) in tree]
        assert sorted(heads) == sorted(others)
        assert all(platform.has_edge(u, v) for (u, v) in tree)
        for node, t in tree_send_time(platform, tree).items():
            send[node] = send.get(node, Fraction(0)) + rate * t
        for node, t in tree_recv_time(platform, tree).items():
            recv[node] = recv.get(node, Fraction(0)) + rate * t
    assert all(load <= 1 for load in send.values())
    assert all(load <= 1 for load in recv.values())


class TestColumnGeneration:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(collective_platform())
    def test_broadcast_is_the_max_rule_bound(self, platform):
        sol = solve_broadcast(platform, "R0")
        assert_optimal_packing(sol, platform, "R0",
                               broadcast_lp_bound(platform, "R0"))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(collective_platform())
    def test_reduce_is_the_reversed_max_rule_bound(self, platform):
        sol = solve_reduce(platform, "R0")
        backwards = reversed_platform(platform)
        mirrored = type(sol)(
            platform=backwards, source="R0", lp_bound=sol.lp_bound,
            achieved=sol.achieved,
            packing={frozenset((v, u) for (u, v) in tree): rate
                     for tree, rate in sol.packing.items()})
        assert_optimal_packing(mirrored, backwards, "R0",
                               broadcast_lp_bound(backwards, "R0"))

    def test_a_node_out_of_reach_receives_nothing(self):
        platform = Platform("cut")
        for node in "rab":
            platform.add_node(node, 1)
        platform.add_edge("r", "a", 1)
        platform.add_edge("b", "a", 1)
        sol = solve_broadcast(platform, "r")
        assert (sol.achieved, sol.lp_bound, sol.packing) == (0, 0, {})
        assert broadcast_lp_bound(platform, "r") == 0

    def test_twelve_nodes_in_polynomial_time(self):
        """A platform whose arborescences enumeration could not list: the
        packing still meets the max-rule bound."""
        platform = gen.random_connected(12, extra_edge_prob=0.2, seed=1002)
        sol = solve_broadcast(platform, "R0")
        assert sol.achieved == sol.lp_bound == Fraction(1, 5)


def packing_lp(platform, trees):
    """The tree-packing master over ``trees``, as the packer builds it."""
    lp = LinearProgram("tree-packing")
    xs = [lp.variable(f"x[{k}]", lo=0) for k in range(len(trees))]
    terms = {}
    for x, tree in zip(xs, trees):
        for node, t in tree_send_time(platform, tree).items():
            terms.setdefault(("send", node), []).append(x * t)
        for node, t in tree_recv_time(platform, tree).items():
            terms.setdefault(("recv", node), []).append(x * t)
    for port in sorted(terms):
        lp.add_constraint(lp_sum(terms[port]) <= 1)
    lp.maximize(lp_sum(xs))
    return lp


class TestFloatBackend:
    @staticmethod
    def _assert_duals_match(lp):
        exact = lp.solve()
        approx = lp.solve(backend="scipy")
        for k in range(len(lp.constraints)):
            assert abs(float(exact.duals.get(k, 0))
                       - float(approx.duals.get(k, 0))) <= 1e-9, k

    def test_duals_of_a_tree_packing_master(self):
        pytest.importorskip("scipy")
        for platform, root in ((gen.paper_figure2_multicast(), "P0"),
                               (gen.random_connected(
                                   6, seed=17, extra_edge_prob=0.15), "R0")):
            trees = enumerate_arborescences(platform, root)
            self._assert_duals_match(packing_lp(platform, trees))

    def test_duals_of_a_scatter_lp(self):
        pytest.importorskip("scipy")
        lp, _ = build_commodity_lp(
            gen.paper_figure2_multicast(),
            commodity_endpoints("scatter", "P0", ["P5", "P6"]))
        self._assert_duals_match(lp)

    @pytest.mark.parametrize("spec,orient", [
        (BroadcastSpec, lambda platform: platform),
        # a reduce runs on the reversed platform: flip it first, so both
        # cases solve the same arborescences
        (ReduceSpec, reversed_platform),
    ], ids=["broadcast", "reduce"])
    def test_float_solve_is_the_exact_one(self, spec, orient):
        pytest.importorskip("scipy")
        for n, seed in ((12, 1002), (8, 0), (8, 1), (8, 2)):
            platform = gen.random_connected(n, extra_edge_prob=0.2, seed=seed)
            request = spec(orient(platform), "R0")
            exact = solve(request)
            approx = solve(request, backend="scipy")
            assert exact.optimal
            assert abs(float(approx.achieved - exact.achieved)) <= 1e-9
            assert abs(float(approx.lp_bound - exact.lp_bound)) <= 1e-9


def test_multicast_past_its_tree_limit_packs_the_candidate_pool():
    platform = gen.paper_figure2_multicast()
    targets = ["P5", "P6"]
    assert len(enumerate_arborescences(platform, "P0", terminals=targets)) > 3
    analysis = solve_multicast(platform, "P0", targets, tree_limit=3)
    assert not analysis.exhaustive
    assert analysis.tree_optimal == heuristic_multicast_packing(
        platform, "P0", targets)[0]
    assert analysis.bracket_ok()
