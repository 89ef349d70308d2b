"""SSPS(G) tests: scatter, gather and personalised all-to-all (§3.2, §4.2)."""

import random
from fractions import Fraction

import pytest

from repro.core.scatter import (
    solve_all_to_all_solution,
    solve_gather,
    solve_scatter,
)
from repro.lp import LinearProgram
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError
from repro.problems import ScatterSpec, solve


class TestScatterBasics:
    def test_star_closed_form(self):
        """One-port at the source: TP * sum(c_k) <= 1."""
        g = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 2, 3])
        sol = solve_scatter(g, "M", ["W1", "W2", "W3"])
        assert sol.throughput == Fraction(1, 6)

    def test_single_target_direct_link(self):
        g = gen.star(1, link_c=[4])
        sol = solve_scatter(g, "M", ["W1"])
        assert sol.throughput == Fraction(1, 4)

    def test_fig2_scatter(self, fig2):
        """Both targets reachable over disjoint unit links: 2 TP <= 1."""
        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        assert sol.throughput == Fraction(1, 2)

    def test_relay_scatter(self):
        """Messages to a far target are forwarded by intermediate nodes."""
        g = gen.chain(3, link_c=1)
        sol = solve_scatter(g, "N0", ["N1", "N2"])
        # N0 sends both commodities over its single out-edge: rate 2TP <= 1.
        assert sol.throughput == Fraction(1, 2)
        # commodity for N2 must cross both edges
        assert sol.send[("N0", "N1", "N2")] == Fraction(1, 2)
        assert sol.send[("N1", "N2", "N2")] == Fraction(1, 2)

    def test_solution_verifies(self, fig2):
        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        sol.verify()

    def test_net_delivery_equals_throughput(self, fig2):
        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        for k in ("P5", "P6"):
            inflow = sum(
                (sol.send.get((j, k, k), Fraction(0))
                 for j in fig2.predecessors(k)),
                start=Fraction(0),
            )
            outflow = sum(
                (sol.send.get((k, j, k), Fraction(0))
                 for j in fig2.successors(k)),
                start=Fraction(0),
            )
            assert outflow == 0  # targets never re-emit their own messages
            assert inflow == sol.throughput

    def test_multipath_scatter_uses_parallel_routes(self):
        """Two disjoint routes to one target double the deliverable rate
        (up to the target's receive port)."""
        g = Platform("two-routes")
        for n in ("S", "A", "B", "T"):
            g.add_node(n, 1)
        g.add_edge("S", "A", 1)
        g.add_edge("S", "B", 1)
        g.add_edge("A", "T", 1)
        g.add_edge("B", "T", 1)
        sol = solve_scatter(g, "S", ["T"])
        # source port: (fA + fB) * 1 <= 1 and T's receive port likewise
        assert sol.throughput == 1

    def test_validation_errors(self, fig2):
        with pytest.raises(PlatformError):
            solve_scatter(fig2, "P0", [])
        with pytest.raises(PlatformError):
            solve_scatter(fig2, "P0", ["P0"])
        with pytest.raises(PlatformError):
            solve_scatter(fig2, "P0", ["P5", "P5"])

    def test_scipy_backend(self, fig2):
        exact = solve_scatter(fig2, "P0", ["P5", "P6"])
        approx = solve(ScatterSpec(platform=fig2, source="P0",
                                   targets=("P5", "P6")), backend="scipy")
        assert abs(float(exact.throughput) - float(approx.throughput)) < 1e-7


class TestGather:
    def test_star_gather_mirror(self):
        g = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 2, 3],
                     bidirectional=True)
        sol = solve_gather(g, "M", ["W1", "W2", "W3"])
        assert sol.throughput == Fraction(1, 6)

    def test_gather_flows_point_towards_sink(self):
        g = gen.star(2, worker_w=[1, 1], link_c=[1, 1], bidirectional=True)
        sol = solve_gather(g, "M", ["W1", "W2"])
        for (i, j, k), rate in sol.send.items():
            if rate > 0:
                assert j == "M"  # star: single hop into the sink

    def test_gather_equals_scatter_on_reversed(self):
        g = gen.grid2d(2, 2, seed=4)
        targets = [n for n in g.nodes() if n != "G0_0"]
        scatter_tp = solve_scatter(g, "G0_0", targets).throughput
        gather_tp = solve_gather(g, "G0_0", targets).throughput
        # symmetric bidirectional grid: the two problems coincide
        assert scatter_tp == gather_tp


class TestAllToAll:
    def test_triangle(self):
        p = Platform("tri")
        for n in "ABC":
            p.add_node(n, 1)
        for a, b in [("A", "B"), ("B", "C"), ("C", "A"),
                     ("B", "A"), ("C", "B"), ("A", "C")]:
            p.add_edge(a, b, 1)
        assert solve_all_to_all_solution(p).throughput == Fraction(1, 2)

    def test_two_nodes(self):
        p = Platform("pair")
        p.add_node("A", 1)
        p.add_node("B", 1)
        p.add_bidirectional_edge("A", "B", 2)
        sol = solve_all_to_all_solution(p)
        assert sol.throughput == Fraction(1, 2)
        ends = sol.commodities()
        flows = {(i, j) + ends[k]: rate
                 for (i, j, k), rate in sol.send.items()}
        assert flows[("A", "B", "A", "B")] == Fraction(1, 2)

    def test_subset_participants(self):
        g = gen.grid2d(2, 2, seed=4)
        sol = solve_all_to_all_solution(g, participants=["G0_0", "G1_1"])
        assert sol.throughput > 0

    def test_validation(self):
        p = Platform("solo")
        p.add_node("A", 1)
        with pytest.raises(PlatformError):
            solve_all_to_all_solution(p)


def arc_flow_all_to_all(platform, participants):
    """The all-to-all LP in its first, independent form: one arc flow per
    (edge, ordered pair), one row per (pair, node) in which the origin
    emits ``TP`` and the sink absorbs it, and no pin on a sink's
    re-emission.  Returns its exact optimum."""
    lp = LinearProgram("arc-flow-oracle")
    tp = lp.variable("TP", lo=0)
    pairs = [(a, b) for a in participants for b in participants if a != b]
    s, f = {}, {}
    for e in platform.edges():
        s[e.src, e.dst] = lp.variable(f"s[{e.src}->{e.dst}]", lo=0, hi=1)
        for a, b in pairs:
            f[e.src, e.dst, a, b] = lp.variable(
                f"f[{e.src}->{e.dst},{a}->{b}]", lo=0)
        lp.add_row([(s[e.src, e.dst], 1)]
                   + [(f[e.src, e.dst, a, b], -e.c) for a, b in pairs], "==")
    for n in platform.nodes():
        lp.add_row([(s[n, j], 1) for j in platform.successors(n)], "<=", 1)
        lp.add_row([(s[j, n], 1) for j in platform.predecessors(n)], "<=", 1)
        for a, b in pairs:
            want = 1 if n == a else -1 if n == b else 0
            lp.add_row([(f[n, j, a, b], 1) for j in platform.successors(n)]
                       + [(f[j, n, a, b], -1)
                          for j in platform.predecessors(n)]
                       + [(tp, -want)], "==")
    lp.maximize(tp)
    return lp.solve().objective


def oracle_case(seed):
    """A seeded platform of 3-6 nodes and a participant list: every node
    on every third seed, a shuffled subset of at least two otherwise."""
    rng = random.Random(seed)
    platform = gen.random_connected(3 + seed % 4, extra_edge_prob=0.3,
                                    seed=seed)
    nodes = platform.nodes()
    if seed % 3 == 0:
        return platform, nodes
    return platform, rng.sample(nodes, rng.randint(2, len(nodes)))


@pytest.mark.parametrize("seed", range(30))
def test_all_to_all_matches_the_arc_flow_oracle(seed):
    """Pinning each sink's re-emission at 0 and dropping the origin rows
    keeps the all-to-all optimum: the shared builder's answer equals the
    arc-flow form's on seeded platforms, participant subsets included."""
    platform, participants = oracle_case(seed)
    sol = solve_all_to_all_solution(platform, participants)
    assert sol.throughput == arc_flow_all_to_all(platform, participants)
    assert sol.throughput > 0
