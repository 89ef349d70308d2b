"""SSMS(G) tests: the section 3.1 LP, its invariants and its oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro._rational import INF
from repro.core.activities import SteadyStateError
from repro.core.master_slave import (
    bandwidth_centric,
    ntask,
    solve_master_slave,
    star_throughput,
)
from repro.platform import generators as gen
from repro.platform.graph import Platform
from repro.problems import MasterSlaveSpec, solve


class TestStarOracle:
    """On stars the LP must equal the greedy fractional knapsack."""

    def test_hand_computed(self):
        # master w=2 (rate 1/2); workers (w=1,c=1), (w=2,c=2), (w=4,c=3)
        # port: serve c=1 first at rate 1 (uses all budget) -> total 3/2
        g = gen.star(3, master_w=2, worker_w=[1, 2, 4], link_c=[1, 2, 3])
        assert ntask(g, "M") == Fraction(3, 2)

    def test_port_leftover_spills_to_next_worker(self):
        # worker1 (w=4, c=1): rate capped at 1/4, uses 1/4 of port;
        # worker2 (w=2, c=3): gets 3/4 budget -> rate 1/4
        g = gen.star(2, master_w=1, worker_w=[4, 2], link_c=[1, 3])
        assert ntask(g, "M") == 1 + Fraction(1, 4) + Fraction(1, 4)

    def test_bandwidth_beats_speed(self):
        """A fast worker behind a slow link loses to a slow, close one."""
        g = gen.star(2, master_w=1, worker_w=[1, 10], link_c=[10, 1])
        # (link cost, absorbable rate) per worker, the master's own rate 1
        capacity, rates = bandwidth_centric(
            Fraction(1), [(Fraction(10), Fraction(1)),
                          (Fraction(1), Fraction(1, 10))]
        )
        # the slow-but-close worker is served first
        assert rates[1] == Fraction(1, 10)
        assert ntask(g, "M") == capacity == 1 + sum(rates, start=Fraction(0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),   # w
                st.integers(min_value=1, max_value=8),   # c
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=1, max_value=5),            # master w
    )
    def test_lp_equals_greedy_oracle(self, workers, master_w):
        ws = [Fraction(w) for w, _ in workers]
        cs = [Fraction(c) for _, c in workers]
        g = gen.star(len(workers), master_w=master_w, worker_w=ws, link_c=cs)
        lp_value = ntask(g, "M")
        oracle = star_throughput(Fraction(master_w), ws, cs)
        assert lp_value == oracle


class TestInvariants:
    def test_solution_verifies(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        sol.verify()  # raises on any violation

    def test_master_receives_nothing(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        for j in platform.predecessors(master):
            assert sol.s.get((j, master), Fraction(0)) == 0

    def test_throughput_at_least_master_alone(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        spec = platform.node(master)
        if spec.can_compute:
            assert sol.throughput >= Fraction(1) / spec.w

    def test_throughput_le_total_compute_power(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        cap = sum(
            (Fraction(1) / platform.node(n).w
             for n in platform.compute_nodes()),
            start=Fraction(0),
        )
        assert sol.throughput <= cap

    def test_objective_equals_sum_of_rates(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        assert sol.total_compute_rate() == sol.throughput

    def test_scipy_backend_agrees(self, any_platform):
        name, platform, master = any_platform
        exact = solve_master_slave(platform, master)
        # the float backend is chosen at the registry, and nowhere below
        approx = solve(MasterSlaveSpec(platform=platform, master=master),
                       backend="scipy")
        assert abs(float(exact.throughput) - float(approx.throughput)) < 1e-7


class TestSpecialPlatforms:
    def test_figure1(self, fig1):
        sol = solve_master_slave(fig1, "P1")
        assert sol.throughput == 2
        sol.verify()

    def test_forwarder_master(self):
        """A master with no compute power still distributes everything."""
        g = Platform("fw")
        g.add_node("M", INF)
        g.add_node("W", 1)
        g.add_edge("M", "W", 2)
        sol = solve_master_slave(g, "M")
        assert sol.throughput == Fraction(1, 2)
        assert "M" not in sol.alpha

    def test_forwarder_relay(self):
        """Pure relays forward without computing."""
        g = Platform("relay")
        g.add_node("M", 1)
        g.add_node("R", INF)
        g.add_node("W", 1)
        g.add_edge("M", "R", 1)
        g.add_edge("R", "W", 1)
        sol = solve_master_slave(g, "M")
        assert sol.throughput == 2  # master 1 + worker 1 through the relay
        sol.verify()

    def test_isolated_master(self):
        g = Platform("iso")
        g.add_node("M", 3)
        sol = solve_master_slave(g, "M")
        assert sol.throughput == Fraction(1, 3)

    def test_unreachable_component_gets_nothing(self):
        g = Platform("unreach")
        g.add_node("M", 1)
        g.add_node("W", 1)
        g.add_node("X", 1)   # no edges at all
        g.add_edge("M", "W", 1)
        sol = solve_master_slave(g, "M")
        assert sol.throughput == 2
        assert sol.alpha.get("X", Fraction(0)) == 0

    def test_chain_bottleneck(self):
        """On a chain every hop repeats the transfer: port limits cascade."""
        g = gen.chain(3, node_w=1, link_c=1)
        sol = solve_master_slave(g, "N0")
        # N0 computes 1, sends at most 1/time-unit; N1 computes x, forwards y
        # with x + y = 1; N2 computes y. Total = 2.
        assert sol.throughput == 2

    def test_cycle_platform_flows_are_acyclic(self):
        g = gen.grid2d(2, 2, seed=8)
        sol = solve_master_slave(g, "G0_0")
        rates = {
            e: sol.edge_rate(*e) for e in sol.s if sol.s[e] > 0
        }
        from repro.schedule.flows import cancel_cycles

        assert cancel_cycles(rates) == {k: v for k, v in rates.items() if v > 0}

    def test_unknown_master_raises(self, star4):
        from repro.platform.graph import PlatformError

        with pytest.raises(PlatformError):
            solve_master_slave(star4, "nope")


class TestConservationDetection:
    def test_tampered_solution_caught(self, star4):
        sol = solve_master_slave(star4, "M")
        # corrupt one activity: conservation must now fail
        key = next(e for e in sol.s if sol.s[e] > 0)
        sol.s[key] = sol.s[key] / 2
        with pytest.raises(SteadyStateError):
            sol.verify()

    def test_alpha_out_of_bounds_caught(self, star4):
        sol = solve_master_slave(star4, "M")
        node = next(iter(sol.alpha))
        sol.alpha[node] = Fraction(2)
        with pytest.raises(SteadyStateError):
            sol.check_bounds()

    def test_one_port_violation_caught(self, star4):
        sol = solve_master_slave(star4, "M")
        for j in star4.successors("M"):
            sol.s[("M", j)] = Fraction(1)
        with pytest.raises(SteadyStateError):
            sol.check_ports()
