"""Edge-case and robustness tests across modules."""

from fractions import Fraction

import pytest

from repro._rational import INF
from repro.core.master_slave import solve_master_slave
from repro.core.scatter import solve_scatter
from repro.lp import LinearProgram, lp_sum
from repro.lp.model import InfeasibleError
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError
from repro.schedule.reconstruction import reconstruct_schedule


class TestDegeneratePlatforms:
    def test_two_node_minimal(self):
        g = Platform("pair")
        g.add_node("M", 1)
        g.add_node("W", 1)
        g.add_edge("M", "W", 1)
        sol = solve_master_slave(g, "M")
        assert sol.throughput == 2
        sched = reconstruct_schedule(sol)
        assert sched.period == 1

    def test_all_forwarders_except_master(self):
        g = Platform("lonely")
        g.add_node("M", 2)
        for k in range(3):
            g.add_node(f"F{k}", INF)
            g.add_edge("M", f"F{k}", 1)
        sol = solve_master_slave(g, "M")
        assert sol.throughput == Fraction(1, 2)  # nobody else can compute
        assert all(v == 0 for v in sol.s.values())

    def test_very_slow_everything(self):
        g = gen.star(2, master_w=1000, worker_w=[999, 1001],
                     link_c=[500, 700])
        sol = solve_master_slave(g, "M")
        sol.verify()
        sched = reconstruct_schedule(sol)
        assert sched.throughput == sol.throughput

    def test_extreme_cost_ratios(self):
        """Mixed tiny and huge rationals must not break exactness."""
        g = Platform("extreme")
        g.add_node("M", Fraction(1, 1000))
        g.add_node("W", Fraction(1000))
        g.add_edge("M", "W", Fraction(1, 997))
        sol = solve_master_slave(g, "M")
        sol.verify()
        assert sol.throughput == 1000 + Fraction(1, 1000)

    def test_dense_complete_graph(self):
        g = Platform("K5")
        for k in range(5):
            g.add_node(f"N{k}", k + 1)
        for a in range(5):
            for b in range(5):
                if a != b:
                    g.add_edge(f"N{a}", f"N{b}", 1)
        sol = solve_master_slave(g, "N0")
        sol.verify()
        sched = reconstruct_schedule(sol)
        assert len(sched.slices) <= g.num_edges + 2 * g.num_nodes


class TestScatterEdgeCases:
    def test_unreachable_target_zero_throughput(self):
        g = Platform("island")
        g.add_node("S", 1)
        g.add_node("T", 1)
        g.add_node("X", 1)
        g.add_edge("S", "X", 1)  # T unreachable
        sol = solve_scatter(g, "S", ["T"])
        assert sol.throughput == 0

    def test_target_is_relay_for_other_target(self):
        g = gen.chain(3, link_c=1)
        sol = solve_scatter(g, "N0", ["N1", "N2"])
        # N1 receives its own messages AND forwards N2's
        assert sol.send[("N0", "N1", "N1")] > 0
        assert sol.send[("N0", "N1", "N2")] > 0
        recv_busy = sol.s[("N0", "N1")]
        assert recv_busy == 1  # saturated first hop


class TestLPEdgeCases:
    def test_empty_feasible_region_via_bounds(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=5, hi=10)
        y = lp.variable("y", lo=0, hi=1)
        lp.add_constraint(x + y <= 3)
        lp.maximize(x)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_variable_fixed_by_bounds(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=3, hi=3)
        y = lp.variable("y", lo=0)
        lp.add_constraint(y <= x)
        lp.maximize(y)
        assert lp.solve().objective == 3

    def test_many_redundant_rows(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        for _ in range(20):
            lp.add_constraint(x <= 1)
        lp.maximize(x)
        assert lp.solve().objective == 1

    def test_negative_rhs_normalisation(self):
        lp = LinearProgram()
        x = lp.variable("x")
        lp.add_constraint(-x <= -2)  # i.e. x >= 2
        lp.minimize(x)
        assert lp.solve().objective == 2

    def test_scipy_backend_on_equality_system(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y == 4)
        lp.add_constraint(x - y == 2)
        lp.maximize(x)
        sol = lp.solve(backend="scipy")
        assert abs(float(sol.objective) - 3.0) < 1e-7


class TestReconstructionEdgeCases:
    def test_no_communication_schedule(self):
        g = Platform("solo")
        g.add_node("M", 3)
        sol = solve_master_slave(g, "M")
        sched = reconstruct_schedule(sol)
        assert sched.slices == []
        assert sched.tasks_per_period() == 1
        assert sched.period == 3

    def test_saturated_single_edge(self):
        g = Platform("tight")
        g.add_node("M", INF)
        g.add_node("W", 1)
        g.add_edge("M", "W", 1)
        sol = solve_master_slave(g, "M")
        sched = reconstruct_schedule(sol)
        # the single link is busy the entire period
        assert sched.comm_time("M", "W") == sched.period
        send, recv = sched.port_busy("M")
        assert send == sched.period
