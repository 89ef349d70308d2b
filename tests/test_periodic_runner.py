"""Periodic executor tests: priming, steady state, and the §4.2 claim that
the deficit against K*T*TP is a constant independent of K — for the one
``"task"`` commodity of master-slave and for every commodity of scatter,
gather and all-to-all."""

from fractions import Fraction

import pytest

from repro.core.broadcast import solve_broadcast
from repro.core.master_slave import solve_master_slave
from repro.core.scatter import (
    solve_all_to_all_solution,
    solve_gather,
    solve_scatter,
)
from repro.platform import generators as gen
from repro.schedule.collective import packing_to_schedule
from repro.schedule.reconstruction import reconstruct_schedule
from repro.simulator.periodic_runner import (
    PeriodicRunner,
    max_route_length,
    steady_state_reached_after,
)


def build(platform, master):
    sol = solve_master_slave(platform, master)
    return sol, reconstruct_schedule(sol)


def scatter_schedule(platform, source, targets):
    sol = solve_scatter(platform, source, targets)
    return sol, reconstruct_schedule(sol)


class TestSteadyState:
    def test_constant_deficit(self, any_platform):
        """THE asymptotic optimality claim, machine-checked."""
        name, platform, master = any_platform
        sol, sched = build(platform, master)
        short = PeriodicRunner(sched).run(10)
        long = PeriodicRunner(sched).run(41)
        assert short.deficit == long.deficit
        assert short.deficit >= 0

    def test_rate_approaches_lp(self, any_platform):
        name, platform, master = any_platform
        sol, sched = build(platform, master)
        res = PeriodicRunner(sched).run(60)
        assert res.achieved_rate <= sol.throughput
        # deficit constant  =>  rate -> LP value like C/K
        gap = sol.throughput - res.achieved_rate
        assert gap <= res.deficit / (60 * sched.period)

    def test_steady_state_reached_within_platform_size(self, any_platform):
        """Priming needs at most ~depth periods (section 4.2: "no more
        than the depth of the platform graph")."""
        name, platform, master = any_platform
        sol, sched = build(platform, master)
        res = PeriodicRunner(sched).run(platform.num_nodes + 2)
        reached = steady_state_reached_after(res)
        assert reached <= platform.num_nodes

    def test_full_rate_periods_exact(self, star4):
        sol, sched = build(star4, "M")
        res = PeriodicRunner(sched).run(10)
        per_period_target = sol.throughput * sched.period
        start = steady_state_reached_after(res)
        for p in range(start, 10):
            assert res.completed_per_period[p] == per_period_target

    def test_trace_respects_one_port(self, any_platform):
        name, platform, master = any_platform
        sol, sched = build(platform, master)
        res = PeriodicRunner(sched, record_trace=True).run(6)
        res.trace.validate("one-port")

    def test_zero_periods(self, star4):
        sol, sched = build(star4, "M")
        res = PeriodicRunner(sched).run(0)
        assert res.total_completed == 0
        assert res.deficit == 0

    def test_master_only_platform(self):
        from repro.platform.graph import Platform

        g = Platform("solo")
        g.add_node("M", 2)
        sol, sched = build(g, "M")
        res = PeriodicRunner(sched).run(5)
        assert res.deficit == 0  # no communication, no priming needed
        assert res.total_completed == sol.throughput * sched.period * 5

    def test_master_slave_is_one_task_commodity(self, star4):
        sol, sched = build(star4, "M")
        res = PeriodicRunner(sched).run(7)
        assert list(res.per_commodity) == ["task"]
        assert res.completed_per_period == res.per_commodity["task"]
        assert res.steady_state_bound == res.commodity_bound

    def test_rejects_tree_packing(self, fig2):
        """A broadcast packing's messages replicate along its trees: no
        route says where a unit completes."""
        sol = solve_broadcast(fig2, "P0")
        sched = packing_to_schedule(fig2, sol.packing, "P0", "broadcast")
        with pytest.raises(ValueError, match="routes no commodity"):
            PeriodicRunner(sched)

    def test_negative_periods_rejected(self, star4):
        sol, sched = build(star4, "M")
        with pytest.raises(ValueError):
            PeriodicRunner(sched).run(-1)


class TestAgainstGreedyUpperBound:
    def test_no_run_exceeds_lp_bound(self, any_platform):
        """The LP optimum really is an upper bound (section 3.1)."""
        name, platform, master = any_platform
        sol, sched = build(platform, master)
        res = PeriodicRunner(sched).run(25)
        assert res.total_completed <= res.steady_state_bound


class TestCommodities:
    """Scatter, gather and all-to-all: every commodity starts at its
    routes' first node and completes at their last."""

    def test_fig2_delivery_rate(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        res = PeriodicRunner(sched).run(20)
        per_period_target = sol.throughput * sched.period
        for k in ("P5", "P6"):
            # steady delivery after priming
            assert res.per_commodity[k][-1] == per_period_target
            assert res.commodity_deficit(k) >= 0

    def test_priming_bounded_by_route_length(self):
        g = gen.chain(4, link_c=1)
        sol, sched = scatter_schedule(g, "N0", ["N1", "N2", "N3"])
        res = PeriodicRunner(sched).run(12)
        hops = max_route_length(sched)
        per_period_target = sol.throughput * sched.period
        for k in ("N1", "N2", "N3"):
            for p in range(hops, 12):
                assert res.per_commodity[k][p] == per_period_target

    def test_priming_follows_each_route(self):
        """A unit crosses one hop per period: the commodity ``h`` hops
        down the chain completes nothing in its first ``h - 1`` periods."""
        g = gen.chain(4, link_c=1)
        sol, sched = scatter_schedule(g, "N0", ["N1", "N2", "N3"])
        res = PeriodicRunner(sched).run(6)
        per_period_target = sol.throughput * sched.period
        for hops, k in enumerate(("N1", "N2", "N3"), start=1):
            assert res.per_commodity[k] == (
                [0] * (hops - 1) + [per_period_target] * (7 - hops))
            assert res.commodity_deficit(k) == (hops - 1) * per_period_target

    def test_deficit_constant(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        short = PeriodicRunner(sched).run(8)
        long = PeriodicRunner(sched).run(30)
        for k in ("P5", "P6"):
            assert short.commodity_deficit(k) == long.commodity_deficit(k)
        assert short.deficit == long.deficit

    def test_total_delivery_bound(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        res = PeriodicRunner(sched).run(15)
        for k in ("P5", "P6"):
            assert sum(res.per_commodity[k]) <= res.commodity_bound
        assert res.total_completed <= res.steady_state_bound

    def test_zero_periods(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        res = PeriodicRunner(sched).run(0)
        assert res.per_commodity == {"P5": [], "P6": []}
        assert res.total_completed == 0

    def test_negative_periods_rejected(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        with pytest.raises(ValueError):
            PeriodicRunner(sched).run(-1)

    def test_max_route_length(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        assert max_route_length(sched) == 2  # P0 -> P1/P2 -> target

    @pytest.mark.parametrize("problem", ["gather", "all-to-all"])
    def test_every_commodity_primes_within_its_longest_route(self, problem):
        """Gather's commodity ``k`` leaves source ``k`` for the sink, and
        all-to-all's ``"a->b"`` leaves ``a`` for ``b``: each completes
        ``TP * T`` per period from period ``max_route_length`` on."""
        g = gen.random_connected(6, seed=1)
        nodes = sorted(g.nodes())
        sol = (solve_gather(g, nodes[0], nodes[1:]) if problem == "gather"
               else solve_all_to_all_solution(g))
        sched = reconstruct_schedule(sol)
        assert set(sched.routes) == set(sol.commodities())
        short = PeriodicRunner(sched).run(20)
        long = PeriodicRunner(sched).run(40)
        hops = max_route_length(sched)
        per_period_target = sol.throughput * sched.period
        assert per_period_target > 0
        for k, done in long.per_commodity.items():
            assert done[hops:] == [per_period_target] * (40 - hops)
            nearest = min(len(path) - 1 for path, _units in sched.routes[k])
            assert done[:nearest - 1] == [0] * (nearest - 1)
            assert short.commodity_deficit(k) == long.commodity_deficit(k)
        assert steady_state_reached_after(long) <= hops

    def test_trace_shares_slices_among_commodities(self, fig2):
        sol, sched = scatter_schedule(fig2, "P0", ["P5", "P6"])
        res = PeriodicRunner(sched, record_trace=True).run(6)
        res.trace.validate("one-port")
        res.trace.check_matched_transfers()
        for k in ("P5", "P6"):
            received = sum(iv.units for iv in res.trace.by_node(k, "recv")
                           if iv.label == k)
            assert received == sum(res.per_commodity[k])
