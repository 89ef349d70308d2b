"""Cross-module integration tests: the full paper pipeline, end to end.

Each test walks an entire story from the paper: LP -> period ->
edge colouring -> periodic schedule -> simulated execution -> measured
throughput, and checks the chain's global guarantees rather than any
single module.
"""

from fractions import Fraction

import pytest

from repro import (
    PeriodicRunner,
    TaskGraph,
    analyze_figure2,
    autonomous_throughput,
    broadcast_lp_bound,
    build_batch_schedule,
    generators as gen,
    ntask,
    packing_to_schedule,
    reconstruct_schedule,
    run_demand_driven,
    solve_broadcast,
    solve_dag_collection,
    solve_master_slave,
    solve_multicast,
    solve_scatter,
)
from repro.schedule.fixed_period import fixed_period_schedule


class TestFullMasterSlavePipeline:
    def test_lp_to_simulation_chain(self, any_platform):
        """LP throughput == schedule throughput == simulated steady rate."""
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        sched = reconstruct_schedule(sol)
        res = PeriodicRunner(sched, record_trace=True).run(
            platform.num_nodes + 8
        )
        res.trace.validate("one-port")
        # final period runs at the exact LP rate
        assert res.completed_per_period[-1] == sol.throughput * sched.period

    def test_three_estimates_agree(self, tree3):
        """LP == autonomous local protocol == demand-driven measurement
        (asymptotically) on trees."""
        lp = ntask(tree3, "T0")
        auto = autonomous_throughput(tree3, "T0")
        assert lp == auto
        sim = run_demand_driven(tree3, "T0", horizon=900, policy="bandwidth")
        assert float(sim.rate) >= 0.93 * float(lp)

    def test_fixed_period_simulates_consistently(self, grid33):
        sol = solve_master_slave(grid33, "G0_0")
        sched = fixed_period_schedule(sol, 40)
        res = PeriodicRunner(sched).run(20)
        assert res.completed_per_period[-1] == (
            sched.throughput * sched.period
        )

    def test_startup_analysis_consistent_with_schedule(self, star4):
        sol = solve_master_slave(star4, "M")
        sched = reconstruct_schedule(sol)
        startups = {e: Fraction(1) for e in sched.messages}
        analysis = build_batch_schedule(sched, 5000, startups)
        assert analysis.lower_bound == Fraction(5000) / sol.throughput
        assert analysis.makespan > analysis.lower_bound


class TestCollectivesPipeline:
    def test_broadcast_schedule_runs_at_bound(self, fig2):
        sol = solve_broadcast(fig2, "P0")
        sched = packing_to_schedule(fig2, sol.packing, "P0", "broadcast")
        # achievability, executed: the max-rule LP is the witness
        assert sched.throughput == broadcast_lp_bound(fig2, "P0")

    def test_multicast_gap_consistent_with_schedules(self, fig2):
        report = analyze_figure2()
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        sched = packing_to_schedule(fig2, analysis.packing, "P0", "multicast")
        assert sched.throughput == report.achievable < report.max_lp

    def test_scatter_schedule_consistent(self, fig2):
        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        sched = reconstruct_schedule(sol)
        per_period = sol.throughput * sched.period
        for k in ("P5", "P6"):
            delivered = sum(
                (rate for _, rate in sched.routes[k]), start=Fraction(0)
            )
            assert delivered == per_period


class TestDagVsMasterSlave:
    def test_dag_framework_subsumes_ssms(self, any_platform):
        name, platform, master = any_platform
        dag = TaskGraph.single_task()
        assert solve_dag_collection(platform, dag, master).throughput == (
            ntask(platform, master)
        )


class TestProblemHierarchy:
    def test_multicast_between_scatter_and_broadcast(self, fig2):
        """Fixing the platform: scatter(T) <= multicast(T) <= broadcast-
        style bound; and multicast over all nodes == broadcast."""
        targets = ["P5", "P6"]
        scatter_tp = solve_scatter(fig2, "P0", targets).throughput
        analysis = solve_multicast(fig2, "P0", targets)
        assert scatter_tp <= analysis.tree_optimal <= analysis.max_lp

    def test_more_targets_never_help(self, fig2):
        """Adding a multicast target cannot raise the throughput."""
        two = solve_multicast(fig2, "P0", ["P5", "P6"]).tree_optimal
        three = solve_multicast(fig2, "P0", ["P5", "P6", "P4"]).tree_optimal
        assert three <= two
