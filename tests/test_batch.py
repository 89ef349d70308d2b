"""Explicit finite-batch schedule tests (§4.2 materialised)."""

from fractions import Fraction

import pytest

from repro.core.master_slave import solve_master_slave
from repro.platform import generators as gen
from repro.schedule.batch import (
    batch_ratio_series,
    build_batch_schedule,
    default_group_count,
)
from repro.schedule.periodic import ScheduleError
from repro.schedule.reconstruction import reconstruct_schedule


def schedule_for(platform, master):
    return reconstruct_schedule(solve_master_slave(platform, master))


def unit(sched):
    return {e: Fraction(1) for e in sched.messages}


#: seeded platforms with forwarders; on seed 0 with n = 6 a clean-up put
#: on the master alone would compute faster than the master can
SEEDED = [(gen.random_connected(5, seed=s, forwarder_prob=0.2), "R0")
          for s in range(8)]


class TestBatchSchedule:
    def test_phases_add_up(self, star4):
        sched = schedule_for(star4, "M")
        batch = build_batch_schedule(sched, 100)
        assert batch.makespan == (
            batch.init_time
            + sched.period * batch.steady_periods
            + batch.cleanup_time
        )

    def test_star4_pins(self, star4):
        sched = schedule_for(star4, "M")
        for n, makespan in ((10, Fraction(32, 3)), (12, Fraction(12)),
                            (13, Fraction(38, 3)), (100, Fraction(212, 3))):
            assert build_batch_schedule(sched, n).makespan == makespan

    def test_makespan_above_lower_bound(self, any_platform):
        name, platform, master = any_platform
        sched = schedule_for(platform, master)
        batch = build_batch_schedule(sched, 50)
        assert batch.makespan >= batch.lower_bound

    def test_ratio_tends_to_one(self, star4):
        sched = schedule_for(star4, "M")
        series = batch_ratio_series(sched, [10, 100, 1000, 10000])
        ratios = [float(r) for _, r in series]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1.01

    def test_overhead_constant_in_n(self, star4):
        """makespan - n/ntask is bounded by a constant (strong §4.2)."""
        sched = schedule_for(star4, "M")
        overheads = [
            float(build_batch_schedule(sched, n).makespan
                  - Fraction(n) / sched.throughput)
            for n in (100, 1000, 10000)
        ]
        assert max(overheads) - min(overheads) <= max(
            float(sched.period) * 2, 4.0
        )

    def test_trace_valid_under_one_port(self, star4):
        sched = schedule_for(star4, "M")
        batch = build_batch_schedule(sched, 12, record_trace=True)
        batch.trace.validate("one-port")
        # phases appear in the trace
        labels = {iv.label for iv in batch.trace.intervals}
        assert "steady" in labels
        assert "init" in labels or not sched.routes.get("task")

    def test_grid_trace_valid(self, grid33):
        sched = schedule_for(grid33, "G0_0")
        batch = build_batch_schedule(sched, 60, record_trace=True)
        batch.trace.validate("one-port")

    @pytest.mark.parametrize("startups", [None, unit], ids=["none", "unit"])
    def test_zero_tasks(self, star4, startups):
        sched = schedule_for(star4, "M")
        batch = build_batch_schedule(sched, 0, startups and startups(sched))
        assert batch.steady_periods == 0
        assert batch.makespan == 0

    @pytest.mark.parametrize("startups", [None, unit], ids=["none", "unit"])
    def test_rejects_scatter(self, fig2, startups):
        from repro.core.scatter import solve_scatter

        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        sched = reconstruct_schedule(sol)
        for m in (None, 1, 3):
            with pytest.raises(ScheduleError):
                build_batch_schedule(sched, 10, startups and startups(sched),
                                     m)

    @pytest.mark.parametrize("startups", [None, unit], ids=["none", "unit"])
    def test_trace_computes_at_node_speed(self, star4, startups):
        """Every recorded computation fits its node's speed, the trace is
        one-port, ends by the makespan and computes ``per_node``."""
        for platform, master in [(star4, "M")] + SEEDED:
            sched = schedule_for(platform, master)
            per_period = sched.tasks_per_period()
            for n in (1, 6, per_period, 2 * per_period + 1, 5 * per_period):
                cs = startups and startups(sched)
                for m in (1, default_group_count(n, sched.throughput)):
                    batch = build_batch_schedule(sched, n, cs, m,
                                                 record_trace=True)
                    trace = batch.trace
                    trace.validate("one-port")
                    trace.check_matched_transfers()
                    for iv in trace.intervals:
                        assert iv.end <= batch.makespan
                        if iv.kind == "compute":
                            w = platform.node(iv.node).w
                            assert iv.units * w <= iv.end - iv.start
                    for node, tasks in batch.per_node.items():
                        assert trace.units(node, "compute") == tasks
                    # a forwarder's first init send follows a receive
                    init = [iv for iv in trace.intervals
                            if iv.label == "init"]
                    for iv in init:
                        if iv.kind == "send" and iv.node != master:
                            assert any(r.node == iv.node and r.kind == "recv"
                                       and r.end <= iv.start for r in init)
                    assert sum(batch.per_node.values()) == n

    def test_negative_tasks_rejected(self, star4):
        sched = schedule_for(star4, "M")
        with pytest.raises(ValueError):
            build_batch_schedule(sched, -1)
