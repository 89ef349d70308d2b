"""Round-trip tests for platform and schedule serialisation."""

import json
from fractions import Fraction

import pytest

from repro._rational import INF
from repro.core.master_slave import solve_master_slave
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError
from repro.platform.serialization import (
    platform_from_dict,
    platform_from_json,
    platform_to_dict,
    platform_to_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.schedule.reconstruction import reconstruct_schedule


class TestPlatformRoundTrip:
    def test_round_trip_preserves_structure(self, any_platform):
        name, platform, master = any_platform
        clone = platform_from_json(platform_to_json(platform))
        assert clone.describe() == platform.describe()

    def test_exact_fractions_survive(self):
        g = Platform("fr")
        g.add_node("A", Fraction(1, 3))
        g.add_node("B", Fraction(22, 7))
        g.add_edge("A", "B", Fraction(355, 113))
        clone = platform_from_json(platform_to_json(g))
        assert clone.w("A") == Fraction(1, 3)
        assert clone.c("A", "B") == Fraction(355, 113)

    def test_forwarders_survive(self):
        g = Platform("fw")
        g.add_node("M", 1)
        g.add_node("F", INF)
        g.add_edge("M", "F", 1)
        clone = platform_from_json(platform_to_json(g))
        assert not clone.node("F").can_compute

    def test_solutions_identical_after_round_trip(self, star4):
        clone = platform_from_json(platform_to_json(star4))
        assert solve_master_slave(clone, "M").throughput == (
            solve_master_slave(star4, "M").throughput
        )

    def test_malformed_data_rejected(self):
        with pytest.raises(PlatformError):
            platform_from_dict({"nodes": "nope"})
        with pytest.raises(PlatformError):
            platform_from_dict({"nodes": [], "edges": [
                {"src": "A", "dst": "B", "c": "1"}
            ]})

    def test_json_is_valid(self, star4):
        data = json.loads(platform_to_json(star4))
        assert {"name", "nodes", "edges"} <= set(data)


def _through_json(schedule, platform):
    """A schedule shipped as JSON and rebuilt on the reader's platform."""
    return schedule_from_dict(json.loads(json.dumps(
        schedule_to_dict(schedule))), platform)


class TestScheduleRoundTrip:
    def test_master_slave_schedule(self, star4):
        sol = solve_master_slave(star4, "M")
        sched = reconstruct_schedule(sol)
        assert "platform" not in schedule_to_dict(sched)  # travels beside
        clone = _through_json(sched, star4)
        assert clone.platform is star4
        assert clone.period == sched.period
        assert clone.throughput == sched.throughput
        assert clone.compute == sched.compute
        assert clone.messages == sched.messages
        assert len(clone.slices) == len(sched.slices)
        clone.validate()
        clone.check_message_counts()

    def test_routes_survive(self, fig2):
        from repro.core.scatter import solve_scatter

        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        sched = reconstruct_schedule(sol)
        clone = _through_json(sched, fig2)
        assert clone.routes == sched.routes

    def test_clone_runs_in_simulator(self, star4):
        from repro.simulator.periodic_runner import PeriodicRunner

        sol = solve_master_slave(star4, "M")
        sched = reconstruct_schedule(sol)
        clone = _through_json(sched, star4)
        original = PeriodicRunner(sched).run(10)
        replay = PeriodicRunner(clone).run(10)
        assert original.total_completed == replay.total_completed
