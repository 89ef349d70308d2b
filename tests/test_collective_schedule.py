"""Tree-packing → periodic-schedule conversion tests."""

from fractions import Fraction

import pytest

from repro.core.broadcast import solve_broadcast
from repro.core.multicast import solve_multicast
from repro.platform import generators as gen
from repro.schedule.collective import packing_to_schedule, tree_routes


class TestPackingToSchedule:
    def test_fig2_broadcast_schedule(self, fig2):
        sol = solve_broadcast(fig2, "P0")
        sched = packing_to_schedule(fig2, sol.packing, "P0", "broadcast")
        assert sched.throughput == sol.achieved
        # per-period instance counts are integers on every edge
        for count in sched.messages.values():
            assert count >= 1

    def test_multicast_schedule_realises_three_quarters(self, fig2):
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        sched = packing_to_schedule(
            fig2, analysis.packing, "P0", "multicast"
        )
        assert sched.throughput == Fraction(3, 4)
        # orchestrated slices all fit inside the period
        assert all(sl.end <= sched.period for sl in sched.slices)

    def test_shared_edge_pays_per_tree(self, fig2):
        """Distinct trees on one edge are distinct transfers: the busy
        time on P3->P4 equals the sum over trees crossing it."""
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        sched = packing_to_schedule(fig2, analysis.packing, "P0", "multicast")
        T = sched.period
        crossing = sum(
            (rate for tree, rate in analysis.packing.items()
             if ("P3", "P4") in tree),
            start=Fraction(0),
        )
        assert sched.comm_time("P3", "P4") == crossing * T * fig2.c("P3", "P4")

    def test_empty_packing(self, fig2):
        sched = packing_to_schedule(fig2, {}, "P0")
        assert sched.throughput == 0
        assert sched.slices == []

    def test_chain_broadcast_schedule(self):
        g = gen.chain(4, link_c=1)
        sol = solve_broadcast(g, "N0")
        sched = packing_to_schedule(g, sol.packing, "N0")
        assert sched.throughput == 1
        # the chain pipeline: every link busy the whole period
        for spec in g.edges():
            assert sched.comm_time(spec.src, spec.dst) == sched.period

    def test_tree_routes_sorted(self, fig2):
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        routes = tree_routes(analysis.packing, "P0")
        rates = [r for _, r in routes]
        assert rates == sorted(rates, reverse=True)
        assert all(r > 0 for r in rates)


_RECORD_BROADCASTS = """
import json
from repro.core.broadcast import solve_broadcast
from repro.platform import generators as gen
from repro.platform.serialization import schedule_to_dict
from repro.schedule.collective import packing_to_schedule
schedules = []
for seed in range(6):
    g = gen.random_connected(6, seed=seed)
    packing = solve_broadcast(g, "R0").packing
    schedules.append(schedule_to_dict(packing_to_schedule(g, packing, "R0")))
print(json.dumps(schedules))
"""


def test_schedule_does_not_depend_on_the_hash_seed(fresh_python):
    """A tree is a frozenset of edges: walking it in set order made the
    slices and the message order differ between interpreters."""
    first, second = (fresh_python(_RECORD_BROADCASTS, PYTHONHASHSEED=seed)
                     for seed in ("0", "1"))
    assert first == second
