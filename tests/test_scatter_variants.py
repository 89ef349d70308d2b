"""Scatter under alternative port models + all-to-all reconstruction."""

from fractions import Fraction

import pytest

from repro.core.scatter import (
    solve_all_to_all_solution,
    solve_scatter,
)
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError
from repro.platform.serialization import platform_to_dict
from repro.schedule.reconstruction import reconstruct_schedule
from repro.service.api import handle_request
from repro.service.broker import Broker


class TestScatterPortModels:
    def test_model_ordering(self, fig2):
        targets = ["P5", "P6"]
        sor = solve_scatter(fig2, "P0", targets,
                            port_model="send-or-receive").throughput
        one = solve_scatter(fig2, "P0", targets).throughput
        mp2 = solve_scatter(fig2, "P0", targets,
                            port_model="multiport", ports=2).throughput
        assert sor <= one <= mp2

    def test_multiport_star_scales(self):
        g = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 1, 1])
        one = solve_scatter(g, "M", ["W1", "W2", "W3"]).throughput
        mp3 = solve_scatter(g, "M", ["W1", "W2", "W3"],
                            port_model="multiport", ports=3).throughput
        assert one == Fraction(1, 3)
        assert mp3 == 1  # three cards saturate every unit link at once

    def test_sor_hurts_relayed_scatter(self):
        g = gen.chain(3, link_c=1)
        one = solve_scatter(g, "N0", ["N1", "N2"]).throughput
        sor = solve_scatter(g, "N0", ["N1", "N2"],
                            port_model="send-or-receive").throughput
        # N1 must receive both commodities and forward one: merged budget
        assert sor < one

    def test_unknown_model_rejected(self, fig2):
        with pytest.raises(PlatformError):
            solve_scatter(fig2, "P0", ["P5"], port_model="psychic")

    def test_bad_port_count(self, fig2):
        with pytest.raises(PlatformError):
            solve_scatter(fig2, "P0", ["P5"], port_model="multiport",
                          ports=0)


class TestScatterScheduleRequests:
    """Reconstruction colours the one-port bipartite graph: a scatter
    under another port model asks for a schedule it cannot have, and is
    refused up front like a multiport or send-or-receive master-slave
    request, not answered with a 500 or a schedule of the wrong model."""

    def _solve(self, broker, include_schedule, **model):
        g = gen.random_connected(6, seed=1)
        return handle_request(broker, {
            "op": "solve", "platform": platform_to_dict(g),
            "include_schedule": include_schedule,
            "spec": {"problem": "scatter", "source": "R0",
                     "targets": ["R1", "R2", "R3"], **model},
        })

    @pytest.mark.parametrize("model", [
        {"port_model": "multiport", "ports": 2},
        {"port_model": "send-or-receive"},
    ])
    def test_other_port_models_are_refused_a_schedule(self, model):
        with Broker() as broker:
            out = self._solve(broker, True, **model)
            assert out["status"] == 422, out
            assert f"under the {model['port_model']} model" in out["error"]
            assert self._solve(broker, False, **model)["ok"]

    def test_one_port_scatter_keeps_its_schedule(self):
        with Broker() as broker:
            out = self._solve(broker, True)
        assert out["ok"] and out["schedule"] is not None


class TestAllToAllReconstruction:
    def triangle(self):
        p = Platform("tri")
        for n in "ABC":
            p.add_node(n, 1)
        for a, b in [("A", "B"), ("B", "C"), ("C", "A"),
                     ("B", "A"), ("C", "B"), ("A", "C")]:
            p.add_edge(a, b, 1)
        return p

    def test_solution_verifies(self):
        sol = solve_all_to_all_solution(self.triangle())
        assert sol.throughput == Fraction(1, 2)
        sol.verify()

    def test_reconstruction_routes_every_pair(self):
        p = self.triangle()
        sol = solve_all_to_all_solution(p)
        sched = reconstruct_schedule(sol)
        per_period = sol.throughput * sched.period
        pairs = {(a, b) for a in "ABC" for b in "ABC" if a != b}
        assert set(sched.routes) == {f"{a}->{b}" for a, b in pairs}
        for k, routes in sched.routes.items():
            a, b = k.split("->")
            delivered = sum((r for _, r in routes), start=Fraction(0))
            assert delivered == per_period
            for path, _units in routes:
                assert path[0] == a and path[-1] == b

    def test_grid_all_to_all(self):
        g = gen.grid2d(2, 2, seed=4)
        sol = solve_all_to_all_solution(g)
        sched = reconstruct_schedule(sol)
        assert sched.throughput == sol.throughput
        assert len(sched.slices) <= g.num_edges + 2 * g.num_nodes
