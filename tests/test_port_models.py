"""Port-model variant tests (section 5.1)."""

import dataclasses
from fractions import Fraction

import pytest

from repro.core.activities import SteadyStateError, SteadyStateSolution
from repro.core.master_slave import solve_master_slave
from repro.core.scatter import solve_scatter
from repro.platform import generators as gen
from repro.platform.graph import Platform
from repro.schedule.reconstruction import orchestrate, reconstruct_schedule


def sor_slices(busy):
    """The send-or-receive orchestration of ``busy`` as (pairs, duration)."""
    slices, length = orchestrate(busy, Fraction(0), "send-or-receive")
    assert length == sum((sl.duration for sl in slices), start=Fraction(0))
    return [(sl.transfers, sl.duration) for sl in slices]

#: (port_model, ports) of every section 5.1 model, as the solvers take it
MODELS = [("one-port", 1), ("send-or-receive", 1), ("multiport", 2)]


def _ssms(platform, master, port_model, ports):
    if port_model == "one-port":
        return solve_master_slave(platform, master)
    if port_model == "send-or-receive":
        return solve_master_slave(platform, master, "send-or-receive")
    return solve_master_slave(platform, master, "multiport", ports)


class TestThroughputOrdering:
    def test_sor_le_oneport_le_multiport(self, any_platform):
        name, platform, master = any_platform
        sor = solve_master_slave(platform, master,
                                 "send-or-receive").throughput
        one = solve_master_slave(platform, master).throughput
        mp2 = solve_master_slave(platform, master, "multiport", 2).throughput
        mp4 = solve_master_slave(platform, master, "multiport", 4).throughput
        assert sor <= one <= mp2 <= mp4

    def test_sor_strictly_hurts_relays(self):
        """A pure forwarder must now time-share receiving and forwarding:
        under full overlap it relays 1 task/time-unit (both ports busy),
        under send-or-receive only 1/2."""
        from repro._rational import INF

        g = Platform("relay-chain")
        g.add_node("N0", 1)
        g.add_node("N1", INF)  # forwarder: every task crosses both ports
        g.add_node("N2", 1)
        g.add_edge("N0", "N1", 1)
        g.add_edge("N1", "N2", 1)
        one = solve_master_slave(g, "N0").throughput
        sor = solve_master_slave(g, "N0", "send-or-receive").throughput
        assert one == 2
        assert sor == Fraction(3, 2)

    def test_multiport_unlocks_parallel_children(self):
        g = gen.star(3, master_w=1, worker_w=[1, 1, 1], link_c=[1, 1, 1])
        one = solve_master_slave(g, "M").throughput
        mp3 = solve_master_slave(g, "M", "multiport", 3).throughput
        assert mp3 > one

    def test_multiport_caps_at_link_capacity(self):
        """Extra cards cannot push a single link beyond s_ij <= 1."""
        g = gen.star(1, master_w=1, worker_w=[1], link_c=[1])
        mp = solve_master_slave(g, "M", "multiport", 8).throughput
        assert mp == 2  # master 1 + worker 1 (link saturated)

    def test_ports_validation(self, star4):
        with pytest.raises(ValueError):
            solve_master_slave(star4, "M", "multiport", 0)

    def test_conservation_holds_in_variants(self, star4):
        sol = solve_master_slave(star4, "M", "send-or-receive")
        sol.check_master_slave_conservation()
        sol2 = solve_master_slave(star4, "M", "multiport", 2)
        sol2.check_master_slave_conservation()


class TestGreedyColoring:
    """The send-or-receive orchestration: the greedy colouring, which
    returns its length and leaves the period to the caller."""

    def test_disjoint_pairs_share_slice(self):
        slices = sor_slices({("a", "b"): Fraction(1), ("c", "d"): Fraction(1)})
        assert len(slices) == 1

    def test_node_conflicts_serialised(self):
        # b both receives and sends: under send-or-receive these conflict
        slices = sor_slices({("a", "b"): Fraction(1), ("b", "c"): Fraction(1)})
        assert len(slices) == 2

    def test_total_at_most_twice_load(self):
        busy = {
            ("a", "b"): Fraction(2), ("b", "c"): Fraction(1),
            ("c", "a"): Fraction(1), ("a", "c"): Fraction(1),
        }
        total = sum((d for _, d in sor_slices(busy)), start=Fraction(0))
        load = {}
        for (u, v), w in busy.items():
            load[u] = load.get(u, Fraction(0)) + w
            load[v] = load.get(v, Fraction(0)) + w
        assert total <= 2 * max(load.values())

    def test_cover_is_exact(self):
        busy = {("a", "b"): Fraction(3), ("b", "a"): Fraction(2)}
        covered = {}
        for batch, d in sor_slices(busy):
            for u, v in batch.items():
                covered[(u, v)] = covered.get((u, v), Fraction(0)) + d
        assert covered == busy

    def test_schedule_length_measured(self):
        g = gen.chain(3, node_w=1, link_c=1)
        sol = solve_master_slave(g, "N0", "send-or-receive")
        T = sol.period()
        _, length = orchestrate(sol.edge_busy_time(T), T, "send-or-receive")
        # the greedy orchestration must fit within the Shannon-type factor
        assert length <= 2 * T
        assert reconstruct_schedule(sol).period == max(T, length)


class TestEveryModelIsVerified:
    """An exact answer is checked against the port model it was solved
    for: its budgets, bounds and conservation laws."""

    @pytest.mark.parametrize("port_model,ports", MODELS)
    def test_ssms_over_budget_refused(self, port_model, ports):
        g = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 1, 1])
        sol = _ssms(g, "M", port_model, ports)
        sol.verify()
        for j in g.successors("M"):
            sol.s[("M", j)] = Fraction(1)  # three busy links > any budget
        with pytest.raises(SteadyStateError, match="budget violated at M"):
            sol.verify()

    @pytest.mark.parametrize("port_model,ports", MODELS)
    def test_ssms_broken_conservation_refused(self, port_model, ports):
        g = gen.star(3, worker_w=[1, 2, 3], link_c=[1, 2, 3])
        sol = _ssms(g, "M", port_model, ports)
        worker = max((n for n in sol.alpha if n != "M"),
                     key=lambda n: sol.alpha[n])
        sol.alpha[worker] /= 2
        with pytest.raises(SteadyStateError, match="conservation violated"):
            sol.verify()

    @pytest.mark.parametrize("port_model,ports", MODELS)
    def test_scatter_over_budget_refused(self, port_model, ports):
        g = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 1, 1])
        sol = solve_scatter(g, "M", ["W1", "W2", "W3"],
                            port_model=port_model, ports=ports)
        for j in g.successors("M"):
            sol.s[("M", j)] = Fraction(1)
        with pytest.raises(SteadyStateError, match="budget violated at M"):
            sol.verify()

    @pytest.mark.parametrize("port_model,ports", MODELS)
    def test_scatter_broken_conservation_refused(self, port_model, ports):
        g = gen.chain(3, link_c=1)
        sol = solve_scatter(g, "N0", ["N2"], port_model=port_model,
                            ports=ports)
        sol.send[("N1", "N2", "N2")] *= 2  # N1 forwards more than it gets
        with pytest.raises(SteadyStateError, match="not conserved at N1"):
            sol.verify()

    def test_verify_checks_the_model_it_is_given(self):
        """Full overlap lets a relay receive and forward at once, which
        send-or-receive forbids; three cards per node let a master feed
        three links, which one port forbids.  ``verify`` reads the model
        from the answer."""
        from repro._rational import INF

        relay = Platform("relay-chain")
        relay.add_node("N0", 1)
        relay.add_node("N1", INF)
        relay.add_node("N2", 1)
        relay.add_edge("N0", "N1", 1)
        relay.add_edge("N1", "N2", 1)
        one = solve_master_slave(relay, "N0")
        one.verify()
        one.port_model = "send-or-receive"
        with pytest.raises(SteadyStateError,
                           match="send-or-receive port budget"):
            one.verify()
        star = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 1, 1])
        mp3 = solve_master_slave(star, "M", "multiport", 3)
        mp3.verify()
        mp3.port_model, mp3.ports = "one-port", 1
        with pytest.raises(SteadyStateError, match="one-port send-port"):
            mp3.verify()

    def test_multiport_master_over_its_cards_is_refused(self):
        """A multiport(3) master feeding three links at full rate passes
        its own check; a fourth busy link is one card too many."""
        star = gen.star(4, worker_w=[1, 1, 1, 1], link_c=[1, 1, 1, 1])
        mp3 = solve_master_slave(star, "M", "multiport", 3)
        assert (mp3.port_model, mp3.ports) == ("multiport", 3)
        assert sum(mp3.s[("M", j)] for j in star.successors("M")) == 3
        mp3.verify()
        spare = min(star.successors("M"), key=lambda j: mp3.s[("M", j)])
        assert mp3.s[("M", spare)] < 1
        mp3.s[("M", spare)] = Fraction(1)
        with pytest.raises(SteadyStateError,
                           match="multiport send-port budget violated at M"):
            mp3.verify()

    def test_every_exact_package_verifies_its_model(self, monkeypatch):
        """Cold solves and warm-model packages alike: no exact SSMS or
        SSPS answer leaves its packager unchecked."""
        from repro.problems import (
            MultiportSpec, ScatterSpec, SendOrReceiveSpec,
        )
        from repro.service import IncrementalSolver

        seen = []
        verify = SteadyStateSolution.verify

        def recorded(sol):
            seen.append((sol.problem, sol.port_model, sol.ports))
            verify(sol)

        monkeypatch.setattr(SteadyStateSolution, "verify", recorded)
        g = gen.star(3, worker_w=[1, 2, 3], link_c=[1, 2, 3])
        for port_model, ports in MODELS:
            _ssms(g, "M", port_model, ports)
            solve_scatter(g, "M", ["W1", "W2"], port_model=port_model,
                          ports=ports)
        inc = IncrementalSolver()
        for spec in (MultiportSpec(platform=g, master="M", ports=3),
                     SendOrReceiveSpec(platform=g, master="M"),
                     ScatterSpec(platform=g, source="M", targets=("W1",),
                                 port_model="multiport", ports=3)):
            inc.solve_spec(spec)
        assert seen == [
            ("master-slave", "one-port", 1), ("scatter", "one-port", 1),
            ("master-slave", "send-or-receive", 1),
            ("scatter", "send-or-receive", 1),
            ("master-slave", "multiport", 2), ("scatter", "multiport", 2),
            ("master-slave", "multiport", 3),
            ("master-slave", "send-or-receive", 1),
            ("scatter", "multiport", 3),
        ]


def _steady_state_specs(g):
    """One spec of every steady-state problem on ``g``, under each model
    the problem takes."""
    from repro.problems import (
        AllToAllSpec, GatherSpec, MasterSlaveSpec, MultiportSpec,
        ScatterSpec, SendOrReceiveSpec,
    )

    return [
        MasterSlaveSpec(platform=g, master="M"),
        MultiportSpec(platform=g, master="M", ports=3),
        SendOrReceiveSpec(platform=g, master="M"),
        *(ScatterSpec(platform=g, source="M", targets=("W1", "W2"),
                      port_model=port_model, ports=ports)
          for port_model, ports in MODELS),
        GatherSpec(platform=g, sink="M", sources=("W1", "W2")),
        AllToAllSpec(platform=g, participants=("M", "W1", "W2")),
    ]


class TestTheAnswerKnowsItsModel:
    """Every exact steady-state answer records its spec's port setting,
    however it was reached."""

    def test_cold_solves(self):
        from repro.problems import solve

        g = gen.star(3, worker_w=[1, 2, 3], link_c=[1, 2, 3])
        for spec in _steady_state_specs(g):
            sol = solve(spec)
            assert (sol.port_model, sol.ports) == spec.port_setting(), spec
            sol.verify()

    def test_warm_hits(self):
        from repro.service import IncrementalSolver

        g = gen.star(3, worker_w=[1, 2, 3], link_c=[1, 2, 3])
        inc = IncrementalSolver()
        for spec in _steady_state_specs(g):
            for scale in (1, 2, 3):  # the second build keeps the hot model
                moved = dataclasses.replace(
                    spec, platform=g.scale(compute=scale, comm=scale))
                sol, warm = inc.solve_spec_ex(moved)
            assert warm, spec
            assert (sol.port_model, sol.ports) == spec.port_setting(), spec

    def test_wire_round_trip(self):
        from repro.problems import solve
        from repro.service.wire import solution_from_wire, solution_to_wire

        g = gen.star(3, worker_w=[1, 2, 3], link_c=[1, 2, 3])
        for spec in _steady_state_specs(g):
            back = solution_from_wire(solution_to_wire(solve(spec)), spec)
            assert (back.port_model, back.ports) == spec.port_setting(), spec
            back.verify()
