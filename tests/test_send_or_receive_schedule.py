"""Tests for the send-or-receive reconstruction (§5.1.1) and the one
orchestration every port model goes through."""

from fractions import Fraction

import pytest

from repro._rational import INF
from repro.core.master_slave import solve_master_slave
from repro.core.scatter import solve_scatter
from repro.platform import generators as gen
from repro.platform.graph import Platform
from repro.schedule.periodic import ScheduleError, schedule_to_trace
from repro.schedule.reconstruction import reconstruct_schedule


def relay_chain():
    g = Platform("relay-chain")
    g.add_node("N0", 1)
    g.add_node("N1", INF)
    g.add_node("N2", 1)
    g.add_edge("N0", "N1", 1)
    g.add_edge("N1", "N2", 1)
    return g


def stretch(sched, sol):
    return sched.period / sol.period()


class TestSorReconstruction:
    def test_star_no_stretch(self, star4):
        """On a star nobody both sends and receives: stretch = 1."""
        sol = solve_master_slave(star4, "M", "send-or-receive")
        sched = reconstruct_schedule(sol)
        assert stretch(sched, sol) == 1
        assert sched.throughput == sol.throughput

    def test_relay_chain_schedules_serially(self):
        """The forwarder's receive and send are serialised in the slices."""
        g = relay_chain()
        sol = solve_master_slave(g, "N0", "send-or-receive")
        sched = reconstruct_schedule(sol)
        trace = schedule_to_trace(sched, periods=2)
        trace.validate("send-or-receive")
        assert 1 <= stretch(sched, sol) <= 2

    def test_throughput_scales_with_stretch(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master, "send-or-receive")
        if sol.throughput == 0:
            return
        sched = reconstruct_schedule(sol)
        assert sched.throughput == sol.throughput / stretch(sched, sol)
        assert 1 <= stretch(sched, sol) <= 2  # Shannon-type guarantee

    def test_traces_pass_sor_validation(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master, "send-or-receive")
        sched = reconstruct_schedule(sol)
        trace = schedule_to_trace(sched, periods=3)
        trace.validate("send-or-receive")
        trace.validate("one-port")  # sor traces are a fortiori one-port

    def test_one_port_schedule_can_violate_sor(self):
        """The contrast: a full-overlap reconstruction uses simultaneous
        send+receive at relays, which the sor validator rejects."""
        from repro.simulator.trace import ModelViolation

        g = relay_chain()
        sol = solve_master_slave(g, "N0")
        sched = reconstruct_schedule(sol)
        trace = schedule_to_trace(sched, periods=1)
        trace.validate("one-port")
        with pytest.raises(ModelViolation):
            trace.validate("send-or-receive")

    def test_scatter_reconstructs_under_its_own_model(self, fig2):
        sol = solve_scatter(fig2, "P0", ["P5", "P6"],
                            port_model="send-or-receive")
        sched = reconstruct_schedule(sol)
        schedule_to_trace(sched, periods=2).validate("send-or-receive")
        assert sched.problem == "scatter"
        assert set(sched.routes) == {"P5", "P6"}
        assert 1 <= stretch(sched, sol) <= 2

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_scatters_pass_sor_validation(self, seed):
        """Under one-port orchestration most of these traces broke the
        send-or-receive model without an error."""
        g = gen.random_connected(6, seed=seed)
        sol = solve_scatter(g, "R0", ["R1", "R2", "R3"],
                            port_model="send-or-receive")
        sched = reconstruct_schedule(sol)
        schedule_to_trace(sched, periods=2).validate("send-or-receive")


# the problems of the any_platform fixture a schedule is built for, under
# the two models whose schedules always reconstruct
def _solve(problem, port_model, platform, master):
    if problem == "scatter":
        targets = [n for n in platform.nodes() if n != master][:3]
        return solve_scatter(platform, master, targets,
                             port_model=port_model)
    if port_model == "send-or-receive":
        return solve_master_slave(platform, master, "send-or-receive")
    return solve_master_slave(platform, master)


class TestOneOrchestration:
    @pytest.mark.parametrize("port_model", ["one-port", "send-or-receive"])
    @pytest.mark.parametrize("problem", ["master-slave", "scatter"])
    def test_trace_obeys_the_answers_model(self, any_platform, problem,
                                           port_model):
        name, platform, master = any_platform
        sol = _solve(problem, port_model, platform, master)
        assert sol.port_model == port_model
        sched = reconstruct_schedule(sol)
        schedule_to_trace(sched, 2).validate(sol.port_model, sol.ports)
        if port_model == "one-port":
            assert sched.period == sol.period()
            assert sched.throughput == sol.throughput
        else:
            assert 1 <= sched.period / sol.period() <= 2
            assert sched.throughput == (
                sol.throughput * sol.period() / sched.period)

    def test_multiport_that_does_not_fit_is_refused_by_name(self):
        """One card per node cannot carry this multiport(2) answer, and
        the refusal names the model instead of blaming the solver."""
        sol = solve_master_slave(gen.random_connected(6, seed=1),
                                 "R0", "multiport", 2)
        sol.verify()
        with pytest.raises(ScheduleError, match=r"multiport\(2\)") as exc:
            reconstruct_schedule(sol)
        assert "violated upstream" not in str(exc.value)
        assert "not implemented" in str(exc.value)

    def test_multiport_that_fits_is_valid(self):
        g = gen.star(2, worker_w=[2, 2], link_c=[1, 1])
        sol = solve_master_slave(g, "M", "multiport", 2)
        sched = reconstruct_schedule(sol)
        schedule_to_trace(sched, 2).validate("multiport", 2)
        assert sched.throughput == sol.throughput

    def test_fixed_period_refuses_other_models(self, star4):
        from repro.schedule.fixed_period import fixed_period_schedule

        sol = solve_master_slave(star4, "M", "send-or-receive")
        with pytest.raises(ScheduleError, match="one-port"):
            fixed_period_schedule(sol, Fraction(10))
