"""Hypothesis property tests over randomly generated platforms.

These drive the *whole pipeline* — LP, period, colouring, reconstruction,
execution — on arbitrary platform shapes and assert the paper's guarantees
as universally quantified properties.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.master_slave import solve_master_slave, ntask
from repro.core.scatter import (
    solve_all_to_all_solution,
    solve_gather,
    solve_scatter,
)
from repro.platform import generators as gen
from repro.schedule.reconstruction import reconstruct_schedule
from repro.simulator.periodic_runner import PeriodicRunner

SLOW = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_platform(draw):
    """A random connected platform of 3-7 nodes with optional forwarders."""
    n = draw(st.integers(min_value=3, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    forwarders = draw(st.sampled_from([0.0, 0.0, 0.3]))
    extra = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return gen.random_connected(
        n, seed=seed, forwarder_prob=forwarders, extra_edge_prob=extra
    )


class TestPipelineProperties:
    @settings(**SLOW)
    @given(small_platform())
    def test_solution_invariants(self, platform):
        sol = solve_master_slave(platform, "R0")
        sol.verify()
        assert sol.throughput >= 0

    @settings(**SLOW)
    @given(small_platform())
    def test_reconstruction_invariants(self, platform):
        sol = solve_master_slave(platform, "R0")
        sched = reconstruct_schedule(sol)
        assert Fraction(sched.tasks_per_period()) == (
            sol.throughput * sched.period
        )
        assert len(sched.slices) <= (
            platform.num_edges + 2 * platform.num_nodes
        )

    @settings(**SLOW)
    @given(small_platform(), st.sampled_from(
        ["master-slave", "scatter", "gather", "all-to-all"]))
    def test_constant_deficit_property(self, platform, problem):
        """§4.2 as a universally quantified statement, for every commodity
        of every reconstructable problem: the deficit against
        ``K * T * TP`` is the same at two horizons."""
        others = sorted(platform.nodes())[1:]
        sol = {
            "master-slave": lambda: solve_master_slave(platform, "R0"),
            "scatter": lambda: solve_scatter(platform, "R0", others),
            "gather": lambda: solve_gather(platform, "R0", others),
            "all-to-all": lambda: solve_all_to_all_solution(platform),
        }[problem]()
        assert sol.throughput > 0  # the platform is strongly connected
        sched = reconstruct_schedule(sol)
        short = PeriodicRunner(sched).run(9)
        long = PeriodicRunner(sched).run(23)
        assert list(short.per_commodity) == list(long.per_commodity)
        for k in short.per_commodity:
            assert short.commodity_deficit(k) == long.commodity_deficit(k)
        assert short.deficit == long.deficit

    @settings(**SLOW)
    @given(small_platform())
    def test_one_port_traces(self, platform):
        sol = solve_master_slave(platform, "R0")
        sched = reconstruct_schedule(sol)
        res = PeriodicRunner(sched, record_trace=True).run(5)
        res.trace.validate("one-port")

    @settings(**SLOW)
    @given(small_platform(), st.integers(min_value=2, max_value=4))
    def test_faster_links_never_hurt(self, platform, factor):
        """Monotonicity: uniformly speeding up communication cannot lower
        ntask(G) (the LP's feasible region only grows)."""
        faster = platform.scale(comm=Fraction(1, factor))
        assert ntask(faster, "R0") >= ntask(platform, "R0")

    @settings(**SLOW)
    @given(small_platform(), st.integers(min_value=2, max_value=4))
    def test_faster_cpus_never_hurt(self, platform, factor):
        faster = platform.scale(compute=Fraction(1, factor))
        assert ntask(faster, "R0") >= ntask(platform, "R0")

    @settings(**SLOW)
    @given(small_platform())
    def test_master_choice_bounded_by_best(self, platform):
        """Any master's throughput is at most the total compute power and
        at least its own rate — sanity for arbitrary master placement."""
        for master in list(platform.nodes())[:3]:
            spec = platform.node(master)
            tp = ntask(platform, master)
            cap = sum(
                (Fraction(1) / platform.node(n).w
                 for n in platform.compute_nodes()),
                start=Fraction(0),
            )
            assert tp <= cap
            if spec.can_compute:
                assert tp >= Fraction(1) / spec.w


class TestScatterProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_platform())
    def test_scatter_bound_and_reconstruction(self, platform):
        targets = [n for n in platform.nodes() if n != "R0"][:2]
        reachable = platform.reachable_from("R0")
        if not all(t in reachable for t in targets):
            return  # unreachable targets: TP = 0 cases are separately tested
        sol = solve_scatter(platform, "R0", targets)
        sol.verify()
        if sol.throughput > 0:
            sched = reconstruct_schedule(sol)
            per_period = sol.throughput * sched.period
            for k in targets:
                delivered = sum(
                    (r for _, r in sched.routes[str(k)]), start=Fraction(0)
                )
                assert delivered == per_period
