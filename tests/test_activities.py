"""SteadyStateSolution unit tests: rates, periods, simplification."""

from fractions import Fraction

import pytest

from repro._rational import INF
from repro.core.activities import (
    SteadyStateError,
    SteadyStateSolution,
    commodity_endpoints,
)
from repro.core.master_slave import solve_master_slave
from repro.core.scatter import (
    solve_all_to_all_solution,
    solve_gather,
    solve_scatter,
)
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError


def tiny():
    g = Platform("tiny")
    g.add_node("M", 1)
    g.add_node("W", 2)
    g.add_edge("M", "W", 3)
    return g


class TestRates:
    def test_compute_rate(self):
        g = tiny()
        sol = SteadyStateSolution(
            platform=g, problem="master-slave", throughput=Fraction(0),
            alpha={"W": Fraction(1, 2)}, source="M",
        )
        assert sol.compute_rate("W") == Fraction(1, 4)
        assert sol.compute_rate("M") == 0

    def test_forwarder_alpha_rejected(self):
        g = Platform("f")
        g.add_node("M", 1)
        g.add_node("F", INF)
        g.add_edge("M", "F", 1)
        sol = SteadyStateSolution(
            platform=g, problem="master-slave", throughput=Fraction(0),
            alpha={"F": Fraction(1)}, source="M",
        )
        with pytest.raises(SteadyStateError):
            sol.compute_rate("F")

    def test_edge_rate(self):
        g = tiny()
        sol = SteadyStateSolution(
            platform=g, problem="master-slave", throughput=Fraction(0),
            s={("M", "W"): Fraction(1, 2)}, source="M",
        )
        assert sol.edge_rate("M", "W") == Fraction(1, 6)

    def test_activity_on_missing_edge_caught(self):
        g = tiny()
        sol = SteadyStateSolution(
            platform=g, problem="master-slave", throughput=Fraction(0),
            s={("W", "M"): Fraction(1, 2)}, source="M",
        )
        with pytest.raises(SteadyStateError):
            sol.check_bounds()


class TestPeriod:
    def test_period_makes_counts_integral(self, any_platform):
        name, platform, master = any_platform
        sol = solve_master_slave(platform, master)
        T = sol.period()
        for node in sol.alpha:
            assert (sol.compute_rate(node) * T).denominator == 1
        for (i, j) in sol.s:
            assert (sol.edge_rate(i, j) * T).denominator == 1

    def test_period_minimal_for_known_case(self, star4):
        sol = solve_master_slave(star4, "M")
        assert sol.period() == 2  # rates are 1/2-granular on this star

    def test_tasks_and_messages_integral(self, star4):
        sol = solve_master_slave(star4, "M")
        T = sol.period()
        tasks = sol.tasks_per_period(T)
        msgs = sol.messages_per_period(T)
        assert all(isinstance(v, int) for v in tasks.values())
        assert all(isinstance(v, int) for v in msgs.values())

    def test_wrong_period_detected(self, star4):
        sol = solve_master_slave(star4, "M")
        with pytest.raises(SteadyStateError):
            sol.tasks_per_period(1)  # 1 is not a multiple of the period


class TestSimplify:
    def test_cycle_removed_preserving_invariants(self):
        g = Platform("loop")
        g.add_node("M", 1)
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_edge("M", "A", 1)
        g.add_bidirectional_edge("A", "B", 1)
        # hand-build: M sends 1/2 to A; A and B circulate junk at rate 1/4
        sol = SteadyStateSolution(
            platform=g, problem="master-slave", throughput=Fraction(3, 2),
            alpha={"M": Fraction(1), "A": Fraction(1, 2)},
            s={
                ("M", "A"): Fraction(1, 2),
                ("A", "B"): Fraction(1, 4),
                ("B", "A"): Fraction(1, 4),
            },
            source="M",
        )
        sol.simplify()
        assert sol.s[("A", "B")] == 0
        assert sol.s[("B", "A")] == 0
        assert sol.s[("M", "A")] == Fraction(1, 2)
        sol.verify()

    def test_simplify_noop_for_scatter(self, fig2):
        from repro.core.scatter import solve_scatter

        sol = solve_scatter(fig2, "P0", ["P5", "P6"])
        before = dict(sol.s)
        sol.simplify()  # problem != master-slave: untouched
        assert sol.s == before


class TestSummary:
    def test_summary_mentions_throughput(self, star4):
        sol = solve_master_slave(star4, "M")
        text = sol.summary()
        assert "throughput" in text
        assert "3/2" in text


# every steady-state answer kind on one platform, with the port model it
# records and is verified under
ONE_PORT = ("one-port", 1)
ANSWERS = {
    "master-slave": (lambda g: solve_master_slave(g, "R0"), ONE_PORT),
    "multiport": (lambda g: solve_master_slave(g, "R0", "multiport", 2),
                  ("multiport", 2)),
    "send-or-receive": (
        lambda g: solve_master_slave(g, "R0", "send-or-receive"),
        ("send-or-receive", 1)),
    "scatter": (lambda g: solve_scatter(g, "R0", ["R1", "R2", "R3"]),
                ONE_PORT),
    "gather": (lambda g: solve_gather(g, "R0", ["R1", "R2", "R3"]),
               ONE_PORT),
    "all-to-all": (lambda g: solve_all_to_all_solution(
        g, ["R0", "R1", "R2", "R3"]), ONE_PORT),
}
COMMODITY_ANSWERS = ("scatter", "gather", "all-to-all")


def _answer(kind):
    solve, model = ANSWERS[kind]
    sol = solve(gen.random_connected(6, seed=1))
    assert (sol.port_model, sol.ports) == model
    sol.verify()
    assert sol.throughput > 0
    return sol, model


class TestVerifyCertifiesThroughput:
    """``verify`` checks the throughput it certifies: each commodity leaves
    its origin and reaches its sink at net rate ``throughput``, and a
    master-slave answer computes ``throughput`` tasks per time-unit."""

    @pytest.mark.parametrize("factor", [Fraction(2), Fraction(1, 2)])
    @pytest.mark.parametrize("kind", sorted(ANSWERS))
    def test_a_scaled_throughput_is_refused(self, kind, factor):
        sol, model = _answer(kind)
        sol.throughput *= factor
        with pytest.raises(SteadyStateError):
            sol.verify()

    @pytest.mark.parametrize("kind", COMMODITY_ANSWERS)
    def test_a_deleted_commodity_is_refused(self, kind):
        sol, model = _answer(kind)
        gone = next(iter(sol.commodities()))
        sol.send = {key: rate for key, rate in sol.send.items()
                    if key[2] != gone}
        # the busy times follow the flows that are left, so only the
        # delivery check can notice
        sol.s = {e: Fraction(0) for e in sol.s}
        for (i, j, _k), rate in sol.send.items():
            sol.s[(i, j)] += rate * sol.platform.c(i, j)
        sol.check_edge_occupation()
        with pytest.raises(SteadyStateError, match=f"commodity {gone} "):
            sol.verify()

    def test_a_commodity_nobody_asked_for_is_refused(self):
        sol, model = _answer("scatter")
        (i, j, k), rate = next(iter(sol.send.items()))
        del sol.send[(i, j, k)]
        sol.send[(i, j, "R5")] = rate
        with pytest.raises(SteadyStateError, match="unknown commodity"):
            sol.verify()

    def test_busy_time_no_commodity_explains_is_refused(self):
        """An edge no commodity crosses is expected idle: busy time put
        on it is refused, not just on edges that carry a flow."""
        sol, _ = _answer("scatter")
        assert not any((i, j) == ("R1", "R0") for (i, j, _k) in sol.send)
        sol.s[("R1", "R0")] = Fraction(1, 100)
        with pytest.raises(SteadyStateError,
                           match=r"s\[R1->R0\] = 1/100 but sum"):
            sol.verify()

    @pytest.mark.parametrize("kind", COMMODITY_ANSWERS)
    def test_every_idle_edge_is_checked(self, kind):
        sol, _ = _answer(kind)
        used = {(i, j) for (i, j, _k) in sol.send}
        for e in [e for e in sol.s if e not in used]:
            assert not sol.s[e]
            sol.s[e] = Fraction(1, 100)
            with pytest.raises(SteadyStateError, match="rates gives 0"):
                sol.check_edge_occupation()
            sol.s[e] = Fraction(0)

    def test_malformed_targets_are_an_invariant_failure(self):
        sol, model = _answer("scatter")
        sol.targets = ()
        with pytest.raises(SteadyStateError, match="at least one target"):
            sol.verify()


class TestCommodityEndpoints:
    def test_one_rule_per_problem(self):
        assert commodity_endpoints("scatter", "S", ["A", "B"]) == {
            "A": ("S", "A"), "B": ("S", "B")}
        assert commodity_endpoints("gather", "S", ["A", "B"]) == {
            "A": ("A", "S"), "B": ("B", "S")}
        assert commodity_endpoints("all-to-all", None, ["A", "B", "C"]) == {
            "A->B": ("A", "B"), "A->C": ("A", "C"), "B->A": ("B", "A"),
            "B->C": ("B", "C"), "C->A": ("C", "A"), "C->B": ("C", "B")}

    def test_solutions_read_their_endpoints_from_it(self):
        for kind in COMMODITY_ANSWERS:
            sol, _ = _answer(kind)
            assert sol.commodities() == commodity_endpoints(
                sol.problem, sol.source, sol.targets)
            assert {k for (_, _, k) in sol.send} <= set(sol.commodities())

    @pytest.mark.parametrize("problem,source,targets", [
        ("scatter", "S", []),
        ("scatter", "S", ["A", "A"]),
        ("scatter", "S", ["A", "S"]),
        ("gather", "S", ["S"]),
        ("all-to-all", None, ["A"]),
        ("all-to-all", None, ["A", "B", "A"]),
    ])
    def test_bad_target_lists_are_refused(self, problem, source, targets):
        with pytest.raises(PlatformError):
            commodity_endpoints(problem, source, targets)
