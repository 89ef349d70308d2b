"""DAG-collection tests (section 4.2's mixed data/task parallelism)."""

from fractions import Fraction

import pytest

from repro._rational import INF
from repro.core.dag import (
    BEGIN,
    DagSolution,
    TaskGraph,
    TaskGraphError,
    solve_dag_collection,
)
from repro.core.master_slave import solve_master_slave
from repro.platform import generators as gen
from repro.platform.graph import Platform


class TestTaskGraphConstruction:
    def test_duplicate_type(self):
        dag = TaskGraph()
        dag.add_type("a", 1)
        with pytest.raises(TaskGraphError):
            dag.add_type("a", 2)

    def test_unknown_type_in_file(self):
        dag = TaskGraph()
        dag.add_type("a", 1)
        with pytest.raises(TaskGraphError):
            dag.add_file("a", "b", 1)

    def test_cycle_detected(self):
        dag = TaskGraph()
        dag.add_type("a", 1)
        dag.add_type("b", 1)
        dag.add_file("a", "b", 1)
        with pytest.raises(TaskGraphError):
            dag.add_file("b", "a", 1)

    def test_negative_work(self):
        dag = TaskGraph()
        with pytest.raises(TaskGraphError):
            dag.add_type("a", -1)

    def test_zero_size_file(self):
        dag = TaskGraph()
        dag.add_type("a", 1)
        dag.add_type("b", 1)
        with pytest.raises(TaskGraphError):
            dag.add_file("a", "b", 0)

    def test_roots_and_neighbours(self):
        dag = TaskGraph.chain([1, 2, 3], [1, 1])
        assert dag.predecessors("t1") == ["t0"]
        assert dag.successors("t1") == ["t2"]
        assert BEGIN in dag.types

    def test_double_anchor_rejected(self):
        dag = TaskGraph.single_task()
        with pytest.raises(TaskGraphError):
            dag.anchor_at_master()

    def test_fork_join_shape(self):
        dag = TaskGraph.fork_join(3)
        assert len(dag.real_types()) == 5  # fork + 3 branches + join
        assert dag.predecessors("join") == [f"branch{b}" for b in range(3)]


class TestDegenerateEqualsSSMS:
    """A single unit-work task with a unit input file IS master-slave."""

    def test_star(self, star4):
        dag = TaskGraph.single_task(work=1, input_size=1)
        ds = solve_dag_collection(star4, dag, "M")
        ms = solve_master_slave(star4, "M")
        assert ds.throughput == ms.throughput

    def test_fig1(self, fig1):
        dag = TaskGraph.single_task()
        ds = solve_dag_collection(fig1, dag, "P1")
        assert ds.throughput == solve_master_slave(fig1, "P1").throughput

    def test_scaled_task(self, star4):
        """work=2 halves every node's rate: throughput exactly halves
        relative to the same LP with unit work only when communication
        is not binding; in general it is at most half... assert the
        trivially valid direction."""
        heavy = solve_dag_collection(
            star4, TaskGraph.single_task(work=2, input_size=1), "M"
        )
        light = solve_dag_collection(
            star4, TaskGraph.single_task(work=1, input_size=1), "M"
        )
        assert heavy.throughput <= light.throughput


class TestPipelines:
    def test_chain_on_chain(self):
        g = gen.chain(3, node_w=1, link_c=1)
        dag = TaskGraph.chain([1, 1, 1], [1, 1])
        sol = solve_dag_collection(g, dag, "N0")
        assert sol.throughput == 1  # perfect pipeline
        sol.verify()

    def test_chain_collapses_on_single_node(self):
        g = Platform("solo")
        g.add_node("M", 1)
        dag = TaskGraph.chain([1, 2], [1])
        sol = solve_dag_collection(g, dag, "M")
        # one node does all 3 units of work per instance
        assert sol.throughput == Fraction(1, 3)

    def test_fork_join_throughput(self, star4):
        dag = TaskGraph.fork_join(2, branch_work=2)
        sol = solve_dag_collection(star4, dag, "M")
        sol.verify()
        assert sol.throughput > 0
        total_work = sum(dag.types.values())
        cap = sum(
            (Fraction(1) / star4.node(n).w for n in star4.compute_nodes()),
            start=Fraction(0),
        )
        assert sol.throughput <= cap / total_work

    def test_heavy_files_throttle(self):
        g = gen.chain(2, node_w=1, link_c=1)
        cheap = TaskGraph.chain([1, 1], [1])
        bulky = TaskGraph.chain([1, 1], [10])
        tp_cheap = solve_dag_collection(g, cheap, "N0").throughput
        tp_bulky = solve_dag_collection(g, bulky, "N0").throughput
        assert tp_bulky <= tp_cheap

    def test_forwarders_cannot_execute(self):
        from repro._rational import INF

        g = Platform("fw")
        g.add_node("M", 1)
        g.add_node("F", INF)
        g.add_node("W", 1)
        g.add_edge("M", "F", 1)
        g.add_edge("F", "W", 1)
        dag = TaskGraph.single_task()
        sol = solve_dag_collection(g, dag, "M")
        assert all(n != "F" for (n, t) in sol.cons)
        assert sol.throughput == 2

    def test_requires_anchor(self, star4):
        dag = TaskGraph()
        dag.add_type("t", 1)
        with pytest.raises(TaskGraphError):
            solve_dag_collection(star4, dag, "M")

    def test_verify_catches_tampering(self, star4):
        dag = TaskGraph.single_task()
        sol = solve_dag_collection(star4, dag, "M")
        key = next(iter(sol.cons))
        sol.cons[key] = sol.cons[key] * 2
        with pytest.raises(TaskGraphError):
            sol.verify()


class TestVerifyPins:
    """``verify`` refuses an answer that breaks one pin or one port row of
    its own LP, even when everything else holds."""

    FILE = (BEGIN, "task")

    @staticmethod
    def pair():
        g = Platform("pair")
        g.add_node("M", Fraction(1, 2))
        g.add_node("W", 1)
        g.add_edge("M", "W", 1)
        g.add_edge("W", "M", 1)
        return g

    def forged(self, cons, flow=(), affinity=None):
        return DagSolution(
            platform=self.pair(), dag=TaskGraph.single_task(), master="M",
            throughput=Fraction(1), cons=dict(cons), flow=dict(flow),
            affinity=affinity)

    def test_a_forwarder_executes_nothing(self):
        g = Platform("M-F-X")
        g.add_node("M", 1)
        g.add_node("F", INF)
        g.add_node("X", 1)
        for a, b in (("M", "F"), ("F", "X")):
            g.add_edge(a, b, 1)
            g.add_edge(b, a, 1)
        sol = solve_dag_collection(g, TaskGraph.single_task(1, 1), "M")
        sol.verify()
        moved = sol.cons.pop(("X", "task"))
        sol.cons[("F", "task")] = moved
        sol.flow = {key: rate for key, rate in sol.flow.items()
                    if key[:2] != ("F", "X")}
        with pytest.raises(TaskGraphError, match="forwarder F executes"):
            sol.verify()

    def test_begin_runs_on_the_master_only(self):
        honest = self.forged({("M", BEGIN): 1, ("W", "task"): 1},
                             {("M", "W", self.FILE): 1})
        honest.verify()
        forged = self.forged({("W", BEGIN): 1, ("W", "task"): 1})
        with pytest.raises(TaskGraphError, match="not the master"):
            forged.verify()

    def test_a_forbidden_pairing_is_refused(self):
        forged = self.forged({("M", BEGIN): 1, ("W", "task"): 1},
                             {("M", "W", self.FILE): 1},
                             affinity={("W", "task"): INF})
        with pytest.raises(TaskGraphError, match="forbidden"):
            forged.verify()

    def test_a_negative_execution_rate_is_refused(self):
        # M computes 2 tasks per time-unit at w = 1/2 and "receives" one
        # back from W, which "computes" -1: every balance holds
        forged = self.forged(
            {("M", BEGIN): 1, ("M", "task"): 2, ("W", "task"): -1},
            {("M", "W", self.FILE): -1})
        with pytest.raises(TaskGraphError, match="at rate -1"):
            forged.verify()

    def test_a_negative_transfer_rate_is_refused(self):
        # a negative circulation M -> W -> M balances at both ends
        forged = self.forged(
            {("M", BEGIN): 1, ("M", "task"): 1},
            {("M", "W", self.FILE): -1, ("W", "M", self.FILE): -1})
        with pytest.raises(TaskGraphError, match="at -1"):
            forged.verify()

    @staticmethod
    def fan_out():
        """M feeds W1 and W2 over links of cost 1: each link busy 3/4
        leaves M's send port at 3/2."""
        g = gen.star(2, master_w=INF, worker_w=[1, 1], link_c=[1, 1])
        rate = Fraction(3, 4)
        return g, {("M", w): rate for w in ("W1", "W2")}, {
            ("W1", "task"): rate, ("W2", "task"): rate}

    @staticmethod
    def fan_in():
        """M reaches W through forwarders A and B: M's send port is full
        (1/2 + 1/2) and W's receive port is at 3/4 + 3/4 = 3/2."""
        g = Platform("fan-in")
        for node, w in (("M", INF), ("A", INF), ("B", INF),
                        ("W", Fraction(1, 2))):
            g.add_node(node, w)
        for a, b, c in (("M", "A", Fraction(1, 2)), ("M", "B", Fraction(1, 2)),
                        ("A", "W", Fraction(3, 4)), ("B", "W", Fraction(3, 4))):
            g.add_edge(a, b, c)
        return g, {(e.src, e.dst): 1 for e in g.edges()}, {("W", "task"): 2}

    @pytest.mark.parametrize("case,refusal", [
        ("fan_out", "M send-port 3/2 > 1"),
        ("fan_in", "W recv-port 3/2 > 1"),
    ])
    def test_a_port_over_budget_is_refused(self, case, refusal):
        g, links, cons = getattr(self, case)()
        throughput = sum(cons.values())
        forged = DagSolution(
            platform=g, dag=TaskGraph.single_task(), master="M",
            throughput=throughput, cons={("M", BEGIN): throughput, **cons},
            flow={(i, j, self.FILE): rate for (i, j), rate in links.items()})
        with pytest.raises(TaskGraphError, match=refusal):
            forged.verify()
