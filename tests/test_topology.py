"""Topology-discovery tests (section 5.3)."""

from fractions import Fraction

import pytest

from repro.core.master_slave import ntask
from repro.platform import generators as gen
from repro.platform.graph import Platform
from repro.platform.topology import (
    alnem_graph_view,
    complete_graph_view,
    env_tree_view,
    probe_cost,
    probe_path,
    probes_interfere,
    view_quality,
)


class TestProbes:
    def test_probe_cost_is_shortest_path(self, fig2):
        assert probe_cost(fig2, "P0", "P5") == 2  # P0->P1->P5
        assert probe_cost(fig2, "P0", "P4") == 4  # P0->Px->P3->P4(c=2)

    def test_probe_unreachable(self, fig2):
        assert probe_cost(fig2, "P5", "P0") is None

    def test_interference_shared_edge(self, fig2):
        # both routes to P3 start at P0; the shared sender interferes
        assert probes_interfere(fig2, ("P0", "P5"), ("P0", "P6"))

    def test_no_interference_disjoint(self):
        g = Platform("disj")
        for n in ("A", "B", "C", "D"):
            g.add_node(n, 1)
        g.add_edge("A", "B", 1)
        g.add_edge("C", "D", 1)
        assert not probes_interfere(g, ("A", "B"), ("C", "D"))


class TestViews:
    def test_env_tree_is_subgraph_with_true_costs(self, grid33):
        tree = env_tree_view(grid33, "G0_0")
        assert tree.num_edges == tree.num_nodes - 1
        for spec in tree.edges():
            assert grid33.has_edge(spec.src, spec.dst)

    def test_env_tree_reaches_everyone(self, grid33):
        tree = env_tree_view(grid33, "G0_0")
        assert tree.is_connected_from("G0_0")

    def test_alnem_superset_of_env_tree(self, grid33):
        tree = env_tree_view(grid33, "G0_0")
        alnem = alnem_graph_view(grid33)
        for spec in tree.edges():
            assert alnem.has_edge(spec.src, spec.dst)

    def test_alnem_subgraph_of_truth(self, grid33):
        alnem = alnem_graph_view(grid33)
        for spec in alnem.edges():
            assert grid33.has_edge(spec.src, spec.dst)
            assert grid33.c(spec.src, spec.dst) == spec.c

    def test_complete_view_costs_are_path_costs(self, fig2):
        complete = complete_graph_view(fig2)
        assert complete.c("P0", "P4") == 4

    def test_view_ordering_on_many_platforms(self):
        """env-tree <= alnem <= truth (subgraph monotonicity)."""
        for seed in (1, 5, 9, 13):
            g = gen.random_connected(8, seed=seed)
            q = view_quality(g, "R0")
            assert q["env-tree"] <= q["alnem"] <= q["truth"], f"seed {seed}"

    def test_multipath_platform_hurts_tree_view(self):
        """A platform whose extra capacity lives in parallel routes makes
        the tree view strictly pessimistic."""
        g = Platform("multi")
        g.add_node("M", 1)
        for n in ("A", "B", "W1", "W2"):
            g.add_node(n, 1)
        # two relays, each reaching both workers; tree keeps one parent
        g.add_edge("M", "A", 1)
        g.add_edge("M", "B", 1)
        g.add_edge("A", "W1", 1)
        g.add_edge("A", "W2", 2)
        g.add_edge("B", "W2", 1)
        g.add_edge("B", "W1", 2)
        q = view_quality(g, "M")
        assert q["env-tree"] <= q["truth"]
        assert q["alnem"] >= q["env-tree"]

    def test_scheduling_on_view_is_safe(self, grid33):
        """A plan made on the (pessimistic) tree view executes at its
        planned rate on the true platform — the ENV safety property."""
        from repro.core.master_slave import solve_master_slave
        from repro.dynamic.adaptive import realized_rate

        tree = env_tree_view(grid33, "G0_0")
        plan = solve_master_slave(tree, "G0_0")
        achieved = realized_rate(plan, grid33)
        assert achieved == plan.throughput
