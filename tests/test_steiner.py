"""Tests for the polynomial multicast-tree heuristics."""

from fractions import Fraction

import pytest

from repro.core.multicast import solve_multicast
from repro.core.steiner import (
    candidate_trees,
    cheapest_insertion_tree,
    heuristic_multicast_packing,
    shortest_path_tree,
)
from repro.core.trees import tree_throughput
from repro.platform import generators as gen
from repro.platform.graph import Platform


class TestShortestPathTree:
    def test_chain(self):
        g = gen.chain(3, link_c=1)
        tree = shortest_path_tree(g, "N0", ["N2"])
        assert tree == frozenset({("N0", "N1"), ("N1", "N2")})

    def test_fig2(self, fig2):
        tree = shortest_path_tree(fig2, "P0", ["P5", "P6"])
        assert tree is not None
        heads = {v for _, v in tree}
        assert {"P5", "P6"} <= heads
        assert len(heads) == len(tree)  # one parent each: an arborescence

    def test_unreachable_target(self):
        g = Platform("gap")
        g.add_node("A", 1)
        g.add_node("B", 1)
        assert shortest_path_tree(g, "A", ["B"]) is None

    def test_prunes_non_terminals(self, fig2):
        tree = shortest_path_tree(fig2, "P0", ["P5"])
        heads = {v for _, v in tree}
        assert heads == {"P1", "P5"} or heads == {"P5"} or "P5" in heads
        # no leaf that is not a terminal
        out_deg = {}
        for (u, v) in tree:
            out_deg[u] = out_deg.get(u, 0) + 1
        for (u, v) in tree:
            if out_deg.get(v, 0) == 0:
                assert v == "P5"


class TestInsertionTree:
    def test_matches_spt_on_chain(self):
        g = gen.chain(4, link_c=1)
        t1 = cheapest_insertion_tree(g, "N0", ["N3"])
        t2 = shortest_path_tree(g, "N0", ["N3"])
        assert t1 == t2

    def test_insertion_can_share_relays(self):
        """Insertion reuses the partial tree; SPT pays both full paths."""
        g = Platform("share")
        for n in ("S", "R", "A", "B"):
            g.add_node(n, 1)
        g.add_edge("S", "R", 5)
        g.add_edge("R", "A", 1)
        g.add_edge("R", "B", 1)
        tree = cheapest_insertion_tree(g, "S", ["A", "B"])
        assert tree == frozenset({("S", "R"), ("R", "A"), ("R", "B")})

    def test_explicit_order(self, fig2):
        t_ab = cheapest_insertion_tree(fig2, "P0", ["P5", "P6"],
                                       order=["P5", "P6"])
        t_ba = cheapest_insertion_tree(fig2, "P0", ["P5", "P6"],
                                       order=["P6", "P5"])
        assert t_ab is not None and t_ba is not None

    def test_unreachable(self):
        g = Platform("gap")
        g.add_node("A", 1)
        g.add_node("B", 1)
        assert cheapest_insertion_tree(g, "A", ["B"]) is None


class TestHeuristicPacking:
    def test_pool_is_nonempty_and_valid(self, fig2):
        pool = candidate_trees(fig2, "P0", ["P5", "P6"])
        assert pool
        for tree in pool:
            heads = {v for _, v in tree}
            assert {"P5", "P6"} <= heads
            assert len(heads) == len(tree)

    def test_sandwiched_between_single_tree_and_optimum(self, fig2):
        analysis = solve_multicast(fig2, "P0", ["P5", "P6"])
        heuristic, packing = heuristic_multicast_packing(
            fig2, "P0", ["P5", "P6"]
        )
        pool = candidate_trees(fig2, "P0", ["P5", "P6"])
        best_single = max(tree_throughput(fig2, t) for t in pool)
        assert best_single <= heuristic <= analysis.tree_optimal

    def test_heuristic_hits_optimum_on_fig2(self, fig2):
        """The rotation pool contains the a/b trees, so the packing
        reaches the true 3/4 optimum polynomially on this instance."""
        heuristic, _ = heuristic_multicast_packing(fig2, "P0", ["P5", "P6"])
        assert heuristic == Fraction(3, 4)

    def test_scales_to_platforms_beyond_enumeration(self):
        """Runs on a platform where exhaustive enumeration would blow up."""
        g = gen.grid2d(4, 4, seed=2)
        targets = ["G3_3", "G0_3", "G3_0"]
        heuristic, packing = heuristic_multicast_packing(g, "G0_0", targets)
        assert heuristic > 0
        assert len(packing) >= 1

    def test_empty_pool_when_unreachable(self):
        g = Platform("gap")
        g.add_node("A", 1)
        g.add_node("B", 1)
        tp, packing = heuristic_multicast_packing(g, "A", ["B"])
        assert tp == 0 and packing == {}
