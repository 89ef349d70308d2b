"""Tests for the platform model of section 2."""

from fractions import Fraction

import pytest

from repro._rational import INF
from repro.platform.graph import Platform, PlatformError
from repro.platform import generators as gen


def small_platform():
    g = Platform("t")
    g.add_node("A", 1)
    g.add_node("B", 2)
    g.add_node("C", INF)
    g.add_edge("A", "B", "1/2")
    g.add_edge("B", "C", 3)
    g.add_edge("A", "C", 1)
    return g


class TestConstruction:
    def test_counts(self):
        g = small_platform()
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_duplicate_node(self):
        g = Platform()
        g.add_node("A", 1)
        with pytest.raises(PlatformError):
            g.add_node("A", 2)

    def test_zero_weight_rejected(self):
        """w_i = 0 would permit infinitely many computations (section 2)."""
        g = Platform()
        with pytest.raises(PlatformError):
            g.add_node("A", 0)

    def test_negative_weight_rejected(self):
        g = Platform()
        with pytest.raises(PlatformError):
            g.add_node("A", -1)

    def test_infinite_weight_is_forwarder(self):
        g = Platform()
        spec = g.add_node("A", INF)
        assert not spec.can_compute
        assert spec.speed == 0

    def test_edge_to_unknown_node(self):
        g = Platform()
        g.add_node("A", 1)
        with pytest.raises(PlatformError):
            g.add_edge("A", "B", 1)

    def test_self_loop_rejected(self):
        g = Platform()
        g.add_node("A", 1)
        with pytest.raises(PlatformError):
            g.add_edge("A", "A", 1)

    def test_duplicate_edge_rejected(self):
        g = small_platform()
        with pytest.raises(PlatformError):
            g.add_edge("A", "B", 1)

    def test_zero_cost_edge_rejected(self):
        g = Platform()
        g.add_node("A", 1)
        g.add_node("B", 1)
        with pytest.raises(PlatformError):
            g.add_edge("A", "B", 0)

    def test_infinite_cost_edge_rejected(self):
        """An infinite cost means 'no link': omit the edge instead."""
        g = Platform()
        g.add_node("A", 1)
        g.add_node("B", 1)
        with pytest.raises(PlatformError):
            g.add_edge("A", "B", INF)

    def test_bidirectional_adds_two_edges(self):
        g = Platform()
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_bidirectional_edge("A", "B", 2, c_back=3)
        assert g.c("A", "B") == 2
        assert g.c("B", "A") == 3

    def test_weights_are_exact(self):
        g = small_platform()
        assert g.c("A", "B") == Fraction(1, 2)
        assert isinstance(g.w("A"), Fraction)


class TestQueries:
    def test_successors_order(self):
        g = small_platform()
        assert g.successors("A") == ["B", "C"]

    def test_predecessors(self):
        g = small_platform()
        assert g.predecessors("C") == ["B", "A"]

    def test_unknown_node_raises(self):
        g = small_platform()
        with pytest.raises(PlatformError):
            g.node("Z")
        with pytest.raises(PlatformError):
            g.successors("Z")

    def test_missing_edge_raises(self):
        g = small_platform()
        with pytest.raises(PlatformError):
            g.edge("C", "A")

    def test_compute_nodes_excludes_forwarders(self):
        g = small_platform()
        assert g.compute_nodes() == ["A", "B"]

    def test_contains_and_iter(self):
        g = small_platform()
        assert "A" in g
        assert sorted(g) == ["A", "B", "C"]

    def test_bandwidth(self):
        g = small_platform()
        assert g.edge("A", "B").bandwidth == 2


class TestAlgorithms:
    def test_reachable(self):
        g = small_platform()
        assert g.reachable_from("A") == {"A", "B", "C"}
        assert g.reachable_from("C") == {"C"}

    def test_connected(self):
        g = small_platform()
        assert g.is_connected_from("A")
        assert not g.is_connected_from("B")

    def test_depth(self):
        g = small_platform()
        assert g.depth_from("A") == 1
        chain = gen.chain(5)
        assert chain.depth_from("N0") == 4

    def test_shortest_path(self):
        g = small_platform()
        # A->C direct costs 1; A->B->C costs 1/2 + 3
        assert g.shortest_path("A", "C") == ["A", "C"]
        assert g.shortest_path("C", "A") is None

    def test_simple_paths(self):
        g = small_platform()
        paths = g.simple_paths("A", "C")
        assert sorted(paths) == [["A", "B", "C"], ["A", "C"]]

    def test_min_cut_single_edge(self):
        g = Platform()
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_edge("A", "B", 2)
        assert g.min_cut_value("A", "B") == Fraction(1, 2)

    def test_min_cut_parallel_paths(self):
        g = Platform()
        for n in "SABT":
            g.add_node(n, 1)
        g.add_edge("S", "A", 1)
        g.add_edge("A", "T", 1)
        g.add_edge("S", "B", 2)
        g.add_edge("B", "T", 2)
        # path capacities 1 and 1/2
        assert g.min_cut_value("S", "T") == Fraction(3, 2)

    def test_copy_independent(self):
        g = small_platform()
        h = g.copy()
        h.add_node("D", 1)
        assert not g.has_node("D")

    def test_copy_is_equal_spec_for_spec(self):
        g = small_platform()
        h = g.copy()
        assert h.name == g.name and g.copy("other").name == "other"
        assert h.nodes() == g.nodes()
        assert [h.node(n) for n in h.nodes()] == [g.node(n) for n in g.nodes()]
        assert h.edges() == g.edges()
        for n in g.nodes():
            assert h.successors(n) == g.successors(n)
            assert h.predecessors(n) == g.predecessors(n)

    def test_copy_shares_no_container(self):
        # the frozen specs are shared; the four containers are not, so
        # growing either side never shows on the other
        g = small_platform()
        h = g.copy()
        first = g.nodes()[0]
        h.add_node("D", 1)
        h.add_edge(first, "D", 1)
        h.add_edge("D", first, 2)
        assert not g.has_node("D") and not g.has_edge(first, "D")
        assert "D" not in g.successors(first)
        assert "D" not in g.predecessors(first)
        g.add_node("E", 3)
        g.add_edge("E", first, 1)
        assert not h.has_node("E") and not h.has_edge("E", first)
        assert "E" not in h.predecessors(first)
        assert h.num_nodes == g.num_nodes and h.num_edges == g.num_edges + 1
        # the copy still validates what is added to it
        with pytest.raises(PlatformError):
            h.add_node("D", 1)
        with pytest.raises(PlatformError):
            h.add_edge(first, "D", 1)

    def test_scale(self):
        g = small_platform()
        h = g.scale(compute=2, comm=Fraction(1, 2))
        assert h.w("A") == 2
        assert h.c("A", "B") == Fraction(1, 4)
        assert not h.node("C").can_compute

    def test_scale_validates(self):
        g = small_platform()
        with pytest.raises(PlatformError):
            g.scale(compute=0)

    def test_to_networkx(self):
        nx_g = small_platform().to_networkx()
        assert nx_g.number_of_nodes() == 3
        assert nx_g.number_of_edges() == 3

    def test_describe_mentions_forwarder(self):
        text = small_platform().describe()
        assert "forwarder" in text
