"""Arborescence enumeration and packing tests (§4.3 machinery)."""

from fractions import Fraction

import pytest

from repro.core.activities import port_groups
from repro.core.trees import (
    TreeEnumerationLimit,
    _solve_packing,
    enumerate_arborescences,
    pack_trees,
    tree_throughput,
)
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError
from tree_ports import packing_loads, port_times


def diamond():
    g = Platform("diamond")
    for n in "SABT":
        g.add_node(n, 1)
    g.add_edge("S", "A", 1)
    g.add_edge("S", "B", 1)
    g.add_edge("A", "T", 1)
    g.add_edge("B", "T", 1)
    return g


class TestEnumeration:
    def test_chain_single_tree(self):
        g = gen.chain(3, link_c=1)
        trees = enumerate_arborescences(g, "N0")
        assert len(trees) == 1
        assert trees[0] == frozenset({("N0", "N1"), ("N1", "N2")})

    def test_diamond_spanning(self):
        trees = enumerate_arborescences(diamond(), "S")
        # T's parent is A or B; both A and B must be reached from S
        assert len(trees) == 2

    def test_diamond_steiner_to_t(self):
        trees = enumerate_arborescences(diamond(), "S", terminals=["T"])
        # two minimal paths, each a Steiner tree
        assert len(trees) == 2
        for t in trees:
            assert len(t) == 2

    def test_minimality_prunes_leaves(self):
        trees = enumerate_arborescences(diamond(), "S", terminals=["A"])
        assert trees == [frozenset({("S", "A")})]

    def test_fig2_multicast_trees(self, fig2):
        trees = enumerate_arborescences(
            fig2, "P0", terminals=["P5", "P6"]
        )
        # the seven structurally distinct Steiner arborescences:
        # {a-route, b-route} x {P5, P6} combinations plus the three trees
        # funnelling both targets through P3->P4
        assert len(trees) == 7
        for t in trees:
            heads = [v for (_, v) in t]
            assert len(heads) == len(set(heads))  # in-degree <= 1
            assert "P5" in heads and "P6" in heads

    def test_root_cannot_be_terminal(self, fig2):
        with pytest.raises(PlatformError):
            enumerate_arborescences(fig2, "P0", terminals=["P0"])

    def test_limit_enforced(self):
        g = gen.grid2d(3, 3, seed=0)
        with pytest.raises(TreeEnumerationLimit):
            enumerate_arborescences(g, "G0_0", limit=3)

    def test_empty_terminals(self):
        g = gen.chain(2)
        assert enumerate_arborescences(g, "N0", terminals=[]) == [frozenset()]


class TestTreeMetrics:
    def test_throughput_is_one_over_the_busiest_port(self, fig2):
        for g, root, terminals in ((diamond(), "S", None),
                                   (fig2, "P0", ["P5", "P6"]),
                                   (gen.grid2d(2, 3, seed=1), "G0_0", None)):
            for tree in enumerate_arborescences(g, root, terminals):
                send, recv = port_times(g, tree)
                busiest = max(list(send.values()) + list(recv.values()))
                assert tree_throughput(g, tree) == 1 / busiest

    def test_a_node_with_two_parents_is_refused(self):
        g = diamond()
        bad = frozenset({("S", "A"), ("S", "B"), ("A", "T"), ("B", "T")})
        with pytest.raises(PlatformError, match="T has two parents"):
            tree_throughput(g, bad)
        good = frozenset({("S", "A"), ("S", "B"), ("A", "T")})
        with pytest.raises(PlatformError, match="T has two parents"):
            pack_trees(g, [good, bad])

    def test_tree_throughput(self):
        g = diamond()
        tree = frozenset({("S", "A"), ("S", "B"), ("A", "T")})
        # S's send port needs 2 time-units per instance
        assert tree_throughput(g, tree) == Fraction(1, 2)

    def test_empty_tree_throughput(self):
        assert tree_throughput(diamond(), frozenset()) == 0


class TestPacking:
    def test_single_tree_pack(self):
        g = gen.chain(3, link_c=1)
        trees = enumerate_arborescences(g, "N0")
        tp, rates = pack_trees(g, trees)
        assert tp == 1  # each node sends/receives once per instance at c=1
        assert sum(rates.values(), start=Fraction(0)) == 1

    def test_diamond_packing_cannot_beat_forced_double_send(self):
        """In the pure diamond S must send every instance twice (A and B
        have no other parent), so packing equals the single-tree rate."""
        g = diamond()
        trees = enumerate_arborescences(g, "S")
        single_best = max(tree_throughput(g, t) for t in trees)
        tp, _ = pack_trees(g, trees)
        assert tp == single_best == Fraction(1, 2)

    def test_packing_beats_single_tree_with_expensive_relays(self):
        """Fractional packing strictly beats the best single tree.

        S broadcasts to A and B; cheap direct links (c=1), expensive
        relay links A<->B (c=3).  Chains are throttled by the relay
        (rate 1/3), the double-send tree by S's port (rate 1/2); mixing
        x(chain-via-A) = x(chain-via-B) = 1/6 and x(double-send) = 1/3
        yields 2/3 (hand-verified: S's port and both receive ports
        saturate exactly).
        """
        g = Platform("relay3")
        for n in "SAB":
            g.add_node(n, 1)
        g.add_edge("S", "A", 1)
        g.add_edge("S", "B", 1)
        g.add_edge("A", "B", 3)
        g.add_edge("B", "A", 3)
        trees = enumerate_arborescences(g, "S")
        single_best = max(tree_throughput(g, t) for t in trees)
        tp, rates = pack_trees(g, trees)
        assert single_best == Fraction(1, 2)
        assert tp == Fraction(2, 3)
        assert len(rates) >= 2  # genuinely uses several trees

    def test_empty_pack(self):
        tp, rates = pack_trees(diamond(), [])
        assert tp == 0 and rates == {}

    def test_packing_respects_ports(self):
        g = diamond()
        trees = enumerate_arborescences(g, "S")
        tp, rates = pack_trees(g, trees)
        send_busy, recv_busy = packing_loads(g, rates)
        assert all(v <= 1 for v in send_busy.values())
        assert all(v <= 1 for v in recv_busy.values())

    def test_one_row_per_loaded_port_group(self, fig2):
        """The master has one ``<=`` row per port group that a pooled tree
        loads and none for an idle group; each row sums the pooled
        trees' port times."""
        for g, root, terminals in ((diamond(), "S", ["A"]),
                                   (fig2, "P0", ["P5", "P6"]),
                                   (fig2, "P0", None)):
            trees = enumerate_arborescences(g, root, terminals)
            lp, _sol, _rates = _solve_packing(g, trees, "exact")
            rows = {c.name: c.normalized() for c in lp.constraints}
            held = set().union(*trees)
            assert len(rows) == len(lp.constraints)
            assert {name: (sense, rhs)
                    for name, (_terms, sense, rhs) in rows.items()} == {
                f"{name}[{node}]": ("<=", budget)
                for node in g.nodes()
                for name, edges, budget in port_groups(g, node)
                if held.intersection(edges)}
            times = [port_times(g, tree) for tree in trees]
            for row, (terms, _sense, _rhs) in rows.items():
                group, node = row[:-1].split("[")
                side = ("send-port", "recv-port").index(group)
                assert {x.name: coef for x, coef in terms.items()} == {
                    f"x[{k}]": t[side][node]
                    for k, t in enumerate(times) if node in t[side]}
