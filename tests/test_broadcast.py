"""Broadcast tests: the max-rule LP bound is ACHIEVABLE (§4.3 via [5]).

The headline theorem: for series of broadcasts — contrary to multicast —
the optimistic LP bound is attained by an arborescence packing.  We assert
``packing == max-rule LP bound`` exactly: the packing comes from column
generation, the bound from the max-rule LP, an independent witness.
"""

from fractions import Fraction

import pytest

from repro.core.broadcast import (
    broadcast_lp_bound,
    edmonds_cut_bound,
    solve_broadcast,
    solve_reduce,
)
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError


def broadcast_platforms():
    return [
        ("chain", gen.chain(4, link_c=1), "N0"),
        ("fig2", gen.paper_figure2_multicast(), "P0"),
        ("grid2x3", gen.grid2d(2, 3, seed=1), "G0_0"),
        ("star", gen.star(3, worker_w=[1, 1, 1], link_c=[1, 2, 2]), "M"),
        ("random6", gen.random_connected(6, seed=17,
                                         extra_edge_prob=0.15), "R0"),
        ("tree", gen.binary_tree(2, seed=9), "T0"),
    ]


class TestAchievability:
    @pytest.mark.parametrize(
        "name,platform,source", broadcast_platforms(),
        ids=[p[0] for p in broadcast_platforms()],
    )
    def test_packing_attains_lp_bound(self, name, platform, source):
        sol = solve_broadcast(platform, source)
        assert sol.achieved == broadcast_lp_bound(platform, source)
        assert sol.optimal

    def test_chain_throughput_value(self):
        g = gen.chain(4, link_c=1)
        sol = solve_broadcast(g, "N0")
        # pipeline: every node sends/receives once per instance at c=1
        assert sol.lp_bound == 1

    def test_star_value(self):
        g = gen.star(3, worker_w=[1, 1, 1], link_c=[1, 2, 2])
        sol = solve_broadcast(g, "M")
        # no worker-to-worker links: M sends every instance 3 times
        assert sol.lp_bound == Fraction(1, 5)

    def test_packing_rates_positive_and_spanning(self, fig2):
        sol = solve_broadcast(fig2, "P0")
        nodes = set(fig2.nodes()) - {"P0"}
        for tree, rate in sol.packing.items():
            assert rate > 0
            heads = {v for (_, v) in tree}
            assert heads == nodes  # spanning arborescence

    def test_period_is_integer(self, fig2):
        sol = solve_broadcast(fig2, "P0")
        T = sol.period()
        for rate in sol.packing.values():
            assert (rate * T).denominator == 1


class TestBounds:
    def test_edmonds_upper_bounds_lp_on_unit_costs(self):
        """With all c = 1 the one-port model is weaker than edge capacity,
        so LP <= min-cut bound."""
        g = gen.chain(4, link_c=1)
        assert broadcast_lp_bound(g, "N0") <= edmonds_cut_bound(g, "N0")

    def test_edmonds_single_node_raises(self):
        g = Platform("solo")
        g.add_node("A", 1)
        with pytest.raises(PlatformError):
            edmonds_cut_bound(g, "A")

    def test_lp_bound_monotone_in_bandwidth(self):
        g1 = gen.chain(3, link_c=2)
        g2 = gen.chain(3, link_c=1)
        assert broadcast_lp_bound(g1, "N0") <= broadcast_lp_bound(g2, "N0")

    def test_broadcast_needs_receiver(self):
        g = Platform("solo")
        g.add_node("A", 1)
        with pytest.raises(PlatformError):
            broadcast_lp_bound(g, "A")


class TestReduce:
    def test_reduce_mirrors_broadcast(self):
        g = gen.grid2d(2, 2, seed=4)  # symmetric bidirectional grid
        b = solve_broadcast(g, "G0_0")
        r = solve_reduce(g, "G0_0")
        assert r.lp_bound == b.lp_bound
        assert r.achieved == b.achieved

    def test_reduce_trees_point_into_root(self):
        g = gen.grid2d(2, 2, seed=4)
        r = solve_reduce(g, "G0_0")
        for tree, rate in r.packing.items():
            # reversed arborescence: the root receives, never relays out
            assert all(g.has_edge(u, v) for (u, v) in tree)
            heads = [u for (u, _) in tree]  # senders
            assert "G0_0" not in heads

    def test_reduce_on_asymmetric_chain(self):
        g = Platform("updown")
        for k in range(3):
            g.add_node(f"N{k}", 1)
        g.add_edge("N1", "N0", 2)  # towards the root
        g.add_edge("N2", "N1", 2)
        r = solve_reduce(g, "N0")
        assert r.lp_bound == Fraction(1, 2)
        assert r.achieved == Fraction(1, 2)
