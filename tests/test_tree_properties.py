"""Hypothesis property tests for arborescence packing and broadcast."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.broadcast import broadcast_lp_bound, solve_broadcast
from repro.core.trees import enumerate_arborescences, pack_trees, tree_throughput
from repro.platform import generators as gen
from tree_ports import packing_loads

SLOW = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_broadcast_platform(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=5000))
    return gen.random_connected(
        n, seed=seed, extra_edge_prob=draw(st.sampled_from([0.0, 0.2]))
    )


class TestPackingProperties:
    @settings(**SLOW)
    @given(small_broadcast_platform())
    def test_trees_are_arborescences(self, platform):
        trees = enumerate_arborescences(platform, "R0", limit=20_000)
        nodes = set(platform.nodes()) - {"R0"}
        for tree in trees[:50]:
            heads = [v for (_, v) in tree]
            assert len(heads) == len(set(heads))
            assert set(heads) == nodes

    @settings(**SLOW)
    @given(small_broadcast_platform())
    def test_packing_beats_every_single_tree(self, platform):
        trees = enumerate_arborescences(platform, "R0", limit=20_000)
        if not trees or not trees[0]:
            return
        tp, _ = pack_trees(platform, trees)
        best_single = max(tree_throughput(platform, t) for t in trees)
        assert tp >= best_single

    @settings(**SLOW)
    @given(small_broadcast_platform())
    def test_broadcast_achievability_property(self, platform):
        """[5]'s theorem as a universally quantified property."""
        sol = solve_broadcast(platform, "R0")
        assert sol.achieved == broadcast_lp_bound(platform, "R0")

    @settings(**SLOW)
    @given(small_broadcast_platform())
    def test_packing_port_feasibility(self, platform):
        sol = solve_broadcast(platform, "R0")
        send_busy, recv_busy = packing_loads(platform, sol.packing)
        assert all(v <= 1 for v in send_busy.values())
        assert all(v <= 1 for v in recv_busy.values())
