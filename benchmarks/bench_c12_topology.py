"""C12 — §5.3: scheduling on discovered topologies.

Shape: the inferred views are subgraphs of the truth, so
ntask(env-tree) <= ntask(alnem) <= ntask(truth); plans made on the tree
view are *safe* (they realise their promised rate on the real platform);
and for single-master tasking the tree view is usually exact — the
measured justification for ENV's design focus.
"""

from fractions import Fraction

from repro import generators, ntask, view_quality
from repro.core.master_slave import solve_master_slave
from repro.dynamic.adaptive import realized_rate
from repro.platform.topology import env_tree_view
from repro.analysis.reporting import render_table

from conftest import report

SEEDS = (1, 5, 9, 13, 21, 42)


def run_topology_suite():
    rows = []
    exact_tree_views = 0
    for seed in SEEDS:
        platform = generators.random_connected(8, seed=seed)
        q = view_quality(platform, "R0")
        tree = env_tree_view(platform, "R0")
        plan = solve_master_slave(tree, "R0")
        achieved = realized_rate(plan, platform)
        safe = achieved == plan.throughput
        if q["env-tree"] == q["truth"]:
            exact_tree_views += 1
        rows.append([
            f"seed {seed}",
            q["env-tree"], q["alnem"], q["truth"], q["complete"],
            "yes" if safe else "NO",
        ])
    return rows, exact_tree_views


def test_c12_topology_views(benchmark):
    rows, exact_tree_views = benchmark.pedantic(
        run_topology_suite, rounds=1, iterations=1
    )
    for label, tree, alnem, truth, complete, safe in rows:
        assert tree <= alnem <= truth, label
        assert safe == "yes", label
    # ENV's design claim: the tree view is usually exact for master-slave
    assert exact_tree_views >= len(SEEDS) // 2
    report(
        "C12: ntask under each discovered view "
        f"(tree view exact on {exact_tree_views}/{len(SEEDS)} platforms)",
        render_table(
            ["platform", "env-tree", "alnem", "truth", "complete (pings)",
             "tree plan safe?"],
            rows,
        ),
    )
