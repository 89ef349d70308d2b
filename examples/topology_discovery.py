#!/usr/bin/env python3
"""Topology discovery and scheduling on inferred views (section 5.3).

The true topology of a wide-area platform is unknowable; schedulers work
with probe-based views.  This example reconstructs the three views the
paper discusses — ENV-style tree, AlNeM-style graph, ping-based complete
graph — on a random ground-truth platform, plans SSMS on each, and shows
what the plans actually deliver when run against the truth.

Run:  python examples/topology_discovery.py
"""

from repro import generators, solve_master_slave, view_quality
from repro.dynamic.adaptive import realized_rate
from repro.platform.topology import (
    alnem_graph_view,
    complete_graph_view,
    env_tree_view,
)
from repro.analysis.reporting import render_table


def main() -> None:
    truth = generators.random_connected(9, seed=21)
    master = "R0"
    print("ground-truth platform (normally unobservable):")
    print(truth.describe())
    print()

    views = {
        "env-tree": env_tree_view(truth, master),
        "alnem": alnem_graph_view(truth),
        "complete": complete_graph_view(truth),
    }
    q = view_quality(truth, master)

    rows = []
    for name, view in views.items():
        plan = solve_master_slave(view, master)
        achieved = (
            realized_rate(plan, truth)
            if name != "complete"
            else None  # phantom edges cannot be executed literally
        )
        rows.append([
            name,
            view.num_edges,
            float(plan.throughput),
            "n/a" if achieved is None else float(achieved),
        ])
    rows.append(["truth", truth.num_edges, float(q["truth"]),
                 float(q["truth"])])

    print(render_table(
        ["view", "#edges", "planned ntask", "achieved on truth"],
        rows,
        title="planning on discovered topologies",
    ))
    print()
    print("the inferred views are subgraphs of the truth, so their plans "
          "are safe (achieved == planned);\nthe ping-based complete graph "
          "contains phantom direct links that no real transfer can use.\n"
          "for master-slave tasking the tree view is often exact — the "
          "paper's rationale for ENV (§5.3).")


if __name__ == "__main__":
    main()
