#!/usr/bin/env python3
"""Pipelined collective operations on a cluster-of-clusters platform.

The paper's motivating scenario: several clusters federated through slow
backbone links.  We compute the optimal steady-state throughput of the
pipelined collectives of sections 3-4 — scatter, gather, broadcast,
reduce — plus the master-slave tasking rate, all on the same platform.

Run:  python examples/grid_collectives.py
"""

from repro import (
    broadcast_lp_bound,
    generators,
    ntask,
    solve_broadcast,
    solve_gather,
    solve_reduce,
    solve_scatter,
)
from repro.analysis.reporting import render_table


def main() -> None:
    platform = generators.clustered(
        n_clusters=2, cluster_size=3, seed=42,
        intra_c=(1, 2), inter_c=(4, 6),
    )
    print(platform.describe())
    print()

    source = "C0_0"
    others = [n for n in platform.nodes() if n != source]

    rows = []
    rows.append(["master-slave tasking ntask(G)", ntask(platform, source)])

    scatter = solve_scatter(platform, source, others)
    rows.append(["pipelined scatter (all nodes)", scatter.throughput])

    gather = solve_gather(platform, source, others)
    rows.append(["pipelined gather (all nodes)", gather.throughput])

    broadcast = solve_broadcast(platform, source)
    rows.append(
        [f"pipelined broadcast (optimal, {len(broadcast.packing)} trees)",
         broadcast.achieved]
    )

    reduce_sol = solve_reduce(platform, source)
    rows.append(["pipelined reduce", reduce_sol.achieved])

    print(render_table(
        ["operation", "ops per time-unit"],
        rows,
        title=f"steady-state collective throughput from {source}",
    ))
    print()
    bound = broadcast_lp_bound(platform, source)
    print("broadcast max-rule LP bound:", bound,
          "— achieved exactly by the priced arborescence packing"
          if broadcast.achieved == bound else "— NOT achieved")


if __name__ == "__main__":
    main()
