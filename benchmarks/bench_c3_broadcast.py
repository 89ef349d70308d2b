"""C3 — §4.3 ¶2: the broadcast max-rule bound IS achievable.

Shape: on every platform, the optimal fractional packing of spanning
arborescences (column generation) meets the max-rule LP bound *exactly* — the [5] theorem the paper
contrasts with the multicast counterexample.  The packed schedule is also
materialised and validated.
"""

from repro import (
    broadcast_lp_bound,
    generators,
    packing_to_schedule,
    solve_broadcast,
)
from repro.analysis.reporting import render_table

from conftest import report

PLATFORMS = [
    ("chain", generators.chain(4, link_c=1), "N0"),
    ("fig2", generators.paper_figure2_multicast(), "P0"),
    ("star", generators.star(3, worker_w=[1, 1, 1], link_c=[1, 2, 2]), "M"),
    ("grid2x3", generators.grid2d(2, 3, seed=1), "G0_0"),
    ("random6", generators.random_connected(6, seed=17,
                                            extra_edge_prob=0.15), "R0"),
    ("tree", generators.binary_tree(2, seed=9), "T0"),
]


def run_broadcast_suite():
    rows = []
    for name, platform, source in PLATFORMS:
        sol = solve_broadcast(platform, source)
        # the max-rule LP, not the packing's own dual bound, is the witness
        bound = broadcast_lp_bound(platform, source)
        sched = packing_to_schedule(platform, sol.packing, source)
        rows.append([
            name,
            bound,
            sol.achieved,
            "yes" if sol.achieved == bound else "NO",
            len(sol.packing),
            sched.period,
        ])
    return rows


def test_c3_broadcast_achievability(benchmark):
    rows = benchmark.pedantic(run_broadcast_suite, rounds=1, iterations=1)
    for name, bound, achieved, optimal, ntrees, period in rows:
        assert optimal == "yes", f"{name}: packing missed the LP bound"
        assert achieved == bound
    report(
        "C3: broadcast — LP bound vs achieved tree packing",
        render_table(
            ["platform", "LP bound", "packing", "bound met?", "#trees",
             "schedule period"],
            rows,
        ),
    )
