"""C8 — §5.5: dynamic adaptation to a drifting platform.

Shape: oracle >= adaptive > static in total work over drifting epochs
(averaged across seeds); the oracle is exactly optimal each epoch.  Also:
on trees, the fully local autonomous protocol equals the global LP.  Each
run re-plans on one warm solver: one solve per epoch, at most two of them
cold builds, and the table reports the pivots that cost.
"""

from fractions import Fraction

from repro import (
    TimeVaryingPlatform,
    autonomous_throughput,
    generators,
    run_adaptive,
    solve_master_slave,
)
from repro.analysis.reporting import render_table

from conftest import report

SEEDS = (3, 7, 21, 42, 99)
EPOCHS = 6


def run_dynamic_suite():
    base = generators.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                           link_c=[1, 1, 2, 3])
    totals = {"static": Fraction(0), "adaptive": Fraction(0),
              "oracle": Fraction(0)}
    stats = {strategy: [] for strategy in totals}
    for seed in SEEDS:
        for strategy in totals:
            tv = TimeVaryingPlatform(base, drift=0.35, seed=seed)
            res = run_adaptive(tv, "M", epochs=EPOCHS, strategy=strategy)
            totals[strategy] += res.total_achieved
            stats[strategy].append(res.stats)
    # the autonomous-protocol check on trees
    tree = generators.binary_tree(3, seed=5)
    auto = autonomous_throughput(tree, "T0")
    lp = solve_master_slave(tree, "T0").throughput
    return totals, stats, auto, lp


def test_c8_dynamic_adaptation(benchmark):
    totals, stats, auto, lp = benchmark.pedantic(
        run_dynamic_suite, rounds=1, iterations=1
    )
    assert totals["adaptive"] > totals["static"]
    assert totals["oracle"] >= totals["adaptive"]
    assert auto == lp
    rows = []
    for strategy in ("static", "adaptive", "oracle"):
        runs = stats[strategy]
        # one solve per epoch; only a run's first two builds are cold
        assert all(r.full_rebuilds + r.warm_solves == EPOCHS for r in runs)
        assert all(r.full_rebuilds <= 2 for r in runs)
        cold = sum(r.full_rebuilds for r in runs)
        warm = sum(r.warm_solves for r in runs)
        cold_pivots = sum(r.cold_pivots for r in runs)
        warm_pivots = sum(r.warm_pivots for r in runs)
        rows.append([
            strategy, float(totals[strategy]),
            float(totals[strategy] / totals["oracle"]),
            f"{cold}/{warm}",
            f"{(cold_pivots + warm_pivots) / (len(runs) * EPOCHS):.2f}",
            f"{cold_pivots / cold:.2f} / {warm_pivots / warm:.2f}",
        ])
    report(
        "C8: drifting platform, total throughput over "
        f"{len(SEEDS)} seeds x {EPOCHS} epochs "
        f"(tree check: autonomous {auto} == LP {lp})",
        render_table(["strategy", "total", "vs oracle", "cold/warm solves",
                      "pivots/epoch", "pivots per cold / warm solve"],
                     rows),
    )
