"""C6 — §5.2: start-up costs amortised by period grouping.

Shape: with m = ceil(sqrt(n/ntask)) groups, T(n)/Topt(n) decreases
monotonically to 1, the excess fits under C/sqrt(n) with a bounded
constant, and the measured ratio respects the paper's closed-form bound.
"""

from fractions import Fraction

from repro import (
    build_batch_schedule,
    generators,
    reconstruct_schedule,
    solve_master_slave,
)
from repro.analysis.bounds import fit_sqrt_constant
from repro.analysis.reporting import render_table

from conftest import report


def run_startup_sweep():
    platform = generators.star(3, master_w=2, worker_w=[1, 2, 4],
                               link_c=[1, 2, 3])
    sol = solve_master_slave(platform, "M")
    sched = reconstruct_schedule(sol)
    startups = {e: Fraction(2) for e in sched.messages}
    rows = []
    ratios = []
    for n in (100, 1_000, 10_000, 100_000, 1_000_000):
        batch = build_batch_schedule(sched, n, startups)
        rows.append([n, batch.m, float(batch.ratio), float(batch.ratio_bound)])
        ratios.append((n, batch.ratio))
    return rows, fit_sqrt_constant(ratios), sched.throughput


def test_c6_startup_amortisation(benchmark):
    rows, sqrt_constant, ntask = benchmark.pedantic(
        run_startup_sweep, rounds=2, iterations=1
    )
    ratio_values = [r[2] for r in rows]
    assert ratio_values == sorted(ratio_values, reverse=True)
    assert ratio_values[-1] < 1.01
    for n, m, ratio, bound in rows:
        assert ratio <= bound
        # m follows the paper's sqrt rule: the smallest m with m*m*ntask >= n
        assert (m - 1) ** 2 * ntask < n <= m * m * ntask
    assert sqrt_constant < 100  # the 1 + C/sqrt(n) constant stays bounded
    report(
        "C6: start-up grouping — T(n)/Topt(n) with m = ceil(sqrt(n/ntask))"
        f"   [fitted C in 1 + C/sqrt(n): {sqrt_constant:.2f}]",
        render_table(
            ["n tasks", "m groups", "measured ratio", "paper bound"],
            rows,
        ),
    )
