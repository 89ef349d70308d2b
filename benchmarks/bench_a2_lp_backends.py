"""A2 — ablation: exact rational simplex vs floating-point HiGHS.

Design choice: the default backend is our exact simplex because the period
construction (lcm of denominators) needs true rationals; scipy's HiGHS is
kept for large sweeps.  Shape: both agree on the objective to float
precision at every size; the exact backend's cost grows with platform size
but stays laptop-trivial for the sizes the paper's algorithms target.
"""

import time
from fractions import Fraction

from repro.platform import generators
from repro.problems import MasterSlaveSpec, solve
from repro.analysis.reporting import render_table

from conftest import report

SIZES = (6, 10, 14, 18)


def run_backend_comparison():
    rows = []
    for n in SIZES:
        platform = generators.random_connected(n, seed=n)
        spec = MasterSlaveSpec(platform=platform, master="R0")
        t0 = time.perf_counter()
        exact = solve(spec)
        t_exact = time.perf_counter() - t0
        t0 = time.perf_counter()
        approx = solve(spec, backend="scipy")
        t_scipy = time.perf_counter() - t0
        rows.append([
            n,
            platform.num_edges,
            float(exact.throughput),
            abs(float(exact.throughput) - float(approx.throughput)),
            t_exact * 1000,
            t_scipy * 1000,
        ])
    return rows


def test_a2_lp_backends(benchmark):
    rows = benchmark.pedantic(run_backend_comparison, rounds=1, iterations=1)
    for n, edges, tp, gap, t_exact, t_scipy in rows:
        assert gap < 1e-7  # backends agree
        assert t_exact < 30_000  # exact stays tractable (ms)
    report(
        "A2: exact simplex vs HiGHS on random platforms",
        render_table(
            ["nodes", "edges", "ntask", "|objective gap|",
             "exact (ms)", "scipy (ms)"],
            rows,
        ),
    )
