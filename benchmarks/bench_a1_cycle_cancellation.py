"""A1 — ablation: what cancelling a degenerate LP circulation still buys.

Design choice documented in ``SteadyStateSolution.simplify``: an LP
optimum may route tasks around a directed cycle (a degenerate optimum).
The circulation carries no throughput.  ``PeriodicRunner`` executes a
schedule's routes, and ``decompose_flow`` has already cleared those of
cycles, so a circulation no longer slows the start-up: the §4.2 deficit
is a constant with it and without it.  What it still costs is port time,
because the reconstructed slices carry its messages too.

Shape: on the exact SSMS optimum, add by hand a circulation around the
first 2-cycle ``i <-> j`` (in sorted edge order) whose send and receive
ports have slack at both ends.  ``simplify()`` removes exactly that
circulation and keeps the throughput; ``verify()`` passes with it and
without it; the slices are no shorter with it; and each run's deficit is
the same at 10 and at 40 periods.
"""

import dataclasses
import math
from fractions import Fraction

from repro.core.master_slave import solve_master_slave
from repro.platform import generators
from repro.schedule.reconstruction import reconstruct_schedule
from repro.simulator.periodic_runner import PeriodicRunner
from repro.analysis.reporting import render_table

from conftest import report


def with_circulation(sol):
    """A copy of ``sol`` with a circulation around the first 2-cycle
    ``i <-> j`` whose four port ends have slack, at a rate of at most
    half that slack; returns the copy and the cycle."""
    platform, s = sol.platform, sol.s
    sending = {n: Fraction(0) for n in platform.nodes()}
    receiving = dict(sending)
    for (i, j), busy in s.items():
        sending[i] += busy
        receiving[j] += busy
    for i, j in sorted((e.src, e.dst) for e in platform.edges()):
        if sol.source in (i, j) or not platform.has_edge(j, i):
            continue  # the master receives nothing
        c_ij, c_ji = platform.c(i, j), platform.c(j, i)
        room = min((1 - sending[i]) / c_ij, (1 - receiving[j]) / c_ij,
                   (1 - sending[j]) / c_ji, (1 - receiving[i]) / c_ji)
        if room > 0:
            rate = Fraction(1, math.ceil(2 / room))
            circ = dict(s)
            circ[(i, j)] += rate * c_ij
            circ[(j, i)] += rate * c_ji
            return dataclasses.replace(sol, s=circ), (i, j)
    raise AssertionError("no 2-cycle with port slack at both ends")


def run_ablation():
    platform = generators.random_connected(10, seed=11, forwarder_prob=0.2)
    clean = solve_master_slave(platform, "R0")  # simplified and verified
    circ, cycle = with_circulation(clean)
    circ.verify()
    cancelled = dataclasses.replace(circ, s=dict(circ.s)).simplify()
    rows = []
    for label, sol in (("with the circulation", circ),
                       ("after cycle cancellation", clean)):
        sched = reconstruct_schedule(sol)
        busy = sum(sl.duration for sl in sched.slices) / sched.period
        d_short = PeriodicRunner(sched).run(10).deficit
        d_long = PeriodicRunner(sched).run(40).deficit
        rows.append([label, sched.period, float(busy), float(d_short),
                     float(d_long), "yes" if d_short == d_long else "NO",
                     busy, sol.throughput])
    return rows, cycle, cancelled, clean


def test_a1_cycle_cancellation(benchmark):
    rows, cycle, cancelled, clean = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1)
    # simplify() removes exactly the circulation, throughput unchanged
    assert cancelled.s == clean.s
    assert cancelled.throughput == clean.throughput
    cancelled.verify()
    circ_row, clean_row = rows
    assert circ_row[7] == clean_row[7]
    # the circulation only costs port time: its slices are no shorter
    assert circ_row[6] >= clean_row[6]
    # the routes are cycle-free either way: the deficit is a constant
    assert circ_row[5] == clean_row[5] == "yes"
    i, j = cycle
    report(
        f"A1: a circulation {i} <-> {j} on the SSMS optimum "
        f"(random10, seed 11)",
        render_table(
            ["solution", "period", "slices / period", "deficit @10",
             "deficit @40", "constant?"],
            [row[:6] for row in rows],
        ),
    )
