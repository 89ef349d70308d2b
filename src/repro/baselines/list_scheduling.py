"""Finite-batch makespan scheduling — the traditional objective (§1).

The paper's opening argument: makespan minimisation is NP-hard and brittle,
while for large batches the steady-state schedule is asymptotically just as
good.  To make that comparison concrete we implement the strongest simple
makespan heuristic for one-port stars/trees — **earliest-finish-time (EFT)
list scheduling** with explicit communication serialisation — plus an
execution of the steady-state schedule on the same finite batch.

Benchmark C5 plots both makespans against the bound ``n / ntask(G)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.master_slave import solve_master_slave
from ..platform.graph import NodeId, Platform
from ..schedule.batch import build_batch_schedule
from ..schedule.reconstruction import reconstruct_schedule


@dataclass
class BatchResult:
    strategy: str
    n_tasks: int
    makespan: Fraction
    #: tasks per node: whole for EFT, the clean-up's share may split
    per_node: Dict[NodeId, Fraction]


def eft_star_makespan(
    platform: Platform, master: NodeId, n_tasks: int
) -> BatchResult:
    """EFT list scheduling of ``n_tasks`` independent tasks on a star.

    The master assigns tasks one at a time to the resource finishing them
    earliest, accounting for the one-port serialisation of its sends: a
    task for worker ``k`` occupies the port for ``c_k``, then the worker
    for ``w_k``.  The master may also compute tasks itself.  Exact event
    arithmetic; greedy, not optimal — that is the point.
    """
    if n_tasks < 0:
        raise ValueError("n_tasks must be non-negative")
    workers = [n for n in platform.successors(master)]
    port_free = Fraction(0)
    cpu_free: Dict[NodeId, Fraction] = {master: Fraction(0)}
    for wkr in workers:
        cpu_free[wkr] = Fraction(0)
    per_node: Dict[NodeId, int] = {n: 0 for n in cpu_free}
    makespan = Fraction(0)
    master_spec = platform.node(master)
    for _ in range(n_tasks):
        # candidate completion times
        best_node: Optional[NodeId] = None
        best_finish: Optional[Fraction] = None
        best_state: Optional[Tuple[Fraction, Fraction]] = None
        if master_spec.can_compute:
            finish = cpu_free[master] + master_spec.w
            best_node, best_finish = master, finish
            best_state = (port_free, finish)
        for wkr in workers:
            spec = platform.node(wkr)
            if not spec.can_compute:
                continue
            c = platform.c(master, wkr)
            send_end = port_free + c
            finish = max(send_end, cpu_free[wkr]) + spec.w
            if best_finish is None or finish < best_finish:
                best_node, best_finish = wkr, finish
                best_state = (send_end, finish)
        assert best_node is not None and best_state is not None
        new_port, new_cpu = best_state
        if best_node != master:
            port_free = new_port
        cpu_free[best_node] = new_cpu
        per_node[best_node] += 1
        makespan = max(makespan, best_finish)
    return BatchResult("eft", n_tasks, makespan, per_node)


def steady_state_batch_makespan(
    platform: Platform, master: NodeId, n_tasks: int
) -> BatchResult:
    """Makespan of the reconstructed periodic schedule on ``n_tasks``.

    This is the "emulate steady state on a finite batch" strategy of
    section 4.2: :func:`~repro.schedule.batch.build_batch_schedule`'s
    initialisation, full periods and clean-up (the tail at the steady
    rate plus the slowest node's drain).  ``per_node`` is the
    construction's own split of the batch, so it sums to ``n_tasks``.
    """
    sched = reconstruct_schedule(solve_master_slave(platform, master))
    batch = build_batch_schedule(sched, n_tasks)
    return BatchResult("steady-state", n_tasks, batch.makespan, batch.per_node)


def makespan_comparison(
    platform: Platform, master: NodeId, batch_sizes: Sequence[int]
) -> List[Tuple[int, Fraction, Fraction, Fraction]]:
    """``(n, eft, steady, lower bound)`` rows for benchmark C5: one LP
    solve and one reconstructed schedule serve every batch size."""
    sol = solve_master_slave(platform, master)
    sched = reconstruct_schedule(sol)
    rows = []
    for n in batch_sizes:
        eft = eft_star_makespan(platform, master, n)
        steady = build_batch_schedule(sched, n).makespan
        rows.append((n, eft.makespan, steady, Fraction(n) / sol.throughput))
    return rows
