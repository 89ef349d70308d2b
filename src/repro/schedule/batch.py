"""Explicit finite-batch schedules: init + steady groups + clean-up.

Section 4.2 sketches how to turn the periodic steady state into an actual
schedule for ``n`` tasks: a bounded initialisation phase fills the
pipeline, full periods do the bulk, and a clean-up phase drains in-flight
work.  Section 5.2 does the same on a platform with start-up (latency)
costs.  Linear programs want linear costs; real links charge
``C_ij + c_ij * n`` for a message of ``n`` tasks.  The paper's four-step
recipe circumvents this:

1. ``Topt(n) >= n / ntask(G)`` — the start-up-free platform is stronger;
2. group ``m`` consecutive periods: each used edge pays **one** start-up
   per group, so a group lasts ``m*T + sum C_ij <= m*T + C*|E|`` and still
   ships ``m * T * ntask`` tasks;
3. initialisation sends every node its first-group working set serially
   (duration ``A1 * m``); clean-up drains in-flight work (``A2 * m``);
4. choosing ``m = ceil(sqrt(n / ntask))`` gives
   ``T(n)/Topt(n) <= 1 + O(1/sqrt(n))``.

Without start-ups and with ``m = 1`` that is section 4.2's construction,
so this module builds both, once: :func:`build_batch_schedule`
*materialises* it — concrete phases, exact makespan, a full activity
trace — rather than merely bounding it.

Construction
------------
* **init**: the master serially ships every node its first group's
  working set (the tasks it will compute or forward during the first
  ``m`` periods), one message per used edge; serial shipment trivially
  respects one-port.
* **steady**: ``K = floor(n / tasks_per_group)`` full groups, each paying
  its start-ups once and then running ``m`` periods of the reconstructed
  schedule, during which buffers stay primed by construction.
* **clean-up**: the buffers still hold one group's working set, so the
  fewer than ``tasks_per_group`` remaining tasks are processed "in
  place", every node at its steady rate; the slowest node's drain of one
  group's allocation is added on top.

The resulting makespan is ``n / ntask(G) + O(1)`` in the batch size for a
fixed ``m`` — the asymptotic optimality statement, executable — and
:attr:`BatchSchedule.ratio_bound` is the closed form of section 5.2 that
benchmark C6 plots against the measured ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .._rational import RationalLike, as_fraction
from ..platform.graph import Edge, NodeId
from ..simulator.trace import Trace
from .periodic import PeriodicSchedule, ScheduleError, schedule_to_trace


@dataclass
class BatchSchedule:
    """A complete explicit schedule for a finite batch of tasks: everything
    sections 4.2 and 5.2 derive for a given ``n`` and ``m``."""

    schedule: PeriodicSchedule
    n_tasks: int
    m: int                        # periods per group
    group_length: Fraction        # m*T + startup overhead
    tasks_per_group: int          # m*T*ntask
    init_time: Fraction           # sum C + A1 * m
    steady_periods: int           # K * m
    cleanup_time: Fraction        # tail + A2 * m
    makespan: Fraction            # T(n)
    #: section 5.2's closed-form bound on ``T(n)/Topt(n)`` for this ``m``
    ratio_bound: Fraction
    trace: Optional[Trace] = None

    @property
    def lower_bound(self) -> Fraction:
        """``Topt(n) >= n / ntask``."""
        return Fraction(self.n_tasks) / self.schedule.throughput

    @property
    def ratio(self) -> Fraction:
        """``T(n) / Topt(n)`` upper bound actually achieved."""
        if self.n_tasks == 0:
            return Fraction(1)
        return self.makespan / self.lower_bound

    @property
    def per_node(self) -> Dict[NodeId, Fraction]:
        """Tasks each node computes: its share of every steady period,
        and of the clean-up's remainder in proportion to its steady rate
        — ``cnt_i * n / tasks_per_period`` in all, summing to ``n``."""
        per_period = self.schedule.tasks_per_period()
        return {
            node: Fraction(cnt * self.n_tasks, per_period)
            for node, cnt in self.schedule.compute.items()
        }


def default_group_count(n_tasks: int, throughput: Fraction) -> int:
    """The paper's ``m = ceil(sqrt(n / ntask(G)))``: the smallest
    ``m >= 1`` with ``m**2 * ntask >= n``, in integers only."""
    if n_tasks <= 0:
        return 1
    periods = -(-n_tasks // throughput)  # ceil(n / ntask)
    return math.isqrt(periods - 1) + 1


def build_batch_schedule(
    schedule: PeriodicSchedule,
    n_tasks: int,
    startups: Optional[Mapping[Edge, RationalLike]] = None,
    m: Optional[int] = None,
    record_trace: bool = False,
) -> BatchSchedule:
    """Materialise init/steady/clean-up for ``n_tasks`` tasks.

    ``startups[(i, j)]`` is ``C_ij``; missing edges default to 0.  ``m``
    defaults to 1 without start-ups and to :func:`default_group_count`
    when a used edge has one.  The accounting follows section 5.2
    verbatim, with ``A1 = sum_e messages_e * c_e`` and
    ``A2 = max_i cnt_i * w_i`` per period:

    * every edge that carries messages pays one ``C_ij`` per group, so a
      group lasts ``m*T + sum C`` and computes ``m*T*ntask`` tasks;
    * the initialisation phase serially ships one group's consumption to
      every node (one message per used edge: ``C_ij + (m n_ij) c_ij``);
    * the clean-up phase processes at most one group's tasks in place —
      the remainder at the steady rate, then the slowest node draining
      its per-group allocation (only the workers' drain after a full
      last group: the master's last period is already done);
    * an empty batch takes no time.

    The closed-form bound of section 5.2,
    ``T(n)/Topt(n) <= 1 + sqrt(ntask/n) (A1 + A2 + C|E|/T) + O(1/n)``,
    is evaluated exactly for this ``m`` as
    ``1 + (ntask/n)(sum C + m(A1 + A2 + T)) + sum C / (m T)``: the
    ``K`` groups take ``K*(m*T + sum C) <= n/ntask + n sum C/(m T ntask)``
    since ``K <= n / (m T ntask)``, the remainder's tail is shorter than
    ``m*T``, and init and drain add ``sum C + m*A1`` and ``m*A2``.
    """
    if schedule.problem != "master-slave" or schedule.source is None:
        raise ScheduleError("batch construction needs a master-slave schedule")
    if n_tasks < 0:
        raise ValueError("n_tasks must be non-negative")
    per_period = schedule.tasks_per_period()
    if per_period == 0:
        raise ScheduleError("schedule processes nothing")
    platform = schedule.platform
    master = schedule.source
    T = schedule.period
    ntask = schedule.throughput

    used = [(e, cnt) for e, cnt in schedule.messages.items() if cnt > 0]
    startup = {e: as_fraction((startups or {}).get(e, 0)) for e, _ in used}
    overhead = sum(startup.values(), start=Fraction(0))
    if m is None:
        m = default_group_count(n_tasks, ntask) if overhead > 0 else 1
    if m < 1:
        raise ValueError("m must be >= 1")
    a1 = sum(
        (cnt * platform.c(i, j) for (i, j), cnt in used), start=Fraction(0)
    )
    work = {
        node: cnt * platform.node(node).w
        for node, cnt in schedule.compute.items() if cnt
    }
    a2 = max(work.values(), default=Fraction(0))
    group_length = m * T + overhead
    tasks_per_group = m * per_period
    groups, remaining = divmod(n_tasks, tasks_per_group)

    if remaining:
        cleanup = remaining / ntask + m * a2
    elif n_tasks:
        cleanup = m * max(
            (t for node, t in work.items() if node != master),
            default=Fraction(0),
        )
    else:
        cleanup = Fraction(0)
    init = overhead + m * a1 if n_tasks else Fraction(0)
    makespan = init + groups * group_length + cleanup
    ratio_bound = Fraction(1)
    if n_tasks:
        ratio_bound += (
            ntask / n_tasks * (overhead + m * (a1 + a2 + T))
            + overhead / (m * T)
        )

    trace = Trace() if record_trace else None
    if trace is not None and n_tasks:

        def ship(i, j, start, duration, units, label):
            trace.record(i, "send", start, start + duration,
                         peer=j, units=units, label=label)
            trace.record(j, "recv", start, start + duration,
                         peer=i, units=units, label=label)

        # ship outward from the master, in the order the routes take the
        # edges, so a forwarder receives before it sends
        rank = {hop: k for k, hop in enumerate(dict.fromkeys(
            hop for path, _ in schedule.routes.get("task", ())
            for hop in zip(path, path[1:])
        ))}
        used.sort(key=lambda e: rank.get(e[0], len(rank)))
        clock = Fraction(0)
        for (i, j), cnt in used:
            duration = startup[(i, j)] + m * cnt * platform.c(i, j)
            ship(i, j, clock, duration, m * cnt, "init")
            clock += duration
        period = schedule_to_trace(schedule).intervals
        for _ in range(groups):
            for (i, j), _cnt in used:
                if startup[(i, j)]:
                    ship(i, j, clock, startup[(i, j)], 0, "startup")
                    clock += startup[(i, j)]
            for _ in range(m):
                trace.intervals.extend(
                    replace(iv, start=clock + iv.start, end=clock + iv.end,
                            label="steady")
                    for iv in period
                )
                for node, time in work.items():
                    trace.record(node, "compute", clock, clock + time,
                                 units=schedule.compute[node], label="steady")
                clock += T
        if remaining:
            share = Fraction(remaining, per_period)  # of one period's tasks
            for node, time in work.items():
                trace.record(node, "compute", clock, clock + time * share,
                             units=schedule.compute[node] * share,
                             label="cleanup")

    return BatchSchedule(
        schedule=schedule,
        n_tasks=n_tasks,
        m=m,
        group_length=group_length,
        tasks_per_group=tasks_per_group,
        init_time=init,
        steady_periods=groups * m,
        cleanup_time=cleanup,
        makespan=makespan,
        ratio_bound=ratio_bound,
        trace=trace,
    )


def batch_ratio_series(
    schedule: PeriodicSchedule, batch_sizes: List[int]
) -> List[Tuple[int, Fraction]]:
    """``(n, makespan / lower bound)`` — must tend to 1."""
    return [
        (n, build_batch_schedule(schedule, n).ratio) for n in batch_sizes
    ]
