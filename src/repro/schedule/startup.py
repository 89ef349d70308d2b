"""Start-up (latency) costs and asymptotic optimality — section 5.2.

Linear programs want linear costs; real links charge ``C_ij + c_ij * n``
for a message of ``n`` tasks.  The paper's four-step recipe circumvents
this:

1. ``Topt(n) >= n / ntask(G)`` — the start-up-free platform is stronger;
2. group ``m`` consecutive periods: each used edge pays **one** start-up
   per group, so a group lasts ``m*T + sum C_ij <= m*T + C*|E|`` and still
   ships ``m * T * ntask`` tasks;
3. initialisation sends every node its first-group working set serially
   (duration ``A1 * m``); clean-up drains in-flight work (``A2 * m``);
4. choosing ``m = ceil(sqrt(n / ntask))`` gives
   ``T(n)/Topt(n) <= 1 + O(1/sqrt(n))``.

:func:`grouped_schedule_makespan` evaluates the constructed schedule's
exact makespan; :func:`asymptotic_ratio` returns the guaranteed bound, and
benchmark C6 plots both against ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .._rational import RationalLike, as_fraction
from ..platform.graph import Edge
from .periodic import PeriodicSchedule


@dataclass
class StartupAnalysis:
    """Everything section 5.2 derives for a given ``n`` and ``m``."""

    n_tasks: int
    m: int
    period: Fraction              # elementary period T
    group_length: Fraction        # m*T + startup overhead
    tasks_per_group: Fraction     # m*T*ntask
    init_time: Fraction           # A1 * m
    cleanup_time: Fraction        # A2 * m
    total_time: Fraction          # T(n)
    lower_bound: Fraction         # n / ntask

    @property
    def ratio(self) -> Fraction:
        """``T(n) / Topt(n)`` upper bound actually achieved."""
        if self.lower_bound == 0:
            return Fraction(0)
        return self.total_time / self.lower_bound


def default_group_count(n_tasks: int, throughput: Fraction) -> int:
    """The paper's ``m = ceil(sqrt(n / ntask(G)))``."""
    if n_tasks <= 0:
        return 1
    val = Fraction(n_tasks) / throughput
    # repro-lint: allow(exactness) — ceil of a Fraction is an exact
    # integer op; it picks the (integer) group count, not a result weight
    return max(1, math.isqrt(math.ceil(val)))


def grouped_schedule_makespan(
    schedule: PeriodicSchedule,
    startups: Mapping[Edge, RationalLike],
    n_tasks: int,
    m: Optional[int] = None,
) -> StartupAnalysis:
    """Makespan of the grouped periodic schedule for ``n_tasks`` tasks.

    ``startups[(i, j)]`` is ``C_ij``; missing edges default to 0.  The
    accounting follows section 5.2 verbatim:

    * every edge that carries messages pays one ``C_ij`` per group;
    * the initialisation phase serially ships one group's consumption to
      every node (one message per used edge: ``C_ij + (m n_ij) c_ij``);
    * the clean-up phase processes at most one group's tasks in place —
      we bound it by the slowest node draining its per-group allocation.
    """
    if n_tasks < 0:
        raise ValueError("n_tasks must be non-negative")
    T = schedule.period
    ntask = schedule.throughput
    if ntask <= 0:
        raise ValueError("schedule has zero throughput")
    if m is None:
        m = default_group_count(n_tasks, ntask)
    if m < 1:
        raise ValueError("m must be >= 1")

    used_edges = [(e, cnt) for e, cnt in schedule.messages.items() if cnt > 0]
    overhead = sum(
        (as_fraction(startups.get(e, 0)) for e, _ in used_edges),
        start=Fraction(0),
    )
    group_len = m * T + overhead
    per_group = m * T * ntask

    # A1 * m: serial shipment of one group's messages
    init = Fraction(0)
    for (i, j), cnt in used_edges:
        init += as_fraction(startups.get((i, j), 0))
        init += Fraction(cnt) * m * schedule.platform.c(i, j)
    # A2 * m: slowest drain of one group's compute allocation
    cleanup = Fraction(0)
    for node, cnt in schedule.compute.items():
        if cnt:
            spec = schedule.platform.node(node)
            cleanup = max(cleanup, Fraction(cnt) * m * spec.w)

    if per_group > 0:
        full_groups = int(Fraction(n_tasks) / per_group)
        remainder = Fraction(n_tasks) - per_group * full_groups
    else:  # pragma: no cover — guarded above
        full_groups, remainder = 0, Fraction(n_tasks)
    tail = remainder / ntask if remainder > 0 else Fraction(0)

    total = init + full_groups * group_len + tail + cleanup
    return StartupAnalysis(
        n_tasks=n_tasks,
        m=m,
        period=T,
        group_length=group_len,
        tasks_per_group=per_group,
        init_time=init,
        cleanup_time=cleanup,
        total_time=total,
        lower_bound=Fraction(n_tasks) / ntask,
    )


def asymptotic_ratio_bound(
    schedule: PeriodicSchedule,
    startups: Mapping[Edge, RationalLike],
    n_tasks: int,
) -> Fraction:
    """The closed-form bound of section 5.2:

    ``T(n)/Topt(n) <= 1 + sqrt(ntask/n) (A1 + A2 + C|E|/T) + O(1/n)``

    evaluated with this schedule's concrete constants (``A1``, ``A2`` per
    unit ``m``, total start-up overhead ``C|E|``).  Rational arithmetic
    except for the square root (returned as a float-backed Fraction).
    """
    T = schedule.period
    ntask = schedule.throughput
    used_edges = [(e, cnt) for e, cnt in schedule.messages.items() if cnt > 0]
    overhead = sum(
        (as_fraction(startups.get(e, 0)) for e, _ in used_edges),
        start=Fraction(0),
    )
    a1 = sum(
        (Fraction(cnt) * schedule.platform.c(i, j)
         for (i, j), cnt in used_edges),
        start=Fraction(0),
    )
    a2 = max(
        (Fraction(cnt) * schedule.platform.node(node).w
         for node, cnt in schedule.compute.items() if cnt),
        default=Fraction(0),
    )
    if n_tasks <= 0:
        return Fraction(1)
    # sqrt is irrational; this is the documented float-backed Fraction
    # approximation of the makespan *estimate* (section 4.2's
    # asymptotic bound), not a solver result
    sqrt_term = Fraction(
        math.sqrt(float(ntask) / float(n_tasks))  # repro-lint: allow(exactness)
    ).limit_denominator(10**9)
    return 1 + sqrt_term * (a1 + a2 + overhead / T)
