"""Fixed-length periods — section 5.4.

The LP's natural period ``T`` (lcm of denominators) can be huge; practical
deployments prefer a caller-chosen period ``tau``.  Rounding the rational
activities *down* to integer message counts inside ``tau`` keeps the
schedule feasible at a small throughput cost that vanishes as ``tau``
grows — "it is possible to derive fixed-period schedules whose throughputs
tend to the optimum as the length of the period increases" [4].

Rounding is done on the **route decomposition**, not on raw edge counts:
flooring each route's per-period unit count preserves flow conservation by
construction (flooring edges independently would not).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .._rational import RationalLike, as_fraction
from ..core.activities import SteadyStateSolution
from ..platform.graph import Edge, NodeId
from .flows import master_slave_routes
from .periodic import PeriodicSchedule, ScheduleError
from .reconstruction import orchestrate


def fixed_period_schedule(
    solution: SteadyStateSolution,
    tau: RationalLike,
) -> PeriodicSchedule:
    """Build a feasible master-slave schedule with period exactly ``tau``.

    Each route of the optimal flow ships ``floor(rate_r * tau)`` tasks per
    period; the master additionally computes ``floor(own_rate * tau)``
    tasks.  Throughput loss is at most ``(#routes + 1) / tau``.
    """
    if solution.problem != "master-slave" or solution.source is None:
        raise ScheduleError("fixed-period rounding implemented for master-slave")
    if solution.port_model != "one-port":
        raise ScheduleError(
            f"fixed-period rounding implemented for one-port, not "
            f"{solution.port_model}")
    tau_f = as_fraction(tau)
    if tau_f <= 0:
        raise ScheduleError("tau must be positive")

    master = solution.source
    routes = master_slave_routes(solution)

    # floor the per-period units per route
    edge_units: Dict[Edge, int] = {}
    compute: Dict[NodeId, int] = {
        n: 0 for n in solution.platform.nodes()
        if solution.platform.node(n).can_compute
    }
    kept_routes: List[Tuple[Tuple[NodeId, ...], Fraction]] = []
    for path, rate in routes:
        units = int(rate * tau_f)  # floor for non-negative rationals
        if units <= 0:
            continue
        kept_routes.append((path, Fraction(units)))
        for a, b in zip(path, path[1:]):
            edge_units[(a, b)] = edge_units.get((a, b), 0) + units
        compute[path[-1]] = compute.get(path[-1], 0) + units

    master_rate = (
        solution.compute_rate(master)
        if solution.platform.node(master).can_compute
        else Fraction(0)
    )
    compute[master] = compute.get(master, 0) + int(master_rate * tau_f)

    # flooring keeps every port load within tau
    slices, _ = orchestrate(
        {(i, j): units * solution.platform.c(i, j)
         for (i, j), units in edge_units.items()}, tau_f)

    throughput = Fraction(sum(compute.values())) / tau_f
    schedule = PeriodicSchedule(
        platform=solution.platform,
        problem="master-slave",
        period=tau_f,
        throughput=throughput,
        slices=slices,
        compute=compute,
        messages=dict(edge_units),
        routes={"task": kept_routes},
        source=master,
    )
    schedule.validate()
    schedule.check_message_counts()
    return schedule


def throughput_vs_period(
    solution: SteadyStateSolution,
    taus: Sequence[RationalLike],
) -> List[Tuple[Fraction, Fraction]]:
    """``(tau, achieved throughput)`` series for benchmark C7."""
    out = []
    for tau in taus:
        sched = fixed_period_schedule(solution, tau)
        out.append((as_fraction(tau), sched.throughput))
    return out


def rounding_loss_bound(
    solution: SteadyStateSolution, tau: RationalLike
) -> Fraction:
    """Upper bound on the throughput lost to flooring at period ``tau``.

    Each of the ``r`` routes plus the master's own compute loses strictly
    less than one task per period: loss < (r + 1) / tau.
    """
    routes = master_slave_routes(solution)
    return Fraction(len(routes) + 1) / as_fraction(tau)
