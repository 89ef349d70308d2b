"""Execute a periodic schedule and measure its actual throughput.

This is the library's replacement for the authors' testbed: a deterministic
fluid execution of every schedule that
:func:`~repro.schedule.reconstruction.reconstruct_schedule` returns —
master-slave, scatter, gather and all-to-all — with explicit
*data-availability* accounting.  (The message-level
:class:`~repro.simulator.event_executor.EventExecutor` runs master-slave
schedules only.)

Each ``schedule.routes`` key is one commodity (master-slave's is
``"task"``): its per-edge plan is the sum of its routes, and its origin,
the routes' first node, has an unlimited supply.  Buffer discipline (the
standard steady-state argument, section 4.2): during period ``p`` a node
may only forward — and, where the schedule computes, compute — units of a
commodity it held **before** period ``p`` started.  A commodity completes
where it is computed (a schedule that computes, master-slave, carries
one commodity) or, in a schedule without computation, when it reaches its
routes' last node.  Early periods therefore run partially (the
initialisation phase, bounded by the longest route); once buffers prime,
every period completes exactly ``T * TP`` of every commodity.  The runner
records per-commodity per-period completions so tests and benchmarks can
verify the paper's claim: the deficit with respect to ``K * T * TP`` per
commodity is a constant independent of the horizon ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from ..platform.graph import Edge, NodeId, Platform
from ..schedule.periodic import PeriodicSchedule
from .trace import Trace


@dataclass
class PeriodicRunResult:
    """Outcome of running a periodic schedule for ``K`` periods."""

    schedule: PeriodicSchedule
    periods: int
    #: completions of each commodity in each period
    per_commodity: Dict[str, List[Fraction]]
    trace: Optional[Trace] = None

    @property
    def completed_per_period(self) -> List[Fraction]:
        return [sum(done, start=Fraction(0))
                for done in zip(*self.per_commodity.values())]

    @property
    def total_completed(self) -> Fraction:
        return sum(self.completed_per_period, start=Fraction(0))

    @property
    def commodity_bound(self) -> Fraction:
        """Upper bound ``K * T * TP`` on one commodity's completions."""
        return self.schedule.throughput * self.schedule.period * self.periods

    @property
    def steady_state_bound(self) -> Fraction:
        return self.commodity_bound * len(self.per_commodity)

    @property
    def deficit(self) -> Fraction:
        """How far the run fell short of the steady-state bound."""
        return self.steady_state_bound - self.total_completed

    def commodity_deficit(self, commodity: str) -> Fraction:
        return self.commodity_bound - sum(self.per_commodity[commodity],
                                          start=Fraction(0))

    @property
    def achieved_rate(self) -> Fraction:
        """Average completions per time-unit over the whole horizon."""
        horizon = self.schedule.period * self.periods
        if horizon == 0:
            return Fraction(0)
        return self.total_completed / horizon


def _needs(nodes, plan, compute) -> Dict[NodeId, Fraction]:
    """Per node, the units it computes and forwards in one period."""
    need = dict.fromkeys(nodes, Fraction(0))
    need.update(compute)
    for (i, _j), units in plan.items():
        need[i] += units
    return need


def _period(plan, need, compute, origin, sinks, stock):
    """One period of one commodity under the buffer rule: each node runs
    the share of its plan that the stock it held at the period's start
    covers.  Moves ``stock`` on; returns the shares and the completions."""
    factor = {n: Fraction(1) if n == origin or need[n] == 0
              else min(Fraction(1), stock[n] / need[n]) for n in stock}
    received = dict.fromkeys(stock, Fraction(0))
    for (i, j), units in plan.items():
        received[j] += units * factor[i]
    for n in stock:
        if n != origin and n not in sinks:
            stock[n] += received[n] - factor[n] * need[n]
    return factor, (
        sum((c * factor[n] for n, c in compute.items()), start=Fraction(0))
        + sum((received[n] for n in sinks), start=Fraction(0)))


def primed_rate(platform: Platform, origin: NodeId,
                plan: Dict[Edge, Fraction],
                compute: Dict[NodeId, Fraction]) -> Fraction:
    """Steady-state rate of a one-commodity fluid plan that moves ``plan``
    units per edge and computes ``compute`` units per node in a unit
    period, from an unlimited supply at ``origin``.  Once an acyclic plan's
    longest path has primed, each node runs ``min(1, inflow / need)`` of
    its plan for good: the last of ``num_nodes + 1`` periods reads it."""
    stock = dict.fromkeys(platform.nodes(), Fraction(0))
    need = _needs(stock, plan, compute)
    for _ in range(platform.num_nodes + 1):
        _factor, done = _period(plan, need, compute, origin, set(), stock)
    return done


class PeriodicRunner:
    """Fluid per-commodity executor for every reconstructed schedule
    (master-slave, scatter, gather, all-to-all); master-slave schedules
    also run message by message in the ``EventExecutor``."""

    def __init__(self, schedule: PeriodicSchedule, record_trace: bool = False):
        if not schedule.routes:
            raise ValueError(
                "schedule routes no commodity: it is a tree packing, whose "
                "messages replicate, or it moves nothing (zero throughput); "
                "a fluid run of routed commodities cannot execute it")
        self.schedule = schedule
        self.platform = schedule.platform
        self.record_trace = record_trace
        self.compute: Dict[NodeId, Fraction] = {
            n: Fraction(c) for n, c in schedule.compute.items() if c}
        self.plans: Dict[str, Dict[Edge, Fraction]] = {}
        #: per commodity, what each node computes and forwards per period
        self.needs: Dict[str, Dict[NodeId, Fraction]] = {}
        self.origins: Dict[str, NodeId] = {}
        self.sinks: Dict[str, set] = {}
        for k, paths in sorted(schedule.routes.items()):
            plan = self.plans[k] = {}
            for path, units in paths:
                for edge in zip(path, path[1:]):
                    plan[edge] = plan.get(edge, Fraction(0)) + units
            self.needs[k] = _needs(self.platform.nodes(), plan, self.compute)
            self.origins[k] = paths[0][0][0] if paths else schedule.source
            self.sinks[k] = set() if self.compute else {p[-1] for p, _ in paths}

    def run(self, periods: int) -> PeriodicRunResult:
        if periods < 0:
            raise ValueError("periods must be non-negative")
        stock = {k: dict.fromkeys(self.platform.nodes(), Fraction(0))
                 for k in self.plans}
        per_commodity: Dict[str, List[Fraction]] = {k: [] for k in self.plans}
        trace = Trace() if self.record_trace else None

        for p in range(periods):
            factors: Dict[str, Dict[NodeId, Fraction]] = {}
            for k, plan in self.plans.items():
                factors[k], done = _period(plan, self.needs[k], self.compute,
                                           self.origins[k], self.sinks[k],
                                           stock[k])
                per_commodity[k].append(done)
            if trace is not None:
                self._record(trace, self.schedule.period * p, factors)

        return PeriodicRunResult(
            schedule=self.schedule,
            periods=periods,
            per_commodity=per_commodity,
            trace=trace,
        )

    def _record(self, trace: Trace, t0: Fraction,
                factors: Dict[str, Dict[NodeId, Fraction]]) -> None:
        """One period's activities: each slice transfer is shared among
        the commodities crossing its edge in proportion to their plans."""
        for sl in self.schedule.slices:
            for i, j in sl.transfers.items():
                loads = [(k, plan.get((i, j), Fraction(0)))
                         for k, plan in self.plans.items()]
                total = sum((u for _, u in loads), start=Fraction(0))
                start = t0 + sl.start
                for k, units in loads:
                    if units == 0:
                        continue
                    end = start + sl.duration * units / total
                    sent = (end - start) / self.platform.c(i, j) * factors[k][i]
                    trace.record(i, "send", start, end, peer=j, units=sent,
                                 label=k)
                    trace.record(j, "recv", start, end, peer=i, units=sent,
                                 label=k)
                    start = end
        for k, factor in factors.items():
            for node, plan in self.compute.items():
                amount = plan * factor[node]
                if amount > 0:
                    trace.record(node, "compute", t0,
                                 t0 + amount * self.platform.node(node).w,
                                 units=amount, label=k)


def steady_state_reached_after(result: PeriodicRunResult) -> int:
    """First period index from which the run achieves the full LP rate."""
    target = result.schedule.throughput * result.schedule.period * len(
        result.per_commodity)
    for p, done in enumerate(result.completed_per_period):
        if done == target:
            return p
    return result.periods


def max_route_length(schedule: PeriodicSchedule) -> int:
    """Longest route (in hops) of any commodity — bounds the priming time."""
    return max((len(path) - 1 for routes in schedule.routes.values()
                for path, _units in routes), default=0)
