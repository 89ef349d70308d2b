"""From LP activities to an executable periodic schedule (section 4.1).

The pipeline is exactly the paper's:

1. solve the steady-state LP (rational optimum) →
   :class:`~repro.core.activities.SteadyStateSolution`, which records the
   section 5.1 port model it was solved under;
2. derive the integer period ``T`` (lcm of denominators);
3. :func:`orchestrate` the period's communications — edge ``i -> j`` is
   busy ``s_ij * T`` — into back-to-back slices
   (:class:`~repro.schedule.periodic.CommSlice`), by the colouring the
   port model calls for:

   * **one-port**: the bipartite graph with one *sender* copy and one
     *receiver* copy of each node, decomposed into matchings by the
     weighted edge-colouring algorithm.  The slices take the maximum
     port load ``<= T``, so they always fit;
   * **send-or-receive** (§5.1.1): the greedy colouring of the
     non-bipartite conflict graph, which may need up to ``2T``.  The
     schedule's period stretches to the colouring's length and its
     throughput shrinks by the same factor — the §5.1.1 price;
   * **multiport(k)** (§5.1.2): one card per node, i.e. the one-port
     colouring, valid when it fits in ``T``.  Per-card reconstruction
     is not implemented, so a schedule that does not fit is refused;

4. annotate with integer per-edge message counts and route decompositions.

Tree packings (:mod:`.collective`) and fixed-length periods
(:mod:`.fixed_period`) are orchestrated by the same function.
Computations overlap communications (full-overlap model) and are checked
to fit independently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.activities import SteadyStateSolution
from ..platform.graph import Edge, NodeId
from .edge_coloring import greedy_interval_coloring, weighted_edge_coloring
from .flows import decompose_flow, master_slave_routes
from .periodic import CommSlice, PeriodicSchedule, ScheduleError

SEND = "send"
RECV = "recv"


def orchestrate(
    busy: Mapping[Edge, Fraction],
    period: Fraction,
    port_model: str = "one-port",
    ports: int = 1,
) -> Tuple[List[CommSlice], Fraction]:
    """One period's communications — edge ``i -> j`` busy ``busy[(i, j)]``
    — as back-to-back slices under ``port_model``; returns the slices
    and their total length.

    A one-port colouring (or multiport's, one card per node) longer than
    ``period`` is a :class:`ScheduleError`; a send-or-receive colouring
    may take up to twice the period, and the caller stretches the period
    to its length.
    """
    edges = [(i, j, t) for (i, j), t in busy.items() if t > 0]
    if port_model == "send-or-receive":
        coloured = [(m.pairs, m.duration)
                    for m in greedy_interval_coloring(edges)]
    else:
        coloured = [({u[1]: v[1] for u, v in m.pairs.items()}, m.duration)
                    for m in weighted_edge_coloring(
                        [((SEND, i), (RECV, j), t) for i, j, t in edges])]
    slices: List[CommSlice] = []
    clock = Fraction(0)
    for transfers, duration in coloured:
        slices.append(CommSlice(start=clock, duration=duration,
                                transfers=transfers))
        clock += duration
    if clock > period and port_model != "send-or-receive":
        raise ScheduleError(
            f"multiport({ports}) communications take {clock} > period "
            f"{period} on one card per node; per-card reconstruction "
            "(section 5.1.2) is not implemented"
            if port_model == "multiport" else
            f"communication slices total {clock} > period {period} "
            "(one-port constraints violated upstream)"
        )
    return slices, clock


def reconstruct_schedule(
    solution: SteadyStateSolution,
    period: Optional[int] = None,
) -> PeriodicSchedule:
    """Build the periodic schedule realising ``solution`` under the port
    model it records.

    ``period`` overrides the minimal period (must be a positive multiple
    of it); useful for the fixed-period study of section 5.4.  Under
    send-or-receive the schedule's period is ``max(T, length)`` of the
    greedy colouring, and its throughput is the LP's times ``T`` over
    that period: the stretch is ``sched.period / solution.period()``.
    """
    T = solution.period()
    if period is not None:
        if period <= 0 or Fraction(period) % T != 0:
            raise ScheduleError(
                f"requested period {period} is not a positive multiple of "
                f"the minimal period {T}"
            )
        T = period

    slices, length = orchestrate(solution.edge_busy_time(T), T,
                                 solution.port_model, solution.ports)
    stretched = max(Fraction(T), length)

    compute = solution.tasks_per_period(T) if solution.alpha else {}
    messages = solution.messages_per_period(T)

    routes: Dict[str, List[Tuple[Tuple[NodeId, ...], Fraction]]] = {}
    if solution.problem == "master-slave" and solution.source is not None:
        routes["task"] = master_slave_routes(solution, T)
    elif solution.send:
        # every commodity is routed from its origin to its sink
        # (SteadyStateSolution.commodities)
        for k, (origin, sink) in sorted(solution.commodities().items()):
            flow = {
                (i, j): rate * T
                for (i, j, kk), rate in solution.send.items()
                if kk == k and rate > 0
            }
            demands = {sink: solution.throughput * T}
            routes[k] = decompose_flow(solution.platform, flow, origin, demands)

    schedule = PeriodicSchedule(
        platform=solution.platform,
        problem=solution.problem,
        period=stretched,
        throughput=solution.throughput * T / stretched,
        slices=slices,
        compute=compute,
        messages=messages,
        routes=routes,
        source=solution.source,
    )
    schedule.validate()
    schedule.check_message_counts()
    return schedule
