"""From LP activities to an executable periodic schedule (section 4.1).

The pipeline is exactly the paper's:

1. solve the steady-state LP (rational optimum) →
   :class:`~repro.core.activities.SteadyStateSolution`;
2. derive the integer period ``T`` (lcm of denominators);
3. build the bipartite communication graph — one *sender* copy and one
   *receiver* copy of each node, edge ``i_send -> j_recv`` weighted by the
   total communication time ``s_ij * T``;
4. decompose it into matchings with the weighted edge-colouring algorithm;
   each matching becomes a :class:`~repro.schedule.periodic.CommSlice`;
5. annotate with integer per-edge message counts and route decompositions.

The resulting schedule executes all of a period's communications in
``max_port_load <= T`` time, so it always fits; computations overlap
communications (full-overlap model) and are checked to fit independently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.activities import SteadyStateSolution
from ..platform.graph import Edge, NodeId
from .edge_coloring import MatchingSlice, weighted_edge_coloring
from .flows import check_flow_conservation, decompose_flow
from .periodic import CommSlice, PeriodicSchedule, ScheduleError

SEND = "send"
RECV = "recv"


def reconstruct_schedule(
    solution: SteadyStateSolution,
    period: Optional[int] = None,
) -> PeriodicSchedule:
    """Build the periodic schedule realising ``solution``.

    ``period`` overrides the minimal period (must be a positive multiple
    of it); useful for the fixed-period study of section 5.4.
    """
    T = solution.period()
    if period is not None:
        if period <= 0 or Fraction(period) % T != 0:
            raise ScheduleError(
                f"requested period {period} is not a positive multiple of "
                f"the minimal period {T}"
            )
        T = period

    busy = solution.edge_busy_time(T)
    bip_edges = [
        ((SEND, i), (RECV, j), t) for (i, j), t in busy.items() if t > 0
    ]
    matchings = weighted_edge_coloring(bip_edges)

    slices: List[CommSlice] = []
    clock = Fraction(0)
    for m in matchings:
        transfers = {u[1]: v[1] for u, v in m.pairs.items()}
        slices.append(CommSlice(start=clock, duration=m.duration, transfers=transfers))
        clock += m.duration
    if clock > T:
        raise ScheduleError(
            f"communication slices total {clock} > period {T} "
            "(one-port constraints violated upstream)"
        )

    compute = solution.tasks_per_period(T) if solution.alpha else {}
    messages = solution.messages_per_period(T)

    commodity_messages: Dict[Tuple[NodeId, NodeId, str], Fraction] = {}
    for (i, j, k), rate in solution.send.items():
        if rate > 0:
            commodity_messages[(i, j, k)] = rate * T

    routes: Dict[str, List[Tuple[Tuple[NodeId, ...], Fraction]]] = {}
    if solution.problem == "master-slave" and solution.source is not None:
        flow = {
            (i, j): solution.edge_rate(i, j) * T
            for (i, j) in solution.s
            if solution.s[(i, j)] > 0
        }
        demands = {
            n: solution.compute_rate(n) * T
            for n in solution.alpha
            if n != solution.source and solution.compute_rate(n) > 0
        }
        check_flow_conservation(solution.platform, flow, solution.source, demands)
        routes["task"] = decompose_flow(
            solution.platform, flow, solution.source, demands
        )
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
        period=Fraction(T),
        throughput=solution.throughput,
        slices=slices,
        compute=compute,
        messages=messages,
        commodity_messages=commodity_messages,
        routes=routes,
        source=solution.source,
    )
    schedule.validate()
    schedule.check_message_counts()
    return schedule
