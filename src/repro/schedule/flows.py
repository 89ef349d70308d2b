"""Decomposition of steady-state edge flows into weighted routes.

The LP returns *edge* rates; to annotate a periodic schedule with "which
task file travels along which route" (and to drive the simulator's buffer
accounting) we decompose each commodity's edge-flow into simple source→sink
paths, after cancelling any circulation the LP's degenerate optima may
contain.  Classical flow decomposition: at most ``|E|`` paths plus ``|E|``
cancelled cycles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..platform.graph import Edge, NodeId, Platform

PathFlow = Tuple[Tuple[NodeId, ...], Fraction]


class FlowError(ValueError):
    """Flow does not satisfy conservation / demands."""


def cancel_cycles(flow: Dict[Edge, Fraction]) -> Dict[Edge, Fraction]:
    """Remove circulations from an edge flow (returns a new dict).

    Repeatedly finds a directed cycle in the positive-flow subgraph and
    subtracts its bottleneck.  Terminates because each round zeroes at
    least one edge.  Cycle cancellation never changes any node's net flow,
    so conservation and demands are preserved while edge usage can only
    decrease (hence the resulting schedule is still feasible).
    """
    residual = {e: f for e, f in flow.items() if f > 0}
    while True:
        succ: Dict[NodeId, List[NodeId]] = {}
        for (u, v) in residual:
            succ.setdefault(u, []).append(v)
        # DFS-based cycle detection with colouring.
        color: Dict[NodeId, int] = {}
        stack_path: List[NodeId] = []
        cycle: Optional[List[NodeId]] = None

        def dfs(u: NodeId) -> bool:
            nonlocal cycle
            color[u] = 1
            stack_path.append(u)
            for v in succ.get(u, ()):  # noqa: B023 — rebuilt each round
                if color.get(v, 0) == 1:
                    cycle = stack_path[stack_path.index(v):] + [v]
                    return True
                if color.get(v, 0) == 0 and dfs(v):
                    return True
            color[u] = 2
            stack_path.pop()
            return False

        for node in list(succ):
            if color.get(node, 0) == 0:
                if dfs(node):
                    break
        if cycle is None:
            return residual
        edges = [(cycle[i], cycle[i + 1]) for i in range(len(cycle) - 1)]
        bottleneck = min(residual[e] for e in edges)
        for e in edges:
            residual[e] -= bottleneck
            if residual[e] == 0:
                del residual[e]


def decompose_flow(
    platform: Platform,
    flow: Mapping[Edge, Fraction],
    source: NodeId,
    demands: Mapping[NodeId, Fraction],
) -> List[PathFlow]:
    """Decompose ``flow`` into simple paths ``source -> demand node``.

    Parameters
    ----------
    flow:
        Edge rates (commodity units per time-unit).
    demands:
        How much each node consumes per time-unit (the master's own
        consumption must *not* be included — it never crosses an edge).

    Returns ``(path, rate)`` pairs such that summing rates per edge
    reproduces ``flow`` up to cancelled cycles, and summing rates per final
    node meets every demand exactly.
    """
    residual = cancel_cycles(dict(flow))
    need: Dict[NodeId, Fraction] = {
        n: d for n, d in demands.items() if d > 0 and n != source
    }
    paths: List[PathFlow] = []
    guard = 0
    max_rounds = 4 * (len(flow) + len(need) + 1)
    while need:
        guard += 1
        if guard > max_rounds:
            raise FlowError(
                "flow decomposition did not converge (flow inconsistent "
                "with demands?)"
            )
        # Walk from the source along positive edges towards any needy node,
        # preferring unvisited nodes (the residual graph is acyclic now, so
        # a greedy walk cannot loop).
        path = [source]
        seen = {source}
        while True:
            u = path[-1]
            if u in need and (u != source):
                break
            nxt = None
            for v in platform.successors(u):
                if residual.get((u, v), Fraction(0)) > 0 and v not in seen:
                    nxt = v
                    break
            if nxt is None:
                raise FlowError(
                    f"stuck at {u}: no positive out-edge while demands "
                    f"remain ({dict(need)})"
                )
            path.append(nxt)
            seen.add(nxt)
        sink = path[-1]
        edges = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        bottleneck = need[sink]
        for e in edges:
            bottleneck = min(bottleneck, residual[e])
        if bottleneck <= 0:
            raise FlowError("internal error: zero bottleneck")  # pragma: no cover
        for e in edges:
            residual[e] -= bottleneck
            if residual[e] == 0:
                del residual[e]
        need[sink] -= bottleneck
        if need[sink] == 0:
            del need[sink]
        paths.append((tuple(path), bottleneck))
    return paths


def check_flow_conservation(
    platform: Platform,
    flow: Mapping[Edge, Fraction],
    source: NodeId,
    demands: Mapping[NodeId, Fraction],
) -> None:
    """Verify in = out + demand at every non-source node; raise otherwise."""
    for node in platform.nodes():
        if node == source:
            continue
        inflow = sum(
            (flow.get((j, node), Fraction(0))
             for j in platform.predecessors(node)),
            start=Fraction(0),
        )
        outflow = sum(
            (flow.get((node, j), Fraction(0))
             for j in platform.successors(node)),
            start=Fraction(0),
        )
        demand = demands.get(node, Fraction(0))
        if inflow != outflow + demand:
            raise FlowError(
                f"conservation fails at {node}: in {inflow} != "
                f"out {outflow} + demand {demand}"
            )


def master_slave_routes(solution, scale=1) -> List[PathFlow]:
    """A master-slave answer's task flow, times ``scale`` (one period,
    say), checked for conservation and decomposed into routes from the
    master to every node that computes remote tasks."""
    master = solution.source
    flow = {
        (i, j): solution.edge_rate(i, j) * scale
        for (i, j) in solution.s
        if solution.s[(i, j)] > 0
    }
    demands = {
        n: solution.compute_rate(n) * scale
        for n in solution.alpha
        if n != master and solution.compute_rate(n) > 0
    }
    check_flow_conservation(solution.platform, flow, master, demands)
    return decompose_flow(solution.platform, flow, master, demands)
