"""Event-driven demand-driven master-slave executors (the "why" baselines).

The steady-state LP needs global knowledge; practical systems often run a
*demand-driven* protocol instead: parents push task files to children that
ask for more, children compute what they hold.  This module implements that
protocol faithfully on tree-shaped platforms (stars, trees, or the
min-cost spanning tree of a general platform) with three child-selection
policies:

* ``"bandwidth"`` — serve children by increasing link cost ``c`` (the
  bandwidth-centric principle of [2, 11]; provably optimal on trees);
* ``"fastest"`` — serve children by increasing compute weight ``w`` (the
  intuitive but wrong policy: it wastes the port on expensive links);
* ``"round-robin"`` — blind rotation, no demand signal (floods slow
  children and starves fast ones).

Every run returns a one-port-validated :class:`~repro.simulator.trace.Trace`
and per-node completion counts, so benchmarks can compare achieved rates
against ``ntask(G)`` from the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .._rational import RationalLike, as_fraction
from ..platform.graph import NodeId, Platform
from ..simulator.engine import Simulator
from ..simulator.trace import Trace

POLICIES = ("bandwidth", "fastest", "round-robin")


@dataclass
class GreedyResult:
    """Outcome of a demand-driven run."""

    policy: str
    horizon: Fraction
    completed: Dict[NodeId, int]
    trace: Trace

    @property
    def total_completed(self) -> int:
        return sum(self.completed.values())

    @property
    def rate(self) -> Fraction:
        if self.horizon == 0:
            return Fraction(0)
        return Fraction(self.total_completed) / self.horizon


def spanning_tree_children(
    platform: Platform, master: NodeId
) -> Dict[NodeId, List[NodeId]]:
    """Children map of the min-``c`` shortest-path tree rooted at master.

    On an already-tree-shaped platform this recovers the tree itself.
    """
    import heapq

    platform.node(master)
    dist: Dict[NodeId, Fraction] = {master: Fraction(0)}
    parent: Dict[NodeId, NodeId] = {}
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, master)]
    counter = 1
    done = set()
    while heap:
        _, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in platform.successors(u):
            nd = dist[u] + platform.c(u, v)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (float(nd), counter, v))
                counter += 1
    children: Dict[NodeId, List[NodeId]] = {n: [] for n in done}
    for v, u in parent.items():
        children[u].append(v)
    return children


class _Node:
    __slots__ = (
        "name", "w", "buffer", "cpu_busy", "port_busy", "inflight",
        "children", "rr_index", "completed",
    )

    def __init__(self, name: NodeId, w) -> None:
        self.name = name
        self.w = w
        self.buffer = 0
        self.cpu_busy = False
        self.port_busy = False
        self.inflight: Dict[NodeId, int] = {}
        self.children: List[NodeId] = []
        self.rr_index = 0
        self.completed = 0


def run_demand_driven(
    platform: Platform,
    master: NodeId,
    horizon: RationalLike,
    policy: str = "bandwidth",
    buffer_target: int = 2,
    children: Optional[Dict[NodeId, List[NodeId]]] = None,
    failures: Optional[Dict[NodeId, RationalLike]] = None,
) -> GreedyResult:
    """Simulate the demand-driven protocol until ``horizon``.

    ``buffer_target`` is how many task files a child keeps requested
    (buffer + in-flight); ``round-robin`` ignores it by design.

    ``failures`` injects faults: ``{node: time}`` kills the node's CPU at
    ``time`` (it stops computing; already-running work finishes, and the
    node keeps forwarding — the "machine got loaded" scenario of §5.5).
    One strength of demand-driven protocols is that surviving nodes keep
    pulling work, so the run degrades instead of deadlocking; tests assert
    exactly that.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick from {POLICIES}")
    horizon_f = as_fraction(horizon)
    failure_times: Dict[NodeId, Fraction] = {
        n: as_fraction(t) for n, t in (failures or {}).items()
    }
    tree = children if children is not None else spanning_tree_children(
        platform, master
    )
    sim = Simulator()
    trace = Trace()
    nodes: Dict[NodeId, _Node] = {}
    for name in tree:
        spec = platform.node(name)
        node = _Node(name, spec.w)
        node.children = list(tree[name])
        node.inflight = {c: 0 for c in node.children}
        nodes[name] = node
    if policy == "bandwidth":
        for node in nodes.values():
            node.children.sort(key=lambda ch: (platform.c(node.name, ch), ch))
    elif policy == "fastest":
        for node in nodes.values():
            node.children.sort(
                key=lambda ch: (
                    float("inf")
                    if not platform.node(ch).can_compute
                    else float(platform.node(ch).w),
                    ch,
                )
            )

    parent_of: Dict[NodeId, NodeId] = {}
    for u, chs in tree.items():
        for ch in chs:
            parent_of[ch] = u

    def has_supply(node: _Node) -> bool:
        return node.name == master or node.buffer > 0

    def take_task(node: _Node) -> None:
        if node.name != master:
            node.buffer -= 1
            # the buffer dropped below the demand target: wake the parent,
            # whose port may have gone idle while every child was full.
            parent = parent_of.get(node.name)
            if parent is not None:
                try_send(parent)

    def child_wants(node: _Node, ch: NodeId) -> bool:
        if policy == "round-robin":
            return True
        pending = nodes[ch].buffer + node.inflight[ch]
        return pending < buffer_target

    def pick_child(node: _Node) -> Optional[NodeId]:
        if not node.children:
            return None
        if policy == "round-robin":
            ch = node.children[node.rr_index % len(node.children)]
            node.rr_index += 1
            return ch
        for ch in node.children:
            if child_wants(node, ch):
                return ch
        return None

    def cpu_alive(name: NodeId) -> bool:
        t = failure_times.get(name)
        return t is None or sim.now < t

    def try_compute(name: NodeId) -> None:
        node = nodes[name]
        spec = platform.node(name)
        if node.cpu_busy or not spec.can_compute:
            return
        if not cpu_alive(name):
            return
        if not has_supply(node):
            return
        take_task(node)
        node.cpu_busy = True
        start = sim.now
        end = start + spec.w

        def finish() -> None:
            node.cpu_busy = False
            node.completed += 1
            trace.record(name, "compute", start, end, units=Fraction(1))
            try_compute(name)
            try_send(name)

        sim.schedule_at(end, finish)

    def try_send(name: NodeId) -> None:
        node = nodes[name]
        if node.port_busy:
            return
        if not has_supply(node):
            return
        ch = pick_child(node)
        if ch is None:
            return
        take_task(node)
        node.port_busy = True
        node.inflight[ch] += 1
        start = sim.now
        end = start + platform.c(name, ch)

        def arrive() -> None:
            node.port_busy = False
            node.inflight[ch] -= 1
            nodes[ch].buffer += 1
            trace.record(name, "send", start, end, peer=ch, units=Fraction(1))
            trace.record(ch, "recv", start, end, peer=name, units=Fraction(1))
            try_compute(ch)
            try_send(ch)
            try_send(name)

        sim.schedule_at(end, arrive)

    try_compute(master)
    try_send(master)
    sim.run(until=horizon_f)

    completed = {name: nodes[name].completed for name in nodes}
    return GreedyResult(
        policy=policy,
        horizon=horizon_f,
        completed=completed,
        trace=trace,
    )
