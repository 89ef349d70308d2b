"""Platform model: node-weighted, edge-weighted directed graph (section 2).

A :class:`Platform` is the graph ``G = (V, E, w, c)`` of the paper:

* each node ``Pi`` carries a weight ``w_i`` — the time (in time-steps) the
  node needs to process **one computational unit**; smaller is faster.
  ``w_i = INF`` is allowed and means the node has no computing power but can
  still forward data; ``w_i = 0`` is disallowed (it would permit infinitely
  fast computation).
* each directed edge ``e_ij : Pi -> Pj`` carries a weight ``c_ij`` — the
  time needed to communicate **one data unit** from ``Pi`` to ``Pj``.
  Links are oriented; a bidirectional link is two edges.  ``c_ij`` must be
  a positive rational (absent links are simply not in ``E``).

The operation mode attached to the platform (one-port full overlap by
default) is a property of the *simulator*, not of the graph; see
:mod:`repro.simulator.resources`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .._rational import INF, RationalLike, as_fraction, is_infinite

NodeId = str
Edge = Tuple[NodeId, NodeId]


class PlatformError(ValueError):
    """Raised on invalid platform construction or queries."""


@dataclass(frozen=True)
class NodeSpec:
    """A computing resource: ``w`` time-steps per computational unit."""

    name: NodeId
    #: Fraction, or INF for a pure forwarder (no computing power).
    w: object

    @property
    def can_compute(self) -> bool:
        return not is_infinite(self.w)

    @property
    def speed(self) -> Fraction:
        """Computational units per time-step (0 for forwarders)."""
        if is_infinite(self.w):
            return Fraction(0)
        return Fraction(1) / self.w


@dataclass(frozen=True)
class EdgeSpec:
    """A directed communication link: ``c`` time-steps per data unit."""

    src: NodeId
    dst: NodeId
    c: Fraction

    @property
    def bandwidth(self) -> Fraction:
        """Data units per time-step."""
        return Fraction(1) / self.c


class Platform:
    """The heterogeneous platform graph of the paper's section 2.

    Parameters
    ----------
    name:
        Optional label used in reports.

    Examples
    --------
    >>> g = Platform()
    >>> g.add_node("P0", w=1)
    >>> g.add_node("P1", w=2)
    >>> g.add_edge("P0", "P1", c="1/2")
    >>> g.num_nodes, g.num_edges
    (2, 1)
    """

    def __init__(self, name: str = "platform") -> None:
        self.name = name
        self._nodes: Dict[NodeId, NodeSpec] = {}
        self._edges: Dict[Edge, EdgeSpec] = {}
        self._succ: Dict[NodeId, List[NodeId]] = {}
        self._pred: Dict[NodeId, List[NodeId]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: NodeId, w: RationalLike = 1) -> NodeSpec:
        """Add a computing node.

        ``w`` is the per-computational-unit cost; pass :data:`repro.INF`
        for a node that can only forward data.  ``w`` must be positive.
        """
        if name in self._nodes:
            raise PlatformError(f"duplicate node {name!r}")
        if is_infinite(w):
            spec = NodeSpec(name, INF)
        else:
            wf = as_fraction(w)
            if wf.numerator <= 0:
                raise PlatformError(
                    f"node weight must be positive (w_i = 0 would allow "
                    f"infinitely many computations), got {w!r} for {name!r}"
                )
            spec = NodeSpec(name, wf)
        self._nodes[name] = spec
        self._succ[name] = []
        self._pred[name] = []
        return spec

    def add_edge(self, src: NodeId, dst: NodeId, c: RationalLike) -> EdgeSpec:
        """Add a directed link ``src -> dst`` with cost ``c`` per data unit."""
        if src not in self._nodes:
            raise PlatformError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise PlatformError(f"unknown destination node {dst!r}")
        if src == dst:
            raise PlatformError(f"self-loop {src!r} -> {src!r} is not allowed")
        if (src, dst) in self._edges:
            raise PlatformError(f"duplicate edge {src!r} -> {dst!r}")
        if is_infinite(c):
            raise PlatformError(
                "an infinite communication cost means 'no link'; "
                "omit the edge instead of adding it"
            )
        cf = as_fraction(c)
        if cf.numerator <= 0:
            raise PlatformError(f"edge cost must be positive, got {c!r}")
        spec = EdgeSpec(src, dst, cf)
        self._edges[(src, dst)] = spec
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        return spec

    def add_bidirectional_edge(
        self, a: NodeId, b: NodeId, c: RationalLike, c_back: Optional[RationalLike] = None
    ) -> Tuple[EdgeSpec, EdgeSpec]:
        """Add both ``a -> b`` (cost ``c``) and ``b -> a`` (cost ``c_back`` or ``c``)."""
        e1 = self.add_edge(a, b, c)
        e2 = self.add_edge(b, a, c if c_back is None else c_back)
        return e1, e2

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def nodes(self) -> List[NodeId]:
        """Node names in insertion order."""
        return list(self._nodes)

    def node(self, name: NodeId) -> NodeSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise PlatformError(f"unknown node {name!r}") from None

    def has_node(self, name: NodeId) -> bool:
        return name in self._nodes

    def edges(self) -> List[EdgeSpec]:
        """Edge specs in insertion order."""
        return list(self._edges.values())

    def edge(self, src: NodeId, dst: NodeId) -> EdgeSpec:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise PlatformError(f"no edge {src!r} -> {dst!r}") from None

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._edges

    def w(self, name: NodeId):
        """Node weight (Fraction, or INF for forwarders)."""
        return self.node(name).w

    def c(self, src: NodeId, dst: NodeId) -> Fraction:
        """Edge cost per data unit."""
        return self.edge(src, dst).c

    def successors(self, name: NodeId) -> List[NodeId]:
        """Nodes reachable by one out-edge of ``name`` (insertion order)."""
        if name not in self._succ:
            raise PlatformError(f"unknown node {name!r}")
        return list(self._succ[name])

    def predecessors(self, name: NodeId) -> List[NodeId]:
        """Nodes with an edge into ``name`` (insertion order)."""
        if name not in self._pred:
            raise PlatformError(f"unknown node {name!r}")
        return list(self._pred[name])

    def compute_nodes(self) -> List[NodeId]:
        """Nodes with finite ``w`` (the ones that can execute tasks)."""
        return [n for n, s in self._nodes.items() if s.can_compute]

    # ------------------------------------------------------------------
    # graph algorithms used throughout the library
    # ------------------------------------------------------------------
    def reachable_from(self, source: NodeId) -> Set[NodeId]:
        """All nodes reachable from ``source`` along directed edges."""
        self.node(source)
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in self._succ[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_connected_from(self, source: NodeId) -> bool:
        """True when every node is reachable from ``source``."""
        return len(self.reachable_from(source)) == self.num_nodes

    def depth_from(self, source: NodeId) -> int:
        """Longest BFS distance from ``source`` over reachable nodes.

        This is the "depth of the platform graph" that bounds the number of
        initialisation periods in section 4.2.
        """
        self.node(source)
        dist = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            nxt: List[NodeId] = []
            for u in frontier:
                for v in self._succ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        depth = max(depth, dist[v])
                        nxt.append(v)
            frontier = nxt
        return depth

    def shortest_path(self, src: NodeId, dst: NodeId) -> Optional[List[NodeId]]:
        """Minimum-total-``c`` directed path (Dijkstra), or None."""
        import heapq

        self.node(src)
        self.node(dst)
        dist: Dict[NodeId, Fraction] = {src: Fraction(0)}
        prev: Dict[NodeId, NodeId] = {}
        heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, src)]
        counter = 1
        done: Set[NodeId] = set()
        while heap:
            _, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            if u == dst:
                break
            for v in self._succ[u]:
                nd = dist[u] + self._edges[(u, v)].c
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (float(nd), counter, v))
                    counter += 1
        if dst not in done:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def simple_paths(
        self, src: NodeId, dst: NodeId, limit: int = 10_000
    ) -> List[List[NodeId]]:
        """All simple directed paths ``src -> dst`` (DFS, bounded by ``limit``)."""
        self.node(src)
        self.node(dst)
        out: List[List[NodeId]] = []
        path = [src]
        on_path = {src}

        def dfs(u: NodeId) -> None:
            if len(out) >= limit:
                return
            if u == dst:
                out.append(list(path))
                return
            for v in self._succ[u]:
                if v not in on_path:
                    path.append(v)
                    on_path.add(v)
                    dfs(v)
                    path.pop()
                    on_path.discard(v)

        dfs(src)
        return out

    def min_cut_value(self, src: NodeId, dst: NodeId) -> Fraction:
        """Max-flow value from ``src`` to ``dst`` with capacities ``1/c_ij``.

        Used by the broadcast module: Edmonds' theorem relates arborescence
        packing to min-cuts.  Exact rational Edmonds-Karp.
        """
        self.node(src)
        self.node(dst)
        residual: Dict[Edge, Fraction] = {}
        adj: Dict[NodeId, Set[NodeId]] = {n: set() for n in self._nodes}
        for (u, v), spec in self._edges.items():
            residual[(u, v)] = residual.get((u, v), Fraction(0)) + spec.bandwidth
            residual.setdefault((v, u), Fraction(0))
            adj[u].add(v)
            adj[v].add(u)
        flow = Fraction(0)
        while True:
            # BFS for an augmenting path in the residual graph.
            parent: Dict[NodeId, NodeId] = {src: src}
            frontier = [src]
            while frontier and dst not in parent:
                nxt: List[NodeId] = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in parent and residual.get((u, v), Fraction(0)) > 0:
                            parent[v] = u
                            nxt.append(v)
                frontier = nxt
            if dst not in parent:
                return flow
            # Find bottleneck.
            bottleneck: Optional[Fraction] = None
            v = dst
            while v != src:
                u = parent[v]
                r = residual[(u, v)]
                bottleneck = r if bottleneck is None else min(bottleneck, r)
                v = u
            assert bottleneck is not None and bottleneck > 0
            v = dst
            while v != src:
                u = parent[v]
                residual[(u, v)] -= bottleneck
                residual[(v, u)] += bottleneck
                v = u
            flow += bottleneck

    # ------------------------------------------------------------------
    # transforms / io
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Platform":
        """An independent copy: the frozen, already validated specs are
        shared, only the four containers are rebuilt."""
        g = Platform(name or self.name)
        g._nodes = dict(self._nodes)
        g._edges = dict(self._edges)
        g._succ = {node: list(out) for node, out in self._succ.items()}
        g._pred = {node: list(into) for node, into in self._pred.items()}
        return g

    def scale(
        self, compute: RationalLike = 1, comm: RationalLike = 1, name: Optional[str] = None
    ) -> "Platform":
        """Return a copy with all ``w`` multiplied by ``compute`` and all
        ``c`` by ``comm`` (used by the dynamic/monitoring modules)."""
        cf = as_fraction(compute)
        mf = as_fraction(comm)
        if cf <= 0 or mf <= 0:
            raise PlatformError("scale factors must be positive")
        g = Platform(name or self.name)
        for spec in self._nodes.values():
            g.add_node(spec.name, INF if not spec.can_compute else spec.w * cf)
        for spec in self._edges.values():
            g.add_edge(spec.src, spec.dst, spec.c * mf)
        return g

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (float weights)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for spec in self._nodes.values():
            g.add_node(spec.name, w=float(spec.w) if spec.can_compute else INF)
        for spec in self._edges.values():
            g.add_edge(spec.src, spec.dst, c=float(spec.c))
        return g

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:
        return (
            f"Platform({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description (used by examples)."""
        from .._rational import format_fraction

        lines = [f"Platform {self.name!r}: {self.num_nodes} nodes, {self.num_edges} edges"]
        for spec in self._nodes.values():
            wtxt = "inf (forwarder)" if not spec.can_compute else format_fraction(spec.w)
            lines.append(f"  node {spec.name}: w = {wtxt}")
        for spec in self._edges.values():
            lines.append(
                f"  edge {spec.src} -> {spec.dst}: c = {format_fraction(spec.c)}"
            )
        return "\n".join(lines)
