"""Arborescence packing: enumerated for multicast, priced for broadcast.

Steady-state broadcast/multicast schedules route each operation instance
along a directed tree (arborescence) rooted at the source: every node in
the tree receives the message exactly once and forwards it along its tree
out-edges.  A *fractional packing* of arborescences — tree ``T`` used at
rate ``x_T`` — is feasible under the one-port model iff every node's total
send time and receive time per time-unit stay below 1.  Edge ``(i, j)`` is
busy ``sum_T x_T c_ij`` over the trees that hold it, and the port rows
:func:`~repro.core.activities.add_port_rows` writes from that are:

* send port of ``i``:  ``sum_T x_T * sum_{(i,j) in T} c_ij <= 1``
* recv port of ``j``:  ``sum_T x_T * c_(parent_T(j), j) <= 1``

The best packing over *all* arborescences equals the optimal steady-state
throughput of the series of broadcasts (resp. multicasts): any schedule
routes each instance along some arborescence, and conversely a packing
yields a periodic schedule.

* Broadcast (spanning arborescences): :func:`pack_arborescences` finds the
  optimal packing in polynomial time by column generation.  The master is
  :func:`pack_trees`'s LP over a growing pool; its duals ``y`` price an
  edge ``c_uv`` times the duals of the port rows that hold it
  (``y_send(u) + y_recv(v)``), and a minimum-cost arborescence
  (:func:`min_cost_arborescence`, Chu-Liu/Edmonds) is the column to add
  while it costs less than 1.  When none does, ``y`` is feasible for the
  packing LP over every arborescence, so ``sum(y)`` bounds the throughput
  and the master attains it.  Reference [5] proves this optimum matches
  the max-rule LP bound.
* Multicast (Steiner arborescences): [7] proves the packing NP-hard, and
  :func:`enumerate_arborescences` lists every tree on the small instances
  used in tests and benchmarks — it is exponential by design.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..lp import LinearProgram, LPSolution, lp_sum
from ..platform.graph import Edge, NodeId, Platform, PlatformError
from .activities import add_port_rows, port_groups, port_loads

Arborescence = FrozenSet[Edge]


class TreeEnumerationLimit(RuntimeError):
    """Raised when enumeration exceeds the caller's tree budget."""


def _prune_non_terminal_leaves(
    edges: Set[Edge], root: NodeId, terminals: Set[NodeId]
) -> FrozenSet[Edge]:
    """Iteratively drop leaves that are not terminals (minimality)."""
    work = set(edges)
    while True:
        out_deg: Dict[NodeId, int] = {}
        in_edge: Dict[NodeId, Edge] = {}
        for (u, v) in work:
            out_deg[u] = out_deg.get(u, 0) + 1
            in_edge[v] = (u, v)
        removable = [
            v
            for v in in_edge
            if out_deg.get(v, 0) == 0 and v not in terminals
        ]
        if not removable:
            return frozenset(work)
        for v in removable:
            work.discard(in_edge[v])


def enumerate_arborescences(
    platform: Platform,
    root: NodeId,
    terminals: Optional[Sequence[NodeId]] = None,
    limit: int = 250_000,
) -> List[Arborescence]:
    """All minimal arborescences rooted at ``root`` covering ``terminals``.

    ``terminals`` defaults to every node except the root (spanning
    arborescences / broadcast trees); pass a subset for multicast (Steiner)
    trees.  Minimal means every leaf is a terminal.  Raises
    :class:`TreeEnumerationLimit` beyond ``limit`` trees (exponential
    worst case — intended for small platforms).
    """
    platform.node(root)
    if terminals is None:
        term_set = {n for n in platform.nodes() if n != root}
    else:
        term_set = set(terminals)
        for t in term_set:
            platform.node(t)
        if root in term_set:
            raise PlatformError("root cannot be a terminal")
    if not term_set:
        return [frozenset()]

    found: Set[Arborescence] = set()

    def paths_to(target: NodeId, reached: FrozenSet[NodeId]) -> List[List[Edge]]:
        """Simple paths from the reached set to ``target`` avoiding it."""
        results: List[List[Edge]] = []
        path_edges: List[Edge] = []
        on_path: Set[NodeId] = set()

        def dfs(u: NodeId) -> None:
            if u == target:
                results.append(list(path_edges))
                return
            for v in platform.successors(u):
                if v in reached or v in on_path:
                    continue
                on_path.add(v)
                path_edges.append((u, v))
                dfs(v)
                path_edges.pop()
                on_path.discard(v)

        for start in reached:
            dfs(start)
        return results

    def grow(
        reached: FrozenSet[NodeId],
        edges: FrozenSet[Edge],
        uncovered: FrozenSet[NodeId],
    ) -> None:
        if not uncovered:
            found.add(_prune_non_terminal_leaves(set(edges), root, term_set))
            if len(found) > limit:
                raise TreeEnumerationLimit(
                    f"more than {limit} arborescences"
                )
            return
        target = min(uncovered)
        for path in paths_to(target, reached):
            new_nodes = frozenset(v for (_u, v) in path)
            grow(
                reached | new_nodes,
                edges | frozenset(path),
                (uncovered - new_nodes) - {target},
            )

    grow(frozenset({root}), frozenset(), frozenset(term_set))
    return sorted(found, key=lambda t: (len(t), sorted(t)))


def _tree_busy(platform: Platform, tree: Arborescence) -> Dict[Edge, Fraction]:
    """Each edge's busy time ``c_ij`` for one instance of ``tree``; a tree
    in which a node has two parents is refused."""
    parents: Dict[NodeId, NodeId] = {}
    for (u, v) in tree:
        if parents.setdefault(v, u) != u:
            raise PlatformError(f"not an arborescence: {v} has two parents")
    return {(u, v): platform.c(u, v) for (u, v) in tree}


def tree_throughput(platform: Platform, tree: Arborescence) -> Fraction:
    """Max rate of a *single* tree: ``1 / max port load`` over all nodes."""
    if not tree:
        return Fraction(0)
    loads = port_loads(platform, _tree_busy(platform, tree))
    return Fraction(1) / max(load for _node, _group, load, _budget in loads)


def _solve_packing(
    platform: Platform, trees: Sequence[Arborescence], backend: str
) -> Tuple[LinearProgram, LPSolution, Dict[Arborescence, Fraction]]:
    """The packing LP over ``trees``, its solution and the non-zero
    rates; its rows are :func:`add_port_rows`'s, edge ``(i, j)`` busy
    ``(x_T, c_ij)`` for each tree ``T`` that holds it."""
    lp = LinearProgram("tree-packing")
    xs = [lp.variable(f"x[{k}]", lo=0) for k in range(len(trees))]
    holders: Dict[Edge, List[Tuple[object, Fraction]]] = {}
    for x, tree in zip(xs, trees):
        for edge, c in _tree_busy(platform, tree).items():
            holders.setdefault(edge, []).append((x, c))
    add_port_rows(lp, platform, lambda i, j: holders.get((i, j), ()))
    lp.maximize(lp_sum(xs))
    sol = lp.solve(backend=backend)
    rates = {tree: sol[x] for x, tree in zip(xs, trees) if sol[x] != 0}
    return lp, sol, rates


def pack_trees(
    platform: Platform,
    trees: Sequence[Arborescence],
    backend: str = "exact",
) -> Tuple[Fraction, Dict[Arborescence, Fraction]]:
    """Optimal fractional packing of the given arborescences.

    Maximises ``sum_T x_T`` under the one-port send/receive constraints
    above.  Returns the throughput and the per-tree rates (zero rates
    omitted).
    """
    if not trees:
        return Fraction(0), {}
    _lp, sol, rates = _solve_packing(platform, trees, backend)
    return sol.objective, rates


def min_cost_arborescence(
    platform: Platform, root: NodeId, cost: Dict[Edge, Fraction]
) -> Optional[Arborescence]:
    """The cheapest spanning arborescence rooted at ``root`` under
    ``cost`` (Chu-Liu/Edmonds), or ``None`` when a node is out of reach.
    Exact, and deterministic: edges are scanned sorted, a tie keeps the
    first."""
    edges = sorted(cost)
    index = {node: k for k, node in enumerate(sorted(platform.nodes()))}
    arcs = [(index[u], index[v], cost[u, v]) for (u, v) in edges]
    chosen = _chu_liu(len(index), index[root], arcs)
    if chosen is None:
        return None
    return frozenset(edges[k] for k in chosen)


def _chu_liu(
    n: int, root: int, arcs: List[Tuple[int, int, Fraction]]
) -> Optional[List[int]]:
    """Indices into ``arcs`` of a minimum arborescence of nodes ``0..n-1``:
    every node takes its cheapest in-arc; a cycle among those contracts
    to one node, whose in-arcs are re-priced by the cycle arc they would
    replace, and the contracted graph is solved the same way."""
    enter: List[Optional[int]] = [None] * n
    for k, (u, v, w) in enumerate(arcs):
        if v != root and (enter[v] is None or w < arcs[enter[v]][2]):
            enter[v] = k
    if any(enter[v] is None for v in range(n) if v != root):
        return None
    label = [-1] * n
    walk = [-1] * n
    cycles = 0
    for start in range(n):
        v = start
        while v != root and walk[v] == -1:
            walk[v] = start
            v = arcs[enter[v]][0]
        if v != root and walk[v] == start and label[v] == -1:
            while label[v] == -1:
                label[v] = cycles
                v = arcs[enter[v]][0]
            cycles += 1
    if not cycles:
        return [enter[v] for v in range(n) if v != root]
    on_cycle = [lab != -1 for lab in label]
    m = cycles
    for v in range(n):
        if label[v] == -1:
            label[v] = m
            m += 1
    sub: List[Tuple[int, int, Fraction]] = []
    origin: List[int] = []
    for k, (u, v, w) in enumerate(arcs):
        if label[u] != label[v] and v != root:
            sub.append((label[u], label[v], w - arcs[enter[v]][2]))
            origin.append(k)
    inner = _chu_liu(m, label[root], sub)
    if inner is None:
        return None
    chosen = [origin[k] for k in inner]
    entered = {arcs[k][1] for k in chosen}
    chosen.extend(enter[v] for v in range(n)
                  if on_cycle[v] and v not in entered)
    return chosen


def pack_arborescences(
    platform: Platform, root: NodeId, backend: str = "exact"
) -> Tuple[Fraction, Dict[Arborescence, Fraction], Fraction]:
    """The optimal packing of spanning arborescences rooted at ``root``:
    throughput, per-tree rates and the dual bound ``sum(y)`` (all zero
    when a node is out of reach).  Column generation (module docstring)
    from one shortest-path tree; it stops when the cheapest arborescence
    costs at least 1, or is already pooled (a float backend's rounding).
    """
    from .steiner import shortest_path_tree

    others = [node for node in platform.nodes() if node != root]
    if not others:
        raise PlatformError("broadcast needs at least one receiver")
    seed = shortest_path_tree(platform, root, others)
    if seed is None:
        return Fraction(0), {}, Fraction(0)
    pool = [seed]
    while True:
        lp, sol, rates = _solve_packing(platform, pool, backend)
        y = {lp.constraints[k].name: dual for k, dual in sol.duals.items()}
        cost = {(e.src, e.dst): Fraction(0) for e in platform.edges()}
        for node in platform.nodes():
            for name, edges, _budget in port_groups(platform, node):
                price = y.get(f"{name}[{node}]")
                if price:
                    for (i, j) in edges:
                        cost[i, j] += price * platform.c(i, j)
        tree = min_cost_arborescence(platform, root, cost)
        if sum(cost[e] for e in tree) >= 1 or tree in pool:
            break
        pool.append(tree)
    return sol.objective, rates, sum(y.values(), Fraction(0))
