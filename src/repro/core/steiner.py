"""Polynomial multicast-tree heuristics (the practical side of [7]).

Computing the optimal steady-state multicast throughput is NP-hard, and
exhaustive arborescence enumeration explodes beyond toy platforms.  The
companion paper [7] ("Complexity results and heuristics for pipelined
multicast operations") therefore pairs the hardness proof with heuristics;
this module implements the classical constructive ones:

* :func:`shortest_path_tree` — union of min-cost source→target paths,
  pruned to terminal leaves;
* :func:`cheapest_insertion_tree` — grow the tree one terminal at a time,
  always attaching the terminal with the cheapest path *from the current
  tree* (Takahashi–Matsuyama for directed graphs);
* :func:`candidate_trees` — a polynomial candidate pool: the two heuristics
  plus one insertion tree per terminal ordering rotation and per-terminal
  single-path trees;
* :func:`heuristic_multicast_packing` — the practical scheduler: an optimal
  fractional packing (exact LP) over the *candidate pool* — polynomial
  end-to-end, sandwiched between the best single tree and the true optimum.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..platform.graph import Edge, NodeId, Platform
from .trees import (
    Arborescence,
    _prune_non_terminal_leaves,
    pack_trees,
)


def _dijkstra_from_set(
    platform: Platform, sources: Set[NodeId]
) -> Tuple[Dict[NodeId, Fraction], Dict[NodeId, Edge]]:
    """Min-cost distances from a *set* of already-reached nodes."""
    dist: Dict[NodeId, Fraction] = {s: Fraction(0) for s in sources}
    parent: Dict[NodeId, Edge] = {}
    # exact Fraction heap keys: float(nd) collapsed distances closer
    # than one double ulp, so a node could be finalised before a truly
    # shorter path relaxed it — its successors then kept stale distances
    heap: List[Tuple[Fraction, int, NodeId]] = [
        (Fraction(0), k, s) for k, s in enumerate(sorted(sources))
    ]
    heapq.heapify(heap)
    counter = len(heap)
    done: Set[NodeId] = set()
    while heap:
        _, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in platform.successors(u):
            nd = dist[u] + platform.c(u, v)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = (u, v)
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return dist, parent


def shortest_path_tree(
    platform: Platform, source: NodeId, targets: Sequence[NodeId]
) -> Optional[Arborescence]:
    """Union of min-cost paths source -> each target, pruned.

    Note the union of shortest paths from a single source is always an
    arborescence under consistent tie-breaking (each node keeps one parent).
    """
    platform.node(source)
    term_set = set(targets)
    dist, parent = _dijkstra_from_set(platform, {source})
    if not term_set <= set(dist):
        return None
    edges: Set[Edge] = set()
    for t in term_set:
        node = t
        while node != source:
            e = parent[node]
            edges.add(e)
            node = e[0]
    return _prune_non_terminal_leaves(edges, source, term_set)


def cheapest_insertion_tree(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    order: Optional[Sequence[NodeId]] = None,
) -> Optional[Arborescence]:
    """Takahashi–Matsuyama: attach terminals by cheapest path from the tree.

    ``order`` overrides the insertion order (default: cheapest-first at
    each step, the classical greedy).
    """
    platform.node(source)
    term_set = set(targets)
    reached: Set[NodeId] = {source}
    edges: Set[Edge] = set()
    pending = list(order) if order is not None else None
    remaining = set(term_set)
    while remaining:
        dist, parent = _dijkstra_from_set(platform, reached)
        if pending is not None:
            nxt = None
            for t in pending:
                if t in remaining:
                    nxt = t
                    break
            if nxt is None or nxt not in dist:
                return None
        else:
            reachable = [t for t in remaining if t in dist]
            if not reachable:
                return None
            nxt = min(reachable, key=lambda t: (dist[t], t))
        # walk back to the tree
        node = nxt
        path_edges: List[Edge] = []
        while node not in reached:
            e = parent[node]
            path_edges.append(e)
            node = e[0]
        for (u, v) in path_edges:
            edges.add((u, v))
            reached.add(v)
        remaining.discard(nxt)
    return _prune_non_terminal_leaves(edges, source, term_set)


def _without_edge(platform: Platform, banned: Edge) -> Platform:
    g = Platform(f"{platform.name}-minus-{banned[0]}-{banned[1]}")
    for name in platform.nodes():
        g.add_node(name, platform.node(name).w)
    for spec in platform.edges():
        if (spec.src, spec.dst) != banned:
            g.add_edge(spec.src, spec.dst, spec.c)
    return g


def candidate_trees(
    platform: Platform, source: NodeId, targets: Sequence[NodeId]
) -> List[Arborescence]:
    """A polynomial pool of distinct candidate multicast trees.

    Diversity matters: packings beat single trees only when alternative
    trees shift load between ports, so beyond the two base heuristics and
    per-rotation insertion orders, the pool contains one *edge-exclusion*
    variant per edge used by the base trees (rerun the insertion heuristic
    with that edge removed).  Pool size stays O(|targets| + |E|).
    """
    targets = list(targets)
    pool: Set[Arborescence] = set()
    spt = shortest_path_tree(platform, source, targets)
    if spt:
        pool.add(spt)
    greedy = cheapest_insertion_tree(platform, source, targets)
    if greedy:
        pool.add(greedy)
    # one insertion tree per rotation of the target list — cheap diversity
    for k in range(len(targets)):
        rotation = targets[k:] + targets[:k]
        tree = cheapest_insertion_tree(platform, source, targets,
                                       order=rotation)
        if tree:
            pool.add(tree)
    tree = cheapest_insertion_tree(platform, source, targets,
                                   order=list(reversed(targets)))
    if tree:
        pool.add(tree)
    # edge-exclusion variants: force routes around every used edge
    base_edges: Set[Edge] = set()
    for t in pool:
        base_edges |= set(t)
    for banned in sorted(base_edges):
        reduced = _without_edge(platform, banned)
        tree = cheapest_insertion_tree(reduced, source, targets)
        if tree:
            pool.add(tree)
    return sorted(pool, key=lambda t: (len(t), sorted(t)))


def heuristic_multicast_packing(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    backend: str = "exact",
) -> Tuple[Fraction, Dict[Arborescence, Fraction]]:
    """Polynomial multicast scheduler: optimal packing of candidate trees.

    Guarantees: at least the best candidate tree's stand-alone rate (the
    packing can always put full weight on one tree), at most the true
    optimum (candidates are a subset of all arborescences).
    """
    pool = candidate_trees(platform, source, targets)
    if not pool:
        return Fraction(0), {}
    return pack_trees(platform, pool, backend=backend)
