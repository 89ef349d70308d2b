"""Maximum bipartite matching (Hopcroft–Karp), implemented from scratch.

Used by the weighted edge-colouring decomposition (section 4.1) to extract
the per-slice communication matchings.  Cross-checked against networkx in
the test-suite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Mapping, Optional

Vertex = Hashable


def hopcroft_karp(
    adjacency: Mapping[Vertex, Iterable[Vertex]]
) -> Dict[Vertex, Vertex]:
    """Maximum matching of a bipartite graph.

    Parameters
    ----------
    adjacency:
        Maps each *left* vertex to its right neighbours.  Left and right
        vertex namespaces may overlap; they are treated as distinct sides.

    Returns
    -------
    dict
        ``left -> right`` pairs of a maximum matching.

    Complexity ``O(E sqrt(V))``.
    """
    left = list(adjacency)
    adj: Dict[Vertex, List[Vertex]] = {u: list(vs) for u, vs in adjacency.items()}
    match_l: Dict[Vertex, Optional[Vertex]] = {u: None for u in left}
    match_r: Dict[Vertex, Optional[Vertex]] = {}
    for vs in adj.values():
        for v in vs:
            match_r.setdefault(v, None)

    # BFS layer distances are integers below 2*|left|; an unreachable
    # integer sentinel keeps the module float-free
    INF = 2 * len(left) + 1
    dist: Dict[Vertex, int] = {}

    def bfs() -> bool:
        queue: deque = deque()
        for u in left:
            if match_l[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: Vertex) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w is None or (dist.get(w, INF) == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in left:
            if match_l[u] is None:
                dfs(u)
    return {u: v for u, v in match_l.items() if v is not None}


def perfect_matching(
    adjacency: Mapping[Vertex, Iterable[Vertex]],
    left_size: Optional[int] = None,
) -> Dict[Vertex, Vertex]:
    """Perfect matching saturating every left vertex; raises if none exists.

    The edge-colouring decomposition calls this on the support of an
    equal-load bipartite graph, where Hall's condition guarantees
    existence (Birkhoff–von-Neumann argument).
    """
    matching = hopcroft_karp(adjacency)
    n = left_size if left_size is not None else len(adjacency)
    if len(matching) != n:
        raise ValueError(
            f"no perfect matching: matched {len(matching)} of {n} left vertices"
        )
    return matching
