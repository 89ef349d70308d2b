"""Weighted edge colouring of bipartite communication graphs (§4.1).

The paper orchestrates one period's communications as follows: build a
bipartite graph with a *sender* copy and a *receiver* copy of every node;
weight the edge ``P_send_i -> P_recv_j`` by the total communication time of
``i -> j`` during the period; decompose the weighted graph into **weighted
matchings** — only communications forming a matching may run concurrently
under the one-port model.  The algorithm referenced is the weighted
edge-colouring of bipartite graphs (Schrijver, Combinatorial Optimization,
vol. A, ch. 20), which yields a polynomial number of matchings (no more
than ``|E|`` up to padding) whose durations sum to the maximum port load.

We implement the classical Birkhoff–von-Neumann-style procedure:

1. *Pad* the weighted bipartite graph with dummy edges (and, if needed,
   dummy vertices) until every vertex has identical load ``L`` — the
   analogue of completing a sub-stochastic matrix to a doubly stochastic
   one.  Each padding edge closes at least one vertex's deficit, so at most
   ``n_send + n_recv`` dummies are added.
2. Repeatedly extract a **perfect matching** on the support of the padded
   graph (it exists by Hall's theorem while all loads are equal), schedule
   it for ``d = min`` weight over its edges, and subtract.  Each round
   drives at least one edge to zero, so at most ``|E| + n_send + n_recv``
   matchings are produced — the paper's "compact description of the
   schedule" even when the period ``T`` is exponentially large.

The send-or-receive model of section 5.1.1 loses the bipartite structure
(a node's sends conflict with its receives); :func:`greedy_interval_coloring`
is its polynomial fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Sequence, Tuple

from .._rational import as_fraction
from .matching import perfect_matching

Vertex = Hashable
WeightedEdge = Tuple[Vertex, Vertex, Fraction]


class EdgeColoringError(ValueError):
    """Raised when the input is not a valid weighted bipartite graph."""


@dataclass(frozen=True)
class MatchingSlice:
    """A set of simultaneous communications and its duration.

    ``pairs`` maps sender -> receiver; by construction each sender and each
    receiver appears at most once, so running all pairs concurrently obeys
    the one-port constraint.
    """

    pairs: Dict[Vertex, Vertex]
    duration: Fraction

    def __post_init__(self) -> None:
        receivers = list(self.pairs.values())
        if len(set(receivers)) != len(receivers):
            raise EdgeColoringError("slice pairs do not form a matching")
        if self.duration <= 0:
            raise EdgeColoringError(f"non-positive duration {self.duration}")


def vertex_loads(
    edges: Sequence[WeightedEdge],
) -> Tuple[Dict[Vertex, Fraction], Dict[Vertex, Fraction]]:
    """Total weight per sender and per receiver."""
    send: Dict[Vertex, Fraction] = {}
    recv: Dict[Vertex, Fraction] = {}
    for u, v, w in edges:
        send[u] = send.get(u, Fraction(0)) + w
        recv[v] = recv.get(v, Fraction(0)) + w
    return send, recv


def weighted_edge_coloring(
    edges: Sequence[WeightedEdge],
) -> List[MatchingSlice]:
    """Decompose a weighted bipartite graph into matching slices.

    Parameters
    ----------
    edges:
        ``(sender, receiver, weight)`` triples; weights must be positive
        rationals and each (sender, receiver) pair must appear once.

    Returns
    -------
    list of :class:`MatchingSlice`
        Durations sum to the maximum vertex load; for every input edge the
        total duration of slices containing it equals its weight; the
        number of slices is at most ``|E| + n_send + n_recv``.
    """
    work: Dict[Tuple[Vertex, Vertex], Fraction] = {}
    for u, v, w in edges:
        wf = as_fraction(w) if not isinstance(w, Fraction) else w
        if wf < 0:
            raise EdgeColoringError(f"negative weight on {u} -> {v}")
        if wf == 0:
            continue
        key = (u, v)
        if key in work:
            raise EdgeColoringError(f"duplicate edge {u} -> {v}")
        work[key] = wf
    if not work:
        return []

    send_load, recv_load = vertex_loads([(u, v, w) for (u, v), w in work.items()])
    L = max(max(send_load.values()), max(recv_load.values()))

    # --- pad to an equal-load graph -----------------------------------
    # Dummy vertices equalise the two sides' total deficit; dummy edges
    # (tracked separately from real ones) close the per-vertex deficits.
    senders = list(send_load)
    receivers = list(recv_load)
    n = max(len(senders), len(receivers))
    for k in range(n - len(senders)):
        senders.append(("__dummy_send__", k))
        send_load[("__dummy_send__", k)] = Fraction(0)
    for k in range(n - len(receivers)):
        receivers.append(("__dummy_recv__", k))
        recv_load[("__dummy_recv__", k)] = Fraction(0)

    dummy: Dict[Tuple[Vertex, Vertex], Fraction] = {}
    deficit_s = {u: L - send_load[u] for u in senders}
    deficit_r = {v: L - recv_load[v] for v in receivers}
    pending_s = [u for u in senders if deficit_s[u] > 0]
    pending_r = [v for v in receivers if deficit_r[v] > 0]
    si = ri = 0
    while si < len(pending_s) and ri < len(pending_r):
        u, v = pending_s[si], pending_r[ri]
        d = min(deficit_s[u], deficit_r[v])
        if d > 0:
            dummy[(u, v)] = dummy.get((u, v), Fraction(0)) + d
            deficit_s[u] -= d
            deficit_r[v] -= d
        if deficit_s[u] == 0:
            si += 1
        if deficit_r[v] == 0:
            ri += 1
    if any(deficit_s[u] != 0 for u in senders) or any(
        deficit_r[v] != 0 for v in receivers
    ):
        raise EdgeColoringError("internal error: padding failed")  # pragma: no cover

    # --- peel perfect matchings ---------------------------------------
    # A (u, v) pair may carry a real edge and a dummy edge in parallel;
    # each slice consumes from exactly one of the two (real first), so that
    # the real edge appears in slices for exactly its weight.
    slices: List[MatchingSlice] = []
    remaining = L
    while remaining > 0:
        adjacency: Dict[Vertex, List[Vertex]] = {u: [] for u in senders}
        for (u, v), w in work.items():
            if w > 0:
                adjacency[u].append(v)
        for (u, v), w in dummy.items():
            if w > 0 and work.get((u, v), Fraction(0)) <= 0:
                adjacency[u].append(v)
        matching = perfect_matching(adjacency, left_size=len(senders))
        d = remaining
        for u, v in matching.items():
            real_w = work.get((u, v), Fraction(0))
            d = min(d, real_w if real_w > 0 else dummy[(u, v)])
        real_pairs: Dict[Vertex, Vertex] = {}
        for u, v in matching.items():
            real_w = work.get((u, v), Fraction(0))
            if real_w > 0:
                work[(u, v)] = real_w - d
                real_pairs[u] = v
            else:
                dummy[(u, v)] -= d
                if dummy[(u, v)] < 0:
                    raise EdgeColoringError(
                        "internal error: dummy underflow"
                    )  # pragma: no cover
        if real_pairs:
            slices.append(MatchingSlice(pairs=real_pairs, duration=d))
        remaining -= d
    if any(w != 0 for w in work.values()):
        raise EdgeColoringError(
            "internal error: leftover weight after decomposition"
        )  # pragma: no cover
    return slices


def greedy_interval_coloring(
    edges: Sequence[WeightedEdge],
) -> List[MatchingSlice]:
    """Decompose weighted communications so no node sends *or* receives
    twice at once (edge colouring of the conflict multigraph, greedy).

    Under send-or-receive the conflict graph is no longer bipartite (a
    node's sends conflict with its receives), so exact minimum colouring
    is NP-hard; this greedy decomposition is the polynomial fallback.
    Guarantee: total length <= 2 * max node load (Shannon/Vizing-style
    factor); the paper notes the loss of the exact bipartite algorithm is
    the price of the weaker model.
    """
    remaining: Dict[Tuple[Vertex, Vertex], Fraction] = {}
    for u, v, w in edges:
        if w > 0:
            remaining[(u, v)] = remaining.get((u, v), Fraction(0)) + w
    slices: List[MatchingSlice] = []
    while remaining:
        used: set = set()
        batch: Dict[Vertex, Vertex] = {}
        for (u, v) in sorted(remaining, key=lambda e: -remaining[e]):
            if u in used or v in used:
                continue
            batch[u] = v
            used.add(u)
            used.add(v)
        duration = min(remaining[(u, v)] for u, v in batch.items())
        for u, v in batch.items():
            remaining[(u, v)] -= duration
            if remaining[(u, v)] == 0:
                del remaining[(u, v)]
        slices.append(MatchingSlice(pairs=batch, duration=duration))
    return slices


def verify_coloring(
    edges: Sequence[WeightedEdge], slices: Sequence[MatchingSlice]
) -> None:
    """Check the decomposition invariants; raise on any violation.

    * every slice is a matching (enforced by construction, re-checked);
    * per-edge durations sum exactly to the edge weight;
    * total duration equals the maximum vertex load.
    """
    covered: Dict[Tuple[Vertex, Vertex], Fraction] = {}
    for sl in slices:
        receivers = list(sl.pairs.values())
        if len(set(receivers)) != len(receivers):
            raise EdgeColoringError("slice is not a matching")
        for u, v in sl.pairs.items():
            covered[(u, v)] = covered.get((u, v), Fraction(0)) + sl.duration
    expected = {(u, v): w for u, v, w in edges if w > 0}
    if set(covered) != set(expected):
        missing = set(expected) - set(covered)
        extra = set(covered) - set(expected)
        raise EdgeColoringError(
            f"edge cover mismatch: missing {missing}, extra {extra}"
        )
    for key, w in expected.items():
        if covered[key] != w:
            raise EdgeColoringError(
                f"edge {key} covered {covered[key]} != weight {w}"
            )
    send_load, recv_load = vertex_loads(edges)
    if edges:
        L = max(max(send_load.values()), max(recv_load.values()))
        total = sum((sl.duration for sl in slices), start=Fraction(0))
        if total > L:
            raise EdgeColoringError(f"slices total {total} exceed max load {L}")
