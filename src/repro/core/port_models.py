"""Alternative communication models — section 5.1.

The paper's favourite model lets a node send *and* receive simultaneously
(full overlap, one port each way).  Section 5.1 examines what changes when
that hypothesis moves:

* **send-OR-receive** (§5.1.1): one-port constraints merge into
  ``time sending + time receiving <= 1`` per node.  The LP is an easy
  edit, but reconstruction now needs an edge colouring of an *arbitrary*
  (non-bipartite) graph — NP-hard; we provide the standard greedy
  approximation (never worse than twice the optimal number of colours,
  mirroring "efficient polynomial approximation algorithms can be used").
* **multiport with dedicated cards** (§5.1.2): a node owns ``k`` send
  cards and ``k`` receive cards; constraints become ``sum s_ij <= k``
  per direction, and reconstruction still works — each card is a vertex
  of the bipartite graph, so the colouring stays bipartite (the paper:
  "the schedule can be reconstructed, each node in the bipartite graph
  corresponds to a network card").

Throughputs are always ordered
``send-or-receive <= one-port <= multiport(k)``; benchmark C11 measures
the gaps.

The edit itself is made in one place for every steady-state LP:
:func:`repro.core.activities.port_groups` maps a node to its port
budgets under a model, each builder (``build_ssms_lp``,
``build_commodity_lp``, ...) turns those into rows, and every exact answer
is verified against the same groups.  This module
keeps the master-slave solvers under the two alternative models and the
greedy colouring that schedules send-or-receive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..platform.graph import NodeId, Platform
from .activities import SteadyStateSolution
from .master_slave import build_ssms_lp, package_ssms_solution


def solve_master_slave_send_or_receive(
    platform: Platform, master: NodeId, backend: str = "exact"
) -> SteadyStateSolution:
    """SSMS under the send-OR-receive model of section 5.1.1."""
    lp, handles = build_ssms_lp(platform, master, "send-or-receive")
    sol = lp.solve(backend=backend)
    return package_ssms_solution(platform, master, sol, handles,
                                 backend=backend, port_model="send-or-receive")


def solve_master_slave_multiport(
    platform: Platform,
    master: NodeId,
    ports: int = 2,
    backend: str = "exact",
) -> SteadyStateSolution:
    """SSMS with ``ports`` dedicated send cards and receive cards per node.

    Each individual link still carries at most one message at a time
    (``s_ij <= 1``); per-direction totals may reach ``ports``.
    """
    lp, handles = build_ssms_lp(platform, master, "multiport", ports)
    sol = lp.solve(backend=backend)
    return package_ssms_solution(platform, master, sol, handles,
                                 backend=backend, port_model="multiport",
                                 ports=ports)


# ----------------------------------------------------------------------
# Greedy colouring for send-or-receive reconstruction (§5.1.1)
# ----------------------------------------------------------------------
def greedy_interval_coloring(
    edges: Sequence[Tuple[NodeId, NodeId, Fraction]],
) -> List[Tuple[Dict[NodeId, NodeId], Fraction]]:
    """Decompose weighted communications so no node sends *or* receives
    twice at once (edge colouring of the conflict multigraph, greedy).

    Under send-or-receive the conflict graph is no longer bipartite (a
    node's sends conflict with its receives), so exact minimum colouring
    is NP-hard; this greedy decomposition is the polynomial fallback.
    Guarantee: total length <= 2 * max node load (Shannon/Vizing-style
    factor); the paper notes the loss of the exact bipartite algorithm is
    the price of the weaker model.
    """
    remaining: Dict[Tuple[NodeId, NodeId], Fraction] = {}
    for u, v, w in edges:
        if w > 0:
            remaining[(u, v)] = remaining.get((u, v), Fraction(0)) + w
    slices: List[Tuple[Dict[NodeId, NodeId], Fraction]] = []
    while remaining:
        used: set = set()
        batch: Dict[NodeId, NodeId] = {}
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
        slices.append((batch, duration))
    return slices


def send_or_receive_schedule_length(
    solution: SteadyStateSolution, period: Optional[int] = None
) -> Tuple[Fraction, Fraction]:
    """(period, greedy schedule length) for a send-or-receive solution.

    The LP promises all communications fit in ``T`` time of *port budget*;
    the greedy colouring may need up to twice that.  Returns both numbers
    so callers can measure the actual stretch.
    """
    T = solution.period() if period is None else Fraction(period)
    busy = solution.edge_busy_time(int(T))
    edges = [(i, j, t) for (i, j), t in busy.items() if t > 0]
    slices = greedy_interval_coloring(edges)
    length = sum((d for _, d in slices), start=Fraction(0))
    return Fraction(T), length
