"""Alternative communication models — section 5.1.

The paper's favourite model lets a node send *and* receive simultaneously
(full overlap, one port each way).  Section 5.1 examines what changes when
that hypothesis moves:

* **send-OR-receive** (§5.1.1): one-port constraints merge into
  ``time sending + time receiving <= 1`` per node.  The LP is an easy
  edit, but reconstruction now needs an edge colouring of an *arbitrary*
  (non-bipartite) graph — NP-hard; :mod:`repro.schedule.edge_coloring`
  has the standard greedy approximation (never worse than twice the
  optimal number of colours, mirroring "efficient polynomial
  approximation algorithms can be used").
* **multiport with dedicated cards** (§5.1.2): a node owns ``k`` send
  cards and ``k`` receive cards; constraints become ``sum s_ij <= k``
  per direction.  The paper reconstructs with one bipartite vertex per
  card ("the schedule can be reconstructed, each node in the bipartite
  graph corresponds to a network card"); per-card reconstruction is not
  implemented here, so a multiport schedule uses one card per node and
  is refused when that does not fit in the period.

Throughputs are always ordered
``send-or-receive <= one-port <= multiport(k)``; benchmark C11 measures
the gaps.

The edit itself is made in one place for every steady-state LP:
:func:`repro.core.activities.port_groups` maps a node to its port
budgets under a model, each builder (``build_ssms_lp``,
``build_commodity_lp``, ...) turns those into rows, and every exact answer
is verified against the groups of the model it records.  This module
keeps the master-slave solvers under the two alternative models; the
orchestration of every model is
:func:`repro.schedule.reconstruction.orchestrate`.
"""

from __future__ import annotations

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
