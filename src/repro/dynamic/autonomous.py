"""Autonomous bandwidth-centric protocol on trees — section 5.5, solution 2.

"A second solution is more dynamic: each processor executes a load-
balancing algorithm to choose among several allocations" — the paper cites
the autonomous protocol of Carter, Casanova, Ferrante and Kreaseck [11] for
independent tasks on tree-shaped platforms.

Every node uses **only local information**: its own speed ``w``, the link
costs ``c`` to its children, and how much work each child's subtree can
absorb.  It serves children in increasing-``c`` order until its send port
saturates: :func:`~repro.core.master_slave.bandwidth_centric`, called at
every node.  On trees this local fixed point equals the global LP
optimum — the theorem of [2, 11] that the test-suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from ..core.master_slave import bandwidth_centric
from ..platform.graph import NodeId, Platform, PlatformError


@dataclass
class SubtreeReport:
    """Locally computed steady-state plan for one subtree."""

    node: NodeId
    #: tasks per time-unit the subtree absorbs when fed at full rate
    capacity: Fraction
    #: rate forwarded to each child
    child_rates: Dict[NodeId, Fraction]
    #: rate the node computes itself
    own_rate: Fraction


def subtree_capacity(
    platform: Platform,
    root: NodeId,
    children: Optional[Dict[NodeId, List[NodeId]]] = None,
) -> Dict[NodeId, SubtreeReport]:
    """Bottom-up bandwidth-centric capacities for every subtree.

    ``children`` defaults to the platform's successor structure, which must
    be a tree (each node one parent).  Returns a report per node; the
    root's ``capacity`` is the steady-state throughput of the whole tree
    when the root owns the task supply.
    """
    if children is None:
        children = {n: list(platform.successors(n)) for n in platform.nodes()}
        indeg: Dict[NodeId, int] = {n: 0 for n in platform.nodes()}
        for n, chs in children.items():
            for ch in chs:
                indeg[ch] += 1
        if any(d > 1 for d in indeg.values()):
            raise PlatformError(
                "platform is not a tree; pass an explicit children map"
            )

    reports: Dict[NodeId, SubtreeReport] = {}

    def visit(node: NodeId) -> SubtreeReport:
        spec = platform.node(node)
        own = Fraction(0) if not spec.can_compute else Fraction(1) / spec.w
        # local decision: the node knows its links and what each child's
        # subtree can absorb (its own recursive capacity)
        kids = sorted(children[node])
        capacity, rates = bandwidth_centric(
            own, [(platform.c(node, ch), visit(ch).capacity) for ch in kids])
        report = reports[node] = SubtreeReport(
            node=node,
            capacity=capacity,
            child_rates=dict(zip(kids, rates)),
            own_rate=own,
        )
        return report

    visit(root)
    return reports


def autonomous_throughput(
    platform: Platform,
    master: NodeId,
    children: Optional[Dict[NodeId, List[NodeId]]] = None,
) -> Fraction:
    """Steady-state rate reached by purely local decisions on a tree."""
    return subtree_capacity(platform, master, children)[master].capacity
