"""Series of broadcasts: the `max`-rule LP and its achievability (§4.3).

Broadcast sends the *same* message to every node.  Two messages of the same
operation crossing one edge need only one transfer, so the edge occupation
rule becomes ``s_ij = max_k send(i,j,k) * c_ij`` instead of the scatter
sum.  The paper (citing [5]) states that — contrarily to multicast — this
optimistic bound **is achievable** for broadcast: since every intermediate
node ends up with the full information, it never matters which particular
message copy travelled where.

This module provides:

* :func:`broadcast_lp_bound` — the max-rule LP optimum (upper bound): the
  multi-commodity LP of :mod:`.scatter` with one commodity per target,
  under the max occupation rule;
* :func:`solve_broadcast` — a *constructive* achiever: the optimal
  fractional packing of spanning arborescences, found in polynomial time
  by column generation (:func:`repro.core.trees.pack_arborescences`),
  with the dual bound that proves it optimal;
* :func:`edmonds_cut_bound` — the classical edge-capacity bound (min over
  targets of the max-flow from the source), for analysis: it ignores
  one-port constraints and so can exceed the LP bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from ..platform.graph import NodeId, Platform, PlatformError
from .activities import commodity_endpoints
from .scatter import build_commodity_lp, reversed_platform
from .trees import Arborescence, pack_arborescences


def broadcast_lp_bound(
    platform: Platform,
    source: NodeId,
    targets: Optional[Sequence[NodeId]] = None,
    backend: str = "exact",
) -> Fraction:
    """Upper bound on broadcast throughput: the optimum of the max-rule
    commodity LP (:func:`~repro.core.scatter.build_commodity_lp`), one
    commodity per target, every node but the source by default.

    With the objective pushing ``TP`` up and the one-port rows pushing
    ``s_ij`` down, ``s_ij`` settles at the max over commodities — the
    linearisation is exact at the optimum.
    """
    if targets is None:
        targets = [n for n in platform.nodes() if n != source]
    lp, _ = build_commodity_lp(
        platform, commodity_endpoints("broadcast", source, targets), "max")
    return lp.solve(backend=backend).objective


@dataclass
class BroadcastSolution:
    """An optimal tree packing and its dual bound (per [5], the max-rule
    LP optimum)."""

    platform: Platform
    source: NodeId
    lp_bound: Fraction
    achieved: Fraction
    packing: Dict[Arborescence, Fraction]

    @property
    def optimal(self) -> bool:
        """True when the packing provably attains the LP bound."""
        return self.achieved == self.lp_bound

    def period(self) -> int:
        from .._rational import lcm_denominators

        return lcm_denominators(
            list(self.packing.values()) + [self.achieved]
        )


def solve_broadcast(
    platform: Platform,
    source: NodeId,
    backend: str = "exact",
) -> BroadcastSolution:
    """The optimal packing of spanning arborescences for a series of
    broadcasts, with its dual bound (equal to the throughput)."""
    achieved, packing, bound = pack_arborescences(
        platform, source, backend=backend)
    return BroadcastSolution(
        platform=platform,
        source=source,
        lp_bound=bound,
        achieved=achieved,
        packing=packing,
    )


def solve_reduce(
    platform: Platform,
    root: NodeId,
    backend: str = "exact",
) -> BroadcastSolution:
    """Series of reductions: reverse-broadcast with message combining.

    Each operation combines one value from every node into the root via an
    in-tree; partial results merge at relays, so — like broadcast — two
    flows sharing an edge share the transfer (the ``max`` rule on the
    reversed platform).  Section 4.2 notes the scatter/reduce family is
    solvable in polynomial time [12]; we reuse the broadcast machinery on
    the reversed graph.
    """
    rsol = solve_broadcast(reversed_platform(platform), root, backend=backend)
    packing = {
        frozenset((v, u) for (u, v) in tree): rate
        for tree, rate in rsol.packing.items()
    }
    return BroadcastSolution(
        platform=platform,
        source=root,
        lp_bound=rsol.lp_bound,
        achieved=rsol.achieved,
        packing=packing,
    )


def edmonds_cut_bound(
    platform: Platform, source: NodeId
) -> Fraction:
    """Min over nodes of max-flow(source -> node), capacities ``1/c_ij``.

    Edmonds' branching theorem makes this the packing bound when only edge
    capacities constrain the system; the one-port model is stricter, so
    ``broadcast throughput <= min(this, LP bound)``.
    """
    best: Optional[Fraction] = None
    for node in platform.nodes():
        if node == source:
            continue
        f = platform.min_cut_value(source, node)
        if best is None or f < best:
            best = f
    if best is None:
        raise PlatformError("platform has a single node")
    return best
