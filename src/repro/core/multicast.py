"""Pipelined multicast: bounds, heuristics, and the §4.3 counterexample.

Multicast looks like a restriction of scatter (all messages identical) but
its steady-state optimisation is **NP-hard** [7].  Three quantities bracket
the optimum, and this module computes all of them:

* ``sum-LP`` (pessimistic): the scatter LP — distinct transfers per target
  even for identical payloads; always achievable, may undershoot.
* ``tree packing`` (exact on small instances): optimal fractional packing
  of Steiner arborescences; every schedule routes each instance along such
  a tree, so with *exhaustive* enumeration this is the true optimum.
* ``max-LP`` (optimistic): replace the sum by ``max_k send(i,j,k) * c_ij``;
  an upper bound that multicast generally cannot reach.

The paper's Figure 2/3 example exhibits a platform where the max-LP yields
throughput 1 but no schedule realises it: odd-labelled (``a``) and
even-labelled (``b``) instances are forced onto routes that both cross the
edge ``P3 -> P4`` with *distinct* messages, overloading it.
:func:`analyze_figure2` reproduces every number in Figures 3(a)–3(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ..platform.graph import Edge, NodeId, Platform
from ..platform.generators import (
    MULTICAST_SOURCE,
    MULTICAST_TARGETS,
    paper_figure2_multicast,
)
from .activities import commodity_endpoints
from .scatter import build_commodity_lp
from .steiner import heuristic_multicast_packing
from .trees import (
    Arborescence,
    TreeEnumerationLimit,
    enumerate_arborescences,
    pack_trees,
    tree_throughput,
)


@dataclass
class MulticastAnalysis:
    """The three throughput levels for one multicast instance."""

    platform: Platform
    source: NodeId
    targets: Tuple[NodeId, ...]
    sum_lp: Fraction
    max_lp: Fraction
    tree_optimal: Fraction
    packing: Dict[Arborescence, Fraction]
    exhaustive: bool

    @property
    def max_lp_achievable(self) -> bool:
        """Whether the optimistic bound is attained by actual schedules."""
        return self.exhaustive and self.tree_optimal == self.max_lp

    def bracket_ok(self) -> bool:
        return self.sum_lp <= self.tree_optimal <= self.max_lp


def multicast_bounds(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    backend: str = "exact",
) -> Tuple[Fraction, Fraction]:
    """Return ``(sum_lp, max_lp)`` throughput bounds: the optima of the
    commodity LP with one commodity per target, under the sum and under
    the max occupation rule."""
    commodities = commodity_endpoints("multicast", source, targets)
    return tuple(
        build_commodity_lp(platform, commodities, rule)[0]
        .solve(backend=backend).objective
        for rule in ("sum", "max"))


def solve_multicast(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    backend: str = "exact",
    tree_limit: int = 100_000,
) -> MulticastAnalysis:
    """Compute the sum-LP / tree-packing / max-LP bracket; past
    ``tree_limit`` trees, the packing is over :mod:`.steiner`'s candidates."""
    sum_lp, max_lp = multicast_bounds(platform, source, targets, backend)
    try:
        trees = enumerate_arborescences(
            platform, source, terminals=list(targets), limit=tree_limit
        )
        tree_opt, packing = pack_trees(platform, trees, backend=backend)
        exhaustive = True
    except TreeEnumerationLimit:
        tree_opt, packing = heuristic_multicast_packing(
            platform, source, targets, backend=backend
        )
        exhaustive = False
    return MulticastAnalysis(
        platform=platform,
        source=source,
        targets=tuple(targets),
        sum_lp=sum_lp,
        max_lp=max_lp,
        tree_optimal=tree_opt,
        packing=packing,
        exhaustive=exhaustive,
    )


def best_single_tree(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    tree_limit: int = 100_000,
) -> Tuple[Fraction, Optional[Arborescence]]:
    """The best *single* multicast tree and its stand-alone throughput.

    The natural baseline: one fixed route per operation.  Fractional
    packings strictly beat it whenever port load can be spread over
    several trees (see benchmark F3d).
    """
    trees = enumerate_arborescences(
        platform, source, terminals=list(targets), limit=tree_limit
    )
    best_rate = Fraction(0)
    best_tree: Optional[Arborescence] = None
    for tree in trees:
        rate = tree_throughput(platform, tree)
        if rate > best_rate:
            best_rate, best_tree = rate, tree
    return best_rate, best_tree


# ----------------------------------------------------------------------
# The paper's Figure 2 / Figure 3 walk-through
# ----------------------------------------------------------------------
@dataclass
class Figure3Report:
    """Every quantity shown in Figures 3(a)-(d), computed from scratch."""

    platform: Platform
    #: max-LP optimum (the unachievable bound; the paper's "one message
    #: per time-unit")
    max_lp: Fraction
    #: Figure 3(a): per-edge message rate towards P5 in the max-LP solution
    flows_p5: Dict[Edge, Fraction]
    #: Figure 3(b): per-edge message rate towards P6
    flows_p6: Dict[Edge, Fraction]
    #: Figure 3(c): distinct-message rate per edge (what a schedule must
    #: actually transfer, accounting for shared copies)
    total_flows: Dict[Edge, Fraction]
    #: Figure 3(d): edges whose distinct-message load exceeds capacity
    conflicts: Dict[Edge, Fraction]
    #: true optimum (exhaustive Steiner-tree packing)
    achievable: Fraction
    sum_lp: Fraction

    def is_counterexample(self) -> bool:
        """True when the max-LP bound provably cannot be met."""
        return bool(self.conflicts) and self.achievable < self.max_lp


def analyze_figure2() -> Figure3Report:
    """Reproduce the section 4.3 analysis numerically.

    The max-LP routes **half** the messages for each target over each of
    two routes (Figures 3a/3b).  The one-port constraint at ``P0`` forces
    the two targets' shared halves onto *different* message instances
    (labels ``a`` and ``b``), so the per-edge distinct-message load is the
    **sum** of the per-target flows except on the source edges where the
    copies genuinely coincide.  Edge ``P3 -> P4`` then carries one ``a``
    and one ``b`` message per two time-units at cost 2 each — occupation
    2 > 1: the LP bound is unachievable (Figure 3d).
    """
    g = paper_figure2_multicast()
    source = MULTICAST_SOURCE
    targets = list(MULTICAST_TARGETS)
    analysis = solve_multicast(g, source, targets)

    # The paper's max-LP solution (unique optimal routing at TP = 1):
    half = Fraction(1, 2)
    flows_p5: Dict[Edge, Fraction] = {
        ("P0", "P1"): half, ("P1", "P5"): half,                      # label a
        ("P0", "P2"): half, ("P2", "P3"): half,
        ("P3", "P4"): half, ("P4", "P5"): half,                      # label b
    }
    flows_p6: Dict[Edge, Fraction] = {
        ("P0", "P1"): half, ("P1", "P3"): half,
        ("P3", "P4"): half, ("P4", "P6"): half,                      # label a
        ("P0", "P2"): half, ("P2", "P6"): half,                      # label b
    }

    # Distinct-message load per edge.  On P0's out-edges the P5-copy and
    # the P6-copy are the *same* physical message (that is what the max
    # rule legitimately shares); everywhere else the labels differ because
    # the one-port constraint at P0 splits instances between P1 and P2.
    total: Dict[Edge, Fraction] = {}
    for e in set(flows_p5) | set(flows_p6):
        if e[0] == source:
            total[e] = max(
                flows_p5.get(e, Fraction(0)), flows_p6.get(e, Fraction(0))
            )
        else:
            total[e] = flows_p5.get(e, Fraction(0)) + flows_p6.get(
                e, Fraction(0)
            )

    conflicts: Dict[Edge, Fraction] = {}
    for e, rate in total.items():
        occupation = rate * g.c(*e)
        if occupation > 1:
            conflicts[e] = occupation

    return Figure3Report(
        platform=g,
        max_lp=analysis.max_lp,
        flows_p5=flows_p5,
        flows_p6=flows_p6,
        total_flows=total,
        conflicts=conflicts,
        achievable=analysis.tree_optimal,
        sum_lp=analysis.sum_lp,
    )
