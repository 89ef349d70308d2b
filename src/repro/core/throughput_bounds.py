"""Closed-form upper bounds on ``ntask(G)`` — quick sanity envelopes.

Each bound is a relaxation of SSMS(G), so every one of them dominates the
LP optimum; none is tight in general, but together they explain *which
resource* limits a platform at a glance (and they cross-check the solver):

* :func:`cpu_capacity_bound` — ignore communication entirely:
  ``sum_i 1/w_i``;
* :func:`master_port_bound` — the master's CPU plus everything its send
  port can possibly export through its cheapest link mix (fractional
  knapsack with *unbounded* worker appetites);
* :func:`cut_bound` — for the cut separating the master from the rest:
  exports are limited by both the master's port (1 time-unit) and each
  crossing link's capacity; generalised over all node subsets containing
  the master by :func:`best_cut_bound` (exponential; capped).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from ..platform.graph import NodeId, Platform, PlatformError


def cpu_capacity_bound(platform: Platform) -> Fraction:
    """No schedule computes faster than every CPU running flat out."""
    return sum(
        (Fraction(1) / platform.node(n).w for n in platform.compute_nodes()),
        start=Fraction(0),
    )


def master_port_bound(platform: Platform, master: NodeId) -> Fraction:
    """Master CPU + the most optimistic use of its send port.

    The port exports at most ``1 / min_j c_mj`` task files per time-unit;
    ignoring every downstream constraint this caps total remote work.
    """
    spec = platform.node(master)
    own = Fraction(0) if not spec.can_compute else Fraction(1) / spec.w
    out_costs = [platform.c(master, j) for j in platform.successors(master)]
    if not out_costs:
        return own
    return own + Fraction(1) / min(out_costs)


def cut_bound(
    platform: Platform, inside: Iterable[NodeId], master: NodeId
) -> Fraction:
    """Upper bound from the cut ``inside | outside``.

    Work done outside the cut must cross it: the crossing rate is limited
    by each inside node's send port (1 each) *and* by the total crossing
    bandwidth.  Inside nodes can also compute locally.
    """
    inside_set = set(inside)
    if master not in inside_set:
        raise PlatformError("the cut must contain the master")
    inside_cpu = sum(
        (Fraction(1) / platform.node(n).w
         for n in inside_set if platform.node(n).can_compute),
        start=Fraction(0),
    )
    outside_cpu = sum(
        (Fraction(1) / platform.node(n).w
         for n in platform.compute_nodes() if n not in inside_set),
        start=Fraction(0),
    )
    # crossing capacity: per inside sender, the port exports at most
    # 1/min crossing cost; total also bounded by sum of link bandwidths
    port_cap = Fraction(0)
    link_cap = Fraction(0)
    for n in inside_set:
        crossing = [
            platform.c(n, j)
            for j in platform.successors(n)
            if j not in inside_set
        ]
        if crossing:
            port_cap += Fraction(1) / min(crossing)
            link_cap += sum(
                (Fraction(1) / c for c in crossing), start=Fraction(0)
            )
    crossing_cap = min(port_cap, link_cap)
    return inside_cpu + min(outside_cpu, crossing_cap)


def best_cut_bound(
    platform: Platform, master: NodeId, max_nodes: int = 12
) -> Fraction:
    """Minimum cut bound over all subsets containing the master.

    Exponential in the platform size — refuses beyond ``max_nodes``.
    """
    nodes = [n for n in platform.nodes() if n != master]
    if len(nodes) + 1 > max_nodes:
        raise PlatformError(
            f"best_cut_bound is exponential; platform exceeds "
            f"{max_nodes} nodes"
        )
    best: Optional[Fraction] = None
    for r in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            value = cut_bound(platform, {master, *combo}, master)
            if best is None or value < best:
                best = value
    assert best is not None
    return best


def bound_envelope(platform: Platform, master: NodeId) -> dict:
    """All closed-form bounds, for reports and cross-checks."""
    out = {
        "cpu-capacity": cpu_capacity_bound(platform),
        "master-port": master_port_bound(platform, master),
        "master-cut": cut_bound(platform, {master}, master),
    }
    if platform.num_nodes <= 10:
        out["best-cut"] = best_cut_bound(platform, master)
    return out
