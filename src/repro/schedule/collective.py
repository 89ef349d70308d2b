"""Turn a fractional tree packing into an executable periodic schedule.

Broadcast/multicast solutions come out as arborescence packings
(:mod:`repro.core.trees`).  During a period ``T`` (lcm of the rates'
denominators) tree ``T_k`` carries ``n_k = x_k * T`` operation instances;
distinct trees carry distinct instances, so an edge shared by several trees
pays each tree's transfers separately, while *within* one tree each edge
forwards each instance exactly once.  The per-edge busy time is therefore

    ``busy(i, j) = sum_k n_k * c_ij  over trees containing (i, j)``

and the packing's one-port feasibility makes every port load fit in ``T``;
:func:`~repro.schedule.reconstruction.orchestrate` then colours the
slices exactly as for master-slave (section 4.1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping

from .._rational import lcm_denominators
from ..platform.graph import Edge, NodeId, Platform
from .periodic import PeriodicSchedule
from .reconstruction import orchestrate


def packing_to_schedule(
    platform: Platform,
    packing: Mapping[frozenset, Fraction],
    source: NodeId,
    problem: str = "broadcast",
) -> PeriodicSchedule:
    """Periodic schedule executing a tree packing at its full rate."""
    rates = [r for r in packing.values() if r > 0]
    if not rates:
        return PeriodicSchedule(
            platform=platform,
            problem=problem,
            period=Fraction(1),
            throughput=Fraction(0),
            slices=[],
            source=source,
        )
    T = lcm_denominators(rates)
    busy: Dict[Edge, Fraction] = {}
    messages: Dict[Edge, int] = {}
    for tree, rate in packing.items():
        if rate <= 0:
            continue
        n_k = rate * T
        assert n_k.denominator == 1
        for (i, j) in sorted(tree):
            busy[(i, j)] = busy.get((i, j), Fraction(0)) + n_k * platform.c(i, j)
            messages[(i, j)] = messages.get((i, j), 0) + int(n_k)

    slices, _ = orchestrate(busy, T)
    schedule = PeriodicSchedule(
        platform=platform,
        problem=problem,
        period=Fraction(T),
        throughput=sum(rates, start=Fraction(0)),
        slices=slices,
        messages=messages,
        source=source,
    )
    schedule.validate()
    schedule.check_message_counts()
    return schedule
