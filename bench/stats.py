"""Estimators: nearest-rank percentiles, best-of-rounds, span self time."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def best(values: Iterable[float], better: str) -> float:
    """The best round: a noisy-neighbour burst only ever makes a round
    slower, so the best of several rounds is the steadiest estimate of
    what the code can do."""
    values = list(values)
    if better == "lower":
        return min(values)
    if better == "higher":
        return max(values)
    raise ValueError("better must be 'lower' or 'higher'")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: name, start, end, parent span and request id."""

    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    request: int
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children are counted
    once, and a child is clipped to its parent's interval)."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out: Dict[int, float] = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for child in sorted(children.get(sp.span_id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.span_id] = sp.duration - covered
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + own[sp.span_id]
    return out
