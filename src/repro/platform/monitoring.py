"""Time-varying platforms and NWS-style monitoring — section 5.5.

Grid resources drift: background load changes CPU speeds, cross-traffic
changes link bandwidths.  The paper's remedy divides time into *phases*,
collects observations during each phase (the paper cites NWS [18]) and
uses them to plan the next one: "use the past to predict the future".

:class:`TimeVaryingPlatform` produces a per-epoch snapshot of a base
platform with multiplicative drift (log-space random walk, seeded and
reproducible).  :class:`SlidingWindowPredictor` is the NWS-like forecaster:
it predicts next-epoch parameters from a window of past observations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .._rational import INF, as_fraction
from .graph import Edge, NodeId, Platform


class TimeVaryingPlatform:
    """A base platform whose weights drift epoch by epoch.

    Parameters
    ----------
    base:
        The nominal platform (epoch 0 multipliers are all 1).
    drift:
        Maximum per-epoch relative step, e.g. ``0.2`` lets every weight
        move by up to +-20% per epoch (multiplicatively).
    bounds:
        Clamp multipliers into ``[lo, hi]`` so resources never die or
        become infinitely fast.
    """

    def __init__(
        self,
        base: Platform,
        drift: float = 0.2,
        seed: Optional[int] = None,
        bounds: Tuple[float, float] = (0.25, 4.0),
    ) -> None:
        if not (0 <= drift < 1):
            raise ValueError("drift must be in [0, 1)")
        self.base = base
        self.drift = drift
        self.bounds = bounds
        self._rng = random.Random(seed)
        self._node_mult: Dict[NodeId, Fraction] = {
            n: Fraction(1) for n in base.nodes()
        }
        self._edge_mult: Dict[Edge, Fraction] = {
            (e.src, e.dst): Fraction(1) for e in base.edges()
        }
        self._epoch = 0
        self._history: List[Platform] = [self.snapshot()]

    def _step_multiplier(self, current: Fraction) -> Fraction:
        lo, hi = self.bounds
        factor = Fraction(
            1 + self._rng.uniform(-self.drift, self.drift)
        ).limit_denominator(1000)
        new = current * factor
        if new < as_fraction(lo):
            new = as_fraction(lo)
        if new > as_fraction(hi):
            new = as_fraction(hi)
        return new

    def advance(self) -> Platform:
        """Move to the next epoch; returns its snapshot."""
        for n in self._node_mult:
            self._node_mult[n] = self._step_multiplier(self._node_mult[n])
        for e in self._edge_mult:
            self._edge_mult[e] = self._step_multiplier(self._edge_mult[e])
        self._epoch += 1
        snap = self.snapshot()
        self._history.append(snap)
        return snap

    def snapshot(self) -> Platform:
        """The platform as it currently stands (exact rational weights)."""
        g = Platform(f"{self.base.name}@epoch{self._epoch}")
        for name in self.base.nodes():
            spec = self.base.node(name)
            if not spec.can_compute:
                g.add_node(name, INF)
            else:
                g.add_node(name, spec.w * self._node_mult[name])
        for spec in self.base.edges():
            g.add_edge(
                spec.src,
                spec.dst,
                spec.c * self._edge_mult[(spec.src, spec.dst)],
            )
        return g

    def history(self) -> List[Platform]:
        """Snapshots for epochs ``0..epoch`` (read-only view)."""
        return list(self._history)


@dataclass
class SlidingWindowPredictor:
    """NWS-like forecaster: mean of the last ``window`` observations.

    The real Network Weather Service runs a battery of predictors and picks
    the historically best; the sliding mean is its most common winner for
    slowly drifting series and suffices for the scheduling experiments.
    """

    window: int = 3
    _node_obs: Dict[NodeId, List[Fraction]] = field(default_factory=dict)
    _edge_obs: Dict[Edge, List[Fraction]] = field(default_factory=dict)

    def observe(self, platform: Platform) -> None:
        """Record one epoch's measured parameters."""
        for name in platform.nodes():
            spec = platform.node(name)
            if spec.can_compute:
                self._node_obs.setdefault(name, []).append(spec.w)
        for spec in platform.edges():
            self._edge_obs.setdefault((spec.src, spec.dst), []).append(spec.c)

    def _mean(self, series: List[Fraction]) -> Fraction:
        tail = series[-self.window:]
        return sum(tail, start=Fraction(0)) / len(tail)

    def predict(self, template: Platform) -> Platform:
        """Forecast the next epoch as a platform (same topology)."""
        g = Platform(f"{template.name}-predicted")
        for name in template.nodes():
            spec = template.node(name)
            if not spec.can_compute:
                g.add_node(name, INF)
            else:
                obs = self._node_obs.get(name)
                g.add_node(name, self._mean(obs) if obs else spec.w)
        for spec in template.edges():
            obs = self._edge_obs.get((spec.src, spec.dst))
            g.add_edge(
                spec.src, spec.dst, self._mean(obs) if obs else spec.c
            )
        return g
