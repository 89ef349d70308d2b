"""Minimal discrete-event simulation core.

Exact rational event times (Fractions are totally ordered, so they key a
heap directly); a monotone sequence number breaks ties deterministically,
which keeps every simulation in the library reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from .._rational import as_fraction


class SimulationError(RuntimeError):
    """Raised on invalid simulator usage (e.g. scheduling in the past)."""


@dataclass(order=True)
class _Entry:
    time: Fraction
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """Event loop with exact rational clock."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self.now: Fraction = Fraction(0)
        self.events_processed = 0

    def schedule(self, delay, action: Callable[[], None]) -> _Entry:
        """Run ``action`` at ``now + delay`` (delay >= 0)."""
        d = delay if isinstance(delay, Fraction) else as_fraction(delay)
        if d < 0:
            raise SimulationError(f"negative delay {delay}")
        entry = _Entry(self.now + d, next(self._seq), action)
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, time, action: Callable[[], None]) -> _Entry:
        t = time if isinstance(time, Fraction) else as_fraction(time)
        if t < self.now:
            raise SimulationError(f"cannot schedule at {t} < now {self.now}")
        entry = _Entry(t, next(self._seq), action)
        heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(entry: _Entry) -> None:
        entry.cancelled = True

    def run(self, until: Optional[Fraction] = None, max_events: int = 10_000_000) -> Fraction:
        """Process events in time order until the queue drains or ``until``.

        Returns the final clock value.  Events scheduled exactly at
        ``until`` are *not* processed (the horizon is exclusive), so a
        run can be resumed.
        """
        horizon = None if until is None else (
            until if isinstance(until, Fraction) else as_fraction(until)
        )
        while self._heap:
            entry = self._heap[0]
            if entry.cancelled:
                heapq.heappop(self._heap)
                continue
            if horizon is not None and entry.time >= horizon:
                self.now = horizon
                return self.now
            heapq.heappop(self._heap)
            self.now = entry.time
            self.events_processed += 1
            if self.events_processed > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            entry.action()
        if horizon is not None:
            self.now = horizon
        return self.now
