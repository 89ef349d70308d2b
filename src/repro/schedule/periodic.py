"""Compact periodic schedule description (the object section 4.1 builds).

A :class:`PeriodicSchedule` describes one period of steady-state operation:

* an ordered list of **communication slices** — each a one-port-respecting
  matching of (sender → receiver) transfers with a rational duration;
* per-node **compute allocations** (integer task counts per period);
* per-edge integer **message counts** and per-commodity routes.

The description is *compact*: its size is polynomial in the platform size
(number of slices ≤ |E| + 2p) even when the period ``T`` itself is
exponential — exactly the point made in section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .._rational import format_fraction
from ..platform.graph import Edge, NodeId, Platform


class ScheduleError(ValueError):
    """An invalid periodic schedule was constructed or checked."""


@dataclass(frozen=True)
class CommSlice:
    """Concurrent transfers during ``[start, start + duration)``.

    ``transfers`` maps sender -> receiver.  All pairs are edge-disjoint by
    the matching property, so the slice is feasible under the one-port
    model by construction.
    """

    start: Fraction
    duration: Fraction
    transfers: Dict[NodeId, NodeId]

    @property
    def end(self) -> Fraction:
        return self.start + self.duration


@dataclass
class PeriodicSchedule:
    """One steady-state period, plus everything needed to execute it."""

    platform: Platform
    problem: str
    period: Fraction
    throughput: Fraction
    slices: List[CommSlice]
    #: tasks computed per node per period (integers; empty for collectives)
    compute: Dict[NodeId, int] = field(default_factory=dict)
    #: messages per edge per period, all commodities together
    messages: Dict[Edge, int] = field(default_factory=dict)
    #: route annotation: (path, units per period), per commodity
    routes: Dict[str, List[Tuple[Tuple[NodeId, ...], Fraction]]] = field(
        default_factory=dict
    )
    source: Optional[NodeId] = None

    # ------------------------------------------------------------------
    def comm_time(self, src: NodeId, dst: NodeId) -> Fraction:
        """Total time edge ``src -> dst`` is busy during one period."""
        total = Fraction(0)
        for sl in self.slices:
            if sl.transfers.get(src) == dst:
                total += sl.duration
        return total

    def port_busy(self, node: NodeId) -> Tuple[Fraction, Fraction]:
        """(send_busy, recv_busy) totals for ``node`` during one period."""
        send = Fraction(0)
        recv = Fraction(0)
        for sl in self.slices:
            if node in sl.transfers:
                send += sl.duration
            if node in sl.transfers.values():
                recv += sl.duration
        return send, recv

    def tasks_per_period(self) -> int:
        return sum(self.compute.values())

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural feasibility checks; raise :class:`ScheduleError`.

        * slices are matchings over existing edges, within the period;
        * slices do not overlap in time;
        * per-node send/receive busy time fits in the period (one-port);
        * per-node compute time fits in the period (full overlap: compute
          is checked independently of communication).
        """
        prev_end = Fraction(0)
        for sl in sorted(self.slices, key=lambda s: s.start):
            if sl.start < prev_end:
                raise ScheduleError(
                    f"slices overlap at t = {sl.start} (previous ends {prev_end})"
                )
            if sl.end > self.period:
                raise ScheduleError(
                    f"slice ending {sl.end} exceeds period {self.period}"
                )
            receivers = list(sl.transfers.values())
            if len(set(receivers)) != len(receivers):
                raise ScheduleError("slice is not a matching")
            for u, v in sl.transfers.items():
                if not self.platform.has_edge(u, v):
                    raise ScheduleError(f"transfer on missing edge {u}->{v}")
            prev_end = sl.end
        for node in self.platform.nodes():
            send, recv = self.port_busy(node)
            if send > self.period:
                raise ScheduleError(f"{node} sends for {send} > period")
            if recv > self.period:
                raise ScheduleError(f"{node} receives for {recv} > period")
        for node, count in self.compute.items():
            spec = self.platform.node(node)
            if count and not spec.can_compute:
                raise ScheduleError(f"forwarder {node} assigned {count} tasks")
            if count and count * spec.w > self.period:
                raise ScheduleError(
                    f"{node} needs {count * spec.w} compute time > period "
                    f"{self.period}"
                )

    def check_message_counts(self) -> None:
        """Per-edge busy time must equal messages x edge cost exactly."""
        for (i, j), count in self.messages.items():
            expected = count * self.platform.c(i, j)
            got = self.comm_time(i, j)
            if got != expected:
                raise ScheduleError(
                    f"edge {i}->{j}: busy {got} != {count} msgs x c = {expected}"
                )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"periodic schedule ({self.problem}) on {self.platform.name!r}",
            f"  period T = {format_fraction(self.period)}, "
            f"throughput = {format_fraction(self.throughput)}/time-unit",
            f"  {len(self.slices)} communication slices "
            f"(compact description; see section 4.1)",
        ]
        for sl in self.slices:
            pairs = ", ".join(f"{u}->{v}" for u, v in sorted(sl.transfers.items()))
            lines.append(
                f"    [{format_fraction(sl.start)}, "
                f"{format_fraction(sl.end)}): {pairs}"
            )
        if self.compute:
            done = ", ".join(
                f"{n}: {c}" for n, c in sorted(self.compute.items()) if c
            )
            lines.append(f"  tasks per period: {done or '(none)'}")
        return "\n".join(lines)


def schedule_to_trace(schedule: PeriodicSchedule, periods: int = 1):
    """Expand a periodic schedule's slices into an activity
    :class:`~repro.simulator.trace.Trace` over ``periods`` periods.

    Lets the section 5.1 model validators certify the orchestration: the
    trace of a send-or-receive reconstruction passes
    ``validate("send-or-receive")``, which a one-port reconstruction's
    trace generally does not.
    """
    from ..simulator.trace import Trace  # the simulator imports this module

    trace = Trace()
    for p in range(periods):
        offset = schedule.period * p
        for sl in schedule.slices:
            for i, j in sl.transfers.items():
                units = sl.duration / schedule.platform.c(i, j)
                trace.record(i, "send", offset + sl.start, offset + sl.end,
                             peer=j, units=units)
                trace.record(j, "recv", offset + sl.start, offset + sl.end,
                             peer=i, units=units)
    return trace
