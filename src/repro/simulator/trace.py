"""Execution traces and communication-model validators (sections 2 & 5.1).

Every simulator in the library records :class:`Interval` activities; the
validators then *prove* that a run respected the declared operation mode:

* ``one-port full overlap`` (the paper's favourite model, section 2):
  per node, send intervals pairwise disjoint; receive intervals pairwise
  disjoint; computation unrestricted (it overlaps communication).
* ``send-or-receive`` (section 5.1.1): send and receive intervals must
  *jointly* be pairwise disjoint.
* ``multiport(k)`` (section 5.1.2): at most ``k`` simultaneous sends and
  ``k`` simultaneous receives per node.

This turns the paper's feasibility arguments into machine-checked
assertions on concrete runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Literal, Optional, Sequence, Tuple

from ..platform.graph import NodeId

Kind = Literal["send", "recv", "compute"]


class ModelViolation(AssertionError):
    """A trace violates the declared communication model."""


@dataclass(frozen=True)
class Interval:
    """One activity of one node during ``[start, end)``."""

    node: NodeId
    kind: Kind
    start: Fraction
    end: Fraction
    peer: Optional[NodeId] = None
    units: Fraction = Fraction(0)
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")


class Trace:
    """Append-only activity log with model validation and summaries."""

    def __init__(self) -> None:
        self.intervals: List[Interval] = []

    def record(
        self,
        node: NodeId,
        kind: Kind,
        start,
        end,
        peer: Optional[NodeId] = None,
        units=Fraction(0),
        label: str = "",
    ) -> None:
        self.intervals.append(
            Interval(
                node=node,
                kind=kind,
                start=Fraction(start),
                end=Fraction(end),
                peer=peer,
                units=Fraction(units),
                label=label,
            )
        )

    # ------------------------------------------------------------------
    def by_node(self, node: NodeId, kind: Optional[Kind] = None) -> List[Interval]:
        return [
            iv
            for iv in self.intervals
            if iv.node == node and (kind is None or iv.kind == kind)
        ]

    def nodes(self) -> List[NodeId]:
        return sorted({iv.node for iv in self.intervals})

    def units(self, node: NodeId, kind: Kind) -> Fraction:
        return sum(
            (iv.units for iv in self.by_node(node, kind)), start=Fraction(0)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _max_overlap(intervals: Sequence[Interval]) -> int:
        """Maximum number of intervals covering a single time instant."""
        events: List[Tuple[Fraction, int]] = []
        for iv in intervals:
            if iv.end > iv.start:  # zero-length intervals occupy nothing
                events.append((iv.start, 1))
                events.append((iv.end, -1))
        # ends sort before starts at equal times, so touching intervals
        # ([a,b) then [b,c)) never count as overlapping.
        events.sort(key=lambda e: (e[0], e[1]))
        depth = best = 0
        for _, delta in events:
            depth += delta
            best = max(best, depth)
        return best

    def validate(self, model: str = "one-port", ports: int = 1) -> None:
        """Raise :class:`ModelViolation` unless the trace obeys ``model``.

        ``model`` is one of ``"one-port"`` (full overlap), ``"send-or-
        receive"``, ``"multiport"`` (with ``ports`` cards per direction).
        """
        if model not in ("one-port", "send-or-receive", "multiport"):
            raise ValueError(f"unknown model {model!r}")
        for node in self.nodes():
            sends = self.by_node(node, "send")
            recvs = self.by_node(node, "recv")
            if model == "one-port":
                if self._max_overlap(sends) > 1:
                    raise ModelViolation(f"{node}: overlapping sends")
                if self._max_overlap(recvs) > 1:
                    raise ModelViolation(f"{node}: overlapping receives")
            elif model == "send-or-receive":
                if self._max_overlap(sends + recvs) > 1:
                    raise ModelViolation(
                        f"{node}: overlapping communications under "
                        f"send-or-receive"
                    )
            elif model == "multiport":
                if self._max_overlap(sends) > ports:
                    raise ModelViolation(
                        f"{node}: more than {ports} simultaneous sends"
                    )
                if self._max_overlap(recvs) > ports:
                    raise ModelViolation(
                        f"{node}: more than {ports} simultaneous receives"
                    )
            else:
                raise ValueError(f"unknown model {model!r}")
            # computation never overlaps itself on a single CPU
            computes = self.by_node(node, "compute")
            if self._max_overlap(computes) > 1:
                raise ModelViolation(f"{node}: overlapping computations")

    def check_matched_transfers(self) -> None:
        """Every send interval must have the mirror receive interval."""
        sends = sorted(
            (iv for iv in self.intervals if iv.kind == "send"),
            key=lambda iv: (iv.start, iv.node, str(iv.peer)),
        )
        recvs = sorted(
            (iv for iv in self.intervals if iv.kind == "recv"),
            key=lambda iv: (iv.start, str(iv.peer), iv.node),
        )
        if len(sends) != len(recvs):
            raise ModelViolation(
                f"{len(sends)} sends vs {len(recvs)} receives"
            )
        for s, r in zip(sends, recvs):
            if (
                s.start != r.start
                or s.end != r.end
                or s.peer != r.node
                or r.peer != s.node
                or s.units != r.units
            ):
                raise ModelViolation(f"unmatched transfer: {s} vs {r}")
