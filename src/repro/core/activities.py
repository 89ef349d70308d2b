"""Steady-state activity variables and their invariants.

The output of each steady-state LP is a set of *activity variables*
(section 1 of the paper): for every node the fraction of each time-unit
spent computing (``alpha_i``), and for every edge the fraction of time
spent sending (``s_ij``), plus — for the collective problems — per-
commodity message rates ``send(i, j, k)``.

:class:`SteadyStateSolution` carries those values exactly (Fractions) and
implements:

* the paper's invariant checks (port budgets, conservation laws),
* the period construction of section 4.1 (``T = lcm`` of denominators),
* the per-period integer message/task counts used by reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .._rational import format_fraction, lcm_denominators
from ..platform.graph import Edge, NodeId, Platform, PlatformError

#: the communication models of section 5.1, the paper's default first
PORT_MODELS = ("one-port", "send-or-receive", "multiport")


class SteadyStateError(ValueError):
    """An activity set violates the steady-state equations."""


def port_groups(
    platform: Platform, node: NodeId, port_model: str = "one-port",
    ports: int = 1,
) -> List[Tuple[str, List[Edge], int]]:
    """The port budgets of ``node`` under a section 5.1 model, as
    ``(name, edges, budget)``: the edges' occupations ``s_ij`` sum to at
    most ``budget``.

    One-port (full overlap) gives ``[(out, 1), (in, 1)]``, send-or-receive
    merges them into ``[(out + in, 1)]`` and multiport(k) gives each
    direction ``k`` cards, ``[(out, k), (in, k)]``.  Every steady-state LP
    takes its port rows from here (:func:`add_port_rows`) and
    :meth:`SteadyStateSolution.check_ports` checks the same groups.

    The paper's favourite model lets a node send *and* receive
    simultaneously (full overlap, one port each way).  Section 5.1
    examines what changes when that hypothesis moves; the LP is "an easy
    edit" each time, and this function is that edit:

    * **send-OR-receive** (§5.1.1): the one-port constraints merge into
      ``time sending + time receiving <= 1`` per node.  Reconstruction
      then needs an edge colouring of an *arbitrary* (non-bipartite)
      graph — NP-hard; :mod:`repro.schedule.edge_coloring` has the
      standard greedy approximation (never worse than twice the optimal
      number of colours, mirroring "efficient polynomial approximation
      algorithms can be used").
    * **multiport with dedicated cards** (§5.1.2): a node owns ``k`` send
      cards and ``k`` receive cards; the constraints become
      ``sum s_ij <= k`` per direction, while each link still carries at
      most one message at a time (``s_ij <= 1``).  The paper says "the
      schedule can be reconstructed, each node in the bipartite graph
      corresponds to a network card"; per-card reconstruction is not
      implemented here, so a multiport schedule uses one card per node
      and is refused when that does not fit in the period.

    Throughputs are always ordered
    ``send-or-receive <= one-port <= multiport(k)``; benchmark C11
    measures the gaps.  Every builder (``build_ssms_lp``,
    ``build_commodity_lp``, ...) takes the model as an argument, every
    exact answer is verified against the groups of the model it records,
    and :func:`repro.schedule.reconstruction.orchestrate` orchestrates
    every model.
    """
    if port_model not in PORT_MODELS:
        raise PlatformError(f"unknown port model {port_model!r}")
    if ports < 1:
        raise PlatformError("ports must be >= 1")
    out = [(node, j) for j in platform.successors(node)]
    inc = [(j, node) for j in platform.predecessors(node)]
    if port_model == "send-or-receive":
        return [("port", out + inc, 1)]
    budget = ports if port_model == "multiport" else 1
    return [("send-port", out, budget), ("recv-port", inc, budget)]


def add_port_rows(
    lp, platform: Platform,
    occupation: Callable[[NodeId, NodeId], Iterable[Tuple[object, object]]],
    port_model: str = "one-port", ports: int = 1,
) -> None:
    """Add to the :class:`~repro.lp.LinearProgram` ``lp`` one ``<=`` row
    per non-empty :func:`port_groups` group of every node, named
    ``<group>[<node>]``; ``occupation(i, j)`` gives the
    ``(variable, coefficient)`` terms of edge ``i -> j``'s busy time."""
    for node in platform.nodes():
        for name, edges, budget in port_groups(platform, node, port_model,
                                               ports):
            if edges:
                lp.add_row([term for (i, j) in edges
                            for term in occupation(i, j)],
                           "<=", budget, name=f"{name}[{node}]")


def commodity_endpoints(
    problem: str, source: Optional[NodeId], targets: Iterable[NodeId],
) -> Dict[str, Tuple[NodeId, NodeId]]:
    """The commodities of a multi-commodity problem, in order, as
    ``{label: (origin, sink)}``: the one rule for where a commodity
    starts and ends.

    All-to-all has one commodity ``"a->b"`` per ordered pair of its
    participants ``targets``; gather's commodity ``k`` flows from source
    ``k`` to the sink ``source``; every other problem (scatter, the
    max-rule broadcast and multicast bounds) sends commodity ``k`` from
    ``source`` to target ``k``.  Empty, repeated or source-including
    target lists and fewer than two participants are refused here.
    """
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise PlatformError(f"duplicate {problem} targets")
    if problem == "all-to-all":
        if len(targets) < 2:
            raise PlatformError("all-to-all needs at least two participants")
        return {f"{a}->{b}": (a, b)
                for a in targets for b in targets if a != b}
    if not targets:
        raise PlatformError(f"{problem} needs at least one target")
    if source in targets:
        raise PlatformError(f"the source cannot be a {problem} target")
    if problem == "gather":
        return {k: (k, source) for k in targets}
    return {k: (source, k) for k in targets}


@dataclass
class SteadyStateSolution:
    """Exact steady-state activities on a platform.

    Attributes
    ----------
    platform:
        The platform the LP was solved on.
    problem:
        Label such as ``"master-slave"`` or ``"scatter"``.
    throughput:
        Objective value: tasks per time-unit (master-slave) or collective
        operations per time-unit (scatter/broadcast/multicast).
    alpha:
        ``alpha[i]`` = fraction of time node ``i`` computes (may be empty
        for pure communication problems).
    s:
        ``s[(i, j)]`` = fraction of time edge ``i -> j`` is busy sending.
    send:
        ``send[(i, j, k)]`` = messages of commodity ``k`` crossing edge
        ``i -> j`` per time-unit (empty for master-slave, where the single
        commodity rate is ``s_ij / c_ij``).
    source:
        The master (master-slave), the source (scatter) or the sink
        (gather); ``None`` for all-to-all.
    targets:
        Scatter's targets, gather's sources or all-to-all's participants,
        in the request's order; empty for master-slave.  They and
        ``source`` fix the commodities: :meth:`commodities` gives each
        label's ``(origin, sink)`` (:func:`commodity_endpoints`), and
        :meth:`verify` and schedule reconstruction read them there.
    edge_occupation_mode:
        ``"sum"`` when distinct commodities on one edge pay separately
        (master-slave, scatter), ``"max"`` when identical payloads share a
        transfer (broadcast, optimistic multicast bound) — section 3.3.
    port_model, ports:
        The section 5.1 model the LP was built under (:data:`PORT_MODELS`,
        ``ports`` cards per direction under multiport), set by the
        packager: :meth:`verify` checks its budgets and schedule
        reconstruction orchestrates under it.
    """

    platform: Platform
    problem: str
    throughput: Fraction
    alpha: Dict[NodeId, Fraction] = field(default_factory=dict)
    s: Dict[Edge, Fraction] = field(default_factory=dict)
    send: Dict[Tuple[NodeId, NodeId, str], Fraction] = field(default_factory=dict)
    source: Optional[NodeId] = None
    targets: Tuple[NodeId, ...] = ()
    edge_occupation_mode: str = "sum"
    port_model: str = "one-port"
    ports: int = 1

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def commodities(self) -> Dict[str, Tuple[NodeId, NodeId]]:
        """``{label: (origin, sink)}`` of every commodity of a scatter,
        gather or all-to-all answer (:func:`commodity_endpoints`)."""
        return commodity_endpoints(self.problem, self.source, self.targets)

    def compute_rate(self, node: NodeId) -> Fraction:
        """Tasks processed by ``node`` per time-unit (``alpha_i / w_i``)."""
        a = self.alpha.get(node, Fraction(0))
        if a == 0:
            return Fraction(0)
        spec = self.platform.node(node)
        if not spec.can_compute:
            raise SteadyStateError(f"forwarder {node} has alpha = {a} != 0")
        return a / spec.w

    def edge_rate(self, src: NodeId, dst: NodeId) -> Fraction:
        """Messages/tasks crossing ``src -> dst`` per time-unit."""
        occupancy = self.s.get((src, dst), Fraction(0))
        if occupancy == 0:
            return Fraction(0)
        return occupancy / self.platform.c(src, dst)

    def total_compute_rate(self) -> Fraction:
        return sum(
            (self.compute_rate(n) for n in self.alpha), start=Fraction(0)
        )

    # ------------------------------------------------------------------
    # invariants (the steady-state equations of section 3)
    # ------------------------------------------------------------------
    def check_bounds(self) -> None:
        for node, a in self.alpha.items():
            if not (0 <= a <= 1):
                raise SteadyStateError(f"alpha[{node}] = {a} outside [0, 1]")
        for (i, j), v in self.s.items():
            if not (0 <= v <= 1):
                raise SteadyStateError(f"s[{i}->{j}] = {v} outside [0, 1]")
            if not self.platform.has_edge(i, j):
                raise SteadyStateError(f"activity on missing edge {i}->{j}")

    def check_ports(self) -> None:
        """Every port budget group of every node holds under the model
        the solution was solved for (:func:`port_groups`)."""
        s = self.s
        for node in self.platform.nodes():
            for name, edges, budget in port_groups(
                    self.platform, node, self.port_model, self.ports):
                busy = sum(s[e] for e in edges if s.get(e))
                if busy > budget:
                    raise SteadyStateError(
                        f"{self.port_model} {name} budget violated at {node}: "
                        f"{busy} > {budget}"
                    )

    def check_master_slave_conservation(self) -> None:
        """Tasks in = tasks computed + tasks out, for every non-master
        node, and the tasks computed add up to ``throughput``."""
        if self.source is None:
            raise SteadyStateError("master-slave solution lacks a source")
        inflow: Dict[NodeId, Fraction] = {}
        outflow: Dict[NodeId, Fraction] = {}
        for (i, j) in self.s:
            rate = self.edge_rate(i, j)
            if rate:
                inflow[j] = inflow.get(j, 0) + rate
                outflow[i] = outflow.get(i, 0) + rate
        for node in self.platform.nodes():
            if node == self.source:
                continue
            got, sent = inflow.get(node, 0), outflow.get(node, 0)
            computed = (
                self.compute_rate(node)
                if self.platform.node(node).can_compute
                else 0
            )
            if got != computed + sent:
                raise SteadyStateError(
                    f"conservation violated at {node}: in {got} != "
                    f"compute {computed} + out {sent}"
                )
        # the master receives nothing
        for j in self.platform.predecessors(self.source):
            if self.s.get((j, self.source), Fraction(0)) != 0:
                raise SteadyStateError(
                    f"master {self.source} receives from {j}"
                )
        if self.total_compute_rate() != self.throughput:
            raise SteadyStateError(
                f"tasks computed {self.total_compute_rate()} != "
                f"throughput {self.throughput}"
            )

    def check_commodity_conservation(self) -> None:
        """Every commodity of :meth:`commodities` is conserved at every
        node but its origin and sink, leaves its origin at net rate
        ``throughput`` and reaches its sink at the same net rate."""
        try:
            commodities = self.commodities()
        except PlatformError as exc:
            raise SteadyStateError(str(exc)) from exc
        net: Dict[Tuple[NodeId, str], Fraction] = {}
        for (i, j, k), rate in self.send.items():
            if k not in commodities:
                raise SteadyStateError(f"unknown commodity {k!r}")
            net[(i, k)] = net.get((i, k), 0) + rate
            net[(j, k)] = net.get((j, k), 0) - rate
        for k, (origin, sink) in commodities.items():
            for node in self.platform.nodes():
                want = (self.throughput if node == origin
                        else -self.throughput if node == sink else 0)
                got = net.get((node, k), 0)
                if got != want:
                    raise SteadyStateError(
                        f"commodity {k} not conserved at {node}: net "
                        f"outflow {got} != {want}"
                    )

    def check_edge_occupation(self) -> None:
        """``s_ij`` must match the commodity rates under the declared mode;
        a busy edge that no commodity crosses is expected idle."""
        per_edge: Dict[Edge, List[Fraction]] = {
            e: [] for e, v in self.s.items() if v}
        for (i, j, _k), rate in self.send.items():
            per_edge.setdefault((i, j), []).append(rate)
        for (i, j), rates in per_edge.items():
            c = self.platform.c(i, j)
            if self.edge_occupation_mode == "sum":
                expected = sum(rates, start=Fraction(0)) * c
            else:
                expected = max(rates, default=Fraction(0)) * c
            got = self.s.get((i, j), Fraction(0))
            if got != expected:
                raise SteadyStateError(
                    f"s[{i}->{j}] = {got} but {self.edge_occupation_mode} "
                    f"of commodity rates gives {expected}"
                )

    def verify(self) -> None:
        """Run every applicable invariant check, the port budgets under
        the model the solution was solved for, and the throughput the
        solution claims; raise on the first failure."""
        self.check_bounds()
        self.check_ports()
        if self.problem == "master-slave":
            self.check_master_slave_conservation()
        else:
            self.check_commodity_conservation()
            self.check_edge_occupation()

    # ------------------------------------------------------------------
    # flow simplification
    # ------------------------------------------------------------------
    def simplify(self) -> "SteadyStateSolution":
        """Cancel circulations in the task flow (master-slave only).

        Degenerate LP optima may route tasks around directed cycles; the
        circulation contributes nothing to throughput but inflates link
        occupation and — worse — breaks the depth-bounded initialisation
        argument of section 4.2 (a cycle's nodes wait on each other, so
        buffers only converge geometrically).  Cancelling cycles preserves
        conservation and the objective while never increasing any ``s_ij``,
        so the simplified solution is feasible and has the same throughput.
        Returns ``self`` (modified in place) for chaining.
        """
        if self.problem != "master-slave":
            return self
        from ..schedule.flows import cancel_cycles

        rates = {
            (i, j): self.edge_rate(i, j) for (i, j) in self.s
            if self.s[(i, j)] > 0
        }
        clean = cancel_cycles(rates)
        new_s: Dict[Edge, Fraction] = {}
        for (i, j) in self.s:
            rate = clean.get((i, j), Fraction(0))
            new_s[(i, j)] = rate * self.platform.c(i, j)
        self.s = new_s
        return self

    # ------------------------------------------------------------------
    # the period construction of section 4.1
    # ------------------------------------------------------------------
    def period(self) -> int:
        """Integer period ``T``: lcm of the denominators of all rates.

        During one period every count below is a non-negative integer:
        tasks computed per node (``alpha_i T / w_i``), messages per edge
        (``s_ij T / c_ij`` or ``send(i,j,k) T``).
        """
        rates: List[Fraction] = [self.throughput]
        for node in self.alpha:
            rates.append(self.compute_rate(node))
        if self.send:
            rates.extend(self.send.values())
            # edge busy-time per period must also be rational-aligned
            rates.extend(self.s.values())
        else:
            for (i, j) in self.s:
                rates.append(self.edge_rate(i, j))
        return lcm_denominators(r for r in rates if r != 0)

    def tasks_per_period(self, period: Optional[int] = None) -> Dict[NodeId, int]:
        """Integer number of tasks each node computes during one period."""
        T = self.period() if period is None else period
        out: Dict[NodeId, int] = {}
        for node in self.alpha:
            cnt = self.compute_rate(node) * T
            if cnt.denominator != 1:
                raise SteadyStateError(
                    f"period {T} does not make compute count of {node} integral"
                )
            out[node] = int(cnt)
        return out

    def messages_per_period(
        self, period: Optional[int] = None
    ) -> Dict[Edge, int]:
        """Integer number of messages on each edge during one period."""
        T = self.period() if period is None else period
        out: Dict[Edge, int] = {}
        for (i, j) in self.s:
            cnt = self.edge_rate(i, j) * T
            if cnt.denominator != 1:
                raise SteadyStateError(
                    f"period {T} does not make message count on {i}->{j} integral"
                )
            if cnt:
                out[(i, j)] = int(cnt)
        return out

    def edge_busy_time(self, period: Optional[int] = None) -> Dict[Edge, Fraction]:
        """Total communication time per edge during one period (``s_ij T``)."""
        T = self.period() if period is None else period
        return {e: v * T for e, v in self.s.items() if v != 0}

    # ------------------------------------------------------------------
    def summary(self) -> str:
        lines = [
            f"steady-state {self.problem} on {self.platform.name!r}: "
            f"throughput = {format_fraction(self.throughput)} per time-unit"
        ]
        for node in self.platform.nodes():
            a = self.alpha.get(node)
            if a:
                lines.append(
                    f"  {node}: alpha = {format_fraction(a)} "
                    f"({format_fraction(self.compute_rate(node))} tasks/unit)"
                )
        for (i, j), v in sorted(self.s.items()):
            if v:
                lines.append(f"  {i} -> {j}: busy {format_fraction(v)}")
        return "\n".join(lines)
