"""The multi-commodity steady-state LP: scatter, gather, all-to-all and
the max rule (sections 3.2, 3.3 and 4.2).

A commodity is a stream of messages with an *origin* and a *sink*
(:func:`~repro.core.activities.commodity_endpoints` owns which): scatter's
message type ``m_k`` flows from the source to target ``k``, gather's from
source ``k`` to the sink, and personalised all-to-all has one commodity
``"a->b"`` per ordered pair of participants.  :func:`build_commodity_lp`
writes the paper's SSPS(G) form for any ordered set of them:

* ``send(i, j, k)`` — fractional number of messages of commodity ``k``
  crossing edge ``e_ij`` per time-unit; a sink never re-emits its own
  commodity (``send(sink, j, k)`` is pinned at 0);
* ``s_ij`` — fraction of time the edge is busy: the **sum** rule
  ``s_ij = sum_k send(i,j,k) * c_ij`` when distinct messages never share
  a transfer, or the **max** rule ``s_ij >= send(i,j,k) * c_ij`` per ``k``
  of section 3.3, where identical payloads share one (the broadcast and
  multicast upper bound of :mod:`.broadcast` and :mod:`.multicast`).

Constraints: the port rows of the section 5.1 model, per-commodity
conservation at every node but the commodity's origin and sink, and each
sink receiving ``TP`` messages of its commodity per time-unit.  ``TP`` is
maximised; section 4 shows that the sum-rule bound is achieved by the
reconstructed periodic schedule.  Gather is scatter on the reversed
platform.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..lp import LinearProgram
from ..platform.graph import NodeId, Platform, PlatformError
from ..schedule.flows import cancel_cycles
from .activities import SteadyStateSolution, add_port_rows, commodity_endpoints
from .master_slave import MINUS_ONE, ONE

#: edge occupation rules of section 3.3
RULES = ("sum", "max")

Commodities = Mapping[str, Tuple[NodeId, NodeId]]


def build_commodity_lp(
    platform: Platform,
    commodities: Commodities,
    rule: str = "sum",
    port_model: str = "one-port",
    ports: int = 1,
) -> Tuple[LinearProgram, Dict[object, object]]:
    """Assemble the steady-state LP of ``commodities``, an ordered
    ``{label: (origin, sink)}`` map, under the occupation ``rule``.

    Handles map ``"TP"``, ``("s", i, j)`` and ``("send", i, j, label)`` to
    LP variables.  ``port_model`` selects the section 5.1 port rows
    (:func:`~repro.core.activities.port_groups`): ``"one-port"`` (the
    paper's default), ``"send-or-receive"`` or ``"multiport"`` with
    ``ports`` cards per direction.
    """
    if rule not in RULES:
        raise PlatformError(f"unknown occupation rule {rule!r}")
    for origin, sink in commodities.values():
        platform.node(origin)
        platform.node(sink)

    lp = LinearProgram(f"{rule}-commodities({platform.name})")
    tp = lp.variable("TP", lo=0)
    handles: Dict[object, object] = {"TP": tp}
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        handles[("s", i, j)] = lp.variable(f"s[{i}->{j}]", lo=0, hi=1)
        for k, (_, sink) in commodities.items():
            # gross arrivals at the sink then equal net delivery, so a
            # circulation through it cannot pad its delivery row
            handles[("send", i, j, k)] = lp.variable(
                f"send[{i}->{j},{k}]", lo=0, hi=0 if i == sink else None)

    for spec in platform.edges():
        i, j = spec.src, spec.dst
        busy = (handles[("s", i, j)], ONE)
        if rule == "sum":
            lp.add_row([busy] + [(handles[("send", i, j, k)], -spec.c)
                                 for k in commodities],
                       "==", name=f"occupation[{i}->{j}]")
        else:  # the objective and the port rows push s_ij down to the max
            for k in commodities:
                lp.add_row([busy, (handles[("send", i, j, k)], -spec.c)],
                           ">=", name=f"occupation[{i}->{j},{k}]")

    add_port_rows(lp, platform, lambda i, j: [(handles[("s", i, j)], ONE)],
                  port_model, ports)

    for k, ends in commodities.items():
        for node in platform.nodes():
            if node not in ends:
                lp.add_row(
                    [(handles[("send", j, node, k)], ONE)
                     for j in platform.predecessors(node)]
                    + [(handles[("send", node, j, k)], MINUS_ONE)
                       for j in platform.successors(node)],
                    "==", name=f"conserve[{node},{k}]")
    for k, (_, sink) in commodities.items():
        lp.add_row([(handles[("send", j, sink, k)], ONE)
                    for j in platform.predecessors(sink)] + [(tp, MINUS_ONE)],
                   "==", name=f"deliver[{k}]")

    lp.maximize(tp)
    return lp, handles


def patch_commodity_coefficients(
    lp: LinearProgram,
    handles: Dict[object, object],
    platform: Platform,
) -> None:
    """Rewrite every weight-derived coefficient of an assembled sum-rule
    model (the structure-vs-coefficient split behind ``warm_resolve``,
    :mod:`repro.problems.registry`): only the occupation rows
    ``s_ij - sum_k c_ij * send(i,j,k) == 0`` carry weights, so a
    weight-only platform mutation moves exactly the ``c_ij`` here.  The
    model's own ``send`` handles name the commodities it was built for."""
    cost = {(spec.src, spec.dst): spec.c for spec in platform.edges()}
    for key, var in handles.items():
        if isinstance(key, tuple) and key[0] == "send":
            _, i, j, _k = key
            lp.set_constraint_coefficient(
                f"occupation[{i}->{j}]", var, -cost[(i, j)])


def package_commodity_solution(
    platform: Platform,
    commodities: Commodities,
    sol,
    handles: Dict[object, object],
    problem: str,
    source: Optional[NodeId],
    targets: Sequence[NodeId],
    port_model: str = "one-port",
    ports: int = 1,
) -> SteadyStateSolution:
    """Turn a sum-rule LP solution of ``commodities`` (the map the model
    was built from) into per-commodity activities of
    ``problem``; ``source`` and ``targets`` fill in the answer's fields.

    Shared by the solvers below and the warm re-solve path, whose
    ``handles`` may come from a request that listed the same commodities
    in another order: flows are read edge by edge in platform order, and
    within an edge in this request's commodity order, so ``send`` lists
    each commodity's flow in the order of its first busy edge.  Each
    commodity's degenerate circulations are cancelled and ``s`` rebuilt
    under the sum rule.  The answer records the port model it was built
    for, and an exact one (:attr:`~repro.lp.LPSolution.exact`) is
    verified against it.
    """
    flows: Dict[str, Dict[Tuple[NodeId, NodeId], Fraction]] = {}
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        for k in commodities:
            rate = sol[handles[("send", i, j, k)]]
            if rate != 0:
                flows.setdefault(k, {})[(i, j)] = rate
    send: Dict[Tuple[NodeId, NodeId, str], Fraction] = {}
    s = {(spec.src, spec.dst): Fraction(0) for spec in platform.edges()}
    for k, flow in flows.items():
        for (i, j), rate in cancel_cycles(flow).items():
            send[(i, j, k)] = rate
            s[(i, j)] += rate * platform.c(i, j)
    out = SteadyStateSolution(
        platform=platform,
        problem=problem,
        throughput=sol.objective,
        s=s,
        send=send,
        source=source,
        targets=tuple(targets),
        edge_occupation_mode="sum",
        port_model=port_model,
        ports=ports,
    )
    if sol.exact:
        out.verify()
    return out


def _solve(platform: Platform, problem: str, source: Optional[NodeId],
           targets: Sequence[NodeId], port_model: str = "one-port",
           ports: int = 1) -> SteadyStateSolution:
    """Build, solve exactly and package one sum-rule commodity problem."""
    commodities = commodity_endpoints(problem, source, targets)
    lp, handles = build_commodity_lp(platform, commodities, "sum",
                                     port_model, ports)
    return package_commodity_solution(
        platform, commodities, lp.solve(), handles, problem, source,
        targets, port_model, ports)


def solve_scatter(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    port_model: str = "one-port",
    ports: int = 1,
) -> SteadyStateSolution:
    """Solve SSPS(G); returns verified activities with per-commodity flows.

    ``port_model``/``ports`` select the section 5.1 variant, and the
    returned solution is verified against it.
    """
    return _solve(platform, "scatter", source, targets, port_model, ports)


def reversed_platform(platform: Platform) -> Platform:
    """Same nodes, every edge direction flipped (gather = reversed scatter)."""
    out = Platform(f"{platform.name}-reversed")
    for spec in platform._nodes.values():  # noqa: SLF001 — same package
        out.add_node(spec.name, spec.w)
    for spec in platform.edges():
        out.add_edge(spec.dst, spec.src, spec.c)
    return out


def gather_from_scatter(
    platform: Platform,
    sink: NodeId,
    sources: Sequence[NodeId],
    rsol: SteadyStateSolution,
) -> SteadyStateSolution:
    """Re-express a reversed-platform scatter solution as a gather solution
    on the *original* platform (edge directions restored; commodity ``k``
    then flows from source node ``k`` towards the sink)."""
    send = {
        (j, i, k): rate for (i, j, k), rate in rsol.send.items()
    }
    s = {(j, i): v for (i, j), v in rsol.s.items()}
    return SteadyStateSolution(
        platform=platform,
        problem="gather",
        throughput=rsol.throughput,
        s=s,
        send=send,
        source=sink,  # the distinguished node
        targets=tuple(sources),
        edge_occupation_mode="sum",
        port_model=rsol.port_model,
        ports=rsol.ports,
    )


def solve_gather(
    platform: Platform,
    sink: NodeId,
    sources: Sequence[NodeId],
) -> SteadyStateSolution:
    """Pipelined gather: every source sends distinct messages to ``sink``.

    Gather is scatter on the reversed platform; the returned solution is
    expressed on the *original* platform (edge directions restored).
    """
    rsol = solve_scatter(reversed_platform(platform), sink, sources)
    return gather_from_scatter(platform, sink, sources, rsol)


def solve_all_to_all_solution(
    platform: Platform,
    participants: Optional[Sequence[NodeId]] = None,
) -> SteadyStateSolution:
    """Personalised all-to-all (end of section 4.2): every participant
    (every node when ``participants`` is empty) sends a distinct message
    to every other participant, at common rate ``TP`` (maximised), as a
    reconstructable :class:`SteadyStateSolution`."""
    return _solve(platform, "all-to-all", None,
                  tuple(participants or platform.nodes()))


def solve_all_to_all(
    platform: Platform,
    participants: Optional[Sequence[NodeId]] = None,
) -> Tuple[Fraction, Dict[Tuple[NodeId, NodeId, NodeId, NodeId], Fraction]]:
    """:func:`solve_all_to_all_solution` as ``(TP, flows)``, with
    ``flows[(i, j, src, dst)]`` the rate of the ``src -> dst`` commodity
    on edge ``i -> j``."""
    sol = solve_all_to_all_solution(platform, participants)
    ends = sol.commodities()
    return sol.throughput, {
        (i, j) + ends[k]: rate for (i, j, k), rate in sol.send.items()}
