"""Pipelined scatter — the SSPS(G) linear program (section 3.2).

``P_source`` repeatedly sends *distinct* messages to each target: message
type ``m_k`` is destined to target ``P_k``.  Variables:

* ``send(i, j, k)`` — fractional number of messages of type ``m_k``
  crossing edge ``e_ij`` per time-unit;
* ``s_ij`` — fraction of time the edge is busy; since distinct messages
  never share a transfer, ``s_ij = sum_k send(i,j,k) * c_ij`` (the **sum**
  rule — contrast with broadcast's ``max`` rule, section 3.3).

Constraints: one-port (send and receive), per-commodity conservation at
every intermediate node, and each target receiving ``TP`` messages of its
own type per time-unit.  ``TP`` is maximised; section 4 shows the bound is
achieved by the reconstructed periodic schedule.

The same machinery solves **personalised all-to-all** (every node sources a
commodity for every other node) and — by graph reversal — **gather**; the
paper notes scatter techniques extend to these and to reduce (section 4.2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ..lp import LinearProgram
from ..platform.graph import NodeId, Platform, PlatformError
from ..schedule.flows import cancel_cycles
from .activities import SteadyStateSolution, add_port_rows
from .master_slave import MINUS_ONE, ONE


def build_ssps_lp(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    port_model: str = "one-port",
    ports: int = 1,
) -> Tuple[LinearProgram, Dict[object, object]]:
    """Assemble SSPS(G) for ``source`` scattering to ``targets``.

    ``port_model`` selects the section 5.1 communication variant of its
    port rows (:func:`~repro.core.activities.port_groups`):
    ``"one-port"`` (full overlap, the paper's default),
    ``"send-or-receive"`` (merged port budget) or ``"multiport"`` (with
    ``ports`` cards per direction).
    """
    platform.node(source)
    targets = list(targets)
    if not targets:
        raise PlatformError("scatter needs at least one target")
    for t in targets:
        platform.node(t)
        if t == source:
            raise PlatformError("the source cannot be a scatter target")
    if len(set(targets)) != len(targets):
        raise PlatformError("duplicate scatter targets")

    lp = LinearProgram(f"SSPS({platform.name})")
    handles: Dict[object, object] = {}
    tp = lp.variable("TP", lo=0)
    handles["TP"] = tp

    for spec in platform.edges():
        handles[("s", spec.src, spec.dst)] = lp.variable(
            f"s[{spec.src}->{spec.dst}]", lo=0, hi=1
        )
        for k in targets:
            # A target never re-emits its own messages (hi = 0): gross
            # arrivals at k then equal net delivery, so the delivery
            # equation cannot be padded by a circulation through k.
            hi = 0 if spec.src == k else None
            handles[("send", spec.src, spec.dst, k)] = lp.variable(
                f"send[{spec.src}->{spec.dst},{k}]", lo=0, hi=hi
            )

    # edge occupation: s_ij = sum_k send(i,j,k) * c_ij
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        cost = -spec.c
        lp.add_row(
            [(handles[("s", i, j)], ONE)]
            + [(handles[("send", i, j, k)], cost) for k in targets],
            "==", name=f"occupation[{i}->{j}]",
        )

    add_port_rows(lp, platform, lambda i, j: [(handles[("s", i, j)], ONE)],
                  port_model, ports)

    # conservation: a non-source node forwards every message not addressed
    # to it (5th equation of SSPS)
    for k in targets:
        for node in platform.nodes():
            if node == source or node == k:
                continue
            lp.add_row(
                [(handles[("send", j, node, k)], ONE)
                 for j in platform.predecessors(node)]
                + [(handles[("send", node, j, k)], MINUS_ONE)
                   for j in platform.successors(node)],
                "==", name=f"conserve[{node},{k}]",
            )

    # each target receives TP messages of its own type (6th equation)
    for k in targets:
        lp.add_row(
            [(handles[("send", j, k, k)], ONE)
             for j in platform.predecessors(k)] + [(tp, MINUS_ONE)],
            "==", name=f"deliver[{k}]",
        )

    lp.maximize(tp)
    return lp, handles


def patch_ssps_coefficients(
    lp: LinearProgram,
    handles: Dict[object, object],
    platform: Platform,
    targets: Sequence[NodeId],
) -> None:
    """Rewrite every weight-derived coefficient of an assembled SSPS model.

    The structure-vs-coefficient split behind the ``warm_resolve``
    capability (:mod:`repro.problems.registry`), mirroring
    :func:`repro.core.master_slave.patch_ssms_coefficients`: only the
    occupation constraints ``s_ij - sum_k c_ij * send(i,j,k) == 0`` carry
    weights (SSPS has no compute terms, so node weights never appear);
    port, conservation and delivery constraints — and the objective — are
    weight-free.  A weight-only platform mutation therefore moves exactly
    the ``c_ij`` coefficients patched here.
    """
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        name = f"occupation[{i}->{j}]"
        for k in targets:
            lp.set_constraint_coefficient(
                name, handles[("send", i, j, k)], -spec.c
            )


def package_ssps_solution(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    sol,
    handles: Dict[object, object],
    backend: str = "exact",
    port_model: str = "one-port",
    ports: int = 1,
) -> SteadyStateSolution:
    """Turn an SSPS LP solution into verified per-commodity activities.

    Shared by :func:`solve_scatter` and the warm re-solve path (which
    re-solves a coefficient-patched copy of the same LP, reusing the
    handle dict across platforms with identical topology).  An exact
    solution is verified against the port model it was built for.
    """
    send: Dict[Tuple[NodeId, NodeId, str], Fraction] = {}
    per_commodity: Dict[str, Dict[Tuple[NodeId, NodeId], Fraction]] = {
        k: {} for k in targets
    }
    for key, var in handles.items():
        if isinstance(key, tuple) and key[0] == "send":
            _, i, j, k = key
            rate = sol[var]
            if rate != 0:
                per_commodity[k][(i, j)] = rate

    # cancel degenerate circulations per commodity, then rebuild s under
    # the sum rule so the solution is reconstruction-friendly.
    s: Dict[Tuple[NodeId, NodeId], Fraction] = {}
    for spec in platform.edges():
        s[(spec.src, spec.dst)] = Fraction(0)
    for k in targets:
        clean = cancel_cycles(per_commodity[k])
        for (i, j), rate in clean.items():
            if rate != 0:
                send[(i, j, str(k))] = rate
                s[(i, j)] += rate * platform.c(i, j)

    out = SteadyStateSolution(
        platform=platform,
        problem="scatter",
        throughput=sol.objective,
        s=s,
        send=send,
        source=source,
        targets=tuple(targets),
        edge_occupation_mode="sum",
    )
    if backend == "exact":
        out.verify(port_model, ports)
    return out


def solve_scatter(
    platform: Platform,
    source: NodeId,
    targets: Sequence[NodeId],
    backend: str = "exact",
    port_model: str = "one-port",
    ports: int = 1,
) -> SteadyStateSolution:
    """Solve SSPS(G); returns verified activities with per-commodity flows.

    ``port_model``/``ports`` select the section 5.1 variant, and the
    returned solution is verified against it.
    """
    lp, handles = build_ssps_lp(
        platform, source, targets, port_model=port_model, ports=ports
    )
    sol = lp.solve(backend=backend)
    return package_ssps_solution(
        platform, source, targets, sol, handles,
        backend=backend, port_model=port_model, ports=ports,
    )


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
    )


def solve_gather(
    platform: Platform,
    sink: NodeId,
    sources: Sequence[NodeId],
    backend: str = "exact",
) -> SteadyStateSolution:
    """Pipelined gather: every source sends distinct messages to ``sink``.

    Gather is scatter on the reversed platform; the returned solution is
    expressed on the *original* platform (edge directions restored).
    """
    rsol = solve_scatter(reversed_platform(platform), sink, sources,
                         backend=backend)
    return gather_from_scatter(platform, sink, sources, rsol)


def build_a2a_lp(
    platform: Platform,
    participants: Optional[Sequence[NodeId]] = None,
) -> Tuple[LinearProgram, Dict[object, object]]:
    """Assemble the personalised all-to-all LP (end of section 4.2).

    Every participant sends a distinct commodity to every other
    participant, all at the common rate ``TP`` (maximised).  Handles map
    ``"TP"``, ``("s", i, j)`` and ``("f", i, j, a, b)`` to LP variables;
    ``handles["participants"]`` records the resolved participant list so
    the warm re-solve patch/package steps need no re-derivation.
    """
    nodes = list(participants) if participants is not None else platform.nodes()
    if len(nodes) < 2:
        raise PlatformError("all-to-all needs at least two participants")
    commodities = [(a, b) for a in nodes for b in nodes if a != b]

    lp = LinearProgram(f"A2A({platform.name})")
    handles: Dict[object, object] = {
        "participants": tuple(nodes),
        "commodities": tuple(commodities),
    }
    tp = lp.variable("TP", lo=0)
    handles["TP"] = tp
    for spec in platform.edges():
        handles[("s", spec.src, spec.dst)] = lp.variable(
            f"s[{spec.src}->{spec.dst}]", lo=0, hi=1
        )
        for (a, b) in commodities:
            handles[("f", spec.src, spec.dst, a, b)] = lp.variable(
                f"f[{spec.src}->{spec.dst},{a}->{b}]", lo=0
            )
    # edge occupation under the sum rule — the only weight-carrying rows,
    # named so the warm re-solve patch can find them
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        cost = -spec.c
        lp.add_row(
            [(handles[("s", i, j)], ONE)]
            + [(handles[("f", i, j, a, b)], cost) for (a, b) in commodities],
            "==", name=f"occupation[{i}->{j}]",
        )
    add_port_rows(lp, platform, lambda i, j: [(handles[("s", i, j)], ONE)])
    for (a, b) in commodities:
        for node in platform.nodes():
            inflow = [handles[("f", j, node, a, b)]
                      for j in platform.predecessors(node)]
            outflow = [handles[("f", node, j, a, b)]
                       for j in platform.successors(node)]
            # a emits TP (outflow - inflow == TP), b absorbs it, every
            # other node forwards (inflow == outflow)
            plus, minus = (outflow, inflow) if node == a \
                else (inflow, outflow)
            lp.add_row(
                [(var, ONE) for var in plus]
                + [(var, MINUS_ONE) for var in minus]
                + ([(tp, MINUS_ONE)] if node in (a, b) else []), "==")
    lp.maximize(tp)
    return lp, handles


def patch_a2a_coefficients(
    lp: LinearProgram,
    handles: Dict[object, object],
    platform: Platform,
) -> None:
    """Rewrite every weight-derived coefficient of an assembled all-to-all
    model (the structure-vs-coefficient split behind ``warm_resolve``,
    mirroring :func:`patch_ssps_coefficients`): only the occupation rows
    ``s_ij - sum_ab c_ij * f(i,j,a,b) == 0`` carry weights."""
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        name = f"occupation[{i}->{j}]"
        for (a, b) in handles["commodities"]:
            lp.set_constraint_coefficient(
                name, handles[("f", i, j, a, b)], -spec.c
            )


def package_a2a_solution(
    platform: Platform,
    sol,
    handles: Dict[object, object],
    backend: str = "exact",
    participants: Optional[Sequence[NodeId]] = None,
) -> SteadyStateSolution:
    """All-to-all LP solution -> reconstructable steady-state activities.

    Commodities are named ``"a->b"``; the reconstruction pipeline
    decomposes each into routes from ``a`` to ``b`` and orchestrates the
    whole exchange with the usual edge colouring.

    ``participants`` is the *requesting* call's participant ordering —
    it must be passed on the warm path, where ``handles`` belongs to the
    first request that built the hot model and may list the same nodes
    in a different order (the hot-model key sorts participants); falling
    back to the handles ordering would make a warm result differ from
    the cold solve of the identical request.
    """
    per_commodity: Dict[Tuple[NodeId, NodeId],
                        Dict[Tuple[NodeId, NodeId], Fraction]] = {}
    for key, var in handles.items():
        if isinstance(key, tuple) and key[0] == "f":
            _, i, j, a, b = key
            rate = sol[var]
            if rate != 0:
                per_commodity.setdefault((a, b), {})[(i, j)] = rate
    send: Dict[Tuple[NodeId, NodeId, str], Fraction] = {}
    s: Dict[Tuple[NodeId, NodeId], Fraction] = {
        (spec.src, spec.dst): Fraction(0) for spec in platform.edges()
    }
    for (a, b), flow in per_commodity.items():
        clean = cancel_cycles(flow)
        for (i, j), rate in clean.items():
            if rate != 0:
                send[(i, j, f"{a}->{b}")] = rate
                s[(i, j)] += rate * platform.c(i, j)
    if participants is None:
        targets = tuple(handles["participants"])
    else:
        targets = tuple(participants) or tuple(platform.nodes())
    out = SteadyStateSolution(
        platform=platform,
        problem="all-to-all",
        throughput=sol.objective,
        s=s,
        send=send,
        source=None,
        targets=targets,
        edge_occupation_mode="sum",
    )
    if backend == "exact":
        out.verify()
    return out


def solve_all_to_all(
    platform: Platform,
    participants: Optional[Sequence[NodeId]] = None,
    backend: str = "exact",
) -> Tuple[Fraction, Dict[Tuple[NodeId, NodeId, NodeId, NodeId], Fraction]]:
    """Personalised all-to-all: every participant sends a distinct message
    to every other participant, at common rate ``TP`` (maximised).

    Returns ``(TP, flows)`` with ``flows[(i, j, src, dst)]`` the rate of the
    ``src -> dst`` commodity on edge ``i -> j``.  Mentioned at the end of
    section 4.2 as a direct extension of the scatter machinery.
    """
    lp, handles = build_a2a_lp(platform, participants)
    sol = lp.solve(backend=backend)
    flows = {
        key[1:]: sol[var]
        for key, var in handles.items()
        if isinstance(key, tuple) and key[0] == "f" and sol[var] != 0
    }
    return sol.objective, flows


def solve_all_to_all_solution(
    platform: Platform,
    participants: Optional[Sequence[NodeId]] = None,
    backend: str = "exact",
) -> SteadyStateSolution:
    """All-to-all as a reconstructable :class:`SteadyStateSolution`."""
    lp, handles = build_a2a_lp(platform, participants)
    sol = lp.solve(backend=backend)
    return package_a2a_solution(platform, sol, handles, backend=backend,
                                participants=participants or ())
