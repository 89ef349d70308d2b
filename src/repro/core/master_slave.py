"""Steady-state master–slave tasking: the SSMS(G) linear program (§3.1).

A master node holds a large collection of independent, identical tasks
(each task = a file with everything needed to execute it).  The LP below
characterises the optimal steady-state: for each node the fraction of time
``alpha_i`` spent computing, for each edge the fraction ``s_ij`` spent
sending task files, under

* one-port constraints (send and receive separately) — or another
  section 5.1 port model,
* "the master does not receive anything" (``s_jm = 0``),
* the conservation law: tasks received = tasks computed + tasks forwarded,
  per time-unit, for every non-master node.

The objective maximises ``ntask(G) = sum_i alpha_i / w_i`` — the number of
tasks processed by the whole platform per time-unit.  The optimum is an
upper bound for *any* schedule's steady-state rate, and section 4 shows it
is achieved by a periodic schedule; :mod:`repro.schedule.reconstruction`
builds that schedule and :mod:`repro.simulator` executes it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .._rational import as_fraction
from ..lp import LinearProgram, LinExpr, LPSolution
from ..platform.graph import NodeId, Platform
from .activities import SteadyStateSolution, add_port_rows

ONE, MINUS_ONE = Fraction(1), Fraction(-1)


def build_ssms_lp(
    platform: Platform, master: NodeId, port_model: str = "one-port",
    ports: int = 1,
) -> Tuple[LinearProgram, Dict[str, object]]:
    """Assemble the SSMS(G) LP of section 3.1.

    ``port_model`` selects the section 5.1 communication variant of its
    port rows (:func:`~repro.core.activities.port_groups`): ``"one-port"``
    (the paper's default), ``"send-or-receive"`` or ``"multiport"`` with
    ``ports`` cards per direction.  Returns the LP and a handle dict
    mapping ``("alpha", i)`` and ``("s", i, j)`` to LP variables.
    """
    platform.node(master)  # validate
    lp = LinearProgram(f"SSMS({platform.name})")
    handles: Dict[object, object] = {}
    for node in platform.nodes():
        if platform.node(node).can_compute:
            handles[("alpha", node)] = lp.variable(f"alpha[{node}]", lo=0, hi=1)
    for spec in platform.edges():
        # the master receives nothing (5th equation)
        hi = 0 if spec.dst == master else 1
        handles[("s", spec.src, spec.dst)] = lp.variable(
            f"s[{spec.src}->{spec.dst}]", lo=0, hi=hi
        )

    # port constraints (3rd and 4th equations under one-port)
    add_port_rows(lp, platform, lambda i, j: [(handles[("s", i, j)], ONE)],
                  port_model, ports)

    # conservation law (last equation): for i != m,
    #   sum_j s_ji / c_ji  ==  alpha_i / w_i + sum_j s_ij / c_ij
    # stored as  inflow - compute - outflow == 0, named conserve[i] so
    # patch_ssms_coefficients can find it
    for node in platform.nodes():
        if node == master:
            continue
        row = [(handles[("s", j, node)], ONE / platform.c(j, node))
               for j in platform.predecessors(node)]
        spec = platform.node(node)
        if spec.can_compute:
            row.append((handles[("alpha", node)], MINUS_ONE / spec.w))
        row += [(handles[("s", node, j)], MINUS_ONE / platform.c(node, j))
                for j in platform.successors(node)]
        lp.add_row(row, "==", name=f"conserve[{node}]")

    lp.maximize(LinExpr({
        handles[("alpha", node)]: ONE / platform.node(node).w
        for node in platform.nodes()
        if platform.node(node).can_compute
    }))
    return lp, handles


def patch_ssms_coefficients(
    lp: LinearProgram,
    handles: Dict[str, object],
    platform: Platform,
    master: NodeId,
) -> None:
    """Rewrite every weight-derived coefficient of an assembled SSMS model.

    The structure-vs-coefficient split behind the ``warm_resolve``
    capability (:mod:`repro.problems.registry`): the conservation law of
    node ``i`` was assembled as ``inflow - compute - outflow == 0`` with
    coefficients ``+1/c_ji`` (on ``s_ji``), ``-1/w_i`` (on ``alpha_i``)
    and ``-1/c_ij`` (on ``s_ij``); the objective carries ``+1/w_i`` per
    compute node.  Port rows (under every port model) and variable
    bounds are weight-free, so a weight-only platform mutation moves
    exactly these coefficients — the model is patched through the
    :class:`~repro.lp.model.LinearProgram` rebuild hook and re-solved
    without re-assembly.
    """
    for node in platform.nodes():
        if node == master:
            continue
        name = f"conserve[{node}]"
        for j in platform.predecessors(node):
            lp.set_constraint_coefficient(
                name, handles[("s", j, node)], ONE / platform.c(j, node)
            )
        for j in platform.successors(node):
            lp.set_constraint_coefficient(
                name, handles[("s", node, j)], MINUS_ONE / platform.c(node, j)
            )
        spec = platform.node(node)
        if spec.can_compute:
            lp.set_constraint_coefficient(
                name, handles[("alpha", node)], MINUS_ONE / spec.w
            )
    for node in platform.nodes():
        spec = platform.node(node)
        if spec.can_compute:
            lp.set_objective_coefficient(
                handles[("alpha", node)], ONE / spec.w
            )


def package_ssms_solution(
    platform: Platform,
    master: NodeId,
    sol: LPSolution,
    handles: Dict[str, object],
    port_model: str = "one-port",
    ports: int = 1,
) -> SteadyStateSolution:
    """Turn an SSMS LP solution back into steady-state activities.

    Shared by every SSMS solve and the warm re-solve path of
    :mod:`repro.service.incremental` (which re-solves a coefficient-patched
    copy of the same LP, so the handle dict is reused across platforms with
    identical topology).  The answer records the port model it was built
    for, and an exact one (:attr:`~repro.lp.LPSolution.exact`) is
    verified against it.
    """
    alpha: Dict[NodeId, Fraction] = {}
    s: Dict[Tuple[NodeId, NodeId], Fraction] = {}
    for key, var in handles.items():
        if key[0] == "alpha":
            alpha[key[1]] = sol[var]
        else:
            s[(key[1], key[2])] = sol[var]
    out = SteadyStateSolution(
        platform=platform,
        problem="master-slave",
        throughput=sol.objective,
        alpha=alpha,
        s=s,
        source=master,
        port_model=port_model,
        ports=ports,
    )
    out.simplify()  # cancel degenerate flow circulations (see activities.py)
    if sol.exact:
        out.verify()
    return out


def solve_master_slave(
    platform: Platform, master: NodeId, port_model: str = "one-port",
    ports: int = 1,
) -> SteadyStateSolution:
    """Solve SSMS(G) exactly under a section 5.1 port model and return
    verified steady-state activities.

    ``port_model`` is ``"one-port"`` (the paper's default),
    ``"send-or-receive"`` or ``"multiport"`` with ``ports`` cards per
    direction (:func:`~repro.core.activities.port_groups`); under
    multiport each link still carries at most one message at a time
    (``s_ij <= 1``) while a direction's total may reach ``ports``.  The
    returned solution satisfies every invariant of
    :class:`~repro.core.activities.SteadyStateSolution` exactly.
    """
    lp, handles = build_ssms_lp(platform, master, port_model, ports)
    return package_ssms_solution(platform, master, lp.solve(), handles,
                                 port_model, ports)


def ntask(platform: Platform, master: NodeId) -> Fraction:
    """The paper's ``ntask(G)``: optimal tasks per time-unit."""
    return solve_master_slave(platform, master).throughput


# ----------------------------------------------------------------------
# The bandwidth-centric rule of section 5.5, and its star closed form
# ----------------------------------------------------------------------
def bandwidth_centric(
    own_rate: Fraction, children: Sequence[Tuple[Fraction, Fraction]]
) -> Tuple[Fraction, List[Fraction]]:
    """One node's bandwidth-centric allocation (the principle of [2, 11]).

    ``children`` holds one ``(link cost c, absorbable rate)`` pair per
    child.  The node serves children by **increasing** ``c`` (ties by
    position), each up to what it absorbs, until its send port saturates
    (``sum_k rate_k c_k <= 1``) — regardless of the children's speeds.
    Returns the node's capacity, ``own_rate`` plus the children's rates,
    and the per-child rates in input order.  On a tree, fed with each
    child subtree's own capacity, this local rule is the global optimum.
    """
    budget = Fraction(1)  # send-port time per time-unit
    rates = [Fraction(0)] * len(children)
    for k in sorted(range(len(children)), key=lambda k: (children[k][0], k)):
        if budget <= 0:
            break
        c, absorbable = children[k]
        rates[k] = min(absorbable, budget / c)
        budget -= rates[k] * c
    return sum(rates, start=own_rate), rates


def star_throughput(
    master_w: Fraction,
    worker_w: Sequence[Fraction],
    link_c: Sequence[Fraction],
) -> Fraction:
    """Optimal steady-state throughput of a star platform, in closed form.

    On a star (master + independent workers, single links) SSMS reduces to
    a fractional knapsack on the master's *send port*:

        maximise   1/w_m + sum_k x_k
        subject to sum_k x_k c_k <= 1,  0 <= x_k <= 1/w_k

    whose greedy solution is :func:`bandwidth_centric` at depth 1.  Used
    as an independent oracle for the LP in tests.
    """
    if len(worker_w) != len(link_c):
        raise ValueError("worker_w and link_c must have the same length")
    return bandwidth_centric(
        ONE / as_fraction(master_w),
        [(as_fraction(c), ONE / as_fraction(w))
         for w, c in zip(worker_w, link_c)],
    )[0]
