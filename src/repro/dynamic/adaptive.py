"""Phase-based adaptive steady-state scheduling — section 5.5, solution 1.

"A first solution is to recompute the solution of the linear program
periodically, based upon the information acquired during the current
period, and to determine the activity variables for the new period
accordingly."

:func:`run_adaptive` executes exactly that protocol against a
:class:`~repro.platform.monitoring.TimeVaryingPlatform`:

* **adaptive** — each epoch is planned with the parameters observed during
  the previous epoch (optionally smoothed by an NWS-style predictor);
* **static** — plan once on the epoch-0 platform, never replan;
* **oracle** — replan each epoch with the *true* current parameters
  (unattainable in practice; the upper reference).

Execution model: a plan drawn on an estimated platform runs on the true
platform with per-resource slowdown.  A transfer planned to take
``n * c_est`` takes ``n * c_true``; a node planned to compute ``n`` tasks
needs ``n * w_true``.  Per epoch, each resource's planned load is scaled by
``min(1, budget / needed)`` and the realised throughput is limited by flow
feasibility (bottleneck propagation), computed with the same fluid
machinery as the periodic runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from ..core.master_slave import solve_master_slave
from ..platform.graph import Edge, NodeId, Platform
from ..platform.monitoring import SlidingWindowPredictor, TimeVaryingPlatform

Strategy = Literal["adaptive", "static", "oracle"]


@dataclass
class EpochOutcome:
    epoch: int
    planned_rate: Fraction
    achieved_rate: Fraction
    optimal_rate: Fraction  # LP optimum on the true epoch platform

    @property
    def efficiency(self) -> Fraction:
        if self.optimal_rate == 0:
            return Fraction(0)
        return self.achieved_rate / self.optimal_rate


@dataclass
class AdaptiveRunResult:
    strategy: str
    epochs: List[EpochOutcome]

    @property
    def total_achieved(self) -> Fraction:
        return sum((e.achieved_rate for e in self.epochs), start=Fraction(0))

    @property
    def total_optimal(self) -> Fraction:
        return sum((e.optimal_rate for e in self.epochs), start=Fraction(0))

    @property
    def mean_efficiency(self) -> Fraction:
        if self.total_optimal == 0:
            return Fraction(0)
        return self.total_achieved / self.total_optimal


def realized_rate(
    plan_platform: Platform,
    true_platform: Platform,
    master: NodeId,
    plan=None,
) -> Fraction:
    """Throughput of the ``plan_platform`` plan when run on the truth.

    The plan fixes per-edge task rates and per-node compute rates.  On the
    true platform each rate is first clipped by its own resource budget
    (ports, links, CPU under true costs), then flow conservation is
    restored by a downstream pass: a node cannot compute or forward tasks
    it does not receive.  Exact fluid computation.
    """
    if plan is None:
        plan = solve_master_slave(plan_platform, master)

    edge_rate: Dict[Edge, Fraction] = {}
    for (i, j) in plan.s:
        r = plan.edge_rate(i, j)
        if r > 0 and true_platform.has_edge(i, j):
            edge_rate[(i, j)] = r
    compute_rate: Dict[NodeId, Fraction] = {
        n: plan.compute_rate(n) for n in plan.alpha if plan.compute_rate(n) > 0
    }

    # 1. clip by true per-resource budgets
    for node in true_platform.nodes():
        out_edges = [
            (node, j) for j in true_platform.successors(node)
            if (node, j) in edge_rate
        ]
        busy = sum(
            (edge_rate[e] * true_platform.c(*e) for e in out_edges),
            start=Fraction(0),
        )
        if busy > 1:
            scale = Fraction(1) / busy
            for e in out_edges:
                edge_rate[e] *= scale
        in_edges = [
            (j, node) for j in true_platform.predecessors(node)
            if (j, node) in edge_rate
        ]
        busy = sum(
            (edge_rate[e] * true_platform.c(*e) for e in in_edges),
            start=Fraction(0),
        )
        if busy > 1:
            scale = Fraction(1) / busy
            for e in in_edges:
                edge_rate[e] *= scale
        if node in compute_rate:
            spec = true_platform.node(node)
            if not spec.can_compute:
                compute_rate[node] = Fraction(0)
            else:
                cap = Fraction(1) / spec.w
                compute_rate[node] = min(compute_rate[node], cap)

    # 2. restore conservation downstream, in topological order of the
    # *planned flow* (acyclic after SteadyStateSolution.simplify): a node's
    # outgoing + computed tasks cannot exceed its inflow.  Using the true
    # platform's BFS order here would be wrong — a flow-successor can sit
    # at a smaller BFS depth through some non-flow edge.
    indegree: Dict[NodeId, int] = {n: 0 for n in true_platform.nodes()}
    for (_i, j) in edge_rate:
        indegree[j] += 1
    order: List[NodeId] = [n for n, d in indegree.items() if d == 0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in true_platform.successors(u):
            if (u, v) in edge_rate:
                indegree[v] -= 1
                if indegree[v] == 0:
                    order.append(v)
    if len(order) < true_platform.num_nodes:
        # residual cycle in the plan (foreign or unsimplified solution):
        # append the leftovers in arbitrary order; their factors simply
        # propagate conservatively.
        remaining = [n for n in true_platform.nodes() if n not in set(order)]
        order.extend(remaining)
    achieved = compute_rate.get(master, Fraction(0))
    inflow: Dict[NodeId, Fraction] = {n: Fraction(0) for n in true_platform.nodes()}
    for u in order:
        if u == master:
            supply = sum(
                (edge_rate.get((u, j), Fraction(0))
                 for j in true_platform.successors(u)),
                start=Fraction(0),
            )  # master supplies whatever it plans to send
            budget = supply
        else:
            budget = inflow[u]
        planned_out = sum(
            (edge_rate.get((u, j), Fraction(0))
             for j in true_platform.successors(u)),
            start=Fraction(0),
        )
        planned_comp = compute_rate.get(u, Fraction(0)) if u != master else Fraction(0)
        planned_total = planned_out + planned_comp
        factor = (
            Fraction(1)
            if planned_total <= budget or planned_total == 0
            else budget / planned_total
        )
        if u != master:
            achieved += planned_comp * factor
        for j in true_platform.successors(u):
            r = edge_rate.get((u, j), Fraction(0)) * factor
            inflow[j] += r
    return achieved


def run_adaptive(
    varying: TimeVaryingPlatform,
    master: NodeId,
    epochs: int,
    strategy: Strategy = "adaptive",
    predictor: Optional[SlidingWindowPredictor] = None,
) -> AdaptiveRunResult:
    """Run one of the three strategies for ``epochs`` epochs."""
    if epochs < 1:
        raise ValueError("need at least one epoch")
    outcomes: List[EpochOutcome] = []
    initial = varying.snapshot()
    static_plan = solve_master_slave(initial, master)
    last_observed = initial
    if predictor is not None:
        predictor.observe(initial)
    for e in range(epochs):
        true_platform = varying.snapshot() if e == 0 else varying.advance()
        if strategy == "static":
            plan_platform, plan = initial, static_plan
        elif strategy == "oracle":
            plan_platform = true_platform
            plan = solve_master_slave(true_platform, master)
        else:
            if predictor is not None:
                plan_platform = predictor.predict(initial)
            else:
                plan_platform = last_observed
            plan = solve_master_slave(plan_platform, master)
        achieved = realized_rate(plan_platform, true_platform, master, plan)
        optimal = solve_master_slave(true_platform, master).throughput
        outcomes.append(
            EpochOutcome(
                epoch=e,
                planned_rate=plan.throughput,
                achieved_rate=achieved,
                optimal_rate=optimal,
            )
        )
        last_observed = true_platform
        if predictor is not None:
            predictor.observe(true_platform)
    return AdaptiveRunResult(strategy=strategy, epochs=outcomes)
