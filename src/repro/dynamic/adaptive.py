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

Every epoch's LP is a weight patch of the last one, so a run re-plans
through one warm :class:`~repro.service.incremental.IncrementalSolver`
(a basis restart, not a cold two-phase solve) and reports its
:class:`~repro.service.incremental.WarmSolveStats`.

Execution model: a plan drawn on an estimated platform runs on the true
platform with per-resource slowdown.  A transfer planned to take
``n * c_est`` takes ``n * c_true``; a node planned to compute ``n`` tasks
needs ``n * w_true``.  Per epoch, each resource's planned load is scaled by
``min(1, budget / needed)`` and the realised throughput is limited by flow
feasibility, read off the periodic runner's buffer rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Literal, Optional

from ..core.activities import SteadyStateSolution
from ..platform.graph import Edge, NodeId, Platform
from ..platform.monitoring import SlidingWindowPredictor, TimeVaryingPlatform
from ..simulator.periodic_runner import primed_rate

if TYPE_CHECKING:
    from ..service.incremental import WarmSolveStats

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
    #: how the run's warm solver re-planned (cold builds, pivots, ...)
    stats: WarmSolveStats

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


def realized_rate(plan: SteadyStateSolution,
                  true_platform: Platform) -> Fraction:
    """Throughput of ``plan`` when run on the truth.

    The plan fixes per-edge task rates and per-node compute rates.  On the
    true platform each rate is first clipped by its own resource budget
    (ports, links, CPU under true costs); the clipped plan then runs under
    the periodic runner's buffer rule, whose steady state
    (:func:`~repro.simulator.periodic_runner.primed_rate`) restores flow
    conservation: a node cannot compute or forward tasks it does not
    receive.  Exact fluid computation.
    """
    edge_rate: Dict[Edge, Fraction] = {
        e: plan.edge_rate(*e) for e in plan.s if true_platform.has_edge(*e)}
    compute_rate: Dict[NodeId, Fraction] = {}
    for node in true_platform.nodes():
        for edges in ([(node, j) for j in true_platform.successors(node)],
                      [(j, node) for j in true_platform.predecessors(node)]):
            busy = sum((edge_rate[e] * true_platform.c(*e)
                        for e in edges if e in edge_rate), start=Fraction(0))
            for e in edges:
                if busy > 1 and e in edge_rate:
                    edge_rate[e] /= busy
        spec = true_platform.node(node)
        if spec.can_compute:
            compute_rate[node] = min(plan.compute_rate(node), 1 / spec.w)
    return primed_rate(true_platform, plan.source, edge_rate, compute_rate)


def run_adaptive(
    varying: TimeVaryingPlatform,
    master: NodeId,
    epochs: int,
    strategy: Strategy = "adaptive",
    predictor: Optional[SlidingWindowPredictor] = None,
) -> AdaptiveRunResult:
    """Run one of the three strategies for ``epochs`` epochs.

    Every LP goes through one warm solver: each epoch solves its true
    platform once, and that optimum is the oracle's plan for the epoch
    and the adaptive plan for the next one; the static plan is epoch 0's.
    A predictor's forecast costs one more solve per epoch.
    """
    # the warm engine lives in the service layer, which ``import repro``
    # does not load
    from ..problems import MasterSlaveSpec
    from ..service.incremental import IncrementalSolver

    if epochs < 1:
        raise ValueError("need at least one epoch")
    solver = IncrementalSolver()

    def solve(platform: Platform) -> SteadyStateSolution:
        return solver.solve_spec(MasterSlaveSpec(platform=platform,
                                                 master=master))

    outcomes: List[EpochOutcome] = []
    initial = varying.snapshot()
    plan: Optional[SteadyStateSolution] = None
    if predictor is not None:
        predictor.observe(initial)
    for e in range(epochs):
        true_platform = varying.snapshot() if e == 0 else varying.advance()
        if strategy == "adaptive" and predictor is not None:
            plan = solve(predictor.predict(initial))
        optimum = solve(true_platform)
        if plan is None or strategy == "oracle":
            plan = optimum
        outcomes.append(EpochOutcome(
            epoch=e,
            planned_rate=plan.throughput,
            achieved_rate=realized_rate(plan, true_platform),
            optimal_rate=optimum.throughput,
        ))
        if strategy == "adaptive" and predictor is None:
            plan = optimum  # the next epoch plans on what this one observed
        if predictor is not None:
            predictor.observe(true_platform)
    return AdaptiveRunResult(strategy, outcomes, solver.stats)
