"""Steady-state scheduling of collections of identical DAGs (§4.2).

The paper generalises master–slave tasking to *independent task graphs*:
"collections of identical DAGs are to be scheduled in order to execute the
same suite of algorithmic kernels, but using different data samples" —
mixed data and task parallelism.

Model
-----
A :class:`TaskGraph` has task *types* (each with a computational weight:
executing type ``k`` on node ``i`` takes ``w_i * work_k``) and *file types*
on precedence edges (shipping file ``(k, l)`` over edge ``e_ij`` takes
``c_ij * size_kl``).  Instances are independent; within an instance, type
``l`` needs one ``(k, l)`` file from every predecessor ``k``.

A virtual ``__begin__`` type anchors the input data at the master: every
root type consumes an input file produced by ``__begin__``, which only the
master executes (at zero cost).  Symmetrically an optional ``__end__``
collects results.

The LP below is the *rate relaxation* used by the steady-state literature
(cf. [6, 4]): per-node execution rates per type, per-edge file-transfer
rates per file type, conservation of every file type at every node, compute
and one-port time budgets.  For fork/tree-shaped DAGs the relaxation is
exact; for general DAGs it upper-bounds the throughput (the same-instance
consistency of multi-predecessor joins is relaxed), matching the paper's
remark that the general problem is solved only for DAGs with a polynomial
number of simple paths — and its conjecture that the general case is
NP-hard (section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._rational import RationalLike, as_fraction, is_infinite
from ..lp import LinearProgram, lp_sum
from ..platform.graph import NodeId, Platform
from .activities import add_port_rows, port_loads

BEGIN = "__begin__"
END = "__end__"


class TaskGraphError(ValueError):
    """Invalid DAG specification."""


@dataclass
class TaskGraph:
    """Typed DAG template executed once per data sample.

    ``types``: name -> computational work (time on a ``w = 1`` node).
    ``files``: (producer type, consumer type) -> file size (time per
    ``c = 1`` link).
    """

    types: Dict[str, Fraction] = field(default_factory=dict)
    files: Dict[Tuple[str, str], Fraction] = field(default_factory=dict)

    def add_type(self, name: str, work: RationalLike) -> None:
        if name in self.types:
            raise TaskGraphError(f"duplicate type {name!r}")
        workf = as_fraction(work)
        if workf < 0:
            raise TaskGraphError("work must be non-negative")
        self.types[name] = workf

    def add_file(self, producer: str, consumer: str, size: RationalLike) -> None:
        for t in (producer, consumer):
            if t not in self.types:
                raise TaskGraphError(f"unknown type {t!r}")
        if (producer, consumer) in self.files:
            raise TaskGraphError(f"duplicate file {producer}->{consumer}")
        sizef = as_fraction(size)
        if sizef <= 0:
            raise TaskGraphError("file size must be positive")
        self.files[(producer, consumer)] = sizef
        if self._has_cycle():
            del self.files[(producer, consumer)]
            raise TaskGraphError(
                f"file {producer}->{consumer} would create a cycle"
            )

    def _has_cycle(self) -> bool:
        color: Dict[str, int] = {}

        def dfs(u: str) -> bool:
            color[u] = 1
            for (a, b) in self.files:
                if a == u:
                    if color.get(b, 0) == 1:
                        return True
                    if color.get(b, 0) == 0 and dfs(b):
                        return True
            color[u] = 2
            return False

        return any(color.get(t, 0) == 0 and dfs(t) for t in self.types)

    def predecessors(self, t: str) -> List[str]:
        return [a for (a, b) in self.files if b == t]

    def successors(self, t: str) -> List[str]:
        return [b for (a, b) in self.files if a == t]

    def roots(self) -> List[str]:
        return [
            t for t in self.types
            if not self.predecessors(t) and t not in (BEGIN, END)
        ]

    @staticmethod
    def single_task(work: RationalLike = 1, input_size: RationalLike = 1) -> "TaskGraph":
        """The degenerate DAG equivalent to master-slave tasking."""
        dag = TaskGraph()
        dag.add_type("task", work)
        dag.anchor_at_master(input_size)
        return dag

    @staticmethod
    def chain(
        works: Sequence[RationalLike], sizes: Sequence[RationalLike],
        input_size: RationalLike = 1,
    ) -> "TaskGraph":
        """A linear pipeline ``t0 -> t1 -> ...`` (sizes between stages)."""
        if len(sizes) != len(works) - 1:
            raise TaskGraphError("need len(works) - 1 inter-stage sizes")
        dag = TaskGraph()
        for k, wk in enumerate(works):
            dag.add_type(f"t{k}", wk)
        for k, sz in enumerate(sizes):
            dag.add_file(f"t{k}", f"t{k + 1}", sz)
        dag.anchor_at_master(input_size)
        return dag

    @staticmethod
    def laplace(
        n: int,
        work: RationalLike = 1,
        size: RationalLike = 1,
        input_size: RationalLike = 1,
    ) -> "TaskGraph":
        """The Laplace task graph of the paper's concluding open problem.

        An ``n x n`` grid of types ``l{i}_{j}`` where each cell depends on
        its upper and left neighbours — the dependence structure of a
        Gauss–Seidel / Laplace stencil sweep.  Its number of simple paths
        is exponential (binomial(2n-2, n-1) source→sink paths), which is
        exactly why the paper conjectures the steady-state throughput of
        such collections is NP-hard to compute (section 6).  Our rate
        relaxation still yields a valid *upper bound* in polynomial time.
        """
        if n < 1:
            raise TaskGraphError("n must be >= 1")
        dag = TaskGraph()
        for i in range(n):
            for j in range(n):
                dag.add_type(f"l{i}_{j}", work)
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    dag.add_file(f"l{i}_{j}", f"l{i + 1}_{j}", size)
                if j + 1 < n:
                    dag.add_file(f"l{i}_{j}", f"l{i}_{j + 1}", size)
        dag.anchor_at_master(input_size)
        return dag

    def count_simple_paths(self, src: str, dst: str) -> int:
        """Number of simple src→dst paths (DAG: dynamic programming)."""
        if src not in self.types or dst not in self.types:
            raise TaskGraphError("unknown types")
        memo: Dict[str, int] = {}

        def count(t: str) -> int:
            if t == dst:
                return 1
            if t in memo:
                return memo[t]
            memo[t] = sum(count(s) for s in self.successors(t))
            return memo[t]

        return count(src)

    @staticmethod
    def fork_join(
        n_branches: int,
        branch_work: RationalLike = 1,
        fork_work: RationalLike = 1,
        join_work: RationalLike = 1,
        size: RationalLike = 1,
        input_size: RationalLike = 1,
    ) -> "TaskGraph":
        """fork -> n parallel branches -> join."""
        dag = TaskGraph()
        dag.add_type("fork", fork_work)
        dag.add_type("join", join_work)
        for b in range(n_branches):
            dag.add_type(f"branch{b}", branch_work)
            dag.add_file("fork", f"branch{b}", size)
            dag.add_file(f"branch{b}", "join", size)
        dag.anchor_at_master(input_size)
        return dag

    def anchor_at_master(self, input_size: RationalLike = 1) -> None:
        """Add the virtual ``__begin__`` type feeding every root."""
        if BEGIN in self.types:
            raise TaskGraphError("already anchored")
        roots = self.roots()
        self.add_type(BEGIN, 0)
        for r in roots:
            self.add_file(BEGIN, r, input_size)

    def real_types(self) -> List[str]:
        return [t for t in self.types if t not in (BEGIN, END)]


@dataclass
class DagSolution:
    """Steady-state rates for a DAG collection."""

    platform: Platform
    dag: TaskGraph
    master: NodeId
    throughput: Fraction
    #: cons[(node, type)] = executions per time-unit
    cons: Dict[Tuple[NodeId, str], Fraction]
    #: flow[(i, j, (k, l))] = file-transfer rate on edge i->j
    flow: Dict[Tuple[NodeId, NodeId, Tuple[str, str]], Fraction]
    #: optional per-(node, type) execution-time multipliers
    affinity: Optional[Mapping[Tuple[NodeId, str], object]] = None

    def verify(self) -> None:
        """Re-check every LP constraint on the returned rates: the pins
        (no negative rate, ``__begin__`` only on the master, no execution
        on a forwarder or a forbidden pairing), the compute budgets, each
        edge's occupation and the one-port budgets (:func:`port_loads`),
        file conservation and the per-type totals."""
        p, dag = self.platform, self.dag
        compute: Dict[NodeId, Fraction] = {}
        for (node, t), rate in self.cons.items():
            if rate < 0:
                raise TaskGraphError(f"{node} executes {t} at rate {rate}")
            if t == BEGIN:
                if node != self.master:
                    raise TaskGraphError(
                        f"{BEGIN} executed on {node}, not the master")
                continue
            spec, mult = p.node(node), _slowdown(self.affinity, node, t)
            if not spec.can_compute:
                raise TaskGraphError(f"forwarder {node} executes {t}")
            if mult is None:
                raise TaskGraphError(f"{node} executes forbidden type {t}")
            compute[node] = (compute.get(node, 0)
                             + rate * dag.types[t] * spec.w * mult)
        for node, frac in compute.items():
            if frac > 1:
                raise TaskGraphError(f"{node} computes {frac} > 1")
        busy: Dict[Tuple[NodeId, NodeId], Fraction] = {}
        net: Dict[Tuple[NodeId, Tuple[str, str]], Fraction] = {}  # out - in
        for (i, j, f), rate in self.flow.items():
            if rate < 0:
                raise TaskGraphError(f"file {f} crosses {i}->{j} at {rate}")
            busy[i, j] = busy.get((i, j), 0) + rate * dag.files[f] * p.c(i, j)
            net[i, f] = net.get((i, f), 0) + rate
            net[j, f] = net.get((j, f), 0) - rate
        for (i, j), load in busy.items():
            if load > 1:
                raise TaskGraphError(f"edge {i}->{j} busy {load} > 1")
        for node, group, load, budget in port_loads(p, busy):
            if load > budget:
                raise TaskGraphError(f"{node} {group} {load} > {budget}")
        for k, l in dag.files:
            for node in p.nodes():
                made = self.cons.get((node, k), 0) - self.cons.get((node, l), 0)
                sent = net.get((node, (k, l)), 0)
                if made != sent:
                    raise TaskGraphError(
                        f"file {(k, l)} unbalanced at {node}: produced - "
                        f"consumed {made} != net outflow {sent}")
        for t in dag.real_types():
            total = sum(self.cons.get((n, t), 0) for n in p.nodes())
            if total != self.throughput:
                raise TaskGraphError(
                    f"type {t} total rate {total} != throughput "
                    f"{self.throughput}"
                )


def _slowdown(affinity: Optional[Mapping[Tuple[NodeId, str], object]],
              node: NodeId, t: str) -> Optional[Fraction]:
    """Type ``t``'s execution-time multiplier on ``node``, or ``None``
    when the affinity forbids the pairing."""
    mult = affinity.get((node, t), 1) if affinity else 1
    return None if is_infinite(mult) else as_fraction(mult)


def solve_dag_collection(
    platform: Platform,
    dag: TaskGraph,
    master: NodeId,
    backend: str = "exact",
    affinity: Optional[Mapping[Tuple[NodeId, str], RationalLike]] = None,
) -> DagSolution:
    """Maximise the number of DAG instances completed per time-unit.

    ``affinity`` optionally specialises processors (the *unrelated*
    extension of [6]'s model): executing type ``t`` on node ``i`` takes
    ``w_i * work_t * affinity[(i, t)]`` time; an affinity of
    :data:`repro.INF` forbids the pairing.  Missing keys default to 1.
    Specialisation is what breaks the colocation argument and makes the
    section 6 open problem bite (see benchmark C13).
    """
    platform.node(master)
    if BEGIN not in dag.types:
        raise TaskGraphError(
            "anchor the DAG first (TaskGraph.anchor_at_master)"
        )

    lp = LinearProgram(f"DAG({platform.name})")
    tp = lp.variable("TP", lo=0)

    cons_vars: Dict[Tuple[NodeId, str], object] = {}
    for node in platform.nodes():
        spec = platform.node(node)
        for t in dag.types:
            if t == BEGIN:
                hi = None if node == master else 0
            elif not spec.can_compute or _slowdown(affinity, node, t) is None:
                hi = 0
            else:
                hi = None
            cons_vars[(node, t)] = lp.variable(f"cons[{node},{t}]", lo=0, hi=hi)

    flow_vars: Dict[Tuple[NodeId, NodeId, Tuple[str, str]], object] = {}
    for spec in platform.edges():
        for f in dag.files:
            flow_vars[(spec.src, spec.dst, f)] = lp.variable(
                f"f[{spec.src}->{spec.dst},{f[0]}->{f[1]}]", lo=0
            )

    # compute budget per node (with optional per-type specialisation)
    for node in platform.nodes():
        spec = platform.node(node)
        if not spec.can_compute:
            continue
        terms = []
        for t in dag.types:
            if dag.types[t] <= 0:
                continue
            mult = _slowdown(affinity, node, t)
            if mult is None:
                continue  # forbidden pairing; variable already pinned to 0
            terms.append(cons_vars[(node, t)] * (dag.types[t] * spec.w * mult))
        if terms:
            lp.add_constraint(lp_sum(terms) <= 1, name=f"cpu[{node}]")

    # edge occupation and one-port
    edge_busy: Dict[Tuple[NodeId, NodeId], object] = {}
    for spec in platform.edges():
        i, j = spec.src, spec.dst
        busy = lp_sum(
            flow_vars[(i, j, f)] * (dag.files[f] * spec.c) for f in dag.files
        )
        edge_busy[(i, j)] = busy
        lp.add_constraint(busy <= 1, name=f"edge[{i}->{j}]")
    add_port_rows(lp, platform, lambda i, j: edge_busy[(i, j)].terms.items())

    # file conservation at every node
    for f in dag.files:
        k, l = f
        for node in platform.nodes():
            produced = cons_vars[(node, k)]
            consumed = cons_vars[(node, l)]
            inflow = lp_sum(
                flow_vars[(j, node, f)] for j in platform.predecessors(node)
            )
            outflow = lp_sum(
                flow_vars[(node, j, f)] for j in platform.successors(node)
            )
            lp.add_constraint(
                produced + inflow == consumed + outflow,
                name=f"file[{k}->{l},{node}]",
            )

    # every type is executed at the common throughput
    for t in dag.types:
        total = lp_sum(cons_vars[(node, t)] for node in platform.nodes())
        lp.add_constraint(total == tp * 1, name=f"rate[{t}]")

    lp.maximize(tp)
    sol = lp.solve(backend=backend)

    out = DagSolution(
        platform=platform,
        dag=dag,
        master=master,
        throughput=sol.objective,
        cons={
            key: sol[var] for key, var in cons_vars.items() if sol[var] != 0
        },
        flow={
            key: sol[var] for key, var in flow_vars.items() if sol[var] != 0
        },
        affinity=dict(affinity) if affinity is not None else None,
    )
    if backend == "exact":
        out.verify()
    return out
