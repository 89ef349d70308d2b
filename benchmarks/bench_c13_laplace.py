"""C13 — §6: the open problem — collections of Laplace task graphs.

The paper closes by asking for the complexity of the optimal steady-state
throughput for DAGs with exponentially many simple paths (the Laplace
graph), conjecturing NP-hardness.  We probe the question in polynomial
time and surface a precise structural finding:

* the rate-relaxation LP gives an upper bound;
* the *colocated* strategy (run whole instances where their input lands;
  equivalently SSMS on the aggregated task of work ``n^2``) gives a lower
  bound;
* with **uniform capabilities** (every node can run every type, related
  speeds) the two coincide on every platform we test — the bracket closes,
  because splitting an instance only ever adds communication;
* under **specialisation** (per-type affinities, the unrelated extension)
  colocation is impossible and the LP relaxation is all that remains —
  the regime where the conjectured hardness must live.

Shape: path counts explode (binomial(2n-2, n-1)); both bounds stay
polynomial; gap 1.0 uniformly, specialised bound strictly above what any
single node can do.
"""

from fractions import Fraction

from repro import INF
from repro.core.dag import TaskGraph, solve_dag_collection
from repro.core.master_slave import solve_master_slave
from repro.platform import generators
from repro.analysis.reporting import render_table

from conftest import report


def colocated_lower_bound(platform, master, dag) -> Fraction:
    total_work = sum(
        (w for t, w in dag.types.items() if w > 0), start=Fraction(0)
    )
    scaled = platform.scale(compute=total_work)
    return solve_master_slave(scaled, master).throughput


def checkerboard_affinity(platform, dag):
    """Even-parity cells only on even workers, odd on odd — colocation
    becomes impossible because no node may run a whole instance."""
    affinity = {}
    workers = [n for n in platform.nodes()]
    for t in dag.real_types():
        i, j = (int(x) for x in t[1:].split("_"))
        parity = (i + j) % 2
        for idx, node in enumerate(workers):
            if node == "M":
                continue
            if idx % 2 != parity:
                affinity[(node, t)] = INF
        affinity[("M", t)] = INF  # the master only feeds inputs
    return affinity


def run_laplace_bracket():
    # bidirectional links so specialised intermediate files can route
    # back through the master between worker groups
    platform = generators.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                               link_c=[1, 1, 2, 2], bidirectional=True)
    rows = []
    for n in (2, 3, 4):
        dag = TaskGraph.laplace(n)
        paths = dag.count_simple_paths("l0_0", f"l{n - 1}_{n - 1}")
        upper = solve_dag_collection(platform, dag, "M").throughput
        lower = colocated_lower_bound(platform, "M", dag)
        rows.append([
            f"{n}x{n} uniform", paths, float(lower), float(upper),
            float(upper / lower) if lower else float("nan"),
        ])
    # the specialised regime (n = 2): colocation impossible
    dag2 = TaskGraph.laplace(2)
    affinity = checkerboard_affinity(platform, dag2)
    specialised = solve_dag_collection(
        platform, dag2, "M", affinity=affinity
    ).throughput
    rows.append(["2x2 specialised", 2, None, float(specialised), None])
    return rows, specialised


def test_c13_laplace_bracket(benchmark):
    rows, specialised = benchmark.pedantic(
        run_laplace_bracket, rounds=1, iterations=1
    )
    uniform_rows = [r for r in rows if r[2] is not None]
    # exponential path growth: 2, 6, 20
    assert [r[1] for r in uniform_rows] == [2, 6, 20]
    # THE finding: under uniform capabilities the bracket closes exactly
    for label, paths, lower, upper, gap in uniform_rows:
        assert abs(gap - 1.0) < 1e-12, label
    # specialisation keeps a positive (but now unverifiable) LP bound
    assert specialised > 0
    report(
        "C13: the section 6 open problem, bracketed "
        "(uniform capabilities close the gap; specialisation reopens it)",
        render_table(
            ["workload", "simple paths", "colocated lower",
             "rate-LP upper", "gap"],
            [[r[0], r[1],
              "-" if r[2] is None else r[2],
              r[3],
              "-" if r[4] is None else r[4]] for r in rows],
        ),
    )
