"""S3 — the first-class warm path: basis restarts and batched shard IPC.

Measures, on weight-drift mutations of the paper's Figure 1 platform and
a wider heterogeneous star:

* cold solve cost — LP assembly + two-phase simplex (latency and pivots);
* basis-restart warm re-solve cost — coefficients patched in place, the
  pivot phase restarted from the retained optimal basis (latency and
  pivots), asserted ``Fraction``-identical to the cold solve of every
  mutated platform and *strictly cheaper in pivots* in aggregate;
* ``solve_many`` batching on local shards — one round-trip per
  shard per batch instead of one per request, asserted exact against the
  unsharded broker and strictly fewer IPC round-trips.

Emits ``BENCH_warm.json`` at the repo root.  Run standalone::

    python benchmarks/bench_s3_warm.py [--smoke] [--out FILE]

Asserted shape: every compared result is Fraction-identical; warm
re-solves use strictly fewer pivots than cold solves (p50 and total) at
a p50 latency no worse than the cold solve's (and within the ~4 ms warm
re-solve budget of BENCH_service.json); ``solve_many`` cuts process-shard
IPC round-trips per batched request; 6 of 10 registered problems declare
``warm_resolve``.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from repro import generators
from repro.core.master_slave import build_ssms_lp, package_ssms_solution
from repro.lp import SimplexInstance
from repro.platform.graph import Platform
from repro.problems import MasterSlaveSpec, registered_problems, resolve
from repro.service import EndpointMetrics, IncrementalSolver
from repro.service.broker import Broker, SolveRequest
from repro.service.sharding import ShardedBroker
from repro._rational import INF, is_infinite


def _percentile(samples, p):
    em = EndpointMetrics("bench", reservoir_size=max(len(samples), 1))
    for s in samples:
        em.observe(s)
    return em.percentile(p)


def _drift(platform: Platform, rng: random.Random) -> Platform:
    """A weight-drift mutation: every node/edge weight moves by an
    independent rational factor in [3/4, 5/4] — the monitoring-layer
    regime the warm path is built for (same topology, moved weights)."""
    out = Platform(platform.name)
    for spec in platform._nodes.values():  # noqa: SLF001 — bench helper
        if is_infinite(spec.w):
            out.add_node(spec.name, INF)
        else:
            out.add_node(spec.name,
                         spec.w * Fraction(rng.randint(12, 20), 16))
    for spec in platform.edges():
        out.add_edge(spec.src, spec.dst,
                     spec.c * Fraction(rng.randint(12, 20), 16))
    return out


# ----------------------------------------------------------------------
def bench_basis_restart(smoke: bool) -> dict:
    """Warm basis restart vs cold solve: pivots and latency, exactness."""
    rounds = 8 if smoke else 40
    rng = random.Random(20040427)
    platforms = {
        "paper_figure1": (generators.paper_figure1(), "P1"),
        "binary_tree3": (generators.binary_tree(3, seed=1), "T0"),
    }
    out = {}
    for name, (base, master) in platforms.items():
        inc = IncrementalSolver()
        inc.solve_master_slave(base, master)  # prime the hot model
        # the PRE-refactor warm path measured side by side: a second hot
        # model whose re-solves patch coefficients but run the cold pivot
        # sequence every time (assembly skipped, no basis reuse) — the
        # ~4 ms "current warm re-solve" baseline the restart must beat
        legacy_lp, legacy_handles = build_ssms_lp(base, master)
        from repro.core.master_slave import patch_ssms_coefficients

        restart_lat, restart_piv = [], []
        legacy_lat, legacy_piv = [], []
        cold_lat, cold_piv = [], []
        for _ in range(rounds):
            mutated = _drift(base, rng)
            before = inc.stats.warm_pivots
            start = time.perf_counter()
            warm = inc.solve_master_slave(mutated, master)
            restart_lat.append(time.perf_counter() - start)
            restart_piv.append(inc.stats.warm_pivots - before)

            start = time.perf_counter()
            patch_ssms_coefficients(legacy_lp, legacy_handles, mutated,
                                    master)
            legacy_sol = SimplexInstance(legacy_lp).solve()
            legacy = package_ssms_solution(mutated, master, legacy_sol,
                                           legacy_handles)
            legacy_lat.append(time.perf_counter() - start)
            legacy_piv.append(legacy_sol.pivots)

            # the full cold path — assemble, two-phase solve, package —
            # i.e. what this request would cost without any hot state
            start = time.perf_counter()
            lp, handles = build_ssms_lp(mutated, master)
            cold_sol = SimplexInstance(lp).solve()
            cold = package_ssms_solution(mutated, master, cold_sol, handles)
            cold_lat.append(time.perf_counter() - start)
            cold_piv.append(cold_sol.pivots)

            # exactness: identical Fraction throughput on every mutation
            assert warm.throughput == cold.throughput == legacy.throughput, (
                f"{name}: warm {warm.throughput} != cold {cold.throughput}"
            )
        stats = inc.stats
        assert stats.warm_solves == rounds and stats.basis_fallbacks == 0, (
            f"{name}: warm path not taken on every mutation: "
            f"{stats.as_dict()}"
        )
        total_warm, total_cold = sum(restart_piv), sum(cold_piv)
        p50_warm = _percentile(restart_piv, 50)
        p50_cold = _percentile(cold_piv, 50)
        assert total_warm < total_cold and p50_warm < p50_cold, (
            f"{name}: basis restart must pivot strictly less than cold "
            f"(total {total_warm} vs {total_cold}, p50 {p50_warm} vs "
            f"{p50_cold})"
        )
        warm_p50_ms = _percentile(restart_lat, 50) * 1e3
        legacy_p50_ms = _percentile(legacy_lat, 50) * 1e3
        cold_p50_ms = _percentile(cold_lat, 50) * 1e3
        assert warm_p50_ms <= cold_p50_ms, (
            f"{name}: warm p50 {warm_p50_ms:.2f} ms slower than cold "
            f"{cold_p50_ms:.2f} ms"
        )
        # the acceptance bar: at or below the coefficient-patch-only
        # warm re-solve this PR replaces (~4 ms on the reference box)
        assert warm_p50_ms <= legacy_p50_ms * 1.05, (
            f"{name}: basis restart p50 {warm_p50_ms:.2f} ms regressed "
            f"past the patch-only warm re-solve ({legacy_p50_ms:.2f} ms)"
        )
        out[name] = {
            "mutations": rounds,
            "cold_p50_ms": cold_p50_ms,
            "cold_p99_ms": _percentile(cold_lat, 99) * 1e3,
            "patch_only_warm_p50_ms": legacy_p50_ms,
            "warm_p50_ms": warm_p50_ms,
            "warm_p99_ms": _percentile(restart_lat, 99) * 1e3,
            "cold_pivots_p50": p50_cold,
            "patch_only_pivots_p50": _percentile(legacy_piv, 50),
            "warm_pivots_p50": p50_warm,
            "cold_pivots_total": total_cold,
            "warm_pivots_total": total_warm,
            "pivot_savings": 1 - total_warm / total_cold,
            "phase1_skips": stats.phase1_skips,
            "basis_restarts": stats.basis_restarts,
        }
    return out


# ----------------------------------------------------------------------
def _batch_corpus(size: int) -> list:
    """A Zipf-repeating request mix over distinct star platforms."""
    distinct = [
        SolveRequest(problem="master-slave",
                     platform=generators.star(
                         n, worker_w=list(range(1, n + 1)), link_c=[1] * n),
                     master="M")
        for n in range(2, 10)
    ]
    rng = random.Random(1)
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(distinct))]
    return rng.choices(distinct, weights=weights, k=size)


def bench_solve_many(smoke: bool) -> dict:
    """Batched vs unbatched process-shard dispatch: IPC and throughput."""
    n_requests = 48 if smoke else 192
    batch_size = 16 if smoke else 32
    shards = 2
    sequence = _batch_corpus(n_requests)

    with Broker(executor="sync") as ref_broker:
        reference = [ref_broker.solve(r).throughput for r in sequence]

    with ShardedBroker(shards=shards) as broker:
        start = time.perf_counter()
        unbatched = [broker.solve(r) for r in sequence]
        unbatched_elapsed = time.perf_counter() - start
        unbatched_ipc = broker.ipc_round_trips
    assert [r.throughput for r in unbatched] == reference

    with ShardedBroker(shards=shards) as broker:
        start = time.perf_counter()
        batched = []
        for lo in range(0, n_requests, batch_size):
            batched.extend(broker.solve_batch(sequence[lo:lo + batch_size]))
        batched_elapsed = time.perf_counter() - start
        batched_ipc = broker.ipc_round_trips
    assert [r.throughput for r in batched] == reference

    assert batched_ipc < unbatched_ipc, (
        f"solve_many must cut IPC round-trips "
        f"({batched_ipc} vs {unbatched_ipc})"
    )
    # one solve round-trip per shard per batch (+ nothing per request)
    assert batched_ipc <= shards * -(-n_requests // batch_size)
    return {
        "requests": n_requests,
        "batch_size": batch_size,
        "shards": shards,
        "unbatched_ipc_round_trips": unbatched_ipc,
        "batched_ipc_round_trips": batched_ipc,
        "ipc_per_request_unbatched": unbatched_ipc / n_requests,
        "ipc_per_request_batched": batched_ipc / n_requests,
        "unbatched_requests_per_second": n_requests / unbatched_elapsed,
        "batched_requests_per_second": n_requests / batched_elapsed,
        "batching_speedup": unbatched_elapsed / batched_elapsed,
        "exactness_checked": len(reference),
    }


# ----------------------------------------------------------------------
def warm_capability_coverage() -> dict:
    """Which registered problems declare warm_resolve (6 of 10 expected)."""
    warm = sorted(p for p in registered_problems()
                  if resolve(p).capabilities.warm_resolve)
    assert len(warm) == 6, f"expected 6 warm-capable problems, got {warm}"
    # one warm re-solve sanity pass through the generic incremental path
    g = generators.star(3, bidirectional=True)
    inc = IncrementalSolver()
    inc.solve_spec(MasterSlaveSpec(platform=g, master="M"))
    mutated = MasterSlaveSpec(platform=g.scale(compute=Fraction(5, 4)),
                              master="M")
    _sol, was_warm = inc.solve_spec_ex(mutated)
    assert was_warm and inc.stats.basis_restarts == 1
    return {
        "registered_problems": len(registered_problems()),
        "warm_capable": warm,
    }


# ----------------------------------------------------------------------
def run(smoke: bool = False) -> dict:
    return {
        "benchmark": "S3 warm path",
        "smoke": smoke,
        "coverage": warm_capability_coverage(),
        "basis_restart": bench_basis_restart(smoke),
        "solve_many": bench_solve_many(smoke),
    }


def test_s3_warm(capsys):
    """Pytest entry point (smoke mode; run the script for full numbers)."""
    report = run(smoke=True)
    with capsys.disabled():
        print("\n==== S3: warm path ====")
        print(json.dumps(report, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller rounds (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_warm.json)")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_warm.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
