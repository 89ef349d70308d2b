"""One end-to-end run of one workload against a live stack."""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform as host_platform
import sys
import time
from typing import Any, Dict, Optional, Sequence

from . import stats
from .loadgen import CONNECTIONS, Connection, Sample, drive
from .stack import HOST, Stack, cpu_seconds, optional_flags, rss_peak_mb
from .verify import Verdict, check_answers, check_replies
from .workloads import Plan, build_plan

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# the issue's four rounds of 8 s + 3 s do not fit the contract's time cap;
# it says to cut rounds before phases, and a phase must hold the 100
# samples a percentile needs at the slowest workload's 20 req/s
ROUNDS = 2
CLOSED_SECONDS = 6.0  # what a run's closed-loop lists take on the seed commit
GEN_LAG_LIMIT_MS = 2.0
MIN_ACHIEVED = 0.98   # arrivals answered in time, of all arrivals

#: name -> (unit, better): what ``BENCHMARK.json`` lists with a bound
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rss_peak_mb": ("MB", "lower"),
}
#: measured, checked and printed by every run, but not gated: across ten
#: seeds on the VM this was built on, each one's interquartile spread is
#: over 0.10 of its median on every workload (bench/README.md has the
#: table), and the issue's rule for that is to ungate, not to widen
UNGATED = {
    "throughput_rps": ("1/s", "higher"),
    "lat_p50_ms": ("ms", "lower"),
    "lat_p90_ms": ("ms", "lower"),
    "cpu_ms_per_req": ("ms", "lower"),
}


async def _measure(stack: Stack, plan: Plan) -> Dict[str, Any]:
    conns = [await Connection.open(HOST, stack.port)
             for _ in range(CONNECTIONS)]
    try:
        prime = await drive(conns, plan.prime)
        warm = await drive(conns, plan.warmup)
        ready_at = time.perf_counter()
        rounds = []
        for rnd in plan.rounds:
            cpu0 = cpu_seconds(stack.pids)
            opened = await drive(conns, rnd.open_ops, rnd.open_due)
            cpu1 = cpu_seconds(stack.pids)
            t1 = time.perf_counter()
            closed = await drive(conns, rnd.closed_ops)
            closed_wall = time.perf_counter() - t1
            rounds.append({"open": opened, "open_due": rnd.open_due,
                           "closed": closed, "open_cpu": cpu1 - cpu0,
                           "closed_wall": closed_wall})
        return {"prime": prime, "warmup": warm, "rounds": rounds,
                "setup_s": ready_at - stack.started_at}
    finally:
        for conn in conns:
            await conn.close()


def in_time(samples: Sequence[Sample], due_offsets: Sequence[float],
            deadline: float) -> int:
    """How many of an open-loop phase's requests were answered within
    ``deadline`` seconds of the phase's start.  With the deadline one
    latency limit after the schedule's end, a system that keeps up has
    answered all but the requests over the limit; one with a growing
    backlog leaves more unanswered the longer the phase."""
    return sum(1 for s, offset in zip(samples, due_offsets)
               if s.done - (s.due - offset) <= deadline)


def round_values(rnd: Dict[str, Any], deadline: float) -> Dict[str, float]:
    """One round's estimate of every wall-clock metric."""
    latencies = [s.latency * 1e3 for s in rnd["open"]]
    return {
        "throughput_rps": len(rnd["closed"]) / rnd["closed_wall"],
        "lat_p50_ms": stats.percentile(latencies, 50),
        "lat_p90_ms": stats.percentile(latencies, 90),
        "lat_p99_ms": stats.percentile(latencies, 99),
        "cpu_ms_per_req": rnd["open_cpu"] * 1e3 / len(latencies),
        "achieved_over_offered": in_time(rnd["open"], rnd["open_due"],
                                         deadline) / len(latencies),
        "open_samples": len(latencies),
        "closed_samples": len(rnd["closed"]),
    }


def run_workload(name: str, seed: int, seconds: float,
                 rounds: int = ROUNDS, scale: float = 1.0,
                 open_rates: Optional[Sequence[float]] = None,
                 ) -> Dict[str, Any]:
    """Run one workload end to end and return its record (also written
    to ``bench/out/latest.json``).

    The contract runs pass only ``seconds``; the smoke run shrinks
    ``rounds`` and ``scale``, and the sweep gives each round its own
    rate.  The closed-loop lists are fixed work, so ``seconds`` sets the
    length of the open-loop phases."""
    wall0 = time.perf_counter()
    open_seconds = max(1.0, (seconds - CLOSED_SECONDS * scale) / rounds)
    plan = build_plan(name, seed, rounds=rounds, open_seconds=open_seconds,
                      scale=scale, open_rates=open_rates)
    workload = plan.workload
    flags = optional_flags()

    stack = Stack(flags).start()
    try:
        gc.collect()
        gc.disable()
        try:
            measured = asyncio.run(_measure(stack, plan))
        finally:
            gc.enable()
        rss = rss_peak_mb(stack.pids)
        server_metrics = stack.metrics()
    finally:
        stack.stop()

    # ---- the clocks have stopped: check what was answered ------------
    verdict = Verdict()
    answers: Dict[str, str] = {}
    setup_verdict = Verdict()  # priming and warm-up must answer correctly
    check_replies(measured["prime"] + measured["warmup"], workload.limit_ms,
                  setup_verdict, answers, timed=False)
    for rnd in measured["rounds"]:
        check_replies(rnd["open"], workload.limit_ms, verdict, answers,
                      timed=True)
        check_replies(rnd["closed"], workload.limit_ms, verdict, answers,
                      timed=False)
    requests = {
        request.fingerprint(): request
        for ops in ([plan.prime, plan.warmup]
                    + [r.open_ops + r.closed_ops for r in plan.rounds])
        for op in ops for request in op.requests
    }
    check_answers(requests, answers, seed, name, verdict)
    verdict.failed += setup_verdict.failed
    verdict.problems += setup_verdict.problems

    deadline = open_seconds + workload.limit_ms / 1e3
    per_round = [round_values(rnd, deadline) for rnd in measured["rounds"]]
    metrics = {"setup_s": measured["setup_s"], "rss_peak_mb": rss}
    for metric, (_, better) in UNGATED.items():
        metrics[metric] = stats.best([r[metric] for r in per_round], better)

    opened = [s for rnd in measured["rounds"] for s in rnd["open"]]
    gen_lag = stats.percentile([s.lag * 1e3 for s in opened], 95)
    achieved = sum(in_time(rnd["open"], rnd["open_due"], deadline)
                   for rnd in measured["rounds"]) / len(opened)
    # a late generator, a growing backlog or a skipped path: the numbers
    # are not those of the offered load
    invalid = []
    if gen_lag > GEN_LAG_LIMIT_MS:
        invalid.append(f"generator lag p95 {gen_lag:.2f} ms is over "
                       f"{GEN_LAG_LIMIT_MS:g} ms")
    if achieved < MIN_ACHIEVED:
        invalid.append(f"{achieved:.3f} of the arrivals were answered in "
                       f"time, under {MIN_ACHIEVED:g}")
    gate_ok = bool(workload.gate(verdict.counts))
    if not gate_ok:
        invalid.append(f"path gate failed: {workload.gate_text}")
    attempted = verdict.counts.get("sent", 0)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "open_seconds": open_seconds,
        "rate_rps": workload.rate,
        "limit_ms": workload.limit_ms,
        "connections": CONNECTIONS,
        "metrics": metrics,
        "per_round": per_round,
        "open_latencies_ms": [[round(s.latency * 1e3, 3) for s in r["open"]]
                              for r in measured["rounds"]],
        "closed_latencies_ms": [[round(s.latency * 1e3, 3)
                                 for s in r["closed"]]
                                for r in measured["rounds"]],
        "attempted": attempted,
        "failed": verdict.failed,
        "failed_share": verdict.failed / max(1, attempted),
        "counts": dict(sorted(verdict.counts.items())),
        "gate": {"text": workload.gate_text, "ok": gate_ok},
        "gen_lag_p95_ms": gen_lag,
        "achieved_over_offered": achieved,
        "invalid": invalid,
        "exact_checked": verdict.exact_checked,
        "float_checked": verdict.float_checked,
        "problems": verdict.problems,
        "correct": (not verdict.counts.get("wrong")
                    and not setup_verdict.failed),
        "server": {
            "flags": flags,
            "near_cache": server_metrics.get("replication", {}).get(
                "near_cache"),
            "cache": server_metrics.get("cache"),
            "incremental": server_metrics.get("incremental"),
            "shard_failures": server_metrics.get("shard_health", {}).get(
                "shard_failures", 0),
        },
        "host": {"python": sys.version.split()[0],
                 "machine": host_platform.machine(),
                 "cpus": os.cpu_count()},
        "wall_s": time.perf_counter() - wall0,
    }
    write_out("latest.json", record)
    return record


def write_out(filename: str, payload: Any) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
