"""S4 — shard transport: local vs TCP shards, batching, failover.

The multi-host question: what does putting a shard behind a TCP socket
cost, and what does the supervision layer buy?  Three measurements over
one mixed workload (the bench_s1 request pool), the broker near-cache
switched off so that every request crosses the transport:

* **placement comparison** — the same 2-shard ring as ``local`` shards
  (worker processes on a socketpair) and ``tcp`` shards (real
  ``shard-serve`` subprocesses): sustained req/s on a hit-heavy steady
  state at 1 and at 8 requests in flight, plus the round-trip latency
  from the broker's own ``transport.async`` metric.  Every result is
  asserted ``Fraction``-identical to an unsharded reference broker.

* **batched dispatch over TCP** — ``solve_batch`` ships each shard its
  whole sub-batch as ONE ``solve_many`` frame; compared with per-item
  ``solve`` round-trips.  Reported as round-trips per request and batched vs unbatched
  throughput.

* **kill-a-shard failover** — a 2-TCP-shard ring loses one server to
  SIGKILL mid-stream; the run must complete every request exactly
  (failover to the surviving shard), and the report carries the
  supervision counters (``shard_failures`` / ``failovers``) plus the
  number of requests answered after the kill.  No lost requests is an
  assertion, not an observation.

Asserted shape: both placements exact; TCP batching strictly fewer
round-trips than per-item dispatch; failover completes the stream.
Emits ``BENCH_transport.json`` at the repo root.  Run standalone::

    python benchmarks/bench_s4_transport.py [--smoke] [--out FILE]

or through pytest (``pytest benchmarks/bench_s4_transport.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.service import Broker, ShardedBroker, SolutionCache

from bench_s1_service import _zipf_request_pool

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# shard-serve subprocess management
# ----------------------------------------------------------------------
def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def start_shard_server(port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-serve", "--port", str(port)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            return process
        except OSError:
            time.sleep(0.1)
    process.kill()
    raise RuntimeError(f"shard-serve on :{port} never became reachable")


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()
            process.wait()


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
def build_workload(n_requests: int) -> list:
    pool = list(_zipf_request_pool())
    return [pool[i % len(pool)] for i in range(n_requests)]


def reference_throughputs(requests: list) -> dict:
    with Broker(executor="sync",
                cache=SolutionCache(max_size=4 * len(requests))) as broker:
        return {r.fingerprint(): broker.solve(r).throughput
                for r in requests}


def _assert_exact(results, reference, label: str) -> None:
    for result in results:
        expected = reference[result.fingerprint]
        assert result.throughput == expected, (
            f"{label}: {result.fingerprint[:12]} returned "
            f"{result.throughput}, reference {expected}"
        )


# ----------------------------------------------------------------------
# 1) placement comparison
# ----------------------------------------------------------------------
def _sharded_for(placement: str, servers: list) -> ShardedBroker:
    if placement == "local":
        return ShardedBroker(shards=2, near_cache_size=0)
    return ShardedBroker(
        shards=0,
        shard_addresses=[f"127.0.0.1:{port}" for _proc, port in servers],
        health_interval=0,
        near_cache_size=0,
    )


def _timed_pass(sharded: ShardedBroker, sequence: list, reference: dict,
                in_flight: int, label: str) -> float:
    """Requests per second over one pass of the (all-hit) sequence."""
    start = time.perf_counter()
    if in_flight == 1:
        results = [sharded.solve(request) for request in sequence]
    else:
        with ThreadPoolExecutor(max_workers=in_flight) as callers:
            results = list(callers.map(sharded.solve, sequence))
    elapsed = time.perf_counter() - start
    _assert_exact(results, reference, label)
    return len(sequence) / elapsed


def run_transport_comparison(sequence: list, reference: dict,
                             servers: list) -> list:
    configs = []
    for placement in ("local", "tcp"):
        with _sharded_for(placement, servers) as sharded:
            for request in sequence:  # untimed priming pass
                sharded.solve(request)
            rps_1 = _timed_pass(sharded, sequence, reference, 1, placement)
            endpoints = sharded.snapshot()["metrics"]["endpoints"]
            rtt = endpoints.get("transport.async", {})
            rps_8 = _timed_pass(sharded, sequence, reference, 8, placement)
            configs.append({
                "transport": placement,
                "shards": 2,
                "requests": len(sequence),
                "requests_per_second": rps_1,
                "requests_per_second_8_in_flight": rps_8,
                "round_trip_p50_ms": (rtt.get("p50_seconds") or 0) * 1e3,
                "round_trip_p99_ms": (rtt.get("p99_seconds") or 0) * 1e3,
            })
        if placement == "tcp":
            # the TCP run warmed the servers' caches; restart them so the
            # following sections start from a clean slate
            for index, (process, port) in enumerate(servers):
                stop(process)
                servers[index] = (start_shard_server(port), port)
    return configs


# ----------------------------------------------------------------------
# 2) batched solve_many over TCP
# ----------------------------------------------------------------------
def run_tcp_batching(sequence: list, reference: dict, servers: list,
                     batch_size: int) -> dict:
    addresses = [f"127.0.0.1:{port}" for _proc, port in servers]
    with ShardedBroker(shards=0, shard_addresses=addresses,
                       health_interval=0, near_cache_size=0) as sharded:
        for request in sequence:
            sharded.solve(request)  # prime
        before = sharded.ipc_round_trips
        start = time.perf_counter()
        unbatched = [sharded.solve(request) for request in sequence]
        unbatched_elapsed = time.perf_counter() - start
        unbatched_trips = sharded.ipc_round_trips - before
        _assert_exact(unbatched, reference, "tcp-unbatched")

        before = sharded.ipc_round_trips
        start = time.perf_counter()
        batched = []
        for offset in range(0, len(sequence), batch_size):
            batched.extend(
                sharded.solve_batch(sequence[offset:offset + batch_size])
            )
        batched_elapsed = time.perf_counter() - start
        batched_trips = sharded.ipc_round_trips - before
        _assert_exact(batched, reference, "tcp-batched")
    assert batched_trips < unbatched_trips, (
        f"solve_many over TCP used {batched_trips} round-trips vs "
        f"{unbatched_trips} unbatched — batching is not batching"
    )
    return {
        "batch_size": batch_size,
        "requests": len(sequence),
        "unbatched_round_trips": unbatched_trips,
        "batched_round_trips": batched_trips,
        "round_trips_per_request_batched": batched_trips / len(sequence),
        "unbatched_rps": len(sequence) / unbatched_elapsed,
        "batched_rps": len(sequence) / batched_elapsed,
        "rps_gain": unbatched_elapsed / batched_elapsed,
    }


# ----------------------------------------------------------------------
# 3) kill-a-shard failover
# ----------------------------------------------------------------------
def run_failover(sequence: list, reference: dict, servers: list) -> dict:
    addresses = [f"127.0.0.1:{port}" for _proc, port in servers]
    with ShardedBroker(shards=0, shard_addresses=addresses,
                       health_interval=0, near_cache_size=0) as sharded:
        completed = []
        kill_at = len(sequence) // 3
        killed_pid = None
        start = time.perf_counter()
        for index, request in enumerate(sequence):
            if index == kill_at:
                process, _port = servers[0]
                killed_pid = process.pid
                process.send_signal(signal.SIGKILL)
                process.wait()
            completed.append(sharded.solve(request))
        elapsed = time.perf_counter() - start
        _assert_exact(completed, reference, "failover")
        assert len(completed) == len(sequence), "requests were lost"
        health = sharded.shard_health()
    assert health["shard_failures"] >= 1 and health["failovers"] >= 1, (
        f"the kill was never noticed: {health}"
    )
    return {
        "requests": len(sequence),
        "killed_after": kill_at,
        "killed_pid": killed_pid,
        "completed": len(completed),
        "lost": len(sequence) - len(completed),
        "elapsed_seconds": elapsed,
        "shard_failures": health["shard_failures"],
        "failovers": health["failovers"],
        "surviving_shards": sum(1 for s in health["shards"] if s["active"]),
    }


# ----------------------------------------------------------------------
def run(smoke: bool = False) -> dict:
    n_requests = 60 if smoke else 400
    batch_size = 12 if smoke else 32

    sequence = build_workload(n_requests)
    reference = reference_throughputs(sequence)

    ports = [_free_port(), _free_port()]
    servers = [(start_shard_server(port), port) for port in ports]
    try:
        configs = run_transport_comparison(sequence, reference, servers)
        batching = run_tcp_batching(sequence, reference, servers,
                                    batch_size)
        failover = run_failover(sequence, reference, servers)
    finally:
        for process, _port in servers:
            stop(process)

    return {
        "benchmark": "S4 shard transport",
        "quick": smoke,
        "requests": n_requests,
        "transports": configs,
        "tcp_batching": batching,
        "failover": failover,
        "exactness": "all results Fraction-identical to unsharded broker "
                     "on both placements, including after the kill",
    }


def test_s4_transport(capsys):
    """Pytest entry point (smoke mode; run the script for full numbers)."""
    report = run(smoke=True)
    with capsys.disabled():
        print("\n==== S4: shard transport ====")
        print(json.dumps(report, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small stream (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_transport.json)")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    out = Path(args.out) if args.out else (
        REPO_ROOT / "BENCH_transport.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
