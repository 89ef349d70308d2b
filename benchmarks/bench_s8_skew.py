"""S8 — beating Zipf skew: hot-key replication + broker near-cache.

The scenario is the ROADMAP's "one scorching key melts its shard": a
heavily skewed request stream (Zipf ``s = 1.2``, where the single
hottest platform draws ~20% of all traffic) over a 10k-platform corpus.
Consistent hashing alone pins that hot head to whichever shards own the
fingerprints — the owners saturate while their neighbours idle, and
adding shards stops helping.

Three configurations, per-shard resources held fixed:

* **1 shard, plain** — the unsharded-capacity baseline: the corpus
  thrashes one cache *and* every request funnels through one engine;
* **8 shards, plain** — capacity scales but the hot head still lands
  on its owners (the per-shard load imbalance shows the skew);
* **8 shards, hot-key path** — ``replication_factor=2`` fans hot keys
  to two ring successors with rotating reads, and the broker-front
  near-cache (generation-checked, so staleness is impossible) absorbs
  the hottest head before it ever reaches a shard.

Measured per configuration: sustained req/s over the steady-state
stream (after an untimed priming pass), stream hit rate, per-shard
load imbalance (max/mean of shard-served requests during the timed
stream), near-cache traffic, and exactness — every result is asserted
``Fraction``-identical to an unsharded reference broker, and the
stale-serve count is asserted zero (``near_cache_stale_rejects`` is
reported; with no invalidations in-stream it stays 0 too).

Asserted shape (full mode): >= 4x req/s for 8 hot-key shards vs the
1-shard baseline, load imbalance <= 2x under replication+near-cache,
zero stale serves.  Smoke mode (CI): 2 shards with ``R=2`` + near-cache
on, asserting exactness and that the hottest key's owner serves < 1/2
of the stream.  Emits ``BENCH_skew.json`` at the repo root::

    python benchmarks/bench_s8_skew.py [--smoke] [--out FILE]

or through pytest (``pytest benchmarks/bench_s8_skew.py -s``).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from repro.service import Broker, ShardedBroker, SolutionCache, SolveRequest

from bench_s1_service import _zipf_request_pool

ZIPF_EXPONENT = 1.2  # a scorching head: rank 1 draws ~20% of traffic


def _variant(request: SolveRequest, index: int) -> SolveRequest:
    """A weight-scaled (topology-preserving) variant with a fresh
    fingerprint; ``index`` makes each variant's scaling distinct."""
    compute = Fraction(index + 2, index + 3)
    comm = Fraction(index + 3, index + 4)
    return SolveRequest(
        problem=request.problem,
        platform=request.platform.scale(compute=compute, comm=comm),
        source=request.source,
        targets=request.targets,
        dag=request.dag,
        options=request.option_dict(),
    )


def build_corpus(size: int) -> list:
    """The bench_s1 Zipf pool as the hot head + weight variants as the
    long tail (cheap LP families only, so cold cost stays comparable)."""
    corpus = list(_zipf_request_pool())
    bases = [r for r in corpus
             if r.problem == "master-slave" and len(r.platform.nodes()) <= 8]
    index = 0
    while len(corpus) < size:
        corpus.append(_variant(bases[index % len(bases)], index))
        index += 1
    return corpus[:size]


def zipf_sequence(corpus: list, n_requests: int, seed: int = 8) -> list:
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(corpus))]
    return rng.choices(corpus, weights=weights, k=n_requests)


def reference_throughputs(corpus: list) -> dict:
    """fingerprint -> exact throughput from one big unsharded broker."""
    with Broker(executor="sync",
                cache=SolutionCache(max_size=2 * len(corpus))) as broker:
        return {req.fingerprint(): broker.solve(req).throughput
                for req in corpus}


def _stream_shard_loads(before: dict, after: dict) -> dict:
    """Per-shard requests served during the timed stream only."""
    primed = {s["shard"]: s["requests"] for s in before}
    return {s["shard"]: s["requests"] - primed.get(s["shard"], 0)
            for s in after}


def run_config(
    label: str,
    corpus: list,
    sequence: list,
    reference: dict,
    shards: int,
    cache_size: int,
    replication: int,
    near_cache: int,
    hot_threshold: int,
    heat_capacity: int,
) -> dict:
    with ShardedBroker(shards=shards, cache_size=cache_size,
                       replication_factor=replication,
                       near_cache_size=near_cache,
                       hot_threshold=hot_threshold,
                       heat_capacity=heat_capacity) as sharded:
        for request in corpus:  # untimed priming pass
            sharded.solve(request)
        snap = sharded.snapshot()
        before_cache, before_shards = snap["cache"], snap["per_shard"]
        start = time.perf_counter()
        results = [sharded.solve(request) for request in sequence]
        elapsed = time.perf_counter() - start
        snap = sharded.snapshot()
        after_cache, after_shards = snap["cache"], snap["per_shard"]
        replication_snap = snap.get("replication")
        hot_primary = sharded.ring.route(corpus[0].fingerprint())
    stale_serves = sum(
        1 for result in results
        if result.throughput != reference[result.fingerprint]
    )
    assert stale_serves == 0, (
        f"{label}: {stale_serves} results diverged from the unsharded "
        f"reference broker"
    )
    hits = after_cache["hits"] - before_cache["hits"]
    misses = after_cache["misses"] - before_cache["misses"]
    loads = _stream_shard_loads(before_shards, after_shards)
    mean_load = sum(loads.values()) / len(loads)
    out = {
        "config": label,
        "shards": shards,
        "replication_factor": replication,
        "near_cache_size": near_cache,
        "elapsed_seconds": elapsed,
        "requests_per_second": len(sequence) / elapsed,
        "stream_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "stream_misses": misses,
        "stale_serves": stale_serves,
        "shard_load_imbalance": (max(loads.values()) / mean_load
                                 if mean_load else None),
        "hot_shard_stream_share": loads.get(hot_primary, 0) / len(sequence),
    }
    if replication_snap is not None:
        near = replication_snap.get("near_cache") or {}
        out["replicated_puts"] = replication_snap["replicated_puts"]
        out["replica_reads"] = replication_snap["replica_reads"]
        out["near_cache_hits"] = near.get("hits", 0)
        out["near_cache_stale_rejects"] = near.get("stale_rejects", 0)
        assert out["near_cache_stale_rejects"] == 0  # nothing invalidates
    return out


# ----------------------------------------------------------------------
def run(smoke: bool = False) -> dict:
    # per-shard cache ~1/5 of the corpus: one shard thrashes the Zipf
    # tail (LRU churn makes it worse than the top-C optimum), 8 shards
    # hold all of it.  The heat sketch is sized so the space-saving
    # over-estimate floor (~corpus/capacity) stays below the hot
    # threshold — only the genuinely hot head replicates.
    corpus_size = 200 if smoke else 10_000
    n_requests = 600 if smoke else 20_000
    cache_size = 64 if smoke else 2048
    heat_capacity = 128 if smoke else 2048
    hot_threshold = 8
    hot_shards = 2 if smoke else 8

    corpus = build_corpus(corpus_size)
    sequence = zipf_sequence(corpus, n_requests)
    reference = reference_throughputs(corpus)

    common = dict(corpus=corpus, sequence=sequence, reference=reference,
                  cache_size=cache_size, hot_threshold=hot_threshold,
                  heat_capacity=heat_capacity)
    configs = [
        run_config("1-shard plain", shards=1, replication=1,
                   near_cache=0, **common),
        run_config(f"{hot_shards}-shard plain", shards=hot_shards,
                   replication=1, near_cache=0, **common),
        run_config(f"{hot_shards}-shard R=2 + near-cache",
                   shards=hot_shards, replication=2, near_cache=64,
                   **common),
    ]

    baseline, plain, hot = configs
    for config in configs:
        config["speedup_vs_1shard"] = (
            config["requests_per_second"] / baseline["requests_per_second"]
        )

    report = {
        "benchmark": "S8 Zipf skew: hot-key replication + near-cache",
        "quick": smoke,
        "corpus_size": corpus_size,
        "requests": n_requests,
        "per_shard_cache_entries": cache_size,
        "zipf_exponent": ZIPF_EXPONENT,
        "baseline_rps": baseline["requests_per_second"],
        "configs": configs,
        "exactness": "all results Fraction-identical to unsharded broker",
        "stale_serves": 0,
    }
    if smoke:
        # CI gate: the hottest key's owner must not dominate the stream
        # once replication + near-cache are on
        assert hot["hot_shard_stream_share"] < 0.5, (
            f"hot shard served {hot['hot_shard_stream_share']:.0%} of the "
            f"stream with R=2 + near-cache (need < 50%)"
        )
        assert hot["near_cache_hits"] > 0
    else:
        assert hot["speedup_vs_1shard"] >= 4.0, (
            f"hot-key path: only {hot['speedup_vs_1shard']:.2f}x at "
            f"{hot_shards} shards vs the 1-shard baseline (need >= 4x)"
        )
        assert hot["shard_load_imbalance"] <= 2.0, (
            f"hot-key path: {hot['shard_load_imbalance']:.2f}x max/mean "
            f"shard load (need <= 2x)"
        )
        report["speedup_hot_path"] = hot["speedup_vs_1shard"]
        report["imbalance_plain_vs_hot"] = [
            plain["shard_load_imbalance"], hot["shard_load_imbalance"],
        ]
    return report


def test_s8_skew(capsys):
    """Pytest entry point (smoke mode; run the script for full numbers)."""
    report = run(smoke=True)
    with capsys.disabled():
        print("\n==== S8: Zipf skew / hot-key replication ====")
        print(json.dumps(report, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, 2 shards, hot-shard share "
                             "gate only (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_skew.json)")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_skew.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
