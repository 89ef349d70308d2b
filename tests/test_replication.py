"""The broker near-cache: heat sketch semantics, heat-gated admission in
front of the ring, exact answers across racing invalidations, and what
``/metrics`` says about it.

(Hot-key replication, which this file was named for, is deleted; the
file and the surviving classes keep their names so the test ids stay
put.)"""

from __future__ import annotations

import multiprocessing
import random
import threading
from fractions import Fraction

import pytest

from repro.platform import generators
from repro.problems import BroadcastSpec, MasterSlaveSpec, solve
from repro.service.cache import HeatSketch
from repro.service import broker as broker_mod
from repro.service.broker import SolveRequest, solution_throughput
from repro.service.metrics import render_prometheus
from repro.service.sharding import (
    HOT_THRESHOLD,
    ShardedBroker,
    _merge_cache_snapshots,
)

from test_sharding import _mixed_requests, _reference_results


def _hot_request():
    return SolveRequest(MasterSlaveSpec(
        platform=generators.paper_figure1(), master="P1"))


# ----------------------------------------------------------------------
# the space-saving heat sketch
# ----------------------------------------------------------------------
class TestHeatSketch:
    def test_exact_counts_under_capacity(self):
        sketch = HeatSketch(capacity=8)
        for _ in range(3):
            sketch.record("a")
        sketch.record("b")
        assert sketch.count("a") == 3
        assert sketch.count("b") == 1
        assert sketch.count("never") == 0
        assert len(sketch) == 2

    def test_capacity_bound_and_inherited_floor(self):
        sketch = HeatSketch(capacity=2)
        sketch.record("a")
        sketch.record("a")
        sketch.record("b")
        # full: a new key replaces the coldest (b, count 1) and inherits
        # its count + 1 — the space-saving over-estimate
        assert sketch.record("c") == 2
        assert len(sketch) == 2
        assert sketch.count("b") == 0
        assert sketch.evictions == 1

    def test_hot_key_survives_a_cold_tail(self):
        # the property admission keys off: a genuinely hot key stays
        # tracked while a long one-shot tail churns through the sketch
        sketch = HeatSketch(capacity=16)
        for i in range(400):
            sketch.record("hot")
            sketch.record(f"cold-{i}")
        ranked = sketch.hot_keys(top=1)
        assert ranked[0][0] == "hot"
        assert ranked[0][1] >= 400  # never under-estimated

    def test_hot_keys_ordering_and_min_count(self):
        sketch = HeatSketch(capacity=8)
        for key, times in (("a", 3), ("b", 1), ("c", 3), ("d", 2)):
            for _ in range(times):
                sketch.record(key)
        assert [k for k, _ in sketch.hot_keys()] == ["a", "c", "d", "b"]
        assert [k for k, _ in sketch.hot_keys(min_count=2)] == \
            ["a", "c", "d"]
        assert sketch.hot_keys(top=2) == [("a", 3), ("c", 3)]

    def test_snapshot_and_clear(self):
        sketch = HeatSketch(capacity=4)
        sketch.record("x")
        snap = sketch.snapshot()
        assert snap["capacity"] == 4
        assert snap["tracked"] == 1
        assert snap["hot_keys"] == [{"fingerprint": "x", "count": 1}]
        sketch.clear()
        assert len(sketch) == 0
        assert sketch.count("x") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatSketch(capacity=0)

    def test_concurrent_records_stay_exact_within_capacity(self):
        sketch = HeatSketch(capacity=32)
        keys = [f"k{i}" for i in range(20)]

        def worker():
            for _ in range(100):
                for key in keys:
                    sketch.record(key)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # capacity exceeds the key universe: no evictions, exact counts
        assert all(sketch.count(k) == 400 for k in keys)


# ----------------------------------------------------------------------
# local shards: heat-gated admission, exact serves, invalidation
# ----------------------------------------------------------------------
class TestThreadModeHotPath:
    def test_near_cache_serves_the_hot_head_exactly(self):
        req = _hot_request()
        reference = _reference_results([req])[0]
        with ShardedBroker(shards=4, near_cache_size=8) as sharded:
            # lookup HOT_THRESHOLD is admitted, the rest are near hits
            results = [sharded.solve(req) for _ in range(HOT_THRESHOLD + 4)]
            for got in results:
                assert got.throughput == reference.throughput  # exact
            rep = sharded.snapshot()["replication"]
            assert rep["near_cache"]["hits"] == 4
            assert rep["near_cache"]["size"] == 1
            hot = [h["fingerprint"] for h in rep["heat"]["hot_keys"]]
            assert req.fingerprint() in hot
            # a near hit is counted as a front-door request
            assert sharded.snapshot()["metrics"]["total_requests"] == \
                HOT_THRESHOLD + 4

    def test_cold_keys_keep_single_owner_routing(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        with ShardedBroker(shards=4, near_cache_size=8) as sharded:
            for _ in range(HOT_THRESHOLD - 1):  # one lookup short of hot
                out = [sharded.solve(r) for r in requests]
                for ref, got in zip(reference, out):
                    assert got.throughput == ref.throughput
            snap = sharded.snapshot()
            assert snap["replication"]["near_cache"]["size"] == 0
            # every fingerprint lives on exactly one shard
            assert snap["cache"]["size"] == len(requests)

    def test_invalidate_platform_flushes_near_cache(self):
        req = _hot_request()
        fp = req.fingerprint()
        with ShardedBroker(shards=2, near_cache_size=8) as sharded:
            for _ in range(HOT_THRESHOLD):
                sharded.solve(req)
            assert sharded._near_cache.peek(fp) is not None
            removed = sharded.invalidate_platform(req.platform)
            # near-cache copies are duplicates: not in the removed count
            assert removed == 1
            assert sharded._near_cache.peek(fp) is None
            # and clear() empties it as well
            sharded.solve(req)
            assert sharded._near_cache.peek(fp) is not None
            sharded.clear()
            assert sharded._near_cache.peek(fp) is None

    def test_zipf_stream_is_exact_across_an_invalidation(self):
        """A seeded Zipf stream with the near-cache on: every answer is
        ``Fraction``-identical to the unsharded broker's, the hot head is
        served near, and no answer given after an in-stream
        ``invalidate_platform`` predates it."""
        corpus = [SolveRequest(MasterSlaveSpec(
            platform=generators.star(n, master_w=2),
            master="M")) for n in range(2, 14)]
        expected = {ref.fingerprint: ref.throughput
                    for ref in _reference_results(corpus)}
        weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(corpus))]
        stream = random.Random(8).choices(corpus, weights=weights, k=240)
        hottest = corpus[0]
        with ShardedBroker(shards=2, near_cache_size=8) as sharded:
            for request in stream[:120]:
                got = sharded.solve(request)
                assert got.throughput == expected[got.fingerprint]
            snap = sharded.snapshot()
            near = snap["replication"]["near_cache"]
            assert near["hits"] > 0
            assert sharded._near_cache.peek(hottest.fingerprint()) is not None
            # the hot head's owner is not the stream's bottleneck (with
            # near_cache_size=0 it serves 83 of these 120)
            owner = sharded.shard_for(hottest.fingerprint())
            assert snap["per_shard"][owner]["requests"] < 120 / 2
            assert sharded.invalidate_platform(hottest.platform) == 1
            first_after = True
            for request in stream[120:]:
                got = sharded.solve(request)
                assert got.throughput == expected[got.fingerprint]
                if request is hottest and first_after:
                    # neither the near-cache nor its shard kept the old one
                    assert not got.cached
                    first_after = False
            assert not first_after  # the hot head did come back
            after = sharded.snapshot()["replication"]["near_cache"]
            assert after["hits"] > near["hits"]  # and was re-admitted

    def test_a_lookup_wanting_a_schedule_the_near_entry_lacks_is_a_miss(
            self):
        plain = _hot_request()
        scheduled = SolveRequest(plain.spec, include_schedule=True)
        assert scheduled.fingerprint() == plain.fingerprint()
        reference = _reference_results([scheduled])[0]
        with ShardedBroker(shards=1, near_cache_size=4) as sharded:
            for _ in range(10):  # admitted at HOT_THRESHOLD, then 2 hits
                sharded.solve(plain)

            def books():
                snap = sharded.snapshot()
                near = snap["replication"]["near_cache"]
                return near["hits"], near["misses"], snap["cache"]["hits"]

            hits, misses, shard_hits = books()
            assert (hits, shard_hits) == (2, 7)
            got = sharded.solve(scheduled)
            assert got.schedule is not None and got.entry is None
            # the shard answered it, and only it counts it as a hit; its
            # schedule is attached to the near entry on the way back
            assert books() == (hits, misses + 1, shard_hits + 1)
            for _ in range(4):
                got = sharded.solve(scheduled)
                assert got.entry is not None  # served near, with schedule
                assert got.schedule.period == reference.schedule.period
            assert books() == (hits + 4, misses + 1, shard_hits + 1)


# ----------------------------------------------------------------------
# an invalidation racing the near-cache admission: every answer is exact
# ----------------------------------------------------------------------
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the slow solver reaches the workers by fork")
class TestReplicatedStalenessRace:
    def test_racing_invalidation_leaves_no_stale_entry_anywhere(
            self, monkeypatch):
        release = multiprocessing.Event()
        started = multiprocessing.Event()
        real = broker_mod.execute_request

        def slow(request):
            started.set()
            assert release.wait(10)
            return real(request)

        # patched before the workers fork, so every worker solves slowly
        monkeypatch.setattr(broker_mod, "execute_request", slow)
        platform = generators.chain(3)
        spec = BroadcastSpec(platform=platform, source="N0")
        exact = solution_throughput(solve(spec))
        with ShardedBroker(shards=2, near_cache_size=8) as sharded:
            req = SolveRequest(spec)
            fp = req.fingerprint()
            for _ in range(HOT_THRESHOLD - 1):
                sharded._heat.record(fp)  # heat without a (slow) solve
            fut = sharded.submit(req)  # the hot lookup
            assert started.wait(10)  # solve running
            # the owning shard runs one op at a time, so its share of the
            # invalidation queues behind the solve; the near-cache is
            # invalidated now, mid-solve
            removed: list = []
            racing = threading.Thread(
                target=lambda: removed.append(
                    sharded.invalidate_platform(platform)),
                daemon=True)
            racing.start()
            racing.join(timeout=0.2)  # let it queue behind the solve
            release.set()
            result = fut.result(10)  # the caller gets its exact answer
            assert isinstance(result.throughput, Fraction)
            assert result.throughput == exact
            racing.join(timeout=10)
            (count,) = removed
            assert isinstance(count, int)
            # whatever the interleaving kept, near or on the shard, is
            # the answer to its key
            for _ in range(HOT_THRESHOLD):
                assert sharded.solve(req).throughput == exact


# ----------------------------------------------------------------------
# aggregate accounting + exposition: one owner per key, nothing to dedup
# ----------------------------------------------------------------------
class TestAggregateDedup:
    def test_unique_size_absent_without_key_lists(self):
        merged = _merge_cache_snapshots([{"size": 2, "hits": 0, "misses": 0},
                                         {"size": 3, "hits": 1, "misses": 1}])
        assert merged["size"] == 5  # the distinct count: owners are disjoint
        assert "unique_size" not in merged and "keys" not in merged

    def test_prometheus_exposes_replication_metrics(self):
        """What is left under ``snapshot()["replication"]``: the
        near-cache and the load imbalance — and no replica series."""
        req = _hot_request()
        with ShardedBroker(shards=2, near_cache_size=8) as sharded:
            for _ in range(HOT_THRESHOLD + 2):
                sharded.solve(req)
            text = render_prometheus(sharded.snapshot())
        assert "repro_near_cache_hits_total 2" in text
        assert "repro_shard_load_imbalance" in text
        assert "repro_cache_size 1" in text
        for gone in ("repro_replicated_puts_total",
                     "repro_replica_reads_total",
                     "repro_replica_put_rejects_total",
                     "repro_near_cache_stale_rejects_total",
                     "repro_cache_expirations_total",
                     "repro_cache_unique_size"):
            assert gone not in text
