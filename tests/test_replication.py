"""Hot-key replication + broker near-cache: heat sketch semantics, the
replica fan-out across local and TCP shards, generation-checked
staleness impossibility, and deduplicated aggregate cache accounting."""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from fractions import Fraction

import pytest

from repro.platform import generators
from repro.platform.serialization import platform_to_dict
from repro.service import (
    AsyncShardServer,
    HeatSketch,
    ShardedBroker,
    SolutionCache,
    SolveRequest,
)
from repro.service import broker as broker_mod
from repro.service.broker import SolveEngine
from repro.service.metrics import render_prometheus
from repro.service.sharding import _merge_cache_snapshots
from repro.service.transport import handle_shard_message
from repro.service.api import request_to_dict
from repro.service.wire import result_to_wire

from test_async_core import _shard_request
from test_sharding import _mixed_requests, _on_ring, _reference_results


def _hot_request():
    return SolveRequest(problem="master-slave",
                        platform=generators.paper_figure1(), master="P1")


def _wait_until(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


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
        # the property replication keys off: a genuinely hot key stays
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
# local shards: near-cache + replica rotation
# ----------------------------------------------------------------------
def _holders(sharded, fp):
    """The shards whose caches hold the fingerprint, as the ``snapshot``
    op's key lists report them."""
    return [sid for sid, snap in enumerate(sharded.shard_snapshots())
            if fp in snap["cache"]["keys"]]


class TestThreadModeHotPath:
    def test_near_cache_serves_the_hot_head_exactly(self):
        req = _hot_request()
        reference = _reference_results([req])[0]
        with ShardedBroker(shards=4,
                           replication_factor=2, near_cache_size=8,
                           hot_threshold=2) as sharded:
            results = [sharded.solve(req) for _ in range(6)]
            for got in results:
                assert got.throughput == reference.throughput  # exact
            rep = sharded.snapshot()["replication"]
            assert rep["factor"] == 2
            assert rep["near_cache"]["hits"] >= 1
            assert rep["near_cache"]["size"] == 1
            # the near hit is counted as a front-door request
            assert rep["near_cache"]["stale_rejects"] == 0
            hot = [h["fingerprint"] for h in rep["heat"]["hot_keys"]]
            assert req.fingerprint() in hot

    def test_replication_copies_hot_key_to_both_replicas(self):
        req = _hot_request()
        fp = req.fingerprint()
        with ShardedBroker(shards=4,
                           replication_factor=2, near_cache_size=0,
                           hot_threshold=1) as sharded:
            replicas = sharded.ring.successors(fp, 2)
            # every shard answers once, so the broker knows each one's
            # generation and its first replica write is guarded, not
            # skipped
            sharded.shard_snapshots()
            for _ in range(4):
                sharded.solve(req)
            sharded.flush_replication(timeout=10)
            assert sorted(_holders(sharded, fp)) == sorted(replicas)
            rep = sharded.snapshot()["replication"]
            assert rep["replicated_puts"] >= 1
            # rotation actually lands reads off the primary
            assert rep["replica_reads"] >= 1

    def test_replica_rotation_spreads_requests(self):
        req = _hot_request()
        fp = req.fingerprint()
        with ShardedBroker(shards=4,
                           replication_factor=2, near_cache_size=0,
                           hot_threshold=1) as sharded:
            for _ in range(8):
                sharded.solve(req)
            replicas = sharded.ring.successors(fp, 2)
            per_shard = sharded.snapshot()["per_shard"]
            served = {s["shard"]: s["requests"] for s in per_shard}
            assert all(served[sid] >= 2 for sid in replicas)

    def test_cold_keys_keep_single_owner_routing(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        with ShardedBroker(shards=4,
                           replication_factor=2, near_cache_size=8,
                           hot_threshold=50) as sharded:
            out = [sharded.solve(r) for r in requests]
            for ref, got in zip(reference, out):
                assert got.throughput == ref.throughput
            rep = sharded.snapshot()["replication"]
            assert rep["replicated_puts"] == 0
            assert rep["replica_reads"] == 0
            assert rep["near_cache"]["size"] == 0
            # every fingerprint lives on exactly one shard
            cache = sharded.snapshot()["cache"]
            assert cache["unique_size"] == cache["size"]

    def test_submit_path_replicates_too(self):
        req = _hot_request()
        fp = req.fingerprint()
        with ShardedBroker(shards=4,
                           replication_factor=2, near_cache_size=0,
                           hot_threshold=1) as sharded:
            sharded.shard_snapshots()  # learn every generation first
            for _ in range(4):
                sharded.submit(req).result(10)
            sharded.flush_replication(timeout=10)
            replicas = sharded.ring.successors(fp, 2)
            assert sorted(_holders(sharded, fp)) == sorted(replicas)
            assert sharded.replicated_puts >= 1

    def test_invalidate_platform_flushes_near_cache(self):
        req = _hot_request()
        fp = req.fingerprint()
        with ShardedBroker(shards=2,
                           replication_factor=1, near_cache_size=8,
                           hot_threshold=1) as sharded:
            for _ in range(3):
                sharded.solve(req)
            assert sharded._near_cache.peek(fp) is not None
            removed = sharded.invalidate_platform(req.platform)
            # near-cache copies are duplicates: not in the removed count
            assert removed == 1
            assert sharded._near_cache.peek(fp) is None
            # and clear() empties it as well
            sharded.solve(req)
            assert _wait_until(
                lambda: sharded._near_cache.peek(fp) is not None)
            sharded.clear()
            assert sharded._near_cache.peek(fp) is None


# ----------------------------------------------------------------------
# staleness impossibility: invalidation racing the replicated fan-out
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
        with ShardedBroker(shards=2,
                           incremental=False, replication_factor=2,
                           near_cache_size=8,
                           hot_threshold=1) as sharded:
            req = SolveRequest(problem="broadcast", platform=platform,
                               source="N0")
            fp = req.fingerprint()
            sharded.shard_snapshots()  # learn both shards' generations
            serving = sharded.ring.successors(fp, 2)[1]  # lookup one's turn
            replica = 1 - serving
            before = sharded._known_gens[replica]
            fut = sharded.submit(req)  # hot from lookup one
            assert started.wait(10)  # generations captured, solve running
            # the serving shard runs one op at a time, so its share of the
            # invalidation queues behind the solve; the near-cache and the
            # replica are invalidated now, mid-solve
            removed: list = []
            racing = threading.Thread(
                target=lambda: removed.append(
                    sharded.invalidate_platform(platform)),
                daemon=True)
            racing.start()
            assert _wait_until(
                lambda: sharded._known_gens[replica] > before)
            release.set()
            result = fut.result(10)  # the caller still gets its answer
            assert result.throughput == Fraction(1)
            racing.join(timeout=10)
            assert removed == [1]  # the serving shard's fresh entry
            sharded.flush_replication(timeout=10)
            # every late write must have been refused: the replica
            # fan-out and the near-cache admission
            assert _wait_until(
                lambda: sharded.snapshot()["replication"]
                ["near_cache"]["stale_rejects"] >= 1)
            assert _wait_until(lambda: sharded.replica_put_rejects >= 1)
            assert _holders(sharded, fp) == []
            assert sharded._near_cache.peek(fp) is None
            merged = sharded.snapshot()["cache"]
            assert merged["size"] == 0
            assert merged["stale_puts"] >= 1
            # and the service recovers: the next solve is fresh + exact
            fresh = sharded.solve(req)
            assert fresh.throughput == Fraction(1)


# ----------------------------------------------------------------------
# the shard-protocol put op (transport-mode fan-out building block)
# ----------------------------------------------------------------------
class TestShardPutOp:
    def _engine_with_result(self):
        engine = SolveEngine(cache=SolutionCache())
        req = _hot_request()
        fp = req.fingerprint()
        result = engine.run(req, fp)
        engine.cache.clear()  # keep the wire result, drop the entry
        return engine, req, fp, result

    def test_put_with_current_generation_lands(self):
        engine, req, fp, result = self._engine_with_result()
        entry = {"fp": fp, "result": result_to_wire(result),
                 "platform": platform_to_dict(req.platform),
                 "gen": engine.cache.generation}
        reply = handle_shard_message(engine, {"op": "put",
                                              "entries": [entry]})
        assert reply["ok"] and reply["stored"] == 1
        assert reply["stale"] == 0 and reply["skipped"] == 0
        assert engine.cache.peek(fp) is not None
        cached = engine.run(req, fp)
        assert cached.cached
        assert cached.solution.throughput == result.solution.throughput

    def test_put_without_generation_is_rejected_but_seeds_the_bound(self):
        engine, req, fp, result = self._engine_with_result()
        entry = {"fp": fp, "result": result_to_wire(result),
                 "platform": platform_to_dict(req.platform)}
        reply = handle_shard_message(engine, {"op": "put",
                                              "entries": [entry]})
        assert reply["ok"] and reply["skipped"] == 1
        assert reply["stored"] == 0
        assert engine.cache.peek(fp) is None  # never stored unguarded
        # the reply carries the generation the writer was missing
        assert reply["gen"] == engine.cache.generation

    def test_put_with_stale_generation_is_refused(self):
        engine, req, fp, result = self._engine_with_result()
        old_gen = engine.cache.generation
        engine.invalidate_platform(req.platform)
        entry = {"fp": fp, "result": result_to_wire(result),
                 "platform": platform_to_dict(req.platform),
                 "gen": old_gen}
        reply = handle_shard_message(engine, {"op": "put",
                                              "entries": [entry]})
        assert reply["ok"] and reply["stale"] == 1
        assert engine.cache.peek(fp) is None
        assert engine.cache.stats.stale_puts == 1

    @pytest.fixture()
    def served(self):
        """The same engine behind a real shard server, asked over the
        wire: ``snapshot`` and ``solve_many`` belong to the connection."""
        engine, req, fp, result = self._engine_with_result()
        server = AsyncShardServer(engine=engine).start_in_thread()
        yield engine, req, fp, server
        server.shutdown()

    def test_every_reply_carries_the_generation(self, served):
        engine, req, fp, server = served
        wire = request_to_dict(req)
        for msg in ({"op": "solve", "fp": fp, "request": wire},
                    {"op": "solve_many",
                     "items": [{"fp": fp, "request": wire}]},
                    {"op": "clear"},
                    {"op": "snapshot"},
                    {"op": "invalidate",
                     "platform": platform_to_dict(req.platform)}):
            reply = _shard_request(server, dict(msg))
            assert reply["ok"]
            assert reply["gen"] == engine.cache.generation

    def test_snapshot_op_ships_keys_for_dedup(self, served):
        engine, req, fp, server = served
        engine.run(req, fp)
        reply = _shard_request(server, {"op": "snapshot"})
        assert reply["snapshot"]["cache"]["keys"] == [fp]


# ----------------------------------------------------------------------
# fan-out over the wire: generation bounds, batched puts, TCP shards
# ----------------------------------------------------------------------
class TestProcessModeReplication:
    def test_hot_keys_replicate_and_results_stay_exact(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        with ShardedBroker(shards=2,
                           replication_factor=2, near_cache_size=16,
                           hot_threshold=2) as sharded:
            for _ in range(3):
                out = [sharded.solve(r) for r in requests]
                for ref, got in zip(reference, out):
                    assert got.fingerprint == ref.fingerprint
                    assert got.throughput == ref.throughput  # exact
            sharded.flush_replication(timeout=10)
            rep = sharded.snapshot()["replication"]
            # round 1 heats keys; round 2 fans out (first put per shard
            # may only seed the generation bound); round 3 lands
            assert rep["replicated_puts"] >= 1
            assert rep["near_cache"]["stale_rejects"] == 0
            cache = sharded.snapshot()["cache"]
            assert cache["unique_size"] <= cache["size"]

    def test_batch_path_replicates_hot_keys(self):
        req = SolveRequest(problem="broadcast",
                           platform=generators.chain(5), source="N0")
        fp = req.fingerprint()
        reference = _reference_results([req])[0]
        with ShardedBroker(shards=2,
                           replication_factor=2, near_cache_size=0,
                           hot_threshold=2) as sharded:
            # seed the generation bounds: every shard replies at least
            # once, so the hot fan-out below is generation-guarded
            sharded.solve_batch(_mixed_requests())
            replicas = sharded.ring.successors(fp, 2)
            # lookup 1 is cold (routes to the primary); lookup 2 crosses
            # the threshold and its fan-out gives the OTHER replica its
            # copy via the batched put — no direct solve ever ran there
            for _ in range(2):
                out = sharded.solve_batch([req])
                assert out[0].throughput == reference.throughput
            sharded.flush_replication(timeout=10)
            snap = sharded.snapshot()
            assert snap["replication"]["replicated_puts"] >= 1
            snaps = sharded.shard_snapshots()
            assert all(fp in snaps[sid]["cache"]["keys"]
                       for sid in replicas)
            assert snap["cache"]["size"] == \
                snap["cache"]["unique_size"] + 1

    def test_stale_generation_bound_never_lands_a_replica_put(self):
        req = _hot_request()
        fp = req.fingerprint()
        with ShardedBroker(shards=2,
                           replication_factor=2, near_cache_size=0,
                           hot_threshold=1) as sharded:
            sharded.solve(req)          # heat + seed generation bounds
            sharded.flush_replication(timeout=10)
            replicas = sharded.ring.successors(fp, 2)
            # an invalidation lands while this broker's knowledge lags:
            # the shards move to generation 1, the broker still believes
            # 0 (exactly what a concurrent invalidate through a second
            # broker produces)
            sharded.invalidate_platform(req.platform)

            async def forget_the_bump():  # ring state: on its loop
                for sid in replicas:
                    sharded._known_gens[sid] = 0

            _on_ring(sharded, forget_the_bump())
            before = sharded.replica_put_rejects
            result = sharded.solve(req)  # hot: re-solves on one replica
            sharded.flush_replication(timeout=10)
            assert result.throughput == \
                _reference_results([req])[0].throughput
            # the fan-out carried the stale bound and the shard-side
            # generation check refused it: no replica holds a stale copy
            assert sharded.replica_put_rejects > before
            snaps = sharded.shard_snapshots()
            holders = [sid for sid in replicas
                       if fp in snaps[sid]["cache"]["keys"]]
            assert len(holders) == 1  # only the shard that re-solved
            # the refusal's reply re-seeded the bound: the service heals
            # by itself and both replicas converge on the fresh result
            for _ in range(2):
                sharded.solve(req)
            sharded.flush_replication(timeout=10)
            snaps = sharded.shard_snapshots()
            assert all(fp in snaps[sid]["cache"]["keys"]
                       for sid in replicas)


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _run_shard_server(port: int) -> None:  # pragma: no cover — child
    import asyncio

    from repro.service import AsyncShardServer

    async def serve() -> None:
        server = AsyncShardServer(("127.0.0.1", port))
        await server.start()
        await server.serve_forever()

    asyncio.run(serve())


def _start_shard_process(port: int) -> multiprocessing.Process:
    ctx = multiprocessing.get_context()
    process = ctx.Process(target=_run_shard_server, args=(port,),
                          daemon=True)
    process.start()
    deadline = time.time() + 20
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port),
                                     timeout=0.2).close()
            return process
        except OSError:
            time.sleep(0.05)
    raise RuntimeError("shard server did not come up")


class TestTcpModeReplication:
    def test_replica_reads_stay_fraction_exact_over_tcp(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        port = _free_port()
        server = _start_shard_process(port)
        try:
            with ShardedBroker(shards=1,
                               shard_addresses=[f"127.0.0.1:{port}"],
                               health_interval=0,
                               replication_factor=2, near_cache_size=16,
                               hot_threshold=2) as sharded:
                for _ in range(3):
                    out = [sharded.solve(r) for r in requests]
                    for ref, got in zip(reference, out):
                        assert got.throughput == ref.throughput  # exact
                sharded.flush_replication(timeout=10)
                rep = sharded.snapshot()["replication"]
                assert rep["replicated_puts"] >= 1
                assert rep["near_cache"]["stale_rejects"] == 0
        finally:
            server.kill()
            server.join()


# ----------------------------------------------------------------------
# aggregate accounting + exposition
# ----------------------------------------------------------------------
class TestAggregateDedup:
    def test_merge_cache_snapshots_deduplicates_keys(self):
        snaps = [
            {"size": 2, "hits": 1, "misses": 1, "keys": ["a", "b"]},
            {"size": 2, "hits": 3, "misses": 0, "keys": ["b", "c"]},
        ]
        merged = _merge_cache_snapshots(snaps)
        assert merged["size"] == 4          # raw per-shard sum
        assert merged["unique_size"] == 3   # b deduplicated
        assert "keys" not in merged

    def test_unique_size_absent_without_key_lists(self):
        merged = _merge_cache_snapshots([{"size": 2, "hits": 0,
                                          "misses": 0}])
        assert "unique_size" not in merged

    def test_aggregate_cache_view_reports_unique_size(self):
        req = _hot_request()
        with ShardedBroker(shards=4,
                           replication_factor=2, near_cache_size=0,
                           hot_threshold=1) as sharded:
            for _ in range(4):
                sharded.solve(req)
            snap = sharded.cache.snapshot()
            assert snap["unique_size"] == 1
            assert snap["size"] == 2  # both replicas hold the hot key

    def test_prometheus_exposes_replication_metrics(self):
        req = _hot_request()
        with ShardedBroker(shards=2,
                           replication_factor=2, near_cache_size=8,
                           hot_threshold=1) as sharded:
            for _ in range(5):
                sharded.solve(req)
            text = render_prometheus(sharded.snapshot())
        assert "repro_replicated_puts_total" in text
        assert "repro_replica_reads_total" in text
        assert "repro_near_cache_hits_total" in text
        assert "repro_near_cache_stale_rejects_total 0" in text
        assert "repro_shard_load_imbalance" in text
        assert "repro_cache_unique_size 1" in text
