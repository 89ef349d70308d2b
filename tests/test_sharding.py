"""Sharded-broker tests: routing, aggregation, invalidation, local worker
shards, remote TCP shards, supervision (restart, eject/rejoin, failover)."""

from __future__ import annotations

import asyncio
import bisect
import json
import math
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lane_latch import LatchedShardServer, until

from repro.core.dag import TaskGraph
from repro.platform import generators
from repro.platform.serialization import platform_to_dict
from repro.problems import (
    BroadcastSpec,
    GatherSpec,
    MasterSlaveSpec,
    MulticastSpec,
    MultiportSpec,
    ScatterSpec,
    SendOrReceiveSpec,
)
from repro.problems.specs import DagSpec
from repro.service.api import handle_request
from repro.service.broker import (
    Broker,
    BrokerError,
    BrokerResult,
    SolveRequest,
)
from repro.service.metrics import (
    LATENCY_BUCKETS,
    merge_snapshots,
    render_prometheus,
)
from repro.service.sharding import (
    HOT_THRESHOLD,
    HashRing,
    ShardError,
    ShardTimeoutError,
    ShardedBroker,
)
from repro.service.wire import solution_to_wire


def _mixed_requests():
    """Requests across problem kinds whose throughputs are rich Fractions."""
    fig1 = generators.paper_figure1()
    fig2 = generators.paper_figure2_multicast()
    star_bi = generators.star(3, bidirectional=True)
    return [
        SolveRequest(MasterSlaveSpec(platform=fig1, master="P1")),
        SolveRequest(ScatterSpec(
            platform=fig2, source="P0", targets=("P5", "P6"))),
        SolveRequest(GatherSpec(
            platform=star_bi, sink="M", sources=("W1", "W2", "W3"))),
        SolveRequest(BroadcastSpec(platform=generators.chain(4), source="N0")),
        SolveRequest(MulticastSpec(
            platform=fig2, source="P0", targets=("P5", "P6"))),
        SolveRequest(DagSpec(
            platform=fig1, master="P1", dag=TaskGraph.chain([1, 2], [1]))),
        SolveRequest(MasterSlaveSpec(
            platform=generators.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                                     link_c=[1, 1, 2, 3]),
            master="M")),
    ]


def _reference_results(requests):
    with Broker() as broker:
        return [broker.solve(r) for r in requests]


def _on_ring(broker, coro, timeout=30.0):
    """Run one of the ring's own coroutines where all of them run — on
    the broker's loop — and wait for it from this thread."""
    return asyncio.run_coroutine_threadsafe(
        coro, broker._loop).result(timeout)


def _shard_async(broker, shard_id):
    """A shard's own loop-side counters (``snapshot()["async"]``); its
    ``inflight`` counts the snapshot asking."""
    return _on_ring(broker, broker._shards[shard_id].call(
        {"op": "snapshot"}))["snapshot"]["async"]


# ----------------------------------------------------------------------
# the consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_routing_is_stable_across_instances(self):
        fps = [r.fingerprint() for r in _mixed_requests()]
        a, b = HashRing(4), HashRing(4)
        assert [a.route(fp) for fp in fps] == [b.route(fp) for fp in fps]

    def test_all_shards_reachable(self):
        import hashlib

        fps = [hashlib.sha256(str(i).encode()).hexdigest()
               for i in range(512)]
        ring = HashRing(4)
        owners = {ring.route(fp) for fp in fps}
        assert owners == {0, 1, 2, 3}
        # and no shard is grossly overloaded (consistent hashing with
        # virtual points keeps the spread within a small factor of fair
        # share)
        counts = [sum(1 for fp in fps if ring.route(fp) == s)
                  for s in range(4)]
        assert min(counts) >= 512 / 4 / 4

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        import hashlib

        fps = [hashlib.sha256(str(i).encode()).hexdigest()
               for i in range(512)]
        before, after = HashRing(4), HashRing(5)
        moved = sum(1 for fp in fps if before.route(fp) != after.route(fp))
        # ideal is 1/5 of the keyspace; modulo hashing would move ~4/5
        assert moved / len(fps) < 0.5

    def test_every_fingerprint_keeps_its_shard(self):
        """The ring is 64 points per shard: these digests of the owners
        of 512 fingerprints were recorded when the point count was a
        ``replicas`` keyword defaulting to 64."""
        import hashlib

        fps = [hashlib.sha256(str(i).encode()).hexdigest()
               for i in range(512)]
        for shards, digest in ((2, "3fb0b03dd5391199"),
                               (4, "2d7bb92f5aad1edc")):
            owners = bytes(HashRing(shards).route(fp) for fp in fps)
            assert hashlib.sha256(owners).hexdigest()[:16] == digest

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            ShardedBroker(shards=-1)
        # the point count is a constant, not a knob
        with pytest.raises(TypeError):
            HashRing(4, replicas=64)
        with pytest.raises(TypeError):
            ShardedBroker(shards=1, replicas=64)


# ----------------------------------------------------------------------
# a ring of local shards: routing, aggregation, fan-out
# ----------------------------------------------------------------------
class TestShardedBrokerThread:
    def test_results_exactly_match_single_broker(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        with ShardedBroker(shards=4) as sharded:
            out = sharded.solve_batch(requests)
            for ref, got in zip(reference, out):
                assert got.fingerprint == ref.fingerprint
                assert got.throughput == ref.throughput  # Fraction-exact

    def test_identical_requests_route_to_one_shard(self):
        with ShardedBroker(shards=4) as sharded:
            req = SolveRequest(MasterSlaveSpec(
                platform=generators.paper_figure1(), master="P1"))
            twin = SolveRequest(MasterSlaveSpec(
                platform=generators.paper_figure1(), master="P1"))
            assert (sharded.shard_for(req.fingerprint())
                    == sharded.shard_for(twin.fingerprint()))
            sharded.solve(req)
            hit = sharded.solve(twin)
            assert hit.cached  # same shard, same cache entry
            snap = sharded.snapshot()
            assert snap["cache"]["misses"] == 1
            assert snap["cache"]["hits"] == 1

    def test_snapshot_aggregates_across_shards(self):
        requests = _mixed_requests()
        with ShardedBroker(shards=4) as sharded:
            sharded.solve_batch(requests)
            sharded.solve_batch(requests)  # second pass: all hits
            snap = sharded.snapshot()
            assert snap["shards"] == 4
            assert snap["cache"]["misses"] == len(requests)
            assert snap["cache"]["hits"] == len(requests)
            assert (snap["metrics"]["total_requests"]
                    >= 2 * len(requests))
            assert len(snap["per_shard"]) == 4
            # the per-shard breakdown sums to the aggregate
            assert (sum(s["misses"] for s in snap["per_shard"])
                    == snap["cache"]["misses"])
            occupied = [s for s in snap["per_shard"] if s["requests"]]
            assert len(occupied) >= 2  # the mix spreads across shards
            json.dumps(snap)  # JSON-safe end to end

    def test_a_scrape_does_not_list_the_cache_entries(self):
        """A shard's ``snapshot`` reply and the sharded ``GET /metrics``
        body carry no per-entry fingerprint list: past a heat sketch's
        ten-key head their size is O(shards), not O(cache entries)."""
        requests = [SolveRequest(MasterSlaveSpec(
            platform=generators.star(n, master_w=w), master="M"))
                    for n in range(2, 10) for w in range(1, 6)]
        fps = {r.fingerprint() for r in requests}
        with ShardedBroker(shards=2) as sharded:
            sharded.solve_batch(requests)
            replies = [_on_ring(sharded, shard.call({"op": "snapshot"}))
                       for shard in sharded._shards]
            body = json.dumps(handle_request(sharded, {"op": "metrics"}))
        assert sum(r["snapshot"]["cache"]["size"] for r in replies) == 40
        for reply in replies:
            assert "keys" not in reply["snapshot"]["cache"]
        for text in [json.dumps(r) for r in replies] + [body]:
            assert sum(fp in text for fp in fps) <= 10  # the heat head

    def test_invalidate_fans_out_to_every_shard(self):
        fig1 = generators.paper_figure1()
        variants = [
            SolveRequest(MasterSlaveSpec(platform=fig1, master="P1")),
            SolveRequest(MasterSlaveSpec(platform=fig1, master="P2")),
            SolveRequest(SendOrReceiveSpec(platform=fig1, master="P1")),
            SolveRequest(MultiportSpec(platform=fig1, master="P1", ports=2)),
        ]
        with ShardedBroker(shards=4) as sharded:
            sharded.solve_batch(variants)
            shards_used = {sharded.shard_for(r.fingerprint())
                           for r in variants}
            assert len(shards_used) >= 2  # the fan-out is actually needed
            assert sharded.invalidate_platform(fig1) == len(variants)
            for req in variants:
                assert not sharded.solve(req).cached

    def test_clear_drops_every_shard(self):
        requests = _mixed_requests()[:4]
        with ShardedBroker(shards=2) as sharded:
            sharded.solve_batch(requests)
            assert sharded.clear() == len(
                {r.fingerprint() for r in requests}
            )
            assert sharded.snapshot()["cache"]["size"] == 0
            assert all(not sharded.solve(r).cached for r in requests)

    def test_single_shard_is_a_valid_degenerate(self):
        with ShardedBroker(shards=1) as sharded:
            req = SolveRequest(MasterSlaveSpec(
                platform=generators.paper_figure1(), master="P1"))
            assert sharded.solve(req).throughput == Fraction(2)
            assert sharded.solve(req).cached


# ----------------------------------------------------------------------
# the workers behind local shards (wire-codec dispatch, long-lived state)
# ----------------------------------------------------------------------
class TestShardedBrokerProcess:
    def test_results_exactly_match_single_broker(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        with ShardedBroker(shards=2,
                           cache_size=32) as sharded:
            out = sharded.solve_batch(requests)
            for ref, got in zip(reference, out):
                assert isinstance(got, BrokerResult)
                assert got.fingerprint == ref.fingerprint
                assert got.throughput == ref.throughput  # Fraction-exact
            # second pass is served from the workers' own caches
            again = sharded.solve_batch(requests)
            assert all(r.cached for r in again)

    def test_every_registered_problem_is_exact_on_every_path(self):
        """solve, submit, solve_batch and the first answers of
        restarted workers: all ten problems,
        ``Fraction``-identical to the unsharded broker."""
        from repro.problems import registered_problems
        from test_transport import _mixed_requests as one_per_problem

        requests = one_per_problem()
        assert {r.problem for r in requests} == set(registered_problems())
        expected = [r.throughput for r in _reference_results(requests)]
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            def answers(results):
                return [r.throughput for r in results]

            assert answers(sharded.solve(r) for r in requests) == expected
            futures = [sharded.submit(r) for r in requests]
            assert answers(f.result(30) for f in futures) == expected
            assert answers(sharded.solve_batch(requests)) == expected
            assert answers(sharded.solve(r) for r in requests) == expected
            for shard in sharded._shards:
                shard.process.kill()
                shard.process.join()
            assert answers(sharded.solve(r) for r in requests) == expected
            assert sharded.shard_health()["shard_restarts"] == 2

    def test_snapshot_sums_the_footprint_over_every_process(self):
        with ShardedBroker(shards=2) as sharded:
            snap = sharded.snapshot()
        front, workers = snap["process"], [
            s["process"] for s in snap["per_shard"]]
        assert len({front["pid"], *(w["pid"] for w in workers)}) == 3
        assert snap["processes"] == {
            "count": 3,
            "max_rss_bytes": (front["max_rss_bytes"]
                              + sum(w["max_rss_bytes"] for w in workers)),
        }
        text = render_prometheus(snap)
        for label, process in (("front", front), ("0", workers[0]),
                               ("1", workers[1])):
            assert (f'repro_process_max_rss_bytes{{shard="{label}"}} '
                    f'{process["max_rss_bytes"]}\n') in text
        json.dumps(snap)

    def test_worker_state_stays_hot_across_calls(self):
        g = generators.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                            link_c=[1, 1, 2, 3])
        with ShardedBroker(shards=2) as sharded:
            sharded.solve(SolveRequest(MasterSlaveSpec(
                platform=g, master="M")))
            mutated = g.scale(compute="3/2", comm="2/3")
            warm = sharded.solve(SolveRequest(MasterSlaveSpec(
                platform=mutated, master="M")))
            snap = sharded.snapshot()
            # weight-only mutation: either the same shard re-used its hot
            # model (warm) or another shard built fresh — but when it IS
            # warm, the hot model demonstrably survived between calls
            if warm.warm:
                assert snap["incremental"]["warm_solves"] >= 1
            from repro.core.master_slave import solve_master_slave

            assert (warm.solution.throughput
                    == solve_master_slave(mutated, "M").throughput)

    def test_include_schedule_roundtrips_through_the_pipe(self):
        with ShardedBroker(shards=2) as sharded:
            req = SolveRequest(MasterSlaveSpec(
                platform=generators.paper_figure1(),
                master="P1"), include_schedule=True)
            res = sharded.solve(req)
            assert res.schedule is not None
            assert res.schedule.throughput == res.solution.throughput

    def test_invalidate_fans_out(self):
        fig1 = generators.paper_figure1()
        variants = [
            SolveRequest(MasterSlaveSpec(platform=fig1, master="P1")),
            SolveRequest(MasterSlaveSpec(platform=fig1, master="P2")),
            SolveRequest(SendOrReceiveSpec(platform=fig1, master="P1")),
        ]
        with ShardedBroker(shards=2) as sharded:
            sharded.solve_batch(variants)
            assert sharded.invalidate_platform(fig1) == len(variants)
            assert all(not sharded.solve(r).cached for r in variants)

    def test_spec_error_surfaces_as_broker_error(self):
        with ShardedBroker(shards=2) as sharded:
            good = SolveRequest(MasterSlaveSpec(
                platform=generators.star(2), master="M"))
            from repro.service.api import request_to_dict

            # a tampered wire payload sent straight to a shard: the
            # *worker* decodes, rejects, and the error crosses the wire
            payload = request_to_dict(good)
            payload["spec"]["problem"] = "nope"
            with pytest.raises(BrokerError, match="unknown problem"):
                _on_ring(sharded, sharded._shards[0].call(
                    {"op": "solve", "fp": good.fingerprint(),
                     "request": payload}))

    def test_worker_error_preserves_original_type(self):
        from repro.service.sharding import ShardError

        with ShardedBroker(shards=2) as sharded:
            with pytest.raises(ShardError) as err:
                # worker-side PlatformError (not a SpecError): the relayed
                # exception must report the ORIGINAL class name, so the
                # JSON API's "type" field matches the unsharded broker
                _on_ring(sharded, sharded._shards[0].call(
                    {"op": "invalidate", "platform": {"nodes": 12}}))
            assert type(err.value).__name__ == "PlatformError"

    def test_close_is_idempotent_and_workers_exit(self):
        sharded = ShardedBroker(shards=2)
        procs = [s.process for s in sharded._shards]
        sharded.close()
        sharded.close()
        assert all(not p.is_alive() for p in procs)


# ----------------------------------------------------------------------
# a batch is its requests' submits: N solve frames, no op of its own
# ----------------------------------------------------------------------
class TestSolveMany:
    """What replaced the ``solve_many`` op: the served batch is N
    ``solve`` frames in flight on the shard connections."""

    def test_intra_batch_duplicates_hit_the_shard_cache(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            results = sharded.solve_batch([req, req, req])
            assert len({r.throughput for r in results}) == 1
            snap = sharded.snapshot()
            # one engine solve; the twins were coalesced on the shard
            # or served from its cache — every request counted either way
            assert snap["cache"]["misses"] == 1
            assert snap["cache"]["hits"] + snap["shard_coalesced"] == 2

    def test_an_http_batch_is_one_solve_frame_per_item(self):
        from repro.service.api import request_to_dict, route_post

        requests = _mixed_requests()
        reference = _reference_results(requests)
        items = [request_to_dict(r) for r in requests]
        items.insert(3, {"spec": {"problem": "nope", "master": "M"},
                         "platform": platform_to_dict(generators.star(2))})
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            ops = []
            for shard in sharded._shards:
                def spying_call(msg, timeout=None, original=shard.call):
                    ops.append(msg["op"])
                    return original(msg, timeout=timeout)

                shard.call = spying_call
            status, _, body = route_post(sharded, "/api", json.dumps(
                {"op": "batch", "requests": items}).encode())
            # one frame per good item; the malformed one never left the front
            assert ops == ["solve"] * len(requests)
            per_shard = sharded.snapshot()["per_shard"]
        assert status == 200
        results = json.loads(body)["results"]
        assert results.pop(3)["status"] == 422  # isolated, in place
        assert all(r["ok"] for r in results)
        assert [r["fingerprint"] for r in results] == [
            ref.fingerprint for ref in reference]
        assert [Fraction(r["throughput"]) for r in results] == [
            ref.throughput for ref in reference]  # Fraction-exact
        assert sum(s["requests"] for s in per_shard) == len(requests)

    @pytest.mark.parametrize("op", ["solve_many", "put", "sleep"])
    def test_a_removed_op_is_refused_as_unknown(self, op):
        from repro.service.api import request_to_dict

        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        with ShardedBroker(shards=1) as sharded:
            with pytest.raises(BrokerError, match=f"unknown shard op '{op}'"):
                _on_ring(sharded, sharded._shards[0].call({
                    "op": op, "items": [{"fp": req.fingerprint(),
                                         "request": request_to_dict(req)}]}))
            assert sharded.solve(req).throughput > 0  # the shard stays


class TestShardCoalescing:
    """Twins in flight on one shard share an engine run only when they
    ask for the same reply: the fingerprint does not cover
    ``include_schedule``, so coalescing must."""

    @pytest.mark.parametrize("flags", [(False, True), (True, False),
                                       (False, False), (True, True)])
    def test_each_twin_gets_the_schedule_it_asked_for(
            self, flags, lane_latch, monkeypatch):
        twins = [SolveRequest(MasterSlaveSpec(
            platform=generators.star(3),
            master="M"), include_schedule=flag) for flag in flags]
        lane_latch.patch_local_shards(monkeypatch)
        with ShardedBroker(shards=1, near_cache_size=0) as sharded:
            # the engine lane is held: both solves arrive while it is
            assert lane_latch.held.wait(10)
            futures = [sharded.submit(twin) for twin in twins]
            # both in flight at the shard, the snapshot asking a third
            until(lambda: _shard_async(sharded, 0)["inflight"] == 3)
            lane_latch.release()
            results = [future.result(30) for future in futures]
            coalesced = sharded.snapshot()["shard_coalesced"]
        for flag, result in zip(flags, results):
            assert (result.schedule is not None) == flag
        assert results[0].throughput == results[1].throughput
        assert isinstance(results[0].throughput, Fraction)
        assert coalesced == (1 if flags[0] == flags[1] else 0)

    @staticmethod
    def _twins_behind_a_hold(sharded, latch, request):
        """Submit ``request`` twice while ``latch`` holds the engine
        lane, so the second is a follower of the first; release the
        lane once it is, and return the futures."""
        assert latch.held.wait(10)
        futures = [sharded.submit(request) for _ in range(2)]
        until(lambda: _shard_async(sharded, 0)["shard_coalesced"] == 1)
        latch.release()
        return futures

    def test_a_follower_is_a_request_in_the_metrics(self, lane_latch,
                                                    monkeypatch):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))
        lane_latch.patch_local_shards(monkeypatch)
        with ShardedBroker(shards=1, near_cache_size=0) as sharded:
            futures = self._twins_behind_a_hold(sharded, lane_latch, req)
            results = [future.result(30) for future in futures]
            snap = sharded.snapshot()
        assert results[0].throughput == results[1].throughput
        assert snap["shard_coalesced"] == 1
        endpoints = snap["metrics"]["endpoints"]
        # two requests, one engine run: the follower is counted once
        assert endpoints["solve"]["count"] == 2
        assert endpoints["solve.cold"]["count"] == 1
        assert endpoints["coalesce.remote"]["count"] == 1
        assert snap["metrics"]["total_requests"] == 2

    def test_a_failed_shared_solve_fails_both_requests(self, monkeypatch,
                                                       lane_latch):
        from repro.service.sharding import ShardError
        import repro.service.broker as broker_mod

        def boom(request):
            raise RuntimeError("solver exploded")

        # an in-thread shard: the patch reaches its engine
        monkeypatch.setattr(broker_mod, "execute_request", boom)
        server = LatchedShardServer(lane_latch).start_in_thread()
        req = SolveRequest(BroadcastSpec(
            platform=generators.chain(3), source="N0"))
        try:
            with ShardedBroker(shards=0, near_cache_size=0,
                               shard_addresses=[f"{server.host}:"
                                                f"{server.port}"],
                               health_interval=0) as sharded:
                for future in self._twins_behind_a_hold(
                        sharded, lane_latch, req):
                    with pytest.raises(ShardError, match="solver exploded"):
                        future.result(30)
                snap = sharded.snapshot()
        finally:
            server.shutdown()
        assert snap["shard_coalesced"] == 1
        solve = snap["metrics"]["endpoints"]["solve"]
        assert solve["count"] == 2 and solve["errors"] == 2

    def test_a_non_boolean_flag_is_a_typed_refusal(self):
        from repro.service.api import request_to_dict

        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        with ShardedBroker(shards=1) as sharded:
            sharded.solve(req)  # cached: a hit would be served on the loop
            for flag in ("false", 0, None):
                with pytest.raises(BrokerError, match="'include_schedule'"):
                    _on_ring(sharded, sharded._shards[0].call({
                        "op": "solve", "fp": req.fingerprint(),
                        "request": {**request_to_dict(req),
                                    "include_schedule": flag}}))
            assert sharded.solve(req).cached  # the shard stays


class TestEarnedHotModels:
    def test_a_cold_only_http_batch_leaves_no_hot_model(self):
        from repro.service.api import request_to_dict, route_post

        requests = [SolveRequest(MasterSlaveSpec(
            platform=generators.star(n), master="M"))
                    for n in range(2, 10)]  # 8 structures, each seen once
        reference = _reference_results(requests)
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            status, _, body = route_post(sharded, "/api", json.dumps(
                {"op": "batch",
                 "requests": [request_to_dict(r) for r in requests]},
            ).encode())
            metrics = handle_request(sharded, {"op": "metrics"})
        assert status == 200
        assert [Fraction(r["throughput"]) for r in
                json.loads(body)["results"]] == [
            ref.throughput for ref in reference]
        inc = metrics["incremental"]
        assert inc["hot_models"] == 0 and inc["evictions"] == 0
        assert inc["single_use_builds"] == inc["full_rebuilds"] == 8
        assert ("repro_warm_single_use_builds_total 8"
                in render_prometheus(metrics))


class TestHitsThroughTheRing:
    """A shard answers a cached read on its loop from memoised bytes and
    the front keeps the wire form: the books and the objects must be
    what they were when every hit was decoded, run and re-encoded."""

    def test_n_reads_are_n_shard_hits_one_miss(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.paper_figure1(), master="P1"))
        reference = _reference_results([req])[0]
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            first = sharded.solve(req)
            reads = [sharded.solve(req) for _ in range(6)]
            assert not first.cached and all(r.cached for r in reads)
            cache = sharded.snapshot()["cache"]
            assert (cache["hits"], cache["misses"]) == (6, 1)
            merged = sharded.snapshot()["metrics"]["endpoints"]
            assert merged["solve.hit"]["count"] == 6
            assert merged["solve"]["count"] == 7
            for result in [first] + reads:
                assert result.fingerprint == reference.fingerprint
                assert result.throughput == reference.throughput
                assert result.solution.alpha == reference.solution.alpha
                assert result.solution.send == reference.solution.send

    def test_a_read_builds_no_fraction_until_somebody_looks(self):
        from repro.service.api import response_to_dict

        req = SolveRequest(ScatterSpec(
            platform=generators.paper_figure2_multicast(), source="P0",
            targets=("P5", "P6")), include_schedule=True)
        (reference,) = _reference_results([req])
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            sharded.solve(req)
            hit = sharded.solve(req)
            payload = response_to_dict(hit)
            assert "solution" not in vars(hit)  # served as a view
            assert "schedule" not in vars(hit)
            assert payload == {**response_to_dict(reference),
                               "cached": True,
                               "latency_seconds": hit.latency_seconds}
            # ... and a library caller still gets the exact objects
            assert hit.solution.throughput == reference.throughput
            assert hit.schedule.period == reference.schedule.period

    def test_near_cache_admission_keeps_exact_objects(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))
        (reference,) = _reference_results([req])
        with ShardedBroker(shards=2) as sharded:
            for _ in range(HOT_THRESHOLD):  # the last lookup is the hot one
                sharded.solve(req)
            near = sharded._near_cache.peek(req.fingerprint())
            assert near is not None  # admitted as the shard's reply bytes
            assert json.loads(near.solution_json) == \
                solution_to_wire(reference.solution)
            served = sharded.solve(req)
            assert served.cached and served.entry is near
            assert "solution" not in vars(served)  # nothing decoded yet
            assert served.solution.alpha == reference.solution.alpha

    def test_batch_of_hits_and_misses_keeps_its_order(self):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        with ShardedBroker(shards=2, near_cache_size=0) as sharded:
            sharded.solve_batch(requests[::2])  # every other one is cached
            results = sharded.solve_batch(requests)
            assert [r.fingerprint for r in results] == \
                [r.fingerprint for r in reference]
            assert [r.cached for r in results] == \
                [i % 2 == 0 for i in range(len(requests))]
            for ref, got in zip(reference, results):
                assert got.throughput == ref.throughput


# ----------------------------------------------------------------------
# the JSON API over a sharded broker
# ----------------------------------------------------------------------
class TestShardedApi:
    def _envelope(self):
        return {"op": "solve", "request": {
            "spec": {"problem": "master-slave", "master": "P1"},
            "platform": platform_to_dict(generators.paper_figure1())}}

    def test_handle_request_ops(self):
        with ShardedBroker(shards=2) as sharded:
            out = handle_request(sharded, self._envelope())
            assert out["ok"] and Fraction(out["throughput"]) == Fraction(2)
            again = handle_request(sharded, self._envelope())
            assert again["cached"]
            metrics = handle_request(sharded, {"op": "metrics"})
            assert metrics["ok"] and metrics["shards"] == 2
            assert metrics["metrics"]["total_requests"] >= 2
            cache = handle_request(sharded, {"op": "cache"})
            assert cache["cache"]["size"] == 1
            inv = handle_request(sharded, {
                "op": "invalidate",
                "platform": platform_to_dict(generators.paper_figure1())})
            assert inv["invalidated"] == 1
            bad = handle_request(sharded, {"op": "solve", "request": {
                "spec": {"problem": "nope", "master": "M"},
                "platform": platform_to_dict(generators.star(2))}})
            assert not bad["ok"] and bad["status"] == 422


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def _running(pid: int) -> bool:
    """Whether the process still runs (an orphan waiting for init to
    reap it is a zombie: it exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestServeCli:
    def test_executor_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["serve", "--stdio", "--executor", "thread"])
        assert err.value.code == 2  # argparse: unrecognized arguments
        assert "--executor" in capsys.readouterr().err
        for kind in ("thread", "process"):
            with pytest.raises(ValueError, match="selects nothing"):
                Broker(executor=kind)

    def test_a_bare_serve_is_a_ring_that_restarts_its_worker(self):
        from repro.cli import _build_broker, build_parser
        from repro.service.api import request_to_dict

        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        envelope = {"op": "solve", "request": request_to_dict(req)}
        with _build_broker(build_parser().parse_args(["serve"])) as broker:
            assert isinstance(broker, ShardedBroker) and broker.shards == 1
            first = handle_request(broker, envelope)
            assert first["ok"] and "coalesced" not in first
            (shard,) = broker._shards
            shard.process.kill()
            shard.process.join()
            again = handle_request(broker, envelope)
            assert again["ok"] and not again["cached"]  # a fresh worker
            assert again["throughput"] == first["throughput"]
            assert broker.shard_health()["shard_restarts"] == 1

    def test_workers_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["serve", "--stdio", "--workers", "2"])
        assert err.value.code == 2  # argparse: unrecognized arguments
        assert "--workers" in capsys.readouterr().err

    def test_shard_mode_flag_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["serve", "--stdio", "--shard-mode", "process"])
        assert err.value.code == 2  # argparse: unrecognized arguments
        assert "--shard-mode" in capsys.readouterr().err

    def test_replication_options_are_refused_not_ignored(self, capsys):
        from repro.cli import main

        for flag in ("--replication-factor", "--hot-threshold"):
            with pytest.raises(SystemExit) as err:
                main(["serve", "--stdio", "--shards", "2", flag, "2"])
            assert err.value.code == 2  # argparse: unrecognized arguments
            assert flag in capsys.readouterr().err
        for keyword in ("replication_factor", "hot_threshold",
                        "heat_capacity"):
            with pytest.raises(TypeError, match=keyword):
                ShardedBroker(shards=2, **{keyword: 2})
        assert multiprocessing.active_children() == []  # nothing started

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGTERM", "SIGKILL"])
    def test_no_worker_outlives_its_server(self, sig):
        """``kill`` is Ctrl-C (the broker closes, stopping its workers),
        and a server that dies without a word is an EOF to each worker."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"),
            os.environ.get("PYTHONPATH")])))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "2"],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            banner = server.stdout.readline()
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=30) as reply:
                shards = json.load(reply)["shard_health"]["shards"]
            assert all(s["address"].startswith("local://pid=")
                       for s in shards)
            pids = [int(s["address"].rpartition("=")[2]) for s in shards]
            assert len(set(pids)) == 2
            server.send_signal(sig)
            code = server.wait(timeout=10)
            assert code == (0 if sig == signal.SIGTERM else -sig)
            deadline = time.time() + 5
            while time.time() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()

    def test_serve_runs_the_ring_on_its_http_loop(self):
        """``serve`` itself: no ``repro-ring`` thread while it answers,
        and SIGTERM closes the ring on that loop, reaps the worker and
        returns 0."""
        from repro.cli import main
        from repro.service.api import request_to_dict

        port = _free_port()
        body = json.dumps({"op": "solve", "request": request_to_dict(
            SolveRequest(MasterSlaveSpec(platform=generators.star(3),
                                         master="M")))}).encode()
        seen = {}

        def client():
            deadline = time.time() + 30
            while time.time() < deadline:
                try:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=5)
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                return  # never came up: main() has failed on its own
            try:
                for _ in range(3):
                    req = urllib.request.Request(
                        f"http://127.0.0.1:{port}/api", data=body)
                    with urllib.request.urlopen(req, timeout=30) as reply:
                        seen.setdefault("cached", []).append(
                            json.load(reply)["cached"])
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics",
                        timeout=30) as reply:
                    shards = json.load(reply)["shard_health"]["shards"]
                seen["pid"] = int(shards[0]["address"].rpartition("=")[2])
                seen["threads"] = {t.name for t in threading.enumerate()}
            finally:
                os.kill(os.getpid(), signal.SIGTERM)  # serve's handler

        caller = threading.Thread(target=client)
        caller.start()
        assert main(["serve", "--port", str(port), "--shards", "1"]) == 0
        caller.join(30)
        assert seen["cached"] == [False, True, True]
        assert "repro-ring" not in seen["threads"]
        assert not _running(seen["pid"])
        assert multiprocessing.active_children() == []

    def test_sharded_stdio_roundtrip(self, capsys):
        import io
        import sys as _sys

        from repro.cli import main

        lines = json.dumps({"op": "ping"}) + "\n" + json.dumps(
            {"op": "shutdown"}) + "\n"
        old_stdin = _sys.stdin
        _sys.stdin = io.StringIO(lines)
        try:
            rc = main(["serve", "--stdio", "--shards", "2"])
        finally:
            _sys.stdin = old_stdin
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert json.loads(out[0])["pong"]


# ----------------------------------------------------------------------
# metrics snapshot merging
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def test_counts_sum_and_rates_rederive(self):
        from repro.service.metrics import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        for ms in (1, 2, 3):
            a.observe("solve", ms / 1000)
        b.observe("solve", 0.004)
        b.observe("solve", 0.1, error=True)
        b.observe("ping", 0.001)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        ep = merged["endpoints"]["solve"]
        assert ep["count"] == 5 and ep["errors"] == 1
        assert ep["total_seconds"] == pytest.approx(0.110)
        assert ep["min_seconds"] == pytest.approx(0.001)
        assert ep["max_seconds"] == pytest.approx(0.1)
        assert merged["total_requests"] == 6
        assert merged["requests_per_second"] > 0

    def test_empty_merge(self):
        merged = merge_snapshots([])
        assert merged["total_requests"] == 0
        assert merged["endpoints"] == {}

    def test_dotted_subtimers_not_double_counted(self):
        from repro.service.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.observe("solve", 0.001)
        reg.observe("solve.cold", 0.001)
        merged = merge_snapshots([reg.snapshot(), reg.snapshot()])
        assert merged["total_requests"] == 2
        assert "solve.cold" in merged["endpoints"]

    def test_all_none_percentiles_stay_none(self):
        """Merging endpoints with empty histograms keeps p50/p99 None
        instead of raising or inventing zeros."""
        from repro.service.metrics import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        snap_a, snap_b = a.snapshot(), b.snapshot()
        # Simulate a shard that reports the endpoint but no observation.
        snap_a["endpoints"]["solve"] = ({
            "count": 0, "errors": 0, "total_seconds": 0.0,
            "mean_seconds": None, "min_seconds": None, "max_seconds": None,
            "p50_seconds": None, "p99_seconds": None, "buckets": [],
        })
        merged = merge_snapshots([snap_a, snap_b])
        ep = merged["endpoints"]["solve"]
        assert ep["p50_seconds"] is None
        assert ep["p99_seconds"] is None
        assert ep["min_seconds"] is None and ep["max_seconds"] is None

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=-7, max_value=math.log10(500)),
                  st.booleans(), st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=120))
    def test_merge_is_exact(self, draws):
        """A merged endpoint is what one registry that saw every
        observation reports; its percentiles sit in the exact nearest-rank
        value's bucket, never below it and never above the max."""
        from repro.service.metrics import MetricsRegistry

        # log-uniform 0.1 µs .. 500 s, duplicates kept: the first bucket
        # and the overflow bucket are both reachable
        latencies = [(10.0 ** e, error, part) for e, error, part in draws]
        latencies += latencies[: len(latencies) // 4]
        parts = [MetricsRegistry() for _ in range(4)]
        whole = MetricsRegistry()
        for seconds, error, part in latencies:
            parts[part].observe("solve", seconds, error=error)
            whole.observe("solve", seconds, error=error)
        merged = merge_snapshots(
            [p.snapshot() for p in parts])["endpoints"]["solve"]
        one = whole.snapshot()["endpoints"]["solve"]
        for key in ("count", "errors", "min_seconds", "max_seconds",
                    "buckets", "p50_seconds", "p99_seconds"):
            assert merged[key] == one[key], key
        assert merged["total_seconds"] == pytest.approx(one["total_seconds"])
        ordered = sorted(seconds for seconds, _e, _p in latencies)
        for p in (50, 99):
            exact = ordered[-(-len(ordered) * p // 100) - 1]
            reported = merged[f"p{p}_seconds"]
            assert exact <= reported <= merged["max_seconds"]
            assert (bisect.bisect_left(LATENCY_BUCKETS, exact)
                    == bisect.bisect_left(LATENCY_BUCKETS, reported))

    def test_front_and_shard_merge_to_the_true_p99(self):
        """310 front hits at 10 µs and a shard's 676 hits at 13 µs plus 14
        misses at 5 ms: the p99 is 5 ms, not an average of the two p99s."""
        from repro.service.metrics import MetricsRegistry

        front, shard = MetricsRegistry(), MetricsRegistry()
        for _ in range(310):
            front.observe("solve", 10e-6)
        for _ in range(676):
            shard.observe("solve", 13e-6)
        for _ in range(14):
            shard.observe("solve", 5e-3)
        merged = merge_snapshots([front.snapshot(), shard.snapshot()])
        assert merged["endpoints"]["solve"]["p99_seconds"] == 0.005

    def test_endpoint_state_is_bounded(self):
        from repro.service.metrics import MetricsRegistry

        reg = MetricsRegistry()
        for i in range(100_000):
            reg.observe("solve", 1e-7 * 1.00025 ** i)
        ep = reg.snapshot()["endpoints"]["solve"]
        assert ep["count"] == 100_000 == sum(ep["buckets"])
        assert len(ep["buckets"]) <= len(LATENCY_BUCKETS) + 1

    def test_caller_uptime_overrides_shard_max(self):
        """requests_per_second derives from the caller's uptime, not the
        max of shard uptimes (shards may have started long before the
        router)."""
        from repro.service.metrics import MetricsRegistry

        fake_now = [100.0]
        reg = MetricsRegistry(clock=lambda: fake_now[0])
        fake_now[0] = 1100.0  # shard claims 1000s of uptime
        reg.observe("solve", 0.001)
        snap = reg.snapshot()
        assert snap["uptime_seconds"] == pytest.approx(1000.0)

        merged = merge_snapshots([snap], uptime_seconds=10.0)
        assert merged["uptime_seconds"] == pytest.approx(10.0)
        assert merged["requests_per_second"] == pytest.approx(0.1)

        fallback = merge_snapshots([snap])
        assert fallback["requests_per_second"] == pytest.approx(0.001)


# ----------------------------------------------------------------------
# HashRing properties (what failover's minimal disruption relies on)
# ----------------------------------------------------------------------
def _fingerprints(n: int, salt: str = "") -> list:
    import hashlib

    return [hashlib.sha256(f"{salt}{i}".encode()).hexdigest()
            for i in range(n)]


class TestHashRingProperties:
    @settings(max_examples=25, deadline=None)
    @given(shards=st.integers(min_value=2, max_value=12),
           salt=st.text(alphabet="abcdef", min_size=0, max_size=6))
    def test_keys_balance_within_tolerance(self, shards, salt):
        """No shard owns a grossly unfair share of a uniform keyspace."""
        fps = _fingerprints(64 * shards, salt)
        ring = HashRing(shards)
        counts = [0] * shards
        for fp in fps:
            counts[ring.route(fp)] += 1
        fair = len(fps) / shards
        assert min(counts) >= fair / 4  # every shard carries real load
        assert max(counts) <= fair * 4  # nobody is a hot spot

    @settings(max_examples=25, deadline=None)
    @given(shards=st.integers(min_value=2, max_value=10),
           removed=st.integers(min_value=0, max_value=9))
    def test_removing_one_shard_remaps_only_its_keys(self, shards,
                                                     removed):
        """The minimal-disruption invariant: ejecting shard ``r`` moves
        exactly the keys ``r`` owned; every other key keeps its owner."""
        removed %= shards
        fps = _fingerprints(256)
        ring = HashRing(shards)
        for fp in fps:
            before = ring.route(fp)
            after = ring.route(fp, skip={removed})
            if before != removed:
                assert after == before  # untouched by the ejection
            else:
                assert after != removed  # found a live stand-in

    @settings(max_examples=10, deadline=None)
    @given(shards=st.integers(min_value=2, max_value=8))
    def test_skipped_keys_spread_over_survivors(self, shards):
        """An ejected shard's keys fan out across the survivors (virtual ring
        points), they do not all pile onto one neighbour."""
        if shards < 3:
            return
        fps = _fingerprints(512)
        ring = HashRing(shards)
        heirs = {ring.route(fp, skip={0})
                 for fp in fps if ring.route(fp) == 0}
        assert len(heirs) >= 2

    def test_all_shards_skipped_raises(self):
        ring = HashRing(3)
        with pytest.raises(ValueError, match="excluded"):
            ring.route("ab" * 32, skip={0, 1, 2})

    def test_empty_skip_matches_plain_route(self):
        ring = HashRing(5)
        for fp in _fingerprints(64):
            assert ring.route(fp) == ring.route(fp, skip=set())


# ----------------------------------------------------------------------
# local workers: a death is typed and counted, the RTT is metered
# ----------------------------------------------------------------------
class TestLocalShardSupervision:
    def test_death_mid_request_is_a_typed_shard_error_not_eof(self):
        """The PR 3 bug: a worker dying mid-request surfaced as a raw
        EOFError from its channel.  It must be a counted, typed failure
        (and here — with a live sibling shard — a transparent failover,
        so the caller sees no error at all)."""
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))
        with ShardedBroker(shards=2) as sharded:
            shard = sharded._shards[
                sharded.shard_for(req.fingerprint())
            ]
            shard.process.kill()
            shard.process.join()
            result = sharded.solve(req)  # restart + retry, not EOFError
            assert result.throughput == _reference_results([req])[0].throughput
            assert sharded.shard_health()["shard_failures"] >= 1
            snap = sharded.snapshot()
            assert snap["shard_health"]["shard_restarts"] >= 1

    def test_concurrent_failures_cause_one_restart(self):
        """Sixteen requests in flight towards a worker that was just
        killed: the ``epoch`` guard makes the first failure restart it
        and every other one ride that restart — none lost, none
        stampeding."""
        requests = [SolveRequest(MasterSlaveSpec(
            platform=generators.star(n, master_w=2),
            master="M")) for n in range(2, 18)]
        reference = _reference_results(requests)
        with ShardedBroker(shards=1, near_cache_size=0) as sharded:
            (shard,) = sharded._shards
            old_pid = shard.process.pid
            os.kill(old_pid, signal.SIGKILL)
            shard.process.join()
            futures = [sharded.submit(r) for r in requests]
            assert [f.result(30).throughput for f in futures] == [
                ref.throughput for ref in reference]
            health = sharded.shard_health()
            assert health["shard_restarts"] == 1
            assert health["shard_failures"] >= 1
            assert health["failovers"] == 0  # the fresh worker answered
            assert shard.process.pid != old_pid
            assert multiprocessing.active_children() == [shard.process]
        assert multiprocessing.active_children() == []

    def test_metrics_observe_transport_latency(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        with ShardedBroker(shards=2) as sharded:
            sharded.solve(req)
            endpoints = sharded.snapshot()["metrics"]["endpoints"]
            assert endpoints["transport.async"]["count"] >= 1


# ----------------------------------------------------------------------
# remote TCP shards on the ring
# ----------------------------------------------------------------------
def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _run_shard_server(port: int,
                      latch=None) -> None:  # pragma: no cover — child
    import asyncio

    from repro.service.transport import AsyncShardServer

    async def serve() -> None:
        address = ("127.0.0.1", port)
        server = (AsyncShardServer(address) if latch is None
                  else LatchedShardServer(latch, address))
        await server.start()
        await server.serve_forever()

    asyncio.run(serve())


def _start_shard_process(port: int,
                         latch=None) -> multiprocessing.Process:
    ctx = multiprocessing.get_context()
    process = ctx.Process(target=_run_shard_server, args=(port, latch),
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
    process.kill()
    raise RuntimeError(f"shard server on :{port} never became reachable")


class _Ring:
    """A two-shard ring of one placement, plus the two things a test
    does to a peer: take it away, and (remote only — a local worker is
    restarted by its broker) bring its host back."""

    def __init__(self, placement: str, latch=None, **kwargs) -> None:
        self.placement = placement
        self.ports: list = []
        self.servers: list = []
        if placement == "remote":
            self.ports = [_free_port(), _free_port()]
            self.servers = [_start_shard_process(p, latch)
                            for p in self.ports]
            kwargs.update(
                shards=0, health_interval=0.2,
                shard_addresses=[f"127.0.0.1:{p}" for p in self.ports])
        self.broker = ShardedBroker(**kwargs)

    def process(self, shard_id: int):
        return (self.broker._shards[shard_id].process
                or self.servers[shard_id])

    def kill(self, shard_id: int) -> None:
        process = self.process(shard_id)
        process.kill()
        process.join()

    def recover(self, shard_id: int, old_pid: int) -> None:
        """After the outage: the shard is back on the ring — restarted
        by the broker (local), or rejoined by the health probe once its
        host answers again (remote) — and the counters say which."""
        if (self.placement == "remote"
                and not self.process(shard_id).is_alive()):
            self.servers[shard_id] = _start_shard_process(
                self.ports[shard_id])
        shard = self.broker._shards[shard_id]
        deadline = time.time() + 20
        while not shard.active and time.time() < deadline:
            time.sleep(0.05)
        assert shard.active, "the shard never came back"
        health = self.broker.shard_health()
        if self.placement == "local":
            assert health["shard_restarts"] == 1
            assert health["rejoins"] == 0
            assert self.process(shard_id).pid != old_pid
            assert (health["shards"][shard_id]["address"]
                    == f"local://pid={self.process(shard_id).pid}")
        else:
            assert health["shard_restarts"] == 0
            assert health["rejoins"] == 1

    def close(self) -> None:
        self.broker.close()
        for server in self.servers:
            server.kill()
            server.join()


@pytest.fixture(params=["local", "remote"])
def ring(request, monkeypatch):
    rings = []

    def build(latch=None, **kwargs) -> _Ring:
        """A ring; with ``latch``, every shard is born with its engine
        lane held."""
        if latch is not None and request.param == "local":
            latch.patch_local_shards(monkeypatch)
        rings.append(_Ring(request.param, latch, **kwargs))
        return rings[-1]

    yield build
    for built in rings:
        built.close()


def _fig1_variants():
    fig1 = generators.paper_figure1()
    return fig1, [
        SolveRequest(MasterSlaveSpec(platform=fig1, master="P1")),
        SolveRequest(MasterSlaveSpec(platform=fig1, master="P2")),
        SolveRequest(SendOrReceiveSpec(platform=fig1, master="P1")),
        SolveRequest(SendOrReceiveSpec(platform=fig1, master="P2")),
    ]


class TestSupervision:
    """One body per fault, run against both placements: a local shard
    is restarted where a remote one is ejected and rejoined, and nothing
    else differs."""

    def test_kill_mid_batch_loses_no_request(self, ring, lane_latch):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        # every engine lane is held, so the victim's sub-batch is in
        # flight and unanswered at the moment the peer dies
        r = ring(latch=lane_latch)
        broker = r.broker
        victim = broker.shard_for(requests[0].fingerprint())
        theirs = [q for q in requests
                  if broker.shard_for(q.fingerprint()) == victim]
        assert 0 < len(theirs) < len(requests)
        old_pid = r.process(victim).pid
        assert lane_latch.held.wait(10)
        out: list = []
        batch = threading.Thread(
            target=lambda: out.extend(broker.solve_batch(requests)),
            daemon=True)
        batch.start()
        until(lambda: (_shard_async(broker, victim)["inflight"]
                       == len(theirs) + 1))
        r.kill(victim)
        lane_latch.release()
        batch.join(timeout=30)
        assert [g.throughput for g in out] == [
            ref.throughput for ref in reference]  # none lost, all exact
        assert broker.shard_health()["shard_failures"] == 1
        if r.placement == "remote":
            assert not broker._shards[victim].active  # ejected
        r.recover(victim, old_pid)
        per_shard = broker.snapshot()["per_shard"]
        if r.placement == "local":
            # the retry ran on the fresh worker — which started empty —
            # before any ring failover: the sibling saw none of it
            assert per_shard[victim]["misses"] == len(theirs)
            assert per_shard[victim]["hits"] == 0
            assert (per_shard[1 - victim]["requests"]
                    == len(requests) - len(theirs))
        else:
            # the survivor answered everything; the rejoined shard is
            # empty (a new process here, and cleared on rejoin anyway)
            assert per_shard[1 - victim]["requests"] == len(requests)
            assert per_shard[victim]["cache_size"] == 0

    def test_a_missed_request_timeout_is_typed_and_the_shard_stays(
            self, ring, lane_latch):
        requests = _mixed_requests()
        reference = _reference_results(requests)
        r = ring(latch=lane_latch, request_timeout=0.4)
        broker = r.broker
        pids = [r.process(0).pid, r.process(1).pid]
        fp = "0" * 64
        assert lane_latch.held.wait(10)
        started = time.perf_counter()
        with pytest.raises(ShardTimeoutError) as err:
            # queued behind the held engine lane
            _on_ring(broker, broker._routed_call(fp, {"op": "clear"}))
        # the shard's own answer at the budget — not this end's guess
        # after the grace, and not a failover to the sibling
        assert time.perf_counter() - started < 1.0
        assert err.value.server_reported
        assert err.value.shard == broker.shard_for(fp)
        health = broker.shard_health()
        assert health["shard_timeouts"] == 1
        assert (health["shard_failures"] == health["shard_restarts"]
                == health["failovers"] == health["rejoins"] == 0)
        assert all(s["active"] for s in health["shards"])
        assert [r.process(0).pid, r.process(1).pid] == pids  # kept warm
        lane_latch.release()
        out = [broker.solve(q) for q in requests]
        assert [g.throughput for g in out] == [
            ref.throughput for ref in reference]

    def test_invalidation_during_the_outage_leaves_nothing_stale(
            self, ring):
        fig1, variants = _fig1_variants()
        reference = _reference_results(variants)
        r = ring()
        broker = r.broker
        broker.solve_batch(variants)
        owners = [broker.shard_for(v.fingerprint()) for v in variants]
        assert set(owners) == {0, 1}  # the fan-out is actually needed
        victim = owners[0]
        old_pid = r.process(victim).pid
        r.kill(victim)
        # must not raise: the dead shard is restarted empty (local) or
        # ejected until a fresh server rejoins (remote)
        assert broker.invalidate_platform(fig1) == owners.count(1 - victim)
        r.recover(victim, old_pid)
        again = [broker.solve(v) for v in variants]
        assert not any(g.cached for g in again)
        assert [g.throughput for g in again] == [
            ref.throughput for ref in reference]

    def test_a_peer_that_stops_answering_is_replaced(self, ring):
        """Only a shard that does not answer at all — not even with a
        deadline miss — is restarted or ejected.  A rejoined remote
        shard serves what it cached through the outage, and every entry
        is still the exact answer to its key."""
        fig1, variants = _fig1_variants()
        reference = _reference_results(variants)
        r = ring(request_timeout=0.2)
        broker = r.broker
        broker.solve_batch(variants)
        victim = broker.shard_for(variants[0].fingerprint())
        old_pid = r.process(victim).pid
        os.kill(old_pid, signal.SIGSTOP)  # alive, cache intact, mute
        try:
            started = time.perf_counter()
            got = broker.solve(variants[0])  # budget + grace, then recovery
            assert time.perf_counter() - started > 0.2
            assert got.throughput == reference[0].throughput
            assert not got.cached
            health = broker.shard_health()
            assert health["shard_timeouts"] == 1
            assert health["shard_failures"] == 1
            broker.invalidate_platform(fig1)
        finally:
            if r.process(victim).pid == old_pid:
                os.kill(old_pid, signal.SIGCONT)
        r.recover(victim, old_pid)
        again = [broker.solve(v) for v in variants]
        # the invalidation reached the live shard only; a local victim
        # was restarted empty, a remote one kept its cache
        kept = [r.placement == "remote"
                and broker.shard_for(v.fingerprint()) == victim
                for v in variants]
        assert any(kept) == (r.placement == "remote")
        assert [g.cached for g in again] == kept
        assert [g.throughput for g in again] == [
            ref.throughput for ref in reference]


class TestTheRingIsOneThread:
    def test_the_ring_costs_one_thread(self):
        """Routing, fan-outs and health probing are tasks
        on one loop: whatever the shard count and the load, an open
        broker is one thread more and a closed one none."""
        requests = [SolveRequest(MasterSlaveSpec(
            platform=generators.star(n, master_w=2),
            master="M")) for n in range(2, 10)] * 8
        before = threading.active_count()
        sharded = ShardedBroker(shards=4, health_interval=0.05)
        try:
            futures = [sharded.submit(r) for r in requests]
            assert len(futures) == 64
            snap = sharded.snapshot()
            sharded.invalidate_platform(requests[0].platform)
            assert all(f.result(30).throughput > 0 for f in futures)
            time.sleep(0.2)  # a few health rounds
            assert len(snap["per_shard"]) == 4
            assert threading.active_count() == before + 1
        finally:
            sharded.close()
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_a_broker_on_the_running_loop_runs_its_ring_there(self):
        """``serve``'s wiring: a submit on the loop is a task there (an
        ``asyncio`` future, near hit or not), the blocking API crosses
        onto it from any other thread, and the broker closes on it,
        reaping its worker."""
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))

        async def main():
            broker = await ShardedBroker.on_running_loop(
                shards=1, health_interval=0.05)
            try:
                names = {t.name for t in threading.enumerate()}
                assert "repro-ring" not in names
                fut = broker.submit(req)
                assert isinstance(fut, asyncio.Task)
                assert not (await fut).cached
                # the blocking API, from a plain thread, onto this loop
                again = await asyncio.to_thread(broker.solve, req)
                snap = await asyncio.to_thread(broker.snapshot)
                for _ in range(HOT_THRESHOLD):  # heat it into the near-cache
                    await broker.submit(req)
                near = broker.submit(req)
                assert isinstance(near, asyncio.Future) and near.done()
                assert near.result().entry is not None
                await asyncio.sleep(0.2)  # a few health rounds, here
            finally:
                await broker.aclose()
            assert again.cached and snap["cache"]["size"] == 1
            assert multiprocessing.active_children() == []
            with pytest.raises(ShardError, match="broker is closed"):
                broker.submit(req)

        asyncio.run(main())

    def test_a_blocking_call_on_the_ring_loop_is_refused(self):
        """On its own loop the blocking API would wait on itself: every
        blocking method raises instead, and the broker still works."""
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))

        async def main():
            broker = await ShardedBroker.on_running_loop(shards=1)
            try:
                for call in (lambda: broker.solve(req),
                             lambda: broker.solve_batch([req]),
                             broker.snapshot, broker.clear,
                             lambda: broker.invalidate_platform(
                                 req.platform),
                             broker.close):
                    with pytest.raises(ShardError, match="own loop"):
                        call()
                with pytest.raises(ShardError, match="own loop"):
                    with broker:
                        pass
                assert (await broker.submit(req)).throughput > 0
            finally:
                await broker.aclose()
            assert multiprocessing.active_children() == []

        asyncio.run(asyncio.wait_for(main(), 60))

    def test_a_plain_broker_inside_a_running_loop_owns_a_private_loop(self):
        """Built plainly inside ``asyncio.run`` (a notebook cell, an
        async app), the broker runs its own ring thread: ``with`` and
        the blocking API work as on a plain thread."""
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))

        async def main():
            with ShardedBroker(shards=1) as broker:
                assert "repro-ring" in {t.name for t in threading.enumerate()}
                first, again = broker.solve(req), broker.solve(req)
                snap = broker.snapshot()
            return first, again, snap

        first, again, snap = asyncio.run(asyncio.wait_for(main(), 60))
        assert not first.cached and again.cached
        assert snap["cache"]["size"] == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("solved", [False, True])
    def test_close_after_the_callers_loop_ended_reaps_the_worker(
            self, solved):
        """A caller's loop that ended without ``aclose()`` can leave the
        worker running (an unused channel is never closed); ``close()``
        from any thread then reaps it."""
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))

        async def main():
            broker = await ShardedBroker.on_running_loop(shards=1)
            if solved:
                await broker.submit(req)
            return broker

        broker = asyncio.run(main())
        worker = broker._shards[0].process
        if not solved:
            assert worker.is_alive()
        broker.close()
        assert worker.exitcode is not None
        assert multiprocessing.active_children() == []
        with pytest.raises(ShardError, match="broker is closed"):
            broker.submit(req)

    def test_a_library_broker_on_a_plain_thread_owns_a_private_loop(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))
        seen = {}

        def library_caller():
            with ShardedBroker(shards=1) as broker:
                seen["first"] = broker.solve(req)
                seen["snapshot"] = broker.snapshot()
                seen["threads"] = {t.name for t in threading.enumerate()}
            seen["closed"] = {t.name for t in threading.enumerate()}

        caller = threading.Thread(target=library_caller)
        caller.start()
        caller.join(60)
        assert seen["first"].throughput > 0
        assert seen["snapshot"]["cache"]["size"] == 1
        assert "repro-ring" in seen["threads"]
        assert "repro-ring" not in seen["closed"]
        assert multiprocessing.active_children() == []

    def test_a_closed_broker_answers_nothing_and_resurrects_nobody(self):
        """The parent's bug: a request after ``close()`` found the dead
        channel, "recovered" the shard by spawning a worker nobody would
        ever stop, and returned a result."""
        from repro.service.sharding import ShardError

        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(3), master="M"))
        sharded = ShardedBroker(shards=2, health_interval=0.05)
        sharded.solve(req)
        sharded.close()
        assert multiprocessing.active_children() == []
        started = time.perf_counter()
        for call in (lambda: sharded.solve(req),
                     lambda: sharded.submit(req),
                     lambda: sharded.solve_batch([req]),
                     lambda: sharded.invalidate_platform(req.platform),
                     sharded.clear,
                     sharded.snapshot,
                     sharded.submit_snapshot,
                     lambda: sharded.submit_invalidate(req.platform)):
            with pytest.raises(ShardError, match="broker is closed"):
                call()
        assert time.perf_counter() - started < 1.0  # refused, not hung
        assert multiprocessing.active_children() == []
        assert sharded.shard_health()["shard_restarts"] == 0
        sharded.close()  # still idempotent


def test_a_failed_constructor_leaves_no_worker_behind(monkeypatch):
    from repro.service import sharding

    before = set(multiprocessing.active_children())
    # refused before anything is spawned
    with pytest.raises(ValueError, match="host:port"):
        ShardedBroker(shards=2, shard_addresses=["nonsense"])
    assert set(multiprocessing.active_children()) == before
    # a failure after the first worker is up stops it again
    real = sharding.spawn_local_shard
    spawned = []

    def second_spawn_fails(*args):
        if spawned:
            raise OSError("no more processes")
        spawned.append(real(*args))
        return spawned[0]

    monkeypatch.setattr(sharding, "spawn_local_shard", second_spawn_fails)
    with pytest.raises(OSError, match="no more processes"):
        ShardedBroker(shards=2)
    assert not spawned[0][0].is_alive()
    assert set(multiprocessing.active_children()) == before


def test_a_failed_constructor_on_a_loop_leaves_no_worker_behind(
        monkeypatch):
    """Built on a running loop, the broker is constructed off it, so a
    failed constructor closes what it started on that loop."""
    from repro.service import sharding

    before = set(multiprocessing.active_children())
    real = sharding.spawn_local_shard
    spawned = []

    def second_spawn_fails(*args):
        if spawned:
            raise OSError("no more processes")
        spawned.append(real(*args))
        return spawned[0]

    monkeypatch.setattr(sharding, "spawn_local_shard", second_spawn_fails)

    async def build():
        with pytest.raises(OSError, match="no more processes"):
            await ShardedBroker.on_running_loop(shards=2)

    asyncio.run(asyncio.wait_for(build(), 30))
    assert not spawned[0][0].is_alive()
    assert set(multiprocessing.active_children()) == before


class TestRemoteTcpShards:
    def test_mixed_ring_matches_single_broker_exactly(self):
        """Acceptance: a ShardedBroker spanning a TCP shard returns
        Fraction-identical results to the unsharded Broker."""
        requests = _mixed_requests()
        reference = _reference_results(requests)
        port = _free_port()
        server = _start_shard_process(port)
        try:
            with ShardedBroker(shards=1,
                               shard_addresses=[f"127.0.0.1:{port}"],
                               health_interval=0) as sharded:
                assert sharded.shards == 2
                out = sharded.solve_batch(requests)
                for ref, got in zip(reference, out):
                    assert got.fingerprint == ref.fingerprint
                    assert got.throughput == ref.throughput  # exact
                again = [sharded.solve(r) for r in requests]
                assert all(r.cached for r in again)
                health = sharded.shard_health()["shards"]
                assert {h["kind"] for h in health} == {"async"}
                assert [h["address"].split("=")[0] for h in health] == [
                    "local://pid", f"tcp://127.0.0.1:{port}"]
        finally:
            server.kill()
            server.join()

    def test_kill_a_shard_mid_run_fails_over_without_losing_requests(self):
        """Acceptance: the workload completes via failover after a hard
        kill — ejection moves the dead shard's keys to survivors."""
        requests = _mixed_requests()
        reference = _reference_results(requests)
        ports = [_free_port(), _free_port()]
        servers = [_start_shard_process(p) for p in ports]
        try:
            with ShardedBroker(
                shards=0,
                shard_addresses=[f"127.0.0.1:{p}" for p in ports],
                health_interval=0,
            ) as sharded:
                warm = sharded.solve_batch(requests)
                assert all(g.throughput == r.throughput
                           for g, r in zip(warm, reference))
                servers[0].kill()
                servers[0].join()
                out = [sharded.solve(r) for r in requests]  # no losses
                for ref, got in zip(reference, out):
                    assert got.throughput == ref.throughput
                health = sharded.shard_health()
                assert health["shard_failures"] >= 1
                assert health["failovers"] >= 1
                states = {h["address"]: h["active"]
                          for h in health["shards"]}
                assert states[f"tcp://127.0.0.1:{ports[0]}"] is False
                assert states[f"tcp://127.0.0.1:{ports[1]}"] is True
                # metrics scrape survives the outage, flags the shard
                snap = sharded.snapshot()
                flags = [p.get("unreachable", False)
                         for p in snap["per_shard"]]
                assert flags.count(True) == 1
                # ... and sums the footprint over what still answers
                assert snap["processes"]["count"] == 2
                # invalidation fan-out tolerates the dead shard too
                fig1 = generators.paper_figure1()
                assert sharded.invalidate_platform(fig1) >= 1
        finally:
            for server in servers:
                server.kill()
                server.join()

    def test_all_remote_ring_needs_an_address(self):
        with pytest.raises(ValueError):
            ShardedBroker(shards=0)


# ----------------------------------------------------------------------
# review-hardening regressions
# ----------------------------------------------------------------------
class TestTimeoutConfiguration:
    def test_a_bare_serve_takes_the_ring_options(self):
        """A bare ``serve`` is a one-shard ring: ``--shard-timeout`` and
        ``--near-cache-size`` apply to it; ``--shards 0`` needs a
        ``--shard``."""
        from repro.cli import _build_broker, build_parser, main

        args = build_parser().parse_args(
            ["serve", "--shard-timeout", "5", "--near-cache-size", "8"])
        with _build_broker(args) as broker:
            assert broker.shards == 1
            assert broker.request_timeout == 5
            assert broker._near_cache.max_size == 8
        with pytest.raises(SystemExit, match="--shards 0"):
            main(["serve", "--stdio", "--shards", "0"])

    def test_the_budget_travels_as_the_shard_deadline(self):
        """The shard is handed ``request_timeout`` as its own deadline
        and this end waits a grace longer, so the shard answers a miss."""
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        with ShardedBroker(shards=1,
                           request_timeout=0.5) as sharded:
            shard = sharded._shards[0]
            seen = []
            original = shard.call

            async def spying_call(msg, timeout=None):
                seen.append(msg["deadline"])  # what the shard enforces
                assert timeout > msg["deadline"]  # this end waits longer
                return await original(msg, timeout=timeout)

            shard.call = spying_call
            sharded.solve_batch([req, req])
            _on_ring(sharded, sharded._shard_call(shard, {"op": "ping"}))
            assert seen == [0.5, 0.5, 0.5]  # per request, never scaled


class TestSharedShardServerHealth:
    def test_ping_is_answered_while_the_engine_lane_is_busy(
            self, lane_latch):
        """A shared TCP shard busy with another broker's long op must
        still answer health pings — busy is not dead."""
        from repro.service.transport import AsyncTcpTransport

        server = LatchedShardServer(
            lane_latch, ("127.0.0.1", 0)).start_in_thread()
        assert lane_latch.held.wait(10)

        async def probe_a_busy_shard():
            busy = AsyncTcpTransport(server.host, server.port)
            prober = AsyncTcpTransport(server.host, server.port)
            try:
                # queued behind the held lane
                blocker = asyncio.ensure_future(busy.request({"op": "clear"}))
                start = time.perf_counter()
                # must not queue behind it
                assert await prober.ping(timeout=1.0)
                assert time.perf_counter() - start < 1.0
                assert not blocker.done()  # the engine was held all along
                blocker.cancel()
            finally:
                await busy.close()
                await prober.close()

        try:
            asyncio.run(probe_a_busy_shard())
        finally:
            server.shutdown()
