"""What a server process keeps between requests is bytes.

A shard cache entry, a near-cache entry and a stored trace hold the
JSON the service already encodes, never the object graph it was encoded
from: no solution, schedule or ``Platform`` object, no decoded wire
dict, no ``Span``.  A read binds the bytes to the caller's own spec, so
every road to an answer — a cold reply, a hit, a schedule-wanting hit
on an entry solved without one, an in-process hit read as objects —
gives the same bytes and the same ``Fraction`` objects as a fresh cold
solve.
"""

from __future__ import annotations

import gc
import json
import random
import weakref
from types import FunctionType, ModuleType

import pytest

from repro.core.activities import SteadyStateSolution
from repro.platform import generators
from repro.platform.graph import Platform
from repro.platform.serialization import schedule_to_dict
from repro.problems import MasterSlaveSpec, resolve
from repro.schedule.periodic import PeriodicSchedule
from repro.service.api import handle_request, request_to_dict
from repro.service.broker import Broker, SolveEngine, SolveRequest
from repro.service.cache import SolutionCache
from repro.service.metrics import render_prometheus
from repro.service.sharding import HOT_THRESHOLD, ShardedBroker
from repro.service.tracing import Span, Trace, TraceStore
from repro.service.transport import handle_shard_message, hit_reply
from repro.service.wire import (
    _result_head,
    compact_json,
    encode_result,
    solution_to_wire,
)

#: the six problems with an LP model, and broadcast
PROBLEMS = ("master-slave", "multiport", "send-or-receive", "scatter",
            "gather", "all-to-all", "broadcast")
#: the problems whose one-port answers reconstruct a schedule
SCHEDULED = {"master-slave", "scatter", "gather", "all-to-all"}
#: what a kept answer may never reach
DECODED = (Platform, SteadyStateSolution, PeriodicSchedule, Span, Trace)


def _reached(root):
    """Every object reachable from ``root`` through instance state
    (types, modules and functions are not followed)."""
    seen, frontier, out = {id(root)}, [root], []
    while frontier:
        obj = frontier.pop()
        out.append(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (type, ModuleType, FunctionType)) \
                    or id(ref) in seen:
                continue
            seen.add(id(ref))
            frontier.append(ref)
    return out


def _holds_no_object(root):
    reached = _reached(root)
    assert not [obj for obj in reached if isinstance(obj, DECODED)]
    # a decoded wire dict carries a ``kind`` (a solution) or ``slices``
    # (a schedule); the containers of a cache or a store carry neither
    assert not [obj for obj in reached if isinstance(obj, dict)
                and ("kind" in obj or "slices" in obj)]


def _spec(problem, seed):
    rng = random.Random(seed)
    platform = generators.random_connected(rng.randint(5, 9), seed=seed)
    nodes = sorted(platform.nodes())
    others = rng.sample(nodes[1:], rng.randint(1, min(3, len(nodes) - 1)))
    return resolve(problem).example(platform, nodes[0], tuple(others))


def _answer(result) -> bytes:
    """A result's reply bytes after its head: the answer alone."""
    head = compact_json(_result_head(result))[:-1]
    blob = encode_result(result)
    assert blob.startswith(head)
    return blob[len(head):]


# ----------------------------------------------------------------------
# retention
# ----------------------------------------------------------------------
def test_a_kept_answer_lets_the_request_and_its_solution_go():
    store = TraceStore()
    with Broker() as broker:
        request = SolveRequest(MasterSlaveSpec(
            platform=generators.random_connected(6, seed=4), master="R0"),
            include_schedule=True)
        cold = broker.solve(request)  # a miss
        shard = SolveEngine()
        fp, wire = request.fingerprint(), request_to_dict(request)
        assert handle_shard_message(shard, {"op": "solve", "fp": fp,
                                            "request": wire})["ok"]
        assert hit_reply(shard, fp, wire, False)["ok"]  # a shard hit
        hit = broker.solve(request)  # an in-process hit, read as objects
        assert hit.cached and hit.solution == cold.solution
        assert hit.schedule.period == cold.schedule.period
        traced = handle_request(broker, {"op": "solve", "request": wire},
                                trace_store=store)
        assert traced["cached"] and store.get(traced["trace_id"])
        platform = weakref.ref(request.spec.platform)
        solution = weakref.ref(cold.solution)
        del request, cold, hit
        gc.collect()
        assert platform() is None and solution() is None
        _holds_no_object(broker.cache)
        _holds_no_object(shard.cache)
    _holds_no_object(store)


def test_a_near_entry_is_the_shards_bytes():
    request = SolveRequest(MasterSlaveSpec(
        platform=generators.star(3), master="M"), include_schedule=True)
    with ShardedBroker(shards=1) as sharded:
        for _ in range(HOT_THRESHOLD + 1):  # admitted, then served near
            served = sharded.solve(request)
        near = sharded._near_cache
        entry = near.peek(request.fingerprint())
        assert served.entry is entry
        assert served.solution == Broker().solve(request).solution
        del served
        _holds_no_object(near)


# ----------------------------------------------------------------------
# the same answer by every road
# ----------------------------------------------------------------------
@pytest.mark.parametrize("problem", PROBLEMS)
def test_every_road_gives_the_cold_answer(problem):
    for seed in range(9):  # 63 requests over the seven problems
        spec = _spec(problem, 1000 * PROBLEMS.index(problem) + seed)
        scheduled = problem in SCHEDULED
        request = SolveRequest(spec, include_schedule=scheduled)
        fp = request.fingerprint()
        reference = SolveEngine().run(request, fp)  # a fresh cold solve
        assert not reference.cached
        expected = compact_json(solution_to_wire(reference.solution))
        if scheduled:
            assert compact_json(schedule_to_dict(reference.schedule)) \
                in _answer(reference)

        engine = SolveEngine()
        cold = engine.run(request, fp)  # the cold reply
        hit = engine.run(request, fp)  # a hit, read as objects
        bare = SolveEngine()  # an entry solved without a schedule ...
        bare.run(SolveRequest(spec), fp)
        late = bare.run(request, fp)  # ... then a schedule-wanting hit
        assert not cold.cached and hit.cached and late.cached
        assert (bare.cache.peek(fp).schedule_json is not None) == scheduled
        for road in (cold, hit, late):
            assert _answer(road) == _answer(reference)
            assert compact_json(road.wire["solution"]) == expected
        with Broker() as broker:
            broker.solve(request)
            in_process = broker.solve(request)
        assert in_process.cached
        assert _answer(in_process) == _answer(reference)
        for road in (hit, late, in_process):
            assert road.solution == reference.solution
            assert road.solution.platform is request.spec.platform
            assert road.throughput == reference.throughput
            if scheduled:
                assert road.schedule.period == reference.schedule.period
                assert schedule_to_dict(road.schedule) == \
                    schedule_to_dict(reference.schedule)


# ----------------------------------------------------------------------
# retained bytes are counted
# ----------------------------------------------------------------------
def _blobs(cache: SolutionCache) -> int:
    return sum(len(blob or b"") for entry in cache._entries.values()
               for blob in (entry.solution_json, entry.schedule_json,
                            entry.payload_json))


def test_a_cache_counts_the_bytes_it_keeps():
    cache = SolutionCache(max_size=2)
    platform = generators.star(2)
    assert cache.snapshot()["bytes"] == 0
    cache.put("a", b"12345", platform)
    cache.put("b", b"678", platform, b"schedule")
    assert cache.snapshot()["bytes"] == 16 == _blobs(cache)
    cache.attach_schedule("a", b"xy")
    assert cache.snapshot()["bytes"] == 18 == _blobs(cache)
    cache.put("c", b"9", platform)  # evicts a
    assert cache.snapshot()["bytes"] == 12 == _blobs(cache)
    cache.invalidate_platform(platform)
    assert cache.snapshot()["bytes"] == 0


def test_metrics_sum_the_shards_kept_bytes():
    requests = [SolveRequest(MasterSlaveSpec(
        platform=generators.star(n), master="M"),
        include_schedule=n % 2 == 1)
        for n in range(2, 8)]
    engine = SolveEngine()
    for request in requests:
        engine.run(request, request.fingerprint())
    expected = engine.snapshot()["cache"]["bytes"]
    assert expected == _blobs(engine.cache) > 0
    with ShardedBroker(shards=2, near_cache_size=0) as sharded:
        for request in requests:
            sharded.solve(request)
        snap = sharded.snapshot()
        assert snap["cache"]["shards"] == 2
        assert all(s["cache_size"] for s in snap["per_shard"])
        assert snap["cache"]["bytes"] == expected
        assert f"repro_cache_bytes {expected}" in \
            render_prometheus({"ok": True, **snap})


def test_a_trace_store_counts_its_bytes():
    store = TraceStore(capacity=2, slow_capacity=1, slow_threshold=0.5)
    traces = []
    for duration in (1.0, 0.0, 0.0):
        trace = Trace("t")
        trace.new_span("child", 0).finish()
        trace.finish()
        trace.duration_seconds = duration
        store.add(trace)
        traces.append(store.get(trace.trace_id))
    # the slow one stays in its ring; the recent ring holds the others
    assert store.snapshot()["bytes"] == sum(len(t.blob) for t in traces)
    assert traces[0].as_dict()["slow"] and not traces[1].as_dict()["slow"]


# ----------------------------------------------------------------------
# a stored trace is the whole trace
# ----------------------------------------------------------------------
def test_a_trace_is_stored_after_its_last_graft():
    store = TraceStore()
    request = SolveRequest(MasterSlaveSpec(
        platform=generators.star(3), master="M"))
    with ShardedBroker(shards=1) as sharded:
        out = handle_request(sharded, {"op": "solve", "trace": True,
                                       "request": request_to_dict(request)},
                             trace_store=store)
    stored = store.get(out["trace_id"])
    # the inline trace is the live one, read after the context closed:
    # the stored bytes lack none of its spans, grafted ones included
    assert stored.as_dict() == json.loads(json.dumps(out["trace"]))
    spans = stored.as_dict()["spans"]
    assert any(s["annotations"].get("remote") for s in spans)
    assert stored.summary["spans"] == len(spans)
    assert store.index()[0]["trace_id"] == out["trace_id"]
    _holds_no_object(store)
