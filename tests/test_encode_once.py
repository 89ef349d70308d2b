"""Same bytes by either road.

An answer is encoded once — ``repro.service.wire`` is the one result
encoder, a cache entry memoises its bytes, and the HTTP payload is a
view of the wire form — so every road a result can take must end in the
same JSON.  The reference is ``tests/data/parent_payloads.json``,
recorded on the commit *before* that change with the object-path
encoder (``response_to_dict`` over solution objects) and the dict-built
shard reply (``handle_shard_message``), for all ten registered problems
on one fixed platform (``include_schedule`` on the reconstructable
ones).  ``latency_seconds`` is zeroed on both sides.  The recording is
result wire version 1, which echoed the request: the expectations drop
that echo, and one test decodes the recording as it is.
"""

from __future__ import annotations

import copy
import io
import json
import urllib.request
from pathlib import Path

import pytest

from repro.platform.serialization import schedule_to_dict
from repro.problems import registered_problems
from repro.service.api import (
    AsyncServiceServer,
    _solve_json,
    handle_request,
    request_from_dict,
    response_to_dict,
    route_post,
    serve_stdio,
)
from repro.service.broker import Broker, SolveEngine, SolveRequest
from repro.service.cache import SolutionCache
from repro.service.sharding import HOT_THRESHOLD, ShardedBroker
from repro.service.transport import (
    handle_shard_message,
    hit_reply,
    reply_json,
)
from repro.service.wire import (
    RESULT_WIRE_VERSION,
    WireCodecError,
    compact_json,
    encode_result,
    near_result,
    result_from_wire,
    result_to_wire,
    solution_to_wire,
)

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "parent_payloads.json").read_text())


def _timeless(payload):
    """A deep copy with every measured latency zeroed."""
    payload = copy.deepcopy(payload)
    for holder in (payload, payload.get("result", {})):
        if "latency_seconds" in holder:
            holder["latency_seconds"] = 0.0
    return payload


#: the recorded payloads carried a ``coalesced`` flag that only the
#: in-process worker pool ever set (a follower on a shard always read
#: false); the pool is gone, so no reply carries it, and decoders of
#: either version read it with ``.get``
_POOL_ONLY_FLAG = "coalesced"


def _answer_only(holder, problem):
    """Drop from ``holder``'s solution and schedule what version 1
    echoed of the request: the platform, a DAG's task graph, and the
    ``exhaustive`` flag broadcast and reduce always set true."""
    for key in ("platform", "dag"):
        holder["solution"].pop(key, None)
    if problem in ("broadcast", "reduce"):
        del holder["solution"]["exhaustive"]
    if "schedule" in holder:
        del holder["schedule"]["platform"]


def _expected_response(problem):
    expected = copy.deepcopy(FIXTURE[problem]["response"])
    del expected[_POOL_ONLY_FLAG]
    _answer_only(expected, problem)
    if problem == "dag":
        # the object path listed the non-zero `cons` in solver order; a
        # shard-served answer always came in the codec's sorted order,
        # which is now the only order there is
        expected["solution"]["cons"].sort(
            key=lambda rec: (rec["node"], rec["type"]))
    return expected


def _expected_shard_reply(problem):
    expected = copy.deepcopy(FIXTURE[problem]["shard_reply"])
    # the recorded shard stamped its cache generation on every reply for
    # hot-key replication's put guard; nothing reads it any more and a
    # front of either version works with or without it
    del expected["gen"]
    del expected["result"][_POOL_ONLY_FLAG]
    _answer_only(expected["result"], problem)
    expected["result"]["version"] = RESULT_WIRE_VERSION
    return expected


def test_the_fixture_covers_every_registered_problem():
    assert sorted(FIXTURE) == sorted(registered_problems())
    scheduled = {p for p, rec in FIXTURE.items() if "schedule" in
                 rec["response"]}
    assert scheduled == {"master-slave", "scatter", "gather", "all-to-all"}


@pytest.fixture(params=sorted(FIXTURE))
def solved(request):
    """(problem, request, fingerprint, engine, cold result)."""
    record = FIXTURE[request.param]
    req = request_from_dict(record["request"])
    fp = req.fingerprint()
    assert fp == record["fingerprint"]
    engine = SolveEngine(cache=SolutionCache())
    return request.param, req, fp, engine, engine.run(req, fp)


def test_response_is_the_parents_by_the_object_road(solved):
    problem, _req, _fp, _engine, result = solved
    assert _timeless(response_to_dict(result)) == _expected_response(problem)


def test_response_is_the_parents_by_the_wire_road(solved):
    problem, _req, _fp, _engine, result = solved
    wire = json.loads(json.dumps(result_to_wire(result)))
    decoded = result_from_wire(wire)
    # nothing exact is built on this road: the payload is a view
    assert "solution" not in vars(decoded)
    assert _timeless(response_to_dict(decoded)) == _expected_response(problem)
    assert "solution" not in vars(decoded) and "schedule" not in vars(decoded)
    json.dumps(response_to_dict(decoded))  # and it is JSON-safe as it is
    # the reply holds no platform to decode the answer on
    with pytest.raises(WireCodecError, match="spec"):
        decoded.solution


def test_lazy_objects_equal_the_originals_fraction_for_fraction(solved):
    _problem, req, _fp, _engine, result = solved
    decoded = result_from_wire(
        json.loads(json.dumps(result_to_wire(result))), req.spec)
    assert type(decoded.solution) is type(result.solution)
    assert decoded.solution.platform is req.spec.platform
    assert decoded.solution is decoded.solution  # decoded once, then kept
    assert solution_to_wire(decoded.solution) == \
        solution_to_wire(result.solution)
    assert decoded.throughput == result.throughput
    if result.schedule is None:
        assert decoded.schedule is None
    else:
        assert schedule_to_dict(decoded.schedule) == \
            schedule_to_dict(result.schedule)
        assert decoded.schedule.period == result.schedule.period


def test_spliced_reply_is_the_dict_the_parent_built(solved):
    problem, req, fp, engine, _result = solved
    request_wire = FIXTURE[problem]["request"]
    entry = engine.cache.peek(fp)
    assert entry.solution_json is None  # nobody has served it yet
    first = reply_json(hit_reply(engine, fp, request_wire, False))
    memo = entry.solution_json
    assert memo is not None
    assert (entry.schedule_json is not None) == req.include_schedule
    second = reply_json(hit_reply(engine, fp, request_wire, False))
    assert entry.solution_json is memo  # filled once, then copied
    expected = _expected_shard_reply(problem)
    for blob in (first, second):
        assert _timeless(json.loads(blob)) == expected
    # the miss road (decode + run + encode) frames the same message
    fresh = SolveEngine(cache=SolutionCache())
    missed = _timeless(json.loads(reply_json(handle_shard_message(
        fresh, {"op": "solve", "fp": fp, "request": request_wire}))))
    assert not missed["result"]["cached"]
    missed["result"]["cached"] = True
    assert missed == expected
    assert fresh.cache.peek(fp).solution_json is not None  # encoded at put


def test_either_version_of_a_peer_decodes_to_the_same_answer(solved):
    # a front of this commit behind a parent shard-serve reads the
    # parent's dict-built reply, echo and all; behind a shard of this
    # commit, the spliced one.  Both go through the one result_from_wire.
    problem, req, fp, engine, _result = solved
    parent_reply = FIXTURE[problem]["shard_reply"]
    ours = json.loads(reply_json(
        hit_reply(engine, fp, FIXTURE[problem]["request"], False)))
    from_parent = result_from_wire(parent_reply["result"], req.spec)
    from_ours = result_from_wire(ours["result"], req.spec)
    assert _timeless(response_to_dict(from_parent)) == \
        _timeless(response_to_dict(from_ours))
    assert solution_to_wire(from_parent.solution) == \
        solution_to_wire(from_ours.solution)
    # the parent's echo is dropped on decode, so neither the HTTP view
    # nor what a near cache admits (``result.wire``) carries it
    _no_platform(compact_json(response_to_dict(from_parent)))
    _no_platform(compact_json(from_parent.wire))
    # the frame keeps its keys; a parent-version front refuses the new
    # version loudly instead of reading a platform that is not there
    assert set(ours) == set(parent_reply) - {"gen"}
    assert set(ours["result"]) == \
        set(parent_reply["result"]) - {_POOL_ONLY_FLAG}
    assert ours["result"]["version"] == 2 > parent_reply["result"]["version"]


def test_a_recorded_v1_reply_decodes_to_the_reference(solved):
    problem, req, _fp, _engine, result = solved
    v1 = copy.deepcopy(FIXTURE[problem]["shard_reply"]["result"])
    assert v1["version"] == 1 and "platform" in v1["solution"]
    decoded = result_from_wire(v1, req.spec)
    assert decoded.solution.platform is req.spec.platform
    assert solution_to_wire(decoded.solution) == \
        solution_to_wire(result.solution)
    assert decoded.throughput == result.throughput
    if result.schedule is None:
        assert decoded.schedule is None
    else:
        assert schedule_to_dict(decoded.schedule) == \
            schedule_to_dict(result.schedule)
    v1["version"] = 3
    with pytest.raises(WireCodecError, match="newer"):
        result_from_wire(v1, req.spec)


def test_encode_result_is_result_to_wire_with_or_without_an_entry(solved):
    _problem, _req, fp, engine, result = solved
    entry = engine.cache.peek(fp)
    plain = json.loads(encode_result(result))
    assert plain == result_to_wire(result)
    assert entry.solution_json is None  # no entry given, no memo written
    assert json.loads(encode_result(result, entry)) == plain
    # an entry that holds other objects is never spliced from
    other = SolveEngine(cache=SolutionCache())
    stranger = other.run(request_from_dict(FIXTURE["master-slave"]
                                           ["request"]),
                         FIXTURE["master-slave"]["fingerprint"])
    assert json.loads(encode_result(stranger, entry)) == \
        result_to_wire(stranger)


def test_attach_schedule_resets_the_schedule_memo():
    record = FIXTURE["master-slave"]
    engine = SolveEngine(cache=SolutionCache())
    fp = record["fingerprint"]
    missed = handle_shard_message(
        engine, {"op": "solve", "fp": fp, "request": record["request"]})
    entry = engine.cache.peek(fp)
    old = entry.schedule_json
    assert old is not None and old in missed["result"]
    engine.cache.attach_schedule(fp, entry.schedule)
    assert entry.schedule_json is None and entry.solution_json is not None
    again = hit_reply(engine, fp, record["request"], False)
    assert entry.schedule_json == old and old in again["result"]


def test_http_body_matches_for_every_problem():
    # the whole front door, unsharded: handle_request's solve response
    # is the recorded payload (first cold, then from the cache)
    with Broker() as broker:
        for problem, record in FIXTURE.items():
            envelope = {"op": "solve", "request": record["request"]}
            for cached in (False, True):
                response = handle_request(broker, copy.deepcopy(envelope))
                expected = _expected_response(problem)
                expected["cached"] = cached
                assert _timeless(response) == expected


# ----------------------------------------------------------------------
# the near-cache road: an entry keeps the shard's wire form, and the
# HTTP reply splices bytes encoded once per entry
# ----------------------------------------------------------------------
def _near_entry(problem, engine, fp, req):
    """A near-cache entry as the ring admits one: the wire dicts of the
    shard's reply."""
    reply = json.loads(reply_json(
        hit_reply(engine, fp, FIXTURE[problem]["request"], False)))
    wire = reply["result"]
    return SolutionCache().put(fp, wire["solution"], req.platform,
                               schedule=wire.get("schedule"))


def test_a_near_hit_replies_spliced_bytes(solved):
    problem, req, fp, engine, _result = solved
    entry = _near_entry(problem, engine, fp, req)
    for with_schedule in sorted({False, req.include_schedule}):
        expected = _expected_response(problem)
        expected["cached"] = True
        if not with_schedule:
            expected.pop("schedule", None)
        result = near_result(
            entry, SolveRequest(req.spec, include_schedule=with_schedule),
            0.25)
        first = _solve_json(result, {"trace_id": "abc"})
        memo = entry.solution_json
        assert _solve_json(result, {"trace_id": "abc"}) == first
        assert entry.solution_json is memo  # encoded once, then spliced
        assert _timeless(json.loads(first)) == {**expected,
                                                "trace_id": "abc"}
        # a batch item, stdio and the executor road keep the dict view
        assert _timeless(response_to_dict(result)) == expected
        assert "solution" not in vars(result)  # nothing was decoded
    assert (entry.schedule_json is not None) == req.include_schedule


def test_the_ring_serves_every_problem_near_by_either_road():
    """Through ``serve``'s layers: each request made hot on a one-shard
    ring, then served near — a ``solve`` reply spliced, a ``batch`` of
    all ten as dicts — equals the recorded payloads."""
    def post(port, envelope):
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/api",
            data=json.dumps(envelope).encode())
        with urllib.request.urlopen(req, timeout=60) as reply:
            return json.load(reply)

    with ShardedBroker(shards=1) as broker:
        server = AsyncServiceServer(broker=broker,
                                    tracing=False).start_in_thread()
        try:
            for problem, record in sorted(FIXTURE.items()):
                envelope = {"op": "solve", "request": record["request"]}
                for _ in range(HOT_THRESHOLD):  # the last one is admitted
                    post(server.port, envelope)
                near = broker.snapshot()["replication"]["near_cache"]
                expected = _expected_response(problem)
                expected["cached"] = True
                assert _timeless(post(server.port, envelope)) == expected
                after = broker.snapshot()["replication"]["near_cache"]
                assert after["hits"] == near["hits"] + 1
            batch = post(server.port, {
                "op": "batch",
                "requests": [record["request"] for _problem, record
                             in sorted(FIXTURE.items())]})
            for problem, item in zip(sorted(FIXTURE), batch["results"]):
                assert _timeless(item) == {**_expected_response(problem),
                                           "cached": True}
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# a reply is the answer, not an echo: the caller's platform is bound,
# never the one another client sent
# ----------------------------------------------------------------------
def _two_clients():
    """One scheduled master-slave request as two clients send it: the
    second renames the platform and lists its nodes the other way
    round, which the fingerprint leaves out."""
    first = copy.deepcopy(FIXTURE["master-slave"]["request"])
    second = copy.deepcopy(first)
    second["platform"]["name"] = "renamed-by-client-2"
    second["platform"]["nodes"].reverse()
    return first, second


def _no_platform(body):
    assert b'"platform"' not in body
    return json.loads(body)


def test_no_road_echoes_the_platform_another_client_sent():
    first, second = _two_clients()
    fp = request_from_dict(first).fingerprint()
    assert request_from_dict(second).fingerprint() == fp
    with Broker() as broker:
        for raw, cached in ((first, False), (second, True)):
            status, _, body = route_post(broker, "/api", json.dumps(
                {"op": "solve", "request": raw}).encode())
            assert status == 200
            assert _no_platform(body)["cached"] is cached
        # the in-process road binds its hit to the caller's spec too:
        # the cached objects were built on the first client's platform
        hit = broker.solve(request_from_dict(second))
        assert hit.cached and hit.schedule is not None
        assert hit.solution.platform.name == "renamed-by-client-2"
        assert hit.schedule.platform.name == "renamed-by-client-2"
    with ShardedBroker(shards=1) as ring:
        ring.solve(request_from_dict(first))
        shard_hit = ring.solve(request_from_dict(second))
        assert shard_hit.cached and shard_hit.entry is None
        for _ in range(HOT_THRESHOLD):  # heats the key, then admits it
            ring.solve(request_from_dict(second))
        near = ring.solve(request_from_dict(second))
        assert near.entry is not None
        for result in (shard_hit, near):
            _no_platform(_solve_json(result, {}))
            assert result.solution.platform.name == "renamed-by-client-2"
            assert result.schedule.platform.name == "renamed-by-client-2"
        batch = handle_request(ring, {"op": "batch",
                                      "requests": [first, second]})
        assert all(item["cached"] for item in batch["results"])
        _no_platform(compact_json(batch["results"]))
        out = io.StringIO()
        serve_stdio(ring, io.StringIO(json.dumps(
            {"op": "solve", "request": second}) + "\n"), out)
        assert _no_platform(out.getvalue().encode())["cached"]
