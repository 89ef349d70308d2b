"""Same bytes by either road.

An answer is encoded once — ``repro.service.wire`` is the one result
encoder, a cache entry memoises its bytes, and the HTTP payload is a
view of the wire form — so every road a result can take must end in the
same JSON.  The reference is ``tests/data/parent_payloads.json``,
recorded on the commit *before* that change with the object-path
encoder (``response_to_dict`` over solution objects) and the dict-built
shard reply (``handle_shard_message``), for all ten registered problems
on one fixed platform (``include_schedule`` on the reconstructable
ones).  ``latency_seconds`` is zeroed on both sides.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.platform.serialization import schedule_to_dict
from repro.problems import registered_problems
from repro.service.api import (
    handle_request,
    request_from_dict,
    response_to_dict,
)
from repro.service.broker import Broker, SolveEngine
from repro.service.cache import SolutionCache
from repro.service.transport import (
    handle_shard_message,
    hit_reply,
    reply_json,
)
from repro.service.wire import (
    encode_result,
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


def _expected_response(problem):
    expected = copy.deepcopy(FIXTURE[problem]["response"])
    del expected[_POOL_ONLY_FLAG]
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


def test_lazy_objects_equal_the_originals_fraction_for_fraction(solved):
    _problem, _req, _fp, _engine, result = solved
    decoded = result_from_wire(
        json.loads(json.dumps(result_to_wire(result))))
    assert type(decoded.solution) is type(result.solution)
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
    # parent's dict-built reply; behind a shard of this commit, the
    # spliced one.  Both go through the one result_from_wire.
    problem, _req, fp, engine, _result = solved
    parent_reply = _expected_shard_reply(problem)
    ours = json.loads(reply_json(
        hit_reply(engine, fp, FIXTURE[problem]["request"], False)))
    from_parent = result_from_wire(parent_reply["result"])
    from_ours = result_from_wire(ours["result"])
    assert _timeless(response_to_dict(from_parent)) == \
        _timeless(response_to_dict(from_ours))
    assert solution_to_wire(from_parent.solution) == \
        solution_to_wire(from_ours.solution)
    # and the reverse: what this commit frames is, key for key, the
    # message a parent-version front decodes (same version, same shape)
    assert set(ours) == set(parent_reply)
    assert set(ours["result"]) == set(parent_reply["result"])
    assert ours["result"]["version"] == 1


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
