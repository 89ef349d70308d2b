"""The HTTP loop's body memo is exactly the full road.

``AsyncServiceServer`` keeps the exact bytes of a ``solve`` body whose
answer came back cached, mapped to the envelope its full decode
produced (``cache.BodyMemo``); the next sighting of those bytes skips the
JSON parse, the request decode and the fingerprint.  Keyed on raw
bytes, a memo hit is exactly the decode it replaces: every respelling
of a request is decoded on its own, and a body that is not admitted
(malformed, or answered fresh) runs every check on every sighting.

The full road here is ``route_post`` (the blocking driver of the same
dispatcher, which never consults the memo), on the same in-process
broker.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import json
import random
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AsyncServiceServer, Broker
from repro.service.api import request_from_dict, route_post
from repro.service.cache import BODY_MEMO_BYTES, BODY_MEMO_ENTRIES, BodyMemo

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "parent_payloads.json").read_text())
PROBLEMS = sorted(FIXTURE)
SCHEDULED = sorted(p for p in PROBLEMS
                   if FIXTURE[p]["request"].get("include_schedule"))


def _envelope(problem):
    return {"op": "solve", "request": copy.deepcopy(FIXTURE[problem]
                                                     ["request"])}


def _body(envelope):
    return json.dumps(envelope).encode()


@pytest.fixture(scope="module")
def front():
    """A loop-road server over an in-process broker, every problem of
    the fixture solved once (so every later answer is ``cached``)."""
    broker = Broker()
    server = AsyncServiceServer(broker=broker).start_in_thread()
    for problem in PROBLEMS:
        assert route_post(broker, "/api", _body(_envelope(problem)))[0] == 200
    yield server
    server.shutdown()
    broker.close()


def _loop_post(server, body):
    """``(status, reply)`` by the loop road (``AsyncServiceServer._post``,
    which a ``POST /api`` runs), driven on the server's own loop."""
    status, _type, blob = asyncio.run_coroutine_threadsafe(
        server._post("/api", body), server._loop).result(60)
    return status, json.loads(blob)


def _full_post(server, body):
    status, _type, blob = route_post(server.broker, "/api", body)
    return status, json.loads(blob)


def _timeless(reply):
    reply = dict(reply)
    reply.pop("latency_seconds", None)
    reply.pop("trace_id", None)
    return reply


def _respell(value, rnd):
    """The same JSON value with every object's keys in a random order."""
    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        return {key: _respell(value[key], rnd) for key in keys}
    if isinstance(value, list):
        return [_respell(item, rnd) for item in value]
    return value


_SEPARATORS = [(",", ":"), (", ", ": "), (" ,", " : "), (",\n", ":\t")]


@given(problem=st.sampled_from(PROBLEMS), seed=st.integers(0, 2 ** 16),
       separators=st.sampled_from(_SEPARATORS),
       indent=st.sampled_from([None, 0, 2]),
       lookalike=st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_memo_road_is_the_full_road(front, problem, seed, separators,
                                        indent, lookalike):
    canonical = _body(_envelope(problem))
    envelope = _respell(_envelope(problem), random.Random(seed))
    if lookalike and problem in SCHEDULED:
        # equal to ``true`` in Python, and no JSON boolean: a 422
        envelope["request"]["include_schedule"] = 1
    spelled = json.dumps(envelope, separators=separators,
                         indent=indent).encode()
    expected = {}
    for body in (canonical, spelled):
        status, full = _full_post(front, body)
        expected[body] = (status, _timeless(full))
        for _sighting in range(2):
            entries, hits = front.memo.snapshot()["entries"], front.memo.hits
            got, reply = _loop_post(front, body)
            assert (got, _timeless(reply)) == expected[body]
        if status == 200:
            assert reply["fingerprint"] == FIXTURE[problem]["fingerprint"]
            assert reply["cached"]
            assert front.memo.hits == hits + 1  # admitted, then a hit
        else:  # refused on every sighting, and never admitted
            assert front.memo.snapshot()["entries"] == entries
            assert front.memo.hits == hits
    if spelled != canonical and expected[spelled][0] == 200:
        assert expected[spelled] == expected[canonical]


@pytest.mark.parametrize("body,status", [
    (b'{"op": "solve", "request": ', 400),
    (b"[1]", 400),
    (json.dumps({"op": "solve", "request": {
        **FIXTURE["master-slave"]["request"],
        "include_schedule": "false"}}).encode(), 422),
    (json.dumps({"op": "solve", "request": {
        **FIXTURE["master-slave"]["request"],
        "spec": {"problem": "no-such-problem"}}}).encode(), 422),
    (json.dumps({"op": "solve", "request": {
        **FIXTURE["master-slave"]["request"],
        "spec": {**FIXTURE["master-slave"]["request"]["spec"],
                 "master": "nobody"}}}).encode(), 422),
], ids=["truncated", "not-an-object", "string-flag", "unknown-problem",
        "unknown-node"])
def test_a_malformed_body_is_refused_on_every_sighting(front, body, status):
    before = front.memo.snapshot()
    for _sighting in range(3):
        got, reply = _loop_post(front, body)
        assert got == status and reply["status"] == status
        assert not reply["ok"]
    after = front.memo.snapshot()
    assert (after["entries"], after["bytes"], after["hits"]) == \
        (before["entries"], before["bytes"], before["hits"])
    assert body not in front.memo._entries


def test_a_flood_of_distinct_bodies_stays_within_the_bound():
    """10,000 respellings of one cached request: each is admitted, and
    the memo never holds more than its bound."""
    canonical = _body(_envelope("master-slave"))
    spaces = [bytes(ws) for ws in itertools.product(b" \n\t\r", repeat=7)]
    bodies = [b"{" + ws + canonical[1:] for ws in spaces[:10_000]]
    with Broker() as broker:
        server = AsyncServiceServer(broker=broker).start_in_thread()
        try:
            assert route_post(broker, "/api", canonical)[0] == 200

            async def flood():
                sizes = []
                for body in bodies:
                    status, _type, _blob = await server._post("/api", body)
                    assert status == 200
                    snap = server.memo.snapshot()
                    sizes.append((snap["entries"], snap["bytes"]))
                return sizes

            sizes = asyncio.run_coroutine_threadsafe(
                flood(), server._loop).result(300)
        finally:
            server.shutdown()
    memo = server.memo
    assert max(n for n, _ in sizes) == BODY_MEMO_ENTRIES  # it did fill
    assert all(n <= BODY_MEMO_ENTRIES and b <= BODY_MEMO_BYTES
               for n, b in sizes)
    assert memo.snapshot()["bytes"] == _kept_bytes(memo)
    assert memo.misses == len(bodies) and memo.hits == 0


def test_a_memo_hit_after_invalidate_re_solves():
    """The memo holds requests, not answers: an invalidation needs no
    memo flush, and the next memo hit is solved afresh."""
    body = _body(_envelope("master-slave"))
    with Broker() as broker:
        server = AsyncServiceServer(broker=broker).start_in_thread()
        try:
            cached = [_loop_post(server, body)[1]["cached"]
                      for _ in range(3)]
            assert cached == [False, True, True]
            assert server.memo.hits == 1  # the third sighting
            invalidate = json.dumps({
                "op": "invalidate",
                "platform": FIXTURE["master-slave"]["request"]["platform"],
            }).encode()
            assert json.loads(route_post(broker, "/api", invalidate)[2]) \
                == {"ok": True, "invalidated": 1}
            again = [_loop_post(server, body)[1] for _ in range(2)]
            assert server.memo.hits == 3
            assert [reply["cached"] for reply in again] == [False, True]
            assert again[0]["solution"] == again[1]["solution"]
        finally:
            server.shutdown()


def _request(problem="master-slave"):
    return request_from_dict(FIXTURE[problem]["request"])


def _kept_bytes(memo):
    """What the memo's entries keep: each body, and its request's
    fingerprint, topology digest and wire bytes."""
    return sum(len(body) + len(kept.fingerprint) + len(kept.topology)
               + len(kept.request_json)
               for body, kept in memo._entries.items())


def test_the_memo_evicts_the_least_recently_used_body():
    memo = BodyMemo()
    request = _request()
    bodies = [b"%d" % i for i in range(BODY_MEMO_ENTRIES)]
    for body in bodies:
        memo.put(body, request)
    assert memo.get(bodies[0]).fingerprint == request.fingerprint()
    memo.put(b"one more", request)  # one entry too many: bodies[1] goes
    assert list(memo._entries) == bodies[2:] + [bodies[0], b"one more"]
    assert memo.snapshot() == {
        "entries": BODY_MEMO_ENTRIES, "max_entries": BODY_MEMO_ENTRIES,
        "bytes": _kept_bytes(memo), "max_bytes": BODY_MEMO_BYTES,
        "hits": 1, "misses": 0}


def test_the_memo_bound_counts_what_an_entry_keeps():
    """The byte bound counts each body and what its entry keeps of the
    request: entries of 5 KiB bodies fill it before the entry bound,
    and fewer of them fit than the bodies alone would allow."""
    memo = BodyMemo()
    request = _request()
    kept = len(request.fingerprint()) + len(request.topology()) \
        + len(request.wire_json())
    bodies = [b"%05d" % i + b" " * 5115 for i in range(BODY_MEMO_ENTRIES)]
    for body in bodies:
        memo.put(body, request)
    fit = BODY_MEMO_BYTES // (5120 + kept)
    assert fit < BODY_MEMO_BYTES // 5120 < BODY_MEMO_ENTRIES
    assert list(memo._entries) == bodies[-fit:]
    assert memo.bytes == fit * (5120 + kept) == _kept_bytes(memo) \
        <= BODY_MEMO_BYTES


def test_get_metrics_reports_the_memo_json_and_prometheus():
    """The server adds its memo to ``GET /metrics`` itself, next to the
    near-cache."""
    body = _body(_envelope("master-slave"))
    with Broker() as broker:
        server = AsyncServiceServer(broker=broker).start_in_thread()
        try:
            for _ in range(3):  # fresh, cached (admitted), memo hit
                _loop_post(server, body)
            url = f"http://{server.host}:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=30) as reply:
                memo = json.load(reply)["replication"]["body_memo"]
            with urllib.request.urlopen(url + "?format=prometheus",
                                        timeout=30) as reply:
                text = reply.read().decode()
        finally:
            server.shutdown()
    kept = _kept_bytes(server.memo)
    assert kept > len(body)
    assert memo == {"entries": 1, "max_entries": BODY_MEMO_ENTRIES,
                    "bytes": kept, "max_bytes": BODY_MEMO_BYTES,
                    "hits": 1, "misses": 2}
    samples = dict(line.split() for line in text.splitlines()
                   if line.startswith("repro_body_memo_"))
    assert {name: float(value) for name, value in samples.items()} == {
        "repro_body_memo_hits_total": 1.0,
        "repro_body_memo_misses_total": 2.0,
        "repro_body_memo_entries": 1.0,
        "repro_body_memo_bytes": float(kept)}
