"""What the HTTP front keeps of a request is bytes.

A body-memo entry (``cache.KeptRequest``) holds a request's
fingerprint, its ``include_schedule`` flag, its topology digest, its
canonical compact wire bytes and its problem's name — no
``SolveRequest``, ``ProblemSpec``, ``Platform`` or wire dict.  A memo
hit rebuilds the request from them (``SolveRequest.from_kept``) and
reaches the ring without a decode: the shard frame splices the kept
bytes, and the spec is decoded only where a solve reads it.  Every road
still gives the same bytes: a memo hit's reply is a fresh decode's, and
a spliced frame is the JSON message the fully encoded one was.
"""

from __future__ import annotations

import asyncio
import json
import re
import struct
from pathlib import Path

import pytest

import repro.service.api as api_mod
import repro.service.broker as broker_mod
from repro.platform.graph import Platform
from repro.platform.serialization import platform_to_dict
from repro.problems import ProblemSpec
from repro.service import AsyncServiceServer, Broker
from repro.service.api import request_from_dict, request_to_dict
from repro.service.broker import SolveRequest
from repro.service.cache import KeptRequest
from repro.service.fingerprint import request_fingerprint
from repro.service.sharding import ShardedBroker
from repro.service.transport import encode_frame
from repro.service.wire import compact_json

from test_kept_bytes import _reached

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "parent_payloads.json").read_text())
PROBLEMS = sorted(FIXTURE)
#: what a memo entry may never reach
DECODED = (Platform, ProblemSpec, SolveRequest)


def _body(problem, spaces=0):
    """A ``solve`` body for ``problem``, respelled by ``spaces``."""
    return b"{" + b" " * spaces + json.dumps(
        {"op": "solve", "request": FIXTURE[problem]["request"]}
    ).encode()[1:]


def _loop_post(server, body):
    """The raw reply bytes of a ``POST /api``, by the loop road."""
    status, _type, blob = asyncio.run_coroutine_threadsafe(
        server._post("/api", body), server._loop).result(60)
    assert status == 200, blob
    return blob


def _latencyless(blob):
    return re.sub(rb'"latency_seconds":[-+.0-9eE]+', b"", blob)


@pytest.fixture(scope="module")
def ring():
    with ShardedBroker(shards=1) as broker:
        yield broker


def _server(broker, **options):
    return AsyncServiceServer(broker=broker, **options).start_in_thread()


# ----------------------------------------------------------------------
# retention
# ----------------------------------------------------------------------
def test_the_memo_keeps_no_request_object():
    """Every admission — each problem, in three spellings — and the
    memo hits after it leave the memo holding no decoded request."""
    with Broker() as broker:
        server = _server(broker)
        try:
            for problem in PROBLEMS:
                for spaces in range(3):
                    for _sighting in range(3):  # fresh, admitted, a hit
                        _loop_post(server, _body(problem, spaces))
        finally:
            server.shutdown()
    memo = server.memo
    assert memo.snapshot()["entries"] == 3 * len(PROBLEMS)
    # a respelling's first sighting is a cached answer already: admitted
    assert memo.hits == (1 + 2 + 2) * len(PROBLEMS)
    reached = _reached(memo)
    assert not [obj for obj in reached if isinstance(obj, DECODED)]
    # nor the wire dict of one: a kept request is its bytes
    assert not [obj for obj in reached if isinstance(obj, dict)
                and ("spec" in obj or "platform" in obj)]


def test_a_kept_request_is_the_request():
    """Rebuilt from what the memo keeps, a request has the original's
    fingerprint, flag, problem, digest and bytes without decoding, and
    decodes its spec on first read into an equal one."""
    for problem in PROBLEMS:
        request = request_from_dict(FIXTURE[problem]["request"])
        kept = KeptRequest(request)
        rebuilt = SolveRequest.from_kept(kept)
        assert "spec" not in rebuilt.__dict__
        assert rebuilt.fingerprint() == FIXTURE[problem]["fingerprint"]
        assert (rebuilt.problem, rebuilt.include_schedule) == \
            (problem, request.include_schedule)
        assert rebuilt.topology() == request.topology()
        assert rebuilt.wire_json() is request.wire_json()
        assert "spec" not in rebuilt.__dict__
        spec = rebuilt.spec  # decoded here
        assert spec.canonical_wire() == request.spec.canonical_wire()
        assert platform_to_dict(spec.platform) == \
            platform_to_dict(request.platform)
        assert request_fingerprint(spec) == rebuilt.fingerprint()
        assert request_to_dict(rebuilt) == request_to_dict(request)


# ----------------------------------------------------------------------
# the same bytes by every road
# ----------------------------------------------------------------------
def test_a_memo_hit_reply_is_a_fresh_decodes_reply(ring):
    """On ``serve``'s layers: the reply to a memo hit equals the reply
    to the same body decoded afresh, byte for byte but for its
    ``latency_seconds``."""
    ring.clear()  # whichever test ran first, the first post solves
    server = _server(ring, tracing=False)
    try:
        for problem in PROBLEMS:
            body = _body(problem)
            _loop_post(server, body)  # solved: not admitted
            hits = server.memo.hits
            fresh = _loop_post(server, body)  # decoded, cached: admitted
            assert server.memo.hits == hits
            for _sighting in range(3):  # memo hits, from shard or near
                assert _latencyless(_loop_post(server, body)) == \
                    _latencyless(fresh)
            assert server.memo.hits == hits + 3
            assert json.loads(fresh)["cached"] is True
    finally:
        server.shutdown()


def test_a_memo_hit_reaches_the_ring_without_a_decode(ring, monkeypatch):
    """Traced, near-cached or not: a memo hit decodes no request and no
    spec on the front, where a fresh body decodes both."""
    for problem in PROBLEMS:  # every answer is on the shard already
        ring.solve(request_from_dict(FIXTURE[problem]["request"]))
    decodes = []

    def counted(name, real):
        def decode(*args, **kwargs):
            decodes.append(name)
            return real(*args, **kwargs)
        return decode

    monkeypatch.setattr(api_mod, "request_from_dict", counted(
        "request", api_mod.request_from_dict))
    monkeypatch.setattr(broker_mod, "spec_from_wire", counted(
        "spec", broker_mod.spec_from_wire))
    server = _server(ring)
    try:
        for problem in PROBLEMS:
            body = _body(problem, spaces=1)
            _loop_post(server, body)  # decoded, cached: admitted
            assert decodes == ["request"]
            for _sighting in range(3):
                assert json.loads(_loop_post(server, body))["cached"]
            assert decodes == ["request"]
            decodes.clear()
        assert server.memo.hits == 3 * len(PROBLEMS)
    finally:
        server.shutdown()


def test_a_spliced_frame_is_the_encoded_frame():
    """A ``solve`` frame that splices a request's kept bytes decodes to
    the message a frame encoding the request's wire dict carried."""
    for problem in PROBLEMS:
        request = request_from_dict(FIXTURE[problem]["request"])
        wire = {"spec": request.spec.to_wire(),
                "platform": platform_to_dict(request.platform),
                "include_schedule": request.include_schedule}
        head = {"op": "solve", "fp": request.fingerprint()}
        encoded = compact_json({**head, "request": wire, "id": 7,
                                "trace": True})
        kept = SolveRequest.from_kept(KeptRequest(request))
        for sent in (request, kept):
            frame = encode_frame({**head, "request": sent.wire_json(),
                                  "id": 7, "trace": True})
            assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
            assert json.loads(frame[4:]) == json.loads(encoded)
        assert "spec" not in kept.__dict__
