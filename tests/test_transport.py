"""Shard transport tests: framing, wire codec, the multiplexed client over
a local worker's socketpair and over TCP, the shard server."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import socket
import struct
from fractions import Fraction

import pytest

from repro.core.dag import TaskGraph
from repro.platform import generators
from repro.problems import (
    AllToAllSpec,
    BroadcastSpec,
    DagSpec,
    GatherSpec,
    MasterSlaveSpec,
    MulticastSpec,
    MultiportSpec,
    ReduceSpec,
    ScatterSpec,
    SendOrReceiveSpec,
)
from repro.service import (
    AsyncShardServer,
    AsyncTcpTransport,
    Broker,
    SolveRequest,
    TransportError,
    TransportTimeout,
    encode_frame,
    parse_shard_address,
    read_frame_async,
    result_from_wire,
    result_to_wire,
)
from repro.service.api import _request_wire
from repro.service.transport import spawn_local_shard
from repro.service.wire import WireCodecError, solution_to_wire


def _mixed_requests():
    """One request per solution *kind* (plus a schedule round-trip)."""
    fig1 = generators.paper_figure1()
    fig2 = generators.paper_figure2_multicast()
    star_bi = generators.star(3, bidirectional=True)
    return [
        SolveRequest(MasterSlaveSpec(
            platform=fig1, master="P1"), include_schedule=True),
        SolveRequest(ScatterSpec(
            platform=fig2, source="P0", targets=("P5", "P6"))),
        SolveRequest(GatherSpec(
            platform=star_bi, sink="M", sources=("W1", "W2", "W3"))),
        SolveRequest(AllToAllSpec(
            platform=star_bi, participants=("M", "W1", "W2"))),
        SolveRequest(BroadcastSpec(platform=generators.chain(4), source="N0")),
        SolveRequest(ReduceSpec(platform=star_bi, root="M")),
        SolveRequest(MulticastSpec(
            platform=fig2, source="P0", targets=("P5", "P6"))),
        SolveRequest(DagSpec(
            platform=fig1, master="P1", dag=TaskGraph.chain([1, 2], [1]))),
        SolveRequest(MultiportSpec(platform=fig1, master="P1", ports=2)),
        SolveRequest(SendOrReceiveSpec(platform=fig1, master="P1")),
    ]


# ----------------------------------------------------------------------
# the exact result wire codec
# ----------------------------------------------------------------------
class TestResultWireCodec:
    def test_every_solution_kind_roundtrips_exactly(self):
        with Broker() as broker:
            for request in _mixed_requests():
                result = broker.solve(request)
                wire = json.loads(json.dumps(result_to_wire(result)))
                back = result_from_wire(wire, request.spec)
                assert back.fingerprint == result.fingerprint
                assert back.throughput == result.throughput  # Fraction
                assert type(back.solution) is type(result.solution)
                if result.schedule is not None:
                    assert (back.schedule.throughput
                            == result.schedule.throughput)

    def test_flags_survive(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        with Broker() as broker:
            broker.solve(req)
            hit = broker.solve(req)
            back = result_from_wire(result_to_wire(hit))
            assert back.cached and not back.warm

    def test_packing_is_exact(self):
        req = SolveRequest(BroadcastSpec(
            platform=generators.paper_figure1(), source="P1"))
        with Broker() as broker:
            result = broker.solve(req)
        back = result_from_wire(
            json.loads(json.dumps(result_to_wire(result))), req.spec
        )
        assert back.solution.packing == result.solution.packing
        assert back.solution.lp_bound == result.solution.lp_bound

    def test_unknown_solution_type_fails_at_encode_time(self):
        with pytest.raises(WireCodecError, match="no wire encoding"):
            solution_to_wire(object())

    def test_newer_wire_version_fails_loudly(self):
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.star(2), master="M"))
        with Broker() as broker:
            wire = result_to_wire(broker.solve(req))
        wire["version"] = 99
        with pytest.raises(WireCodecError, match="newer"):
            result_from_wire(wire)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _read_frame_from(sock: socket.socket):
    """Decode one frame from a connected socket with the one decoder."""
    async def go():
        reader, writer = await asyncio.open_connection(sock=sock)
        try:
            return await read_frame_async(reader)
        finally:
            writer.close()
    return asyncio.run(go())


class TestFraming:
    def test_roundtrip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "solve", "payload": ["ünïcode", 1, None]}
            a.sendall(encode_frame(message))
            assert _read_frame_from(b) == message
        finally:
            a.close()

    def test_garbage_peer_is_a_transport_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff garbage")
            with pytest.raises(TransportError, match="frame"):
                _read_frame_from(b)
        finally:
            a.close()

    def test_closed_peer_is_a_transport_error(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(TransportError, match="closed"):
            _read_frame_from(b)

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            blob = json.dumps([1, 2, 3]).encode()
            a.sendall(len(blob).to_bytes(4, "big") + blob)
            with pytest.raises(TransportError, match="object"):
                _read_frame_from(b)
        finally:
            a.close()


class TestAddressParsing:
    def test_accepts_bare_and_scheme_forms(self):
        assert parse_shard_address("example.org:8590") == ("example.org",
                                                           8590)
        assert parse_shard_address("tcp://10.0.0.7:1234") == ("10.0.0.7",
                                                              1234)

    @pytest.mark.parametrize("bad", ["nope", ":8590", "host:", "host:0",
                                     "host:notaport", "host:70000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_shard_address(bad)


# ----------------------------------------------------------------------
# a local worker process behind its socketpair
# ----------------------------------------------------------------------
class TestPipeTransport:
    def _spawn(self):
        return spawn_local_shard(multiprocessing.get_context(), 64)

    def test_solve_roundtrip_and_ping(self):
        process, transport = self._spawn()
        req = SolveRequest(MasterSlaveSpec(
            platform=generators.paper_figure1(), master="P1"))

        async def go():
            try:
                assert await transport.ping(timeout=10.0)
                return await transport.request({
                    "op": "solve", "fp": req.fingerprint(),
                    "request": _request_wire(req),
                })
            finally:
                await transport.close()

        reply = asyncio.run(go())
        assert reply["ok"]
        assert result_from_wire(reply["result"],
                                req.spec).throughput == Fraction(2)
        # the socket is the worker's whole life: EOF is its order to exit
        process.join(timeout=5.0)
        assert not process.is_alive()

    def test_worker_death_is_a_transport_error(self):
        process, transport = self._spawn()

        async def go():
            assert await transport.ping(timeout=10.0)
            process.kill()
            process.join(timeout=5.0)
            with pytest.raises(TransportError):
                await transport.request({"op": "ping"})
            # nothing to redial behind a socketpair: it stays broken
            with pytest.raises(TransportError, match="hung up"):
                await transport.request({"op": "ping"})
            assert transport.closed
            await transport.close()

        asyncio.run(go())

    def test_worker_binds_no_port(self):
        # spawn, not fork: the worker then holds what it opened itself,
        # not copies of whatever this test process has open
        process, transport = spawn_local_shard(
            multiprocessing.get_context("spawn"), 64)

        async def go():
            try:
                assert await transport.ping(timeout=30.0)
                listening = set()
                for table in ("tcp", "tcp6"):
                    with open(f"/proc/{process.pid}/net/{table}") as handle:
                        listening |= {f"socket:[{line.split()[9]}]"
                                      for line in handle.readlines()[1:]
                                      if line.split()[3] == "0A"}  # LISTEN
                fds = f"/proc/{process.pid}/fd"
                held = {os.readlink(f"{fds}/{fd}") for fd in os.listdir(fds)}
                assert not listening & held
            finally:
                await transport.close()

        asyncio.run(go())
        process.join(timeout=5.0)


# ----------------------------------------------------------------------
# the client over TCP + the shard server
# ----------------------------------------------------------------------
@pytest.fixture()
def shard_server():
    server = AsyncShardServer(("127.0.0.1", 0)).start_in_thread()
    yield server
    server.shutdown()


def _with_transports(body, *ports, connect_timeout=5.0):
    """Run ``body(*transports)`` — one :class:`AsyncTcpTransport` per
    port — on a loop of its own, closing every transport after it."""
    async def go():
        transports = [AsyncTcpTransport("127.0.0.1", port,
                                        connect_timeout=connect_timeout)
                      for port in ports]
        try:
            return await body(*transports)
        finally:
            for transport in transports:
                await transport.close()
    return asyncio.run(go())


class TestTcpTransport:
    def test_solve_is_exact_and_cache_stays_hot(self, shard_server):
        async def body(transport):
            req = SolveRequest(MasterSlaveSpec(
                platform=generators.paper_figure1(), master="P1"))
            msg = {"op": "solve", "fp": req.fingerprint(),
                   "request": _request_wire(req)}
            cold = result_from_wire((await transport.request(msg))["result"],
                                    req.spec)
            warm = result_from_wire((await transport.request(msg))["result"],
                                    req.spec)
            assert cold.throughput == Fraction(2) and not cold.cached
            assert warm.cached  # the server's engine persists across calls

        _with_transports(body, shard_server.port)

    def test_ping_and_unknown_op(self, shard_server):
        async def body(transport):
            assert await transport.ping(timeout=5.0)
            reply = await transport.request({"op": "quantum"})
            assert not reply["ok"] and reply["type"] == "SpecError"

        _with_transports(body, shard_server.port)

    def test_timeout_abandons_only_its_own_request(self, shard_server,
                                                   lane_latch):
        lane_latch.hold(shard_server)
        assert lane_latch.held.wait(10)

        async def body(transport):
            with pytest.raises(TransportTimeout):
                # queued behind the held lane: no reply in time
                await transport.request({"op": "clear"}, timeout=0.2)
            # the late reply is dropped by id, so the connection is not
            # poisoned: it stays open and keeps serving
            assert not transport.closed
            assert await transport.ping(timeout=10.0)

        _with_transports(body, shard_server.port)

    @pytest.mark.parametrize("tagged", [True, False], ids=["id", "no-id"])
    @pytest.mark.parametrize("deadline, served", [
        ('"soon"', False), ("[1]", False), ('{"a":1}', False),
        ("true", False), ("NaN", False), ("-Infinity", False),
        ("1" + "0" * 400, False),  # an int no float holds
        ("null", True), ("5", True), ("0.5", True),
    ], ids=["text", "list", "object", "bool", "nan", "-inf", "huge",
            "null", "int", "float"])
    def test_a_deadline_is_a_finite_number_or_null(
            self, shard_server, deadline, served, tagged):
        """Anything else is refused with a typed reply, and a ping
        pipelined behind it on the same connection is still answered."""
        blob = ('{"op":"clear","deadline":' + deadline
                + (',"id":7}' if tagged else "}")).encode()

        async def go():
            reader, writer = await asyncio.open_connection(
                shard_server.host, shard_server.port)
            try:
                writer.write(struct.pack(">I", len(blob)) + blob
                             + encode_frame({"op": "ping"}))
                return [await asyncio.wait_for(read_frame_async(reader), 5)
                        for _ in range(2)]
            finally:
                writer.close()

        replies = asyncio.run(go())
        assert {"ok": True, "pong": True} in replies
        (reply,) = [r for r in replies if "pong" not in r]
        assert reply.get("id") == (7 if tagged else None)
        if served:
            assert reply["ok"] and reply["cleared"] == 0
        else:
            assert not reply["ok"] and reply["type"] == "SpecError"
            assert "'deadline'" in reply["error"]

    def test_redials_after_the_server_returns(self):
        first = AsyncShardServer(("127.0.0.1", 0)).start_in_thread()
        port = first.port

        async def body(transport):
            assert await transport.ping(timeout=5.0)
            # shutdown() joins the server's thread: off this loop
            await asyncio.to_thread(first.shutdown)
            assert not await transport.ping(timeout=1.0)
            assert transport.closed
            # lazy reconnect: the next request dials again — this is what
            # lets an ejected remote shard rejoin without a new handle
            second = await asyncio.to_thread(
                AsyncShardServer(("127.0.0.1", port)).start_in_thread)
            try:
                assert await transport.ping(timeout=10.0)
            finally:
                await asyncio.to_thread(second.shutdown)

        _with_transports(body, port)

    def test_unreachable_host_is_a_transport_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here any more

        async def body(transport):
            with pytest.raises(TransportError, match="connect"):
                await transport.request({"op": "ping"})

        _with_transports(body, port, connect_timeout=0.5)

    def test_two_clients_share_one_engine(self, shard_server):
        async def body(first, second):
            req = SolveRequest(MasterSlaveSpec(
                platform=generators.star(3), master="M"))
            msg = {"op": "solve", "fp": req.fingerprint(),
                   "request": _request_wire(req)}
            cold = result_from_wire((await first.request(msg))["result"],
                                    req.spec)
            hit = result_from_wire((await second.request(msg))["result"],
                                   req.spec)
            assert not cold.cached and hit.cached  # one shared cache
            assert cold.throughput == hit.throughput

        _with_transports(body, shard_server.port, shard_server.port)

    def test_stop_op_only_drops_the_connection(self, shard_server):
        async def body(transport, probe):
            reply = await transport.request({"op": "stop"})
            assert reply["ok"]
            await transport.close()
            # the server survives a client's stop: the operator owns
            # its life
            assert await probe.ping(timeout=5.0)

        _with_transports(body, shard_server.port, shard_server.port)


# ----------------------------------------------------------------------
# hits answered on the shard's loop: same books, same order
# ----------------------------------------------------------------------
def _solve_msg(req, **extra):
    return {"op": "solve", "fp": req.fingerprint(),
            "request": _request_wire(req), **extra}


def _ms_request(workers=3, include_schedule=False):
    return SolveRequest(MasterSlaveSpec(
        platform=generators.star(workers),
        master="M"), include_schedule=include_schedule)


class TestLoopServedHit:
    @pytest.fixture()
    def counted(self, shard_server, monkeypatch):
        """The server plus a log of every solve that took the executor."""
        jobs = []
        real = shard_server._solve_job

        def logged(fp, request_wire, trace):
            jobs.append(fp)
            return real(fp, request_wire, trace)

        monkeypatch.setattr(shard_server, "_solve_job", logged)
        return shard_server, jobs

    def test_n_hits_are_n_hits_and_a_miss_is_one_miss(self, counted):
        server, jobs = counted
        engine = server.engine
        req = _ms_request()
        fp = req.fingerprint()

        async def body(transport):
            cold = await transport.request(_solve_msg(req))
            assert not cold["result"]["cached"]
            stats = engine.cache.stats
            assert (stats.hits, stats.misses) == (0, 1)  # one miss, not two
            for _ in range(5):
                reply = await transport.request(_solve_msg(req))
                assert reply["result"]["cached"]
                assert "gen" not in reply  # a reply is the answer, no more
            assert (stats.hits, stats.misses) == (5, 1)
            assert engine.metrics.endpoint("solve.hit").count == 5
            assert engine.metrics.endpoint("solve").count == 6
            assert engine.cache.peek(fp).hits == 5

        _with_transports(body, server.port)
        assert jobs == [fp]  # only the miss left the loop

    def test_a_hit_decodes_nothing_and_keeps_the_memo(self, counted):
        server, jobs = counted
        req = _ms_request()

        async def body(transport):
            first = await transport.request(_solve_msg(req))
            entry = server.engine.cache.peek(req.fingerprint())
            memo = entry.solution_json  # encoded once, by the miss
            assert memo is not None
            # the shard trusts the peer's fp (it never recomputed it): a
            # hit does not look at the request beyond include_schedule
            hit = await transport.request(
                {"op": "solve", "fp": req.fingerprint(),
                 "request": {"spec": "not even a spec"}})
            assert hit["result"]["cached"]
            assert hit["result"]["solution"] == first["result"]["solution"]
            assert entry.solution_json is memo
            # ... and a request it cannot even index still gets the
            # decode error, from the executor path
            bad = await transport.request(
                {"op": "solve", "fp": req.fingerprint(), "request": [1]})
            assert not bad["ok"]

        _with_transports(body, server.port)
        assert len(jobs) == 2

    @pytest.mark.parametrize("op", ["invalidate", "clear"])
    def test_nothing_is_served_from_an_entry_once_its_removal_is_acked(
            self, counted, op):
        server, jobs = counted
        req = _ms_request()
        drop = {"op": "clear"} if op == "clear" else {
            "op": "invalidate", "platform": _request_wire(req)["platform"]}

        async def body(transport):
            for _ in range(3):
                assert not (await transport.request(
                    _solve_msg(req)))["result"]["cached"]
                assert (await transport.request(
                    _solve_msg(req)))["result"]["cached"]
                assert (await transport.request(dict(drop)))["ok"]

        _with_transports(body, server.port)
        assert len(jobs) == 3  # each round's first read re-solved

    def test_a_missing_schedule_takes_the_executor_once(self, counted):
        server, jobs = counted
        plain = _ms_request()
        scheduled = _ms_request(include_schedule=True)
        assert plain.fingerprint() == scheduled.fingerprint()

        async def body(transport):
            cold = await transport.request(_solve_msg(plain))
            assert "schedule" not in cold["result"]
            first = await transport.request(_solve_msg(scheduled))
            assert first["result"]["cached"]  # solution cached, schedule new
            assert len(jobs) == 2
            for _ in range(3):
                again = await transport.request(_solve_msg(scheduled))
                assert again["result"]["schedule"] == \
                    first["result"]["schedule"]
                bare = await transport.request(_solve_msg(plain))
                assert bare["result"]["cached"]
                assert "schedule" not in bare["result"]
            assert len(jobs) == 2  # every later read was a loop hit
            stats = server.engine.cache.stats
            assert (stats.hits, stats.misses) == (7, 1)

        _with_transports(body, server.port)

    def test_a_traced_hit_ships_the_same_span_tree(self, counted):
        server, jobs = counted
        req = _ms_request()

        async def body(transport):
            await transport.request(_solve_msg(req))
            reply = await transport.request(_solve_msg(req, trace=True))
            spans = reply["trace"]["spans"]
            root = [s for s in spans if s["parent"] is None]
            assert [s["name"] for s in root] == ["shard.solve"]
            (run,) = [s for s in spans if s["name"] == "engine.run"]
            assert run["parent"] == root[0]["id"]
            assert run["annotations"] == {"cached": True, "warm": False}
            assert run["duration_seconds"] >= 0
            untraced = await transport.request(_solve_msg(req))
            assert "trace" not in untraced

        _with_transports(body, server.port)
        assert len(jobs) == 1

    def test_a_hit_is_answered_while_every_worker_sleeps(self, counted,
                                                         lane_latch):
        server, jobs = counted
        assert server._executor._max_workers == 1  # one engine lane
        req = _ms_request()

        async def body(transport):
            await transport.request(_solve_msg(req))
            lane_latch.hold(server)
            # the latch holds the lane, and a lane op queues behind it
            queued = asyncio.ensure_future(transport.request({"op": "clear"}))
            assert await asyncio.to_thread(lane_latch.held.wait, 10)
            hit = await transport.request(_solve_msg(req), timeout=0.5)
            assert hit["result"]["cached"]
            assert not queued.done()
            lane_latch.release()
            assert (await queued)["ok"]

        _with_transports(body, server.port)
