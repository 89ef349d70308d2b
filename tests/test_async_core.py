"""The async multiplexed service core: frame-codec fuzzing, request-id
multiplexing on one TCP connection, per-request and server-side deadline
semantics, cross-broker coalescing at the shard, id-less peer interop,
the asyncio HTTP front end, and contextvar span propagation into
tasks."""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lane_latch import LatchedShardServer, until, until_async

from repro.platform import generators
from repro.problems import (
    BroadcastSpec,
    DagSpec,
    MasterSlaveSpec,
    ScatterSpec,
)
from repro.service import (
    AsyncServiceServer,
    AsyncShardServer,
    AsyncTcpTransport,
    Broker,
    ShardedBroker,
    ShardTimeoutError,
    SolveRequest,
    TransportError,
    TransportTimeout,
    encode_frame,
    read_frame_async,
    request_to_dict,
)
from repro.service.transport import MAX_FRAME_BYTES
from repro.service.wire import result_from_wire


def _ms_request():
    return SolveRequest(MasterSlaveSpec(
        platform=generators.paper_figure1(), master="P1"))


def _distinct_requests(n):
    """``n`` requests with distinct fingerprints (star sizes vary)."""
    out = [_ms_request()]
    size = 3
    while len(out) < n:
        out.append(SolveRequest(MasterSlaveSpec(
            platform=generators.star(size, master_w=2), master="M")))
        size += 1
    return out[:n]


def _shard_request(server, message, timeout=30.0):
    """One request over a channel of its own, on a loop of its own."""
    async def go():
        transport = AsyncTcpTransport(server.host, server.port)
        try:
            return await transport.request(message, timeout=timeout)
        finally:
            await transport.close()
    return asyncio.run(go())


def _solve_msg(request):
    return {"op": "solve", "fp": request.fingerprint(),
            "request": request_to_dict(request)}


def _reference(requests):
    with Broker() as broker:
        return [broker.solve(r) for r in requests]


def _read_async(payload: bytes):
    """Run the decoder against raw bytes via a fed StreamReader."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        return await read_frame_async(reader)
    return asyncio.run(go())


_JSON_SCALARS = st.one_of(st.none(), st.booleans(),
                          st.integers(-2**31, 2**31),
                          st.text(max_size=12))
_MESSAGES = st.dictionaries(
    st.text(min_size=1, max_size=8), _JSON_SCALARS, max_size=6)


# ----------------------------------------------------------------------
# frame codec fuzz: frames round-trip, and garbage is typed
# ----------------------------------------------------------------------
class TestFrameCodecFuzz:
    @given(message=_MESSAGES)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, message):
        assert _read_async(encode_frame(message)) == message

    @given(message=_MESSAGES, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_frame_is_typed_not_a_hang(self, message, data):
        payload = encode_frame(message)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(TransportError):
            _read_async(payload[:cut])

    @given(excess=st.integers(1, 2**31 - 1 - MAX_FRAME_BYTES))
    @settings(max_examples=20, deadline=None)
    def test_oversized_length_rejected_before_reading_body(self, excess):
        header = struct.pack(">I", MAX_FRAME_BYTES + excess)
        with pytest.raises(TransportError, match="limit"):
            _read_async(header)

    @given(blob=st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_bytes_are_typed(self, blob):
        try:
            decoded = json.loads(blob)
        except ValueError:
            decoded = None
        if isinstance(decoded, dict):
            return  # accidentally valid — covered by the roundtrip test
        payload = struct.pack(">I", len(blob)) + blob
        with pytest.raises(TransportError):
            _read_async(payload)

    @given(value=st.one_of(st.integers(), st.text(max_size=8),
                           st.lists(st.integers(), max_size=4)))
    @settings(max_examples=30, deadline=None)
    def test_non_object_json_rejected(self, value):
        blob = json.dumps(value).encode("utf-8")
        payload = struct.pack(">I", len(blob)) + blob
        with pytest.raises(TransportError, match="expected an"):
            _read_async(payload)

    def test_interleaved_ids_demultiplex_out_of_order(self):
        """A server answering ids in reverse order still pairs every
        reply with its request — the future-per-id map, in isolation."""
        async def go():
            parked = []

            async def backwards(reader, writer):
                # park all requests, then answer newest-first
                while True:
                    try:
                        msg = await read_frame_async(reader)
                    except TransportError:
                        return
                    parked.append(msg)
                    if len(parked) == 5:
                        for m in reversed(parked):
                            writer.write(encode_frame(
                                {"ok": True, "echo": m["tag"],
                                 "id": m["id"]}))
                        await writer.drain()

            server = await asyncio.start_server(backwards, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = AsyncTcpTransport("127.0.0.1", port)
            replies = await asyncio.gather(
                *(transport.request({"op": "echo", "tag": i}, timeout=5)
                  for i in range(5)))
            await transport.close()
            server.close()
            await server.wait_closed()
            return replies

        replies = asyncio.run(go())
        assert [r["echo"] for r in replies] == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# the acceptance test: >= 8 in flight on ONE connection, one deadline
# expiry cancels only its own id
# ----------------------------------------------------------------------
class TestMultiplexedConnection:
    def test_eight_in_flight_one_deadline_expiry_spares_the_rest(
            self, lane_latch):
        requests = _distinct_requests(8)
        reference = _reference(requests)

        async def go():
            # the engine lane is held, so every lane op queues
            server = LatchedShardServer(lane_latch)
            await server.start()
            transport = AsyncTcpTransport(server.host, server.port)

            def in_flight(count):
                """A probe: the shard's snapshot once ``count`` ops are
                in flight, the snapshot asking included."""
                async def probe():
                    snap = (await transport.request(
                        {"op": "snapshot"}, timeout=5))["snapshot"]
                    if snap["async"]["inflight"] == count:
                        return snap
                return probe

            try:
                blocker = asyncio.ensure_future(transport.request(
                    {"op": "clear"}, timeout=30))
                solves = [asyncio.ensure_future(
                    transport.request(_solve_msg(r), timeout=60))
                    for r in requests]
                # the doomed request: client gives up at 0.25s, server
                # cancels its queued job at 0.5s — both deadlines fire
                # while the lane is still held
                doomed = asyncio.ensure_future(transport.request(
                    {"op": "clear", "deadline": 0.5}, timeout=0.25))

                # all of it is in flight on this one connection NOW:
                # blocker + 8 solves + doomed + the snapshot itself
                snap = await until_async(in_flight(11))
                inflight = snap["async"]["inflight"]

                # a saturated shard still answers pings on the loop
                assert await transport.ping(timeout=1.0)

                with pytest.raises(TransportTimeout) as excinfo:
                    await doomed
                # the shard answered the doomed op at its own deadline
                await until_async(in_flight(10))
                lane_latch.release()
                # ... and only that id died: every other request on the
                # same connection completes, results exact
                replies = await asyncio.gather(*solves)
                assert (await blocker)["ok"]
                return inflight, str(excinfo.value), replies, snap
            finally:
                await transport.close()

        inflight, timeout_text, replies, snap = asyncio.run(go())
        # blocker + 8 solves + doomed (+ the snapshot op itself)
        assert inflight >= 9
        assert snap["async"]["max_inflight"] >= 9
        assert "other in-flight requests unaffected" in timeout_text
        assert snap["metrics"]["gauges"]["mux_inflight_max"] >= 9
        for reply, req, ref in zip(replies, requests, reference):
            assert reply["ok"]
            result = result_from_wire(reply["result"], req.spec)
            assert isinstance(result.throughput, Fraction)
            assert result.throughput == ref.throughput

    def test_sync_peer_without_ids_served_strictly_in_order(self):
        """A plain blocking-socket peer pipelines id-less frames and
        relies on in-order replies."""
        requests = _distinct_requests(3)
        reference = _reference(requests)
        server = AsyncShardServer().start_in_thread()
        try:
            with socket.create_connection((server.host, server.port),
                                          timeout=60) as sock:
                stream = sock.makefile("rb")

                def read_reply():
                    (length,) = struct.unpack(">I", stream.read(4))
                    return json.loads(stream.read(length))

                sock.sendall(encode_frame({"op": "ping"}))
                assert read_reply() == {"ok": True, "pong": True}
                # all three go out before the first reply is read
                sock.sendall(b"".join(encode_frame(_solve_msg(r))
                                      for r in requests))
                replies = [read_reply() for _ in requests]
            for reply, req, ref in zip(replies, requests, reference):
                assert reply["ok"]
                result = result_from_wire(reply["result"], req.spec)
                assert result.fingerprint == req.fingerprint()
                assert result.throughput == ref.throughput
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# deadline semantics through the sharded broker
# ----------------------------------------------------------------------
class TestServerSideDeadlines:
    def test_saturated_executor_answers_timeout_with_shard_id(
            self, lane_latch):
        request = _ms_request()
        reference = _reference([request])[0]
        # the engine lane is saturated from the start
        server = LatchedShardServer(lane_latch).start_in_thread()
        broker = ShardedBroker(shards=0,
                               shard_addresses=[f"{server.host}:"
                                                f"{server.port}"],
                               request_timeout=0.4)
        try:
            assert lane_latch.held.wait(10)

            started = time.perf_counter()
            with pytest.raises(ShardTimeoutError) as excinfo:
                broker.solve(request)
            elapsed = time.perf_counter() - started
            # answered by the server at ~0.4s, not by a client-side
            # guess at 0.4 + grace
            assert elapsed < 1.0
            assert excinfo.value.shard == 0
            assert excinfo.value.server_reported

            lane_latch.release()
            # the shard was never ejected and the connection never
            # poisoned: the same broker solves the same request fine
            result = broker.solve(request)
            assert result.throughput == reference.throughput
            health = broker.snapshot()["shard_health"]
            assert health["shard_timeouts"] >= 1
            assert all(s["active"] for s in health["shards"])
        finally:
            broker.close()
            server.shutdown()


# ----------------------------------------------------------------------
# cross-broker coalescing at the shard
# ----------------------------------------------------------------------
class TestCrossBrokerCoalescing:
    def test_two_brokers_one_hot_shard_single_engine_solve(
            self, lane_latch):
        request = _ms_request()
        reference = _reference([request])[0]
        # the engine lane is held, so both brokers' requests are
        # provably concurrent at the shard
        server = LatchedShardServer(lane_latch).start_in_thread()
        address = f"{server.host}:{server.port}"
        b1 = ShardedBroker(shards=0, shard_addresses=[address])
        b2 = ShardedBroker(shards=0, shard_addresses=[address])
        try:
            assert lane_latch.held.wait(10)
            results = [None, None]

            def run(i, broker):
                results[i] = broker.solve(request)

            t1 = threading.Thread(target=run, args=(0, b1))
            t2 = threading.Thread(target=run, args=(1, b2))
            t1.start(); t2.start()
            # the second broker's request has met the first's in flight
            until(lambda: _shard_request(
                server, {"op": "snapshot"},
                timeout=5)["snapshot"]["async"]["shard_coalesced"] == 1)
            lane_latch.release()
            t1.join(30); t2.join(30)

            # exactly ONE engine solve; the other broker coalesced, and
            # is counted as a request all the same
            snap = _shard_request(server, {"op": "snapshot"},
                                  timeout=5)["snapshot"]
            endpoints = snap["metrics"]["endpoints"]
            assert endpoints["solve.cold"]["count"] == 1
            assert endpoints["solve"]["count"] == 2
            assert snap["async"]["shard_coalesced"] == 1
            assert endpoints["coalesce.remote"]["count"] == 1

            # both brokers got Fraction-identical results
            for result in results:
                assert result is not None
                assert isinstance(result.throughput, Fraction)
                assert result.throughput == reference.throughput

            # the broker-side rollup surfaces the shard counter
            assert b1.snapshot()["shard_coalesced"] == 1
        finally:
            b1.close()
            b2.close()
            server.shutdown()


# ----------------------------------------------------------------------
# the ring end to end: ShardedBroker awaits the multiplexed wire
# ----------------------------------------------------------------------
class TestAsyncTransportSharded:
    def test_results_exactly_match_unsharded_broker(self):
        from repro.core.dag import TaskGraph

        requests = [
            _ms_request(),
            SolveRequest(ScatterSpec(
                platform=generators.paper_figure2_multicast(), source="P0",
                targets=("P5", "P6"))),
            SolveRequest(BroadcastSpec(
                platform=generators.chain(4), source="N0")),
            SolveRequest(DagSpec(
                platform=generators.paper_figure1(), master="P1",
                dag=TaskGraph.chain([1, 2], [1]))),
        ]
        reference = _reference(requests)
        server = AsyncShardServer().start_in_thread()
        broker = ShardedBroker(shards=0,
                               shard_addresses=[f"{server.host}:"
                                                f"{server.port}"])
        try:
            out = broker.solve_batch(requests)
            for got, ref in zip(out, reference):
                assert got.fingerprint == ref.fingerprint
                assert got.throughput == ref.throughput
            snap = broker.snapshot()
            assert "shard_coalesced" in snap
            (shard_stats,) = snap["per_shard"]
            # one engine lane: nothing to count but the queue around it
            assert set(shard_stats["async"]) == {
                "inflight", "max_inflight", "queue_depth", "shard_coalesced"}
        finally:
            broker.close()
            server.shutdown()

    def test_the_sync_transport_cannot_be_asked_for(self):
        with pytest.raises(ValueError, match="async_transport=False"):
            ShardedBroker(shards=2, async_transport=False)


# ----------------------------------------------------------------------
# the asyncio HTTP front end
# ----------------------------------------------------------------------
class TestAsyncHttp:
    def _exchange(self, sock, request_bytes):
        sock.sendall(request_bytes)
        data = b""
        while b"\r\n\r\n" not in data:
            data += sock.recv(65536)
        head, _, rest = data.partition(b"\r\n\r\n")
        headers = dict(
            line.split(": ", 1)
            for line in head.decode().split("\r\n")[1:] if ": " in line)
        length = int(headers.get("Content-Length", "0"))
        while len(rest) < length:
            rest += sock.recv(65536)
        status = int(head.split(b" ", 2)[1])
        return status, headers, rest[:length]

    def test_keep_alive_connection_serves_many_requests(self):
        request = _ms_request()
        reference = _reference([request])[0]
        broker = Broker()
        server = AsyncServiceServer(broker=broker).start_in_thread()
        sock = socket.create_connection(("127.0.0.1", server.port), 5)
        try:
            status, headers, body = self._exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert status == 200
            assert headers["Connection"] == "keep-alive"
            assert json.loads(body)["ok"]

            # a POST solve on the SAME socket
            payload = json.dumps(
                {"op": "solve",
                 "request": request_to_dict(request)}).encode()
            status, _, body = self._exchange(
                sock, b"POST /api HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload)
            assert status == 200
            from repro.platform.serialization import encode_weight
            assert (json.loads(body)["throughput"]
                    == encode_weight(reference.throughput))

            # gauges made it into the metrics snapshot
            status, _, body = self._exchange(
                sock, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            gauges = json.loads(body)["metrics"]["gauges"]
            assert gauges["http_inflight_max"] >= 1

            # Connection: close is honoured
            status, headers, body = self._exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                      b"Connection: close\r\n\r\n")
            assert headers["Connection"] == "close"
            assert sock.recv(1) == b""  # server closed its end
        finally:
            sock.close()
            server.shutdown()
            broker.close()

    def test_every_op_is_awaited_on_the_loop(self, monkeypatch):
        # every envelope and every GET is dispatched by awaiting on the
        # HTTP loop: the blocking drivers are never called, and only the
        # parse and decode of an oversized body leave the loop
        from repro.service import api

        blocking, decoded_on = [], []
        for name in ("route_post", "handle_request"):
            monkeypatch.setattr(
                api, name, lambda *args, _name=name: blocking.append(_name))
        real_decode = api._decode_post

        def decode(*args):
            decoded_on.append(threading.current_thread().name)
            return real_decode(*args)

        monkeypatch.setattr(api, "_decode_post", decode)
        request = _ms_request()
        wire = request_to_dict(request)
        broker = Broker()
        with pytest.raises(TypeError):  # no HTTP pool to size
            AsyncServiceServer(broker=broker, http_workers=1)
        server = AsyncServiceServer(broker=broker).start_in_thread()
        sock = socket.create_connection(("127.0.0.1", server.port), 5)

        def post(envelope, path="/api"):
            payload = (envelope if isinstance(envelope, bytes)
                       else json.dumps(envelope).encode())
            status, _, body = self._exchange(
                sock, f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
            return status, json.loads(body)

        def get(path):
            status, _, body = self._exchange(
                sock, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            return status, json.loads(body)

        try:
            status, cold = post({"op": "solve", "request": wire})
            assert status == 200 and not cold["cached"]
            status, hit = post(wire)  # a bare request is a solve
            assert status == 200 and hit["cached"]
            assert hit["solution"] == cold["solution"]
            status, batch = post({"op": "batch", "requests": [
                wire, {"spec": {"problem": "nope"}, "platform": {}}, wire]})
            assert status == 200
            assert [r["ok"] for r in batch["results"]] == [True, False, True]
            assert batch["results"][1]["status"] in (400, 422)
            assert cold["trace_id"] != hit["trace_id"]
            status, inline = post({"op": "solve", "request": wire,
                                   "trace": True})
            assert inline["trace"]["trace_id"] == inline["trace_id"]
            names = {sp["name"] for sp in inline["trace"]["spans"]}
            assert {"request.solve", "engine.run"} <= names
            # error statuses are the dispatcher's
            assert post(b"{not json")[0] == 400
            assert post({"op": "solve", "request": {
                "spec": {"problem": "nope"}, "platform": wire["platform"]
            }})[0] == 422
            assert post(wire, path="/elsewhere")[0] == 404
            assert post({"op": "ping"}) == (200, {"ok": True, "pong": True})
            assert get("/cache")[1]["cache"] == broker.snapshot()["cache"]
            assert get("/metrics")[0] == 200
            assert set(decoded_on) == {"repro-AsyncServiceServer"}

            padded = {"op": "solve", "request": wire,
                      "pad": "x" * api.LOOP_BODY_BYTES}
            status, big = post(padded)
            assert status == 200 and big["cached"]
            assert decoded_on[-1] != "repro-AsyncServiceServer"
            status, big = post({**padded, "op": "batch",
                                "requests": [wire, {"spec": {}}]})
            assert status == 200
            assert decoded_on[-1] != "repro-AsyncServiceServer"
            assert [r.get("cached") for r in big["results"]] == [True, None]
            assert big["results"][1]["status"] in (400, 422)
            status, traced = get(f"/trace/{hit['trace_id']}")
            assert status == 200
            assert traced["trace"]["name"] == "request.solve"
            assert post({"op": "invalidate",
                         "platform": wire["platform"]}) == (
                200, {"ok": True, "invalidated": 1})
            assert blocking == []
            assert not any(t.name.startswith("repro-http")
                           for t in threading.enumerate())
        finally:
            sock.close()
            server.shutdown()
            broker.close()

    def test_nothing_the_front_serves_leaves_its_loop(self, monkeypatch):
        """``serve``'s wiring: the ring runs on the HTTP loop, and 96
        concurrent non-solve ops, GET and POST, are answered there —
        no crossing onto that loop from another thread, no
        ``repro-http`` thread — and ``GET /cache`` is the ring
        snapshot's ``cache`` section."""
        crossings = []
        real = asyncio.run_coroutine_threadsafe

        def recorded(coro, loop):
            crossings.append(coro.__qualname__)
            return real(coro, loop)

        wire = request_to_dict(_ms_request())
        ops = [("GET", path, b"") for path in (
            "/metrics", "/cache", "/traces", "/events", "/problems")]
        ops += [("POST", "/api", json.dumps(envelope).encode()) for envelope
                in ({"op": "ping"},
                    {"op": "invalidate", "platform": wire["platform"]})]

        async def fetch(port, method, path, body=b""):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {len(body)}\r\n"
                         f"Connection: close\r\n\r\n".encode() + body)
            head = await reader.readuntil(b"\r\n\r\n")
            reply = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(head.split(b" ", 2)[1]), json.loads(reply)

        async def main():
            ring = await ShardedBroker.on_running_loop(shards=1)
            server = AsyncServiceServer(broker=ring)
            await server.start()
            try:
                solved = await fetch(server.port, "POST", "/api", json.dumps(
                    {"op": "solve", "request": wire}).encode())
                assert solved[0] == 200
                monkeypatch.setattr(asyncio, "run_coroutine_threadsafe",
                                    recorded)
                replies = await asyncio.gather(*(
                    fetch(server.port, *ops[i % len(ops)])
                    for i in range(96)))
                cache = (await fetch(server.port, "GET", "/cache"))[1]
                assert crossings == []
                assert [status for status, _ in replies] == [200] * 96
                assert not any(t.name.startswith("repro-http")
                               for t in threading.enumerate())
                snapshot = await asyncio.to_thread(ring.snapshot)
                assert cache["cache"] == snapshot["cache"]
            finally:
                server._server.close()
                await server._server.wait_closed()
                await ring.aclose()

        asyncio.run(asyncio.wait_for(main(), 60))

    def test_unknown_method_and_path(self):
        broker = Broker()
        server = AsyncServiceServer(broker=broker).start_in_thread()
        sock = socket.create_connection(("127.0.0.1", server.port), 5)
        try:
            status, _, body = self._exchange(
                sock, b"PUT /api HTTP/1.1\r\nHost: x\r\n\r\n")
            assert status == 405
            status, _, body = self._exchange(
                sock, b"GET /no-such HTTP/1.1\r\nHost: x\r\n\r\n")
            assert status == 404
        finally:
            sock.close()
            server.shutdown()
            broker.close()

    @pytest.mark.parametrize("announced, status", [
        (b"-5", 400), (b"five", 400), (b"99999999999", 413)])
    def test_bad_content_length_is_refused_without_reading(
            self, announced, status, capfd):
        broker = Broker()
        server = AsyncServiceServer(broker=broker).start_in_thread()
        try:
            with socket.create_connection(("127.0.0.1", server.port),
                                          5) as sock:
                got, headers, body = self._exchange(
                    sock, b"POST /api HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + announced + b"\r\n\r\n")
                assert got == status
                assert json.loads(body)["status"] == status
                assert headers["Connection"] == "close"
                assert sock.recv(1) == b""  # and the server hung up
            # no traceback from the connection task, and the next
            # connection is served normally
            with socket.create_connection(("127.0.0.1", server.port),
                                          5) as sock:
                got, _, _ = self._exchange(
                    sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert got == 200
        finally:
            server.shutdown()
            broker.close()
        assert capfd.readouterr().err == ""

    def test_malformed_head_drops_connection(self):
        broker = Broker()
        server = AsyncServiceServer(broker=broker).start_in_thread()
        sock = socket.create_connection(("127.0.0.1", server.port), 5)
        try:
            sock.sendall(b"NONSENSE\r\n\r\n")
            assert sock.recv(1) == b""
        finally:
            sock.close()
            server.shutdown()
            broker.close()


# ----------------------------------------------------------------------
# contextvars: span context follows tasks, not just threads
# ----------------------------------------------------------------------
class TestContextvarPropagation:
    def test_span_context_flows_into_asyncio_tasks(self):
        from repro.service.tracing import current_span, span, start_trace

        async def go():
            with start_trace("async-root") as trace:
                async def child():
                    # the task inherited the contextvar snapshot: the
                    # active trace is visible without explicit plumbing
                    assert current_span().trace is trace
                    with span("task-child"):
                        await asyncio.sleep(0)
                    return True

                assert await asyncio.create_task(child())
            return trace

        trace = asyncio.run(go())
        names = {sp["name"] for sp in trace.span_wire()}
        assert "task-child" in names

    def test_thread_isolation_still_holds(self):
        from repro.service.tracing import current_span, start_trace

        seen = {}

        def other_thread():
            seen["span"] = current_span()

        with start_trace("main-thread"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        # a fresh thread gets a fresh context: no leaked span
        assert seen["span"] is None
