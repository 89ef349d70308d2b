"""Shard transport layer: one framed-JSON protocol, one asyncio stack.

A shard is a :class:`~repro.service.broker.SolveEngine` somewhere else —
in a local worker process, or on another host.  This module owns
everything "somewhere else" implies, so :mod:`repro.service.sharding`
treats every shard identically:

* **the message schema** — JSON-safe request dicts (``op`` +
  spec-wire-codec payloads) and JSON-safe replies (results via the
  exact codec of :mod:`repro.service.wire`, so no pickle ever crosses a
  process or host boundary), framed on a socket as a 4-byte length
  prefix + UTF-8 JSON (:func:`encode_frame` / :func:`read_frame_async`);
* **the op handler** — :func:`handle_shard_message` runs ``solve`` /
  ``invalidate`` / ``clear`` against an engine; the other three of the
  protocol's six ops, ``ping`` / ``stop`` / ``snapshot``, belong to the
  connection.  A batch is N ``solve`` frames in flight on one
  connection, not an op of its own;
* **the client** — :class:`AsyncTcpTransport`, an asyncio client that
  multiplexes many in-flight requests over one connection (dialled to
  ``host:port``, or adopted from a socketpair).  It has no sync twin:
  the :class:`~repro.service.sharding.ShardedBroker` ring is a set of
  coroutines on one event loop of its own, and awaits
  :meth:`AsyncTcpTransport.request` directly;
* **the server** — :class:`AsyncShardServer`, one event loop hosting
  one engine.  Run as ``python -m repro shard-serve --port N`` it
  listens, so a broker on another host can place it on its hash ring
  via ``--shard host:port``; started by :func:`spawn_local_shard` it is
  a child process serving exactly one inherited socketpair end — the
  same server, reachable only by its parent.

**Multiplexing.**  Frames may carry a client-chosen ``id`` field, which
the server echoes on the reply:

* a message **with** ``id`` may be answered out of order — the client
  pairs replies to requests by id (a future per id, one background read
  loop demultiplexing replies), so many requests are in flight on one
  connection at once;
* a message **without** ``id`` is answered strictly in the order
  received.  Our own client always tags its frames; this branch serves
  peers outside the program that pipeline plain frames.

The server executes ops on one engine thread (the simplex is
CPU-bound and exact — it stays off the loop), answers pings and cache
hits on the loop itself so a busy shard never looks dead to a health
probe and a cached read never queues behind a solve, enforces a
server-side per-op deadline with a prompt ``ShardTimeoutError`` reply
instead of letting clients guess, and keys in-flight solves by
fingerprint so brokers sharing a hot shard coalesce onto one engine run.

**A hit is a lookup and a copy.**  A ``solve`` is looked up by its
``fp`` before ``msg["request"]`` is touched (:func:`hit_reply`); the
request is decoded only on a miss, or to reconstruct a schedule.  That
weakens nothing: the shard has always trusted the peer's ``fp`` —
``engine.run(request, msg["fp"])`` never recomputed it.  The result
travels as the bytes its cache entry memoises, spliced into the frame
(:func:`reply_json`) — still the JSON message any peer decodes.

**Failure semantics.**  A dead peer raises :class:`TransportError` and
an expired per-request timeout raises :class:`TransportTimeout`.  A
timeout abandons *only its own id* (the read loop drops the late reply)
and the connection keeps serving every other in-flight request; only a
broken channel fails all of them.  The next request on a dialled
transport redials — which is what lets an ejected remote shard rejoin
once its host returns; an adopted socketpair has nothing to redial, and
stays broken until the sharding layer replaces worker and transport
together.  The sharding layer reacts by restarting local workers or
ejecting remote shards from the ring; the transport's only job is to
fail loudly and atomically.

The shape follows the ``comm/`` layer of Dask ``distributed``: one
message-oriented channel, every peer a client of it, and explicit
closed-channel errors.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..platform.serialization import platform_from_dict
from .broker import BrokerError, SolveEngine, schedule_flag
from .cache import SolutionCache
from .tracing import start_trace
from .wire import compact_json, encode_result


class TransportError(RuntimeError):
    """The peer died or the channel broke; the transport is closed."""


class TransportTimeout(TransportError):
    """No reply within the per-request timeout; only that request is
    abandoned (its late reply is dropped by id)."""


# ----------------------------------------------------------------------
# framing: 4-byte big-endian length prefix + UTF-8 JSON
# ----------------------------------------------------------------------
#: Upper bound on one frame; a platform corpus entry is a few KB, so
#: anything near this is a protocol error, not a big request.
MAX_FRAME_BYTES = 64 * 1024 * 1024
_HEADER = struct.Struct(">I")


def reply_json(reply: Dict[str, Any]) -> bytes:
    """Compact JSON of a shard reply.  A solve reply's ``"result"`` is
    bytes already: it is spliced in beside the rest (``"ok"``, ...),
    not encoded again."""
    result = reply.get("result")
    if not isinstance(result, bytes):
        return compact_json(reply)
    rest = compact_json({k: v for k, v in reply.items() if k != "result"})
    return b'{"result":' + result + b"," + rest[1:]


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as its wire bytes (length prefix + UTF-8 JSON)."""
    return _frame(compact_json(message))


def _frame(blob: bytes) -> bytes:
    if len(blob) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(blob)) + blob


def _check_frame_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES}); not a shard protocol peer?"
        )
    return length


def _decode_frame_body(blob: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(blob)
    except ValueError as exc:
        # JSONDecodeError, and UnicodeDecodeError for non-UTF-8 bytes —
        # both mean "not a protocol peer", never an unhandled escape
        raise TransportError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise TransportError(
            f"frame decodes to {type(message).__name__}, expected an "
            f"object"
        )
    return message


async def read_frame_async(reader: "asyncio.StreamReader") -> Dict[str, Any]:
    """Read one length-prefixed JSON message from a ``StreamReader``.

    A peer that hangs up mid-frame, announces an absurd length or ships
    undecodable bytes raises :class:`TransportError` — never a hang,
    never a silent partial read.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        _check_frame_length(length)
        blob = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError("connection closed mid-frame") from exc
    except (ConnectionError, OSError) as exc:
        raise TransportError(f"connection broke mid-frame: {exc}") from exc
    return _decode_frame_body(blob)


def parse_shard_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` or ``"tcp://host:port"`` → ``(host, port)``."""
    text = address.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"shard address {address!r} must look like host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"shard address {address!r} has a non-numeric "
                         f"port") from None
    if not 0 < port < 65536:
        raise ValueError(f"shard address {address!r} port out of range")
    return host, port


# ----------------------------------------------------------------------
# the shard op handler — what an engine does with one message
# ----------------------------------------------------------------------
def hit_reply(engine: SolveEngine, fp: str, request_wire: Any,
              trace: bool) -> Optional[Dict[str, Any]]:
    """The reply to a ``solve`` the cache answers as it stands, else
    ``None`` with nothing counted (:meth:`SolveEngine.run_hit`).  The
    request is not decoded — only its ``include_schedule`` flag is read —
    so an event loop may call this: a lookup and a copy."""
    try:
        wants_schedule = schedule_flag(request_wire)
    except BrokerError:
        return None  # the full handler reports what is wrong with it
    return _solved(engine, trace,
                   lambda: engine.run_hit(fp, wants_schedule))


def _solved(engine: SolveEngine, trace: Any, run) -> Optional[Dict[str, Any]]:
    """``run()``'s result (or ``None``) as an ok reply."""
    if trace:
        # the caller is tracing: record this shard's own span tree
        # around the solve and ship it on the reply, to be grafted into
        # the caller's trace.  Old peers without this field behave
        # exactly as before — the protocol needs no version bump.
        with start_trace("shard.solve") as tr:
            result = run()
    else:
        tr, result = None, run()
    if result is None:
        return None
    # the entry the result came from (or was just stored under) holds
    # the memoised bytes; once evicted or invalidated there is none
    entry = engine.cache.peek(result.fingerprint)
    reply = {"ok": True, "result": encode_result(result, entry)}
    if tr is not None:
        reply["trace"] = {"trace_id": tr.trace_id, "spans": tr.span_wire()}
    return reply


def handle_shard_message(engine: SolveEngine,
                         msg: Dict[str, Any]) -> Dict[str, Any]:
    """Run one ``solve`` / ``invalidate`` / ``clear`` message against
    an engine.

    Always returns a reply dict that is JSON-safe but for a solve's
    ``"result"``, which is its JSON bytes already (:func:`reply_json`);
    failures are reported as
    ``{"ok": False, "error": ..., "type": ...}`` replies carrying the
    original exception class, never by raising (a shard must survive
    any request).  ``ping``, ``stop`` and ``snapshot`` belong to the
    connection, not the engine: :class:`AsyncShardServer` answers those
    itself, and echoes ``id``.  Any other op is refused as unknown.
    """
    from .api import request_from_dict  # deferred: avoid import cycle

    op = msg.get("op")
    try:
        if op == "solve":
            request = request_from_dict(msg["request"])
            return _solved(engine, msg.get("trace"),
                           lambda: engine.run(request, msg["fp"]))
        if op == "invalidate":
            platform = platform_from_dict(msg["platform"])
            return {"ok": True,
                    "removed": engine.invalidate_platform(platform)}
        if op == "clear":
            return {"ok": True, "cleared": engine.cache.clear()}
        return {"ok": False, "error": f"unknown shard op {op!r}",
                "type": "SpecError"}
    except Exception as exc:  # noqa: BLE001 — reply carries it
        return {"ok": False, "error": str(exc),
                "type": type(exc).__name__}


# ----------------------------------------------------------------------
# the multiplexed asyncio client
# ----------------------------------------------------------------------
def _no_delay(writer: "asyncio.StreamWriter") -> None:
    """Frames are small and latency-bound: never wait to coalesce them
    (a socketpair has no Nagle to switch off)."""
    sock = writer.get_extra_info("socket")
    if sock is not None and sock.family != socket.AF_UNIX:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class AsyncTcpTransport:
    """Multiplexing asyncio client for the shard protocol.

    One connection carries many in-flight requests: each request is
    tagged with a fresh ``id``, registered in a future-per-id dispatch
    map, and a single background read loop pairs every reply frame back
    to its waiter.  All state is loop-confined — every coroutine here
    runs on one event loop, so no locks guard ``_pending``.

    A per-request timeout abandons *only its own id* (the read loop
    drops the late reply if it ever lands) and the connection keeps
    serving every other in-flight request.  Only a broken channel (peer
    died, read loop failed) fails the map wholesale — and the next
    request redials, so an ejected remote shard rejoins the ring the
    moment its host is back: the health probe's next :meth:`ping`
    simply dials again.

    ``sock`` is an already-connected stream socket to use instead of
    dialling ``host:port`` — a local worker's end of a socketpair.
    There is nothing to redial behind it: once that channel breaks,
    every request raises :class:`TransportError` (the sharding layer
    replaces the worker, the socketpair and this transport together).
    """

    kind = "async"

    def __init__(self, host: Optional[str], port: Optional[int],
                 connect_timeout: float = 5.0,
                 sock: Optional[socket.socket] = None) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self._local = sock is not None
        self._sock = sock  # adopted by the first request
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}  # loop-confined
        self._ids = itertools.count(1)
        self._conn_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()

    @property
    def address(self) -> str:
        if self._local:
            return "local://socketpair"
        return f"tcp://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._writer is None

    async def _ensure_connected(self) -> None:
        async with self._conn_lock:
            if self._writer is not None:
                return
            try:
                if not self._local:
                    opening = asyncio.open_connection(self.host, self.port)
                elif self._sock is not None:
                    opening = asyncio.open_connection(sock=self._sock)
                    self._sock = None
                else:
                    raise OSError("the worker hung up")
                reader, writer = await asyncio.wait_for(
                    opening, self.connect_timeout)
            except (OSError, asyncio.TimeoutError) as exc:
                raise TransportError(
                    f"cannot connect to shard {self.address}: {exc}"
                ) from exc
            _no_delay(writer)
            self._reader, self._writer = reader, writer
            self._read_task = asyncio.ensure_future(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                reply = await read_frame_async(reader)
                fut = self._pending.pop(reply.pop("id", None), None)
                if fut is not None and not fut.done():
                    fut.set_result(reply)
                # else: a reply for an id whose deadline already expired
                # (or an id-less frame) — dropped by design
        except TransportError as exc:
            self._channel_broke(exc)
        except asyncio.CancelledError:
            self._channel_broke(TransportError(
                f"transport to shard {self.address} closed"))
            raise

    def _channel_broke(self, exc: TransportError) -> None:
        """Fail every in-flight request; the next request redials."""
        writer, self._writer = self._writer, None
        self._reader = None
        self._read_task = None
        if writer is not None:
            try:
                writer.close()
            except OSError:  # pragma: no cover
                pass
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(TransportError(str(exc)))

    async def request(self, message: Dict[str, Any],
                      timeout: Optional[float] = None) -> Dict[str, Any]:
        """Send one message; many callers may be awaiting concurrently."""
        await self._ensure_connected()
        rid = next(self._ids)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        frame = encode_frame({**message, "id": rid})
        try:
            async with self._write_lock:
                assert self._writer is not None
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionError, OSError, AssertionError) as exc:
            self._pending.pop(rid, None)
            if fut.done():
                # the read loop saw the break first and failed this
                # future; nobody awaits it, so take its exception here
                fut.exception()
            self._channel_broke(TransportError(
                f"shard {self.address} connection failed: {exc}"))
            raise TransportError(
                f"shard {self.address} connection failed: {exc}"
            ) from exc
        try:
            return await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError as exc:
            # abandon THIS id only: the channel stays open and every
            # other in-flight request keeps its future
            self._pending.pop(rid, None)
            raise TransportTimeout(
                f"shard {self.address} sent no reply to request {rid} "
                f"within {timeout}s (other in-flight requests unaffected)"
            ) from exc

    async def ping(self, timeout: float = 1.0) -> bool:
        """Health probe; never raises."""
        try:
            reply = await self.request({"op": "ping"}, timeout=timeout)
        except TransportError:
            return False
        return bool(reply.get("ok"))

    async def close(self) -> None:
        task = self._read_task
        self._channel_broke(TransportError(
            f"transport to shard {self.address} closed"))
        if self._sock is not None:  # never adopted: no writer owns it
            self._sock.close()
            self._sock = None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, TransportError):
                pass


# ----------------------------------------------------------------------
# the listener lifecycle both servers (shard and HTTP) share
# ----------------------------------------------------------------------
class LoopServer:
    """The listener lifecycle of an asyncio TCP server, shared by
    :class:`AsyncShardServer` and the HTTP front end.

    Bind on a loop the caller runs (:meth:`start`, then
    :meth:`serve_forever`), or on a dedicated daemon loop thread
    (:meth:`start_in_thread`, then :meth:`shutdown`).  Subclasses
    supply the per-connection coroutine ``_serve_connection``.
    """

    def __init__(self, address) -> None:
        self._requested_address = address
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        raise NotImplementedError

    async def start(self):
        """Bind the listener on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._requested_address[0],
            self._requested_address[1],
        )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def host(self) -> str:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    def start_in_thread(self):
        """Run the server on a dedicated daemon loop thread (tests,
        embedding); returns once the port is bound."""
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._shutdown_on_loop())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name=f"repro-{type(self).__name__}", daemon=True)
        self._thread.start()
        if not started.wait(timeout=10):  # pragma: no cover — bind hang
            raise RuntimeError(f"{type(self).__name__} failed to start")
        return self

    async def _shutdown_on_loop(self) -> None:
        assert self._server is not None
        self._server.close()
        # the loop is ours alone: whatever else runs on it is a handler
        # parked on a connection its client still holds open — cancel
        # those so their ``finally`` blocks run before the loop closes
        handlers = [task for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._server.wait_closed()

    def shutdown(self) -> None:
        """Stop a :meth:`start_in_thread` server (thread-safe)."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


# ----------------------------------------------------------------------
# the standalone shard server (python -m repro shard-serve)
# ----------------------------------------------------------------------
class AsyncShardServer(LoopServer):
    """A shard: one event loop from socket to engine.

    One :class:`SolveEngine` behind framed JSON.  Listening on TCP
    (:meth:`start`, ``shard-serve``) it is placed on a broker's hash
    ring via ``--shard host:port`` and any number of brokers may share
    it; serving one inherited socket (:meth:`serve_connected`) it is a
    broker's private local worker.  Every connection is a coroutine on
    one loop; engine work runs on one executor thread, the *engine
    lane*, because the exact simplex is CPU-bound — the loop itself
    only frames, routes, and answers:

    * **pings on the loop** — a health probe is answered immediately
      even while the engine lane is busy, so a *busy* shard never
      looks *dead* to a prober (which would eject a healthy shared
      shard);
    * **hits on the loop** — a ``solve`` the
      cache answers as it stands is served right there
      (:func:`hit_reply`): no decode, no executor hand-off — the cache
      and metrics registry carry their own locks.  Misses, schedule
      reconstruction, ``invalidate`` and ``clear`` take the lane;
    * **server-side deadlines** — an op carrying ``deadline`` (or the
      server-wide ``op_deadline`` default) that cannot finish in time is
      answered promptly with a ``ShardTimeoutError``-typed reply; the
      connection keeps serving its other in-flight ids, and an
      abandoned solve still completes on its thread and warms the cache;
    * **cross-broker coalescing** — in-flight solves are keyed by
      fingerprint and ``include_schedule``, so several brokers hammering
      one hot shard await the same engine run (counted in
      ``shard_coalesced``, traced as ``coalesce.remote`` spans on
      follower replies), and every reply has the shape its own request
      asked for;
    * **plain pipelining peers keep working** — frames without an
      ``id`` are answered strictly in order, one op at a time on their
      connection; only id-tagged frames are answered out of order.

    All mutable coordination state (the in-flight map, the counters) is
    loop-confined: it is only ever touched from the event loop.  The
    engine runs one executor job at a time, in arrival order, so misses
    and invalidations from all connections keep one strict order, and a
    job still queued when its deadline passes is cancelled before it
    touches the engine.  A loop-served hit is ordered against them by
    the cache's own lock: it may overtake an invalidation that has not
    been answered yet, never one that has.
    """

    def __init__(
        self,
        address=("127.0.0.1", 0),
        cache_size: int = 256,
        engine: Optional[SolveEngine] = None,
        op_deadline: Optional[float] = None,
    ) -> None:
        self.engine = engine if engine is not None else SolveEngine(
            cache=SolutionCache(max_size=cache_size))
        self.op_deadline = op_deadline
        super().__init__(address)
        self._executor = ThreadPoolExecutor(  # the engine lane
            max_workers=1, thread_name_prefix="repro-ashard")
        # ---- loop-confined state (event loop only, no locks) ----
        # (fp, include_schedule) -> the one engine run its twins await
        self._inflight_solves: Dict[Tuple, asyncio.Future] = {}
        self.shard_coalesced = 0
        self.inflight_ops = 0
        self.max_inflight = 0
        self.queue_depth = 0

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def shutdown(self) -> None:
        super().shutdown()
        self._executor.shutdown(wait=False)

    async def serve_connected(self, sock: socket.socket) -> None:
        """Serve one already-connected socket until its peer hangs up
        or says ``stop`` — no listener, no port: the shard is reachable
        only by whoever holds the other end."""
        self._loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection(sock=sock)
        await self._serve_connection(reader, writer)

    # ------------------------------------------------------------------
    # the per-connection coroutine
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        _no_delay(writer)
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    msg = await read_frame_async(reader)
                except TransportError:
                    return  # client went away / spoke garbage: drop it
                op = msg.get("op")
                if op == "stop":
                    # stopping a *server* is the operator's call (a
                    # signal / shutdown()), not any client's: acknowledge
                    # and drop only this connection
                    await self._send(writer, write_lock,
                                     self._echo(msg, {"ok": True,
                                                      "closing": True}))
                    return
                if op == "ping":
                    # answered on the loop: never queued behind solves,
                    # so a saturated shard still proves it is alive
                    await self._send(writer, write_lock,
                                     self._echo(msg, {"ok": True,
                                                      "pong": True}))
                    continue
                if "id" in msg:
                    task = asyncio.ensure_future(
                        self._serve_op(msg, writer, write_lock))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                else:
                    # id-less frame (a peer outside the program):
                    # replies strictly in order, one op at a time on
                    # this connection
                    await self._serve_op(msg, writer, write_lock)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()

    @staticmethod
    def _echo(msg: Dict[str, Any],
              reply: Dict[str, Any]) -> Dict[str, Any]:
        if "id" in msg:
            reply["id"] = msg["id"]
        return reply

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock,
                    reply: Dict[str, Any]) -> None:
        frame = _frame(reply_json(reply))
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; its loss

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------
    async def _serve_op(self, msg: Dict[str, Any],
                        writer: asyncio.StreamWriter,
                        write_lock: asyncio.Lock) -> None:
        self.inflight_ops += 1
        self.max_inflight = max(self.max_inflight, self.inflight_ops)
        self._publish_gauges()
        try:
            deadline = msg.get("deadline", self.op_deadline)
            if deadline is not None and not (
                    type(deadline) in (int, float)  # a bool is no number
                    and abs(deadline) <= sys.float_info.max):
                reply = {"ok": False, "type": "SpecError",
                         "error": f"'deadline' must be a finite number of "
                                  f"seconds or null, not {deadline!r}"}
            else:
                try:
                    reply = await self._dispatch(msg, deadline)
                except asyncio.TimeoutError:
                    reply = {
                        "ok": False,
                        "type": "ShardTimeoutError",
                        "error": (f"op {msg.get('op')!r} missed its "
                                  f"{deadline}s server-side deadline "
                                  f"(executor saturated or solve too slow)"),
                    }
        finally:
            self.inflight_ops -= 1
            self._publish_gauges()
        await self._send(writer, write_lock, self._echo(msg, reply))

    async def _dispatch(self, msg: Dict[str, Any],
                        deadline: Optional[float]) -> Dict[str, Any]:
        op = msg.get("op")
        if op == "solve":
            return await self._solve_one(
                msg.get("fp"), msg.get("request"), bool(msg.get("trace")),
                deadline)
        if op == "snapshot":
            # served on the loop: reads loop-confined counters plus the
            # engine's own (briefly) locked snapshot — fixed-size latency
            # histograms, nothing sorted — and it must not queue behind
            # a busy engine lane
            return {"ok": True, "snapshot": self._snapshot_with_async()}
        # invalidate / clear / unknown: the shared op handler, in the
        # engine lane
        assert self._loop is not None
        future = self._loop.run_in_executor(
            self._executor, handle_shard_message, self.engine, msg)
        return await asyncio.wait_for(future, deadline)

    async def _solve_one(self, fp: Any, request_wire: Any, trace: bool,
                         deadline: Optional[float]) -> Dict[str, Any]:
        if not isinstance(fp, str) or request_wire is None:
            return {"ok": False, "type": "SpecError",
                    "error": "solve op requires 'fp' and 'request'"}
        hit = hit_reply(self.engine, fp, request_wire, trace)
        if hit is not None:
            return hit  # a lookup and a copy, here on the loop
        # a twin asking otherwise for the schedule runs its own lane job
        # (by then a cache hit, or one plus a reconstruction); a flag
        # that does not decode keys as None, and the lane refuses it
        try:
            key = (fp, schedule_flag(request_wire))
        except BrokerError:
            key = (fp, None)
        shared = self._inflight_solves.get(key)
        if shared is None:
            # leader: start the engine run; the shared future is
            # resolved by the executor-future's done callback (on the
            # loop), never by a waiter — a waiter's deadline cancels
            # only its own wait
            assert self._loop is not None
            shared = self._loop.create_future()
            self._inflight_solves[key] = shared
            self.queue_depth += 1
            self._publish_gauges()
            job = self._loop.run_in_executor(
                self._executor, self._solve_job, fp, request_wire, trace)
            job.add_done_callback(
                lambda done, key=key, shared=shared:
                self._solve_finished(key, shared, done))
            follower = False
        else:
            follower = True
            self.shard_coalesced += 1
        started = time.perf_counter()
        reply = dict(await asyncio.wait_for(asyncio.shield(shared),
                                            deadline))
        if follower:
            waited = time.perf_counter() - started
            # a follower is a request like any other: one ``solve`` (an
            # error when the shared reply is one), and the wait itself
            # under the ``coalesce.remote`` sub-timer
            metrics = self.engine.metrics
            metrics.observe("solve", waited, error=not reply.get("ok"))
            metrics.observe("coalesce.remote", waited)
            leader_trace = reply.pop("trace", None)
            if trace:
                reply["trace"] = self._follower_trace(
                    fp, waited, leader_trace)
        return reply

    def _solve_finished(self, key: Tuple, shared: "asyncio.Future",
                        done: "asyncio.Future") -> None:
        # runs on the loop (run_in_executor future callback)
        self._inflight_solves.pop(key, None)
        self.queue_depth = max(0, self.queue_depth - 1)
        self._publish_gauges()
        if shared.done():  # pragma: no cover — defensive
            return
        exc = done.exception()
        if exc is not None:
            shared.set_result({"ok": False, "error": str(exc),
                               "type": type(exc).__name__})
        else:
            shared.set_result(done.result())

    def _solve_job(self, fp: str, request_wire: Any,
                   trace: bool) -> Dict[str, Any]:
        """Executor thread: the only place engine.run happens."""
        msg = {"op": "solve", "fp": fp, "request": request_wire}
        if trace:
            msg["trace"] = True
        return handle_shard_message(self.engine, msg)

    def _follower_trace(self, fp: str, waited: float,
                        leader_trace: Optional[Dict[str, Any]],
                        ) -> Dict[str, Any]:
        """A follower's span tree: one ``coalesce.remote`` span standing
        in for the engine run it never made."""
        from .tracing import Trace  # deferred: keep module import light
        tr = Trace("shard.solve")
        sp = tr.new_span("coalesce.remote", tr.root.span_id, start=0.0)
        sp.annotations.update({
            "fingerprint": fp[:12],
            "leader_trace": (leader_trace or {}).get("trace_id"),
        })
        sp.duration_seconds = waited
        tr.finish()
        return {"trace_id": tr.trace_id, "spans": tr.span_wire()}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _publish_gauges(self) -> None:
        metrics = self.engine.metrics
        metrics.set_gauge("mux_inflight", self.inflight_ops)
        metrics.set_gauge("mux_inflight_max", self.max_inflight)
        metrics.set_gauge("solve_queue_depth", self.queue_depth)

    def _snapshot_with_async(self) -> Dict[str, Any]:
        self._publish_gauges()
        snap = self.engine.snapshot()
        snap["async"] = {
            "inflight": self.inflight_ops,
            "max_inflight": self.max_inflight,
            "queue_depth": self.queue_depth,
            "shard_coalesced": self.shard_coalesced,
        }
        return snap


# ----------------------------------------------------------------------
# local shards: the same server in a child process, on a socketpair
# ----------------------------------------------------------------------
def _local_shard_main(sock: socket.socket, parent_end: socket.socket,
                      cache_size: int) -> None:
    """A local shard worker: one engine serving one inherited socket.

    The engine (cache + metrics + warm models) lives for the worker's
    whole life, and that life is the socket's: EOF — the parent closed
    its end, or died — is the order to exit.
    """
    # first thing: a forked child holds a copy of the parent's end, and
    # while any copy is open the parent's death is no EOF on ours
    parent_end.close()
    # a forked child also inherits the parent's signal plumbing — an
    # asyncio handler only wakes a loop this process does not run
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Ctrl-C reaches the whole process group; the parent stops us
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = AsyncShardServer(cache_size=cache_size)
    asyncio.run(server.serve_connected(sock))
    # nobody is left to answer: a solve still on an executor thread
    # must not keep the process alive behind a parent that is gone
    os._exit(0)


# A forked worker inherits every descriptor open in the parent,
# other shards' parent-side ends included, and a worker sees EOF only
# once *every* copy of its peer end is closed.  Creating the pair and
# forking under one lock means a worker can only hold ends older than
# itself, so after the parent dies the youngest worker always sees EOF,
# exits, and releases the next — no two workers keep each other alive.
_spawn_lock = threading.Lock()


def spawn_local_shard(ctx, cache_size: int):
    """Start one local shard worker on a private socketpair; returns
    ``(process, transport)``."""
    with _spawn_lock:
        parent_end, child_end = socket.socketpair()
        process = ctx.Process(
            target=_local_shard_main,
            args=(child_end, parent_end, cache_size),
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            child_end.close()
    return process, AsyncTcpTransport(None, None, sock=parent_end)
