"""JSON request/response API for the scheduling service.

The wire format reuses the conventions of
:mod:`repro.platform.serialization` (exact rationals as ``"p/q"``
strings, ``"inf"`` for forwarders).  One envelope per message::

    {"op": "solve",  "request":  {<solve request>}}
    {"op": "batch",  "requests": [<solve request>, ...]}
    {"op": "invalidate", "platform": {<platform>}}
    {"op": "metrics"} | {"op": "cache"} | {"op": "ping"} | {"op": "problems"}

A solve request carries a versioned, typed **spec envelope** (the
canonical form — field names come straight from the registered
:class:`~repro.problems.specs.ProblemSpec` classes)::

    {"spec": {"version": 1,
              "problem": "gather",       # any registered problem
              "sink": "P1",              # spec-typed fields
              "sources": ["P5", "P6"]},
     "platform": {...},                  # platform_to_dict format
     "include_schedule": false}          # a JSON boolean, default false

The envelope is the only request form: problem fields at the top level
of a request, beside or instead of ``"spec"``, are refused with a typed
error.  Every answer is the exact LP optimum, so a request names no
solver: an ``"options"`` member may be absent or the value older
clients send (:data:`~repro.problems.specs.LEGACY_REQUEST_OPTIONS`),
and anything else is a 422.

Responses always carry ``"ok"``; solve responses add the fingerprint,
cache/warm flags, latency, the throughput and a problem-shaped
``"solution"`` payload (plus ``"schedule"`` when requested).  The
``{"op": "problems"}`` envelope (and ``GET /problems``) lists every
registered problem with its spec fields and declared capabilities.

Every op is one generator, :func:`_dispatch`, which yields the broker
futures it waits on.  :class:`AsyncServiceServer` awaits it for every
POST and GET (``POST /api``, ``GET /metrics`` / ``/cache`` /
``/healthz`` and the rest of :func:`_get_envelope`) on one asyncio
HTTP/1.1 keep-alive loop — idle connections are parked coroutines, so
thousands of keep-alive clients cost no threads.  :func:`handle_request`
drives the same generator by blocking: a pure dict-in/dict-out function
for library callers and the ``--stdio`` JSON-lines mode, with
:func:`route_post` its HTTP routing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import copy
import functools
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..platform.serialization import platform_from_dict, platform_to_dict
from ..problems import (
    SpecError,
    describe as registry_describe,
    spec_from_wire,
)
from ..problems.specs import LEGACY_REQUEST_OPTIONS
from .broker import (
    Broker,
    BrokerError,
    BrokerResult,
    SolveRequest,
    schedule_flag,
)
from .cache import BodyMemo
from .metrics import render_prometheus
from .tracing import EVENTS, TraceStore, start_trace
from .transport import MAX_FRAME_BYTES, LoopServer
from .wire import (
    compact_json,
    payload_json,
    payload_throughput,
    result_to_wire,
    solution_payload,
)


# ----------------------------------------------------------------------
# request decoding
# ----------------------------------------------------------------------
def request_from_dict(data: Dict[str, Any]) -> SolveRequest:
    """Decode a solve request envelope into a :class:`SolveRequest`.

    The versioned typed ``"spec"`` envelope (what :func:`request_to_dict`
    emits) is the only accepted form.
    """
    if "platform" not in data:
        raise BrokerError("solve request needs a 'platform'")
    if "spec" not in data:
        raise BrokerError("solve request needs a 'spec'")
    platform = platform_from_dict(data["platform"])
    payload = data["spec"]
    if isinstance(payload, dict) and "problem" in data \
            and data["problem"] != payload.get("problem"):
        raise BrokerError(
            f"request names problem {data['problem']!r} but its spec "
            f"envelope says {payload.get('problem')!r}"
        )
    # problem fields live INSIDE the spec envelope; silently ignoring
    # flat legacy fields (or solver options) alongside it would let a
    # half-migrated client solve a different problem than it asked for
    stray = {"source", "master", "targets", "dag"} & set(data)
    if stray:
        raise BrokerError(
            f"request mixes a 'spec' envelope with legacy field(s) "
            f"{sorted(stray)}; put them in the spec"
        )
    options = data.get("options", LEGACY_REQUEST_OPTIONS)
    if options != LEGACY_REQUEST_OPTIONS:
        raise BrokerError(
            f"'options' {options!r} is not served: every answer is the "
            f"exact LP optimum; move problem options into the spec"
        )
    include_schedule = schedule_flag(data)
    return SolveRequest(spec_from_wire(platform, payload),
                        include_schedule=include_schedule)


def _request_wire(request: SolveRequest) -> Dict[str, Any]:
    """The memoized wire encoding of a request — INTERNAL and read-only.

    Memoized on the (frozen) request so re-dispatching the same request
    object never re-encodes the platform; this is what keeps the shard
    dispatch of :mod:`repro.service.sharding` cheap (its only per-call
    cost is framing this dict).  Callers must
    never mutate the returned structure — hand external callers
    :func:`request_to_dict` instead.
    """
    cached = request.__dict__.get("_wire_dict")
    if cached is None:
        cached = {
            "spec": request.spec.to_wire(),
            "platform": platform_to_dict(request.platform),
            "include_schedule": request.include_schedule,
        }
        object.__setattr__(request, "_wire_dict", cached)
    return cached


def request_to_dict(request: SolveRequest) -> Dict[str, Any]:
    """Encode a :class:`SolveRequest` (inverse of :func:`request_from_dict`).

    Emits the canonical versioned spec envelope; the platform travels as
    a sibling key so platform-level ops (``invalidate``) and solve
    requests share one platform encoding.  The returned dict is
    fully private to the caller — mutate anything, nested values
    included, without affecting later encodings of the same request.
    """
    return copy.deepcopy(_request_wire(request))


# ----------------------------------------------------------------------
# response encoding
# ----------------------------------------------------------------------
def response_to_dict(result: BrokerResult) -> Dict[str, Any]:
    """Encode a broker result as the solve response payload: a view of
    its wire form (:func:`repro.service.wire.solution_payload`), which a
    shard-served result still carries (``result.wire`` — no ``Fraction``
    is built) and an in-process one gets from the same codec."""
    wire = getattr(result, "wire", None) or result_to_wire(result)
    solution = solution_payload(wire["solution"])
    out = {**_reply_head(result),
           "throughput": payload_throughput(solution), "solution": solution}
    if wire.get("schedule") is not None:
        out["schedule"] = wire["schedule"]
    return out


def _reply_head(result: BrokerResult) -> Dict[str, Any]:
    """The scalars a solve reply leads with, ahead of its payload."""
    return {"ok": True, "fingerprint": result.fingerprint,
            "cached": result.cached, "warm": result.warm,
            "latency_seconds": result.latency_seconds}


def _solve_json(result: BrokerResult, extra: Dict[str, Any]) -> bytes:
    """A solve reply with ``extra`` scalars, as HTTP body bytes.  A near
    hit's payload is spliced from bytes encoded once per near entry
    (:func:`~repro.service.wire.payload_json`) behind fresh scalars."""
    entry = getattr(result, "entry", None)
    if entry is None:
        return compact_json({**response_to_dict(result), **extra})
    head = compact_json({**_reply_head(result), **extra})
    return head[:-1] + payload_json(entry, "schedule" in result.wire) + b"}"


def _error_response(
    exc: BaseException, status: Optional[int] = None
) -> Dict[str, Any]:
    """Error payload; ``status`` is the HTTP status the transport should
    use (and a transport-independent client/server distinction: 4xx means
    "fix your request", 5xx means "server bug").  ``type`` always carries
    the original exception class so clients can tell a validation failure
    from a solver crash."""
    out = {"ok": False, "error": str(exc), "type": type(exc).__name__}
    if status is not None:
        out["status"] = status
    return out


class _BadRequest(Exception):
    """Wraps a non-``SpecError`` decode failure so the dispatcher can map
    it to 400 while letting it propagate through metric timers (which
    record the error) without being mistaken for a server bug."""

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


def _decode_or_error(data: Dict[str, Any]):
    """Decode a solve request; on failure return the error *response*.

    Everything raised while decoding is a client error by construction —
    the request never reached a solver — so a malformed spec maps to 422
    (well-formed JSON, invalid semantics) and any other decode failure
    (broken platform dict, wrong types) to 400.
    """
    try:
        return request_from_dict(data)
    except SpecError as exc:
        return _error_response(exc, status=422)
    except Exception as exc:  # noqa: BLE001 — wire boundary
        return _error_response(exc, status=400)


# ----------------------------------------------------------------------
# the dispatcher
# ----------------------------------------------------------------------
def _await(fut):
    """``fut.result()`` for a :func:`_dispatch` generator: hand the
    future to the driver, resume once it is done."""
    yield fut
    return fut.result()


def _run_batch(broker: Broker, data: Dict[str, Any]):
    """The ``batch`` op body (a :func:`_dispatch` sub-generator):
    per-request error isolation — one malformed/failing request must not
    discard its siblings' solves."""
    decoded = data.get("requests", [])
    if not isinstance(decoded, tuple):  # not decoded off the loop
        decoded = _decode_batch(decoded)
    with broker.metrics.timer("solve.batch"):
        futures = [
            broker.submit(item) if isinstance(item, SolveRequest)
            else None
            for item in decoded
        ]
        results = []
        for item, fut in zip(decoded, futures):
            if fut is None:
                results.append(item)  # the decode error
                continue
            try:
                results.append(response_to_dict((yield from _await(fut))))
            except SpecError as exc:
                results.append(_error_response(exc, status=422))
            except Exception as exc:  # noqa: BLE001 — wire boundary
                results.append(_error_response(exc, status=500))
    return {"ok": True, "results": results}


def _decode_batch(raw: Any) -> tuple:
    """A batch's requests, each decoded or its error response; a tuple,
    which no JSON body parses to, so :func:`_run_batch` decodes once."""
    if not isinstance(raw, list):
        raise BrokerError(
            f"batch 'requests' must be a list, not {type(raw).__name__}")
    return tuple(_decode_or_error(item) for item in raw)


def _limit(data: Dict[str, Any]) -> int:
    """The ``limit`` of a ``traces`` / ``events`` op (default 100)."""
    try:
        return int(data.get("limit", 100))
    except (TypeError, ValueError):
        raise BrokerError(f"'limit' must be an integer, not "
                          f"{data['limit']!r}") from None


def _dispatch(broker: Broker, data: Dict[str, Any],
              trace_store: Optional[TraceStore],
              respond=lambda result, extra: {**response_to_dict(result),
                                             **extra}):
    """The one dispatcher body, as a generator: it yields each future
    it must wait for (``broker.submit``, ``submit_snapshot`` and
    ``submit_invalidate`` return them without blocking) and is resumed
    once that future is done.  :func:`handle_request` drives it by
    blocking, :class:`AsyncServiceServer` by awaiting — so every op runs
    on the HTTP loop without a second copy of its branch.  Returns the
    response dict (a solve's is ``respond(result, extra)``); never
    raises."""
    try:
        op = data.get("op", "solve")
        # solve/batch are metered inside the broker ("solve", "solve.batch");
        # the lightweight ops are metered here so every documented endpoint
        # shows up in /metrics
        if op == "ping":
            with broker.metrics.timer("ping"):
                return {"ok": True, "pong": True}
        if op == "metrics":
            with broker.metrics.timer("metrics"):
                out = {"ok": True,
                       **(yield from _await(broker.submit_snapshot()))}
                if trace_store is not None:
                    out["traces"] = trace_store.snapshot()
                return out
        if op == "traces":
            with broker.metrics.timer("traces"):
                limit = _limit(data)
                if trace_store is None:
                    return {"ok": True, "traces": [], "store": None}
                return {
                    "ok": True,
                    "traces": trace_store.index(limit=limit),
                    "store": trace_store.snapshot(),
                }
        if op == "trace":
            with broker.metrics.timer("traces"):
                trace_id = str(data.get("id", data.get("trace_id", "")))
                trace = (trace_store.get(trace_id)
                         if trace_store is not None else None)
                if trace is None:
                    return {"ok": False, "status": 404, "type": "KeyError",
                            "error": f"no stored trace {trace_id!r}"}
                return {"ok": True, "trace": trace.as_dict()}
        if op == "events":
            with broker.metrics.timer("events"):
                return {"ok": True,
                        "events": EVENTS.recent(limit=_limit(data))}
        if op == "cache":
            with broker.metrics.timer("cache"):
                snapshot = yield from _await(broker.submit_snapshot())
                return {"ok": True, "cache": snapshot["cache"]}
        if op == "problems":
            with broker.metrics.timer("problems"):
                return {"ok": True, "problems": registry_describe()}
        if op == "invalidate":
            with broker.metrics.timer("invalidate"):
                if "platform" not in data:
                    raise BrokerError("invalidate needs a 'platform'")
                try:
                    platform = platform_from_dict(data["platform"])
                except SpecError:
                    raise
                except Exception as exc:  # noqa: BLE001 — wire boundary
                    # raise (not return): the timer must record the error
                    raise _BadRequest(exc) from exc
                removed = yield from _await(broker.submit_invalidate(platform))
                return {"ok": True, "invalidated": removed}
        if op == "solve":
            request = data.get("request", data)
            if not isinstance(request, SolveRequest):  # not yet decoded
                request = _decode_or_error(request)
                if not isinstance(request, SolveRequest):
                    return request  # the decode-error response
            inline = bool(data.get("trace"))
            if inline or trace_store is not None:
                with start_trace("request.solve", store=trace_store,
                                 problem=request.problem) as tr:
                    result = yield from _await(broker.submit(request))
                extra = {"trace_id": tr.trace_id}
                if inline:
                    extra["trace"] = tr.as_dict()
                return respond(result, extra)
            # submit() rather than solve(): the ring's future is awaited,
            # not blocked on, when the HTTP loop drives this generator
            return respond((yield from _await(broker.submit(request))), {})
        if op == "batch":
            inline = bool(data.get("trace"))
            if inline or trace_store is not None:
                with start_trace("request.batch", store=trace_store) as tr:
                    out = yield from _run_batch(broker, data)
                out["trace_id"] = tr.trace_id
                if inline:
                    out["trace"] = tr.as_dict()
                return out
            return (yield from _run_batch(broker, data))
        raise BrokerError(f"unknown op {op!r}")
    except _BadRequest as exc:  # undecodable request (past the timer)
        return _error_response(exc.original, status=400)
    except SpecError as exc:  # malformed request / unknown op
        return _error_response(exc, status=422)
    except Exception as exc:  # noqa: BLE001 — unexpected: a server bug
        return _error_response(exc, status=500)


def handle_request(broker: Broker, data: Dict[str, Any],
                   trace_store: Optional[TraceStore] = None,
                   ) -> Dict[str, Any]:
    """Dispatch one decoded envelope; never raises.

    Error responses carry ``"type"`` (the exception class) and
    ``"status"`` — 400 for undecodable requests, 422 for well-formed but
    invalid ones (:class:`SpecError`), 500 for unexpected solver/server
    failures — so clients can tell "fix your request" from "server bug"
    on any transport.

    ``trace_store``, when given, turns tracing on for every solve/batch
    (captured into the store, retrievable by the ``traces``/``trace``
    ops); a request may also opt in per-call with ``"trace": true``,
    which additionally inlines the full span tree on the response.
    Traced responses always carry ``"trace_id"``.
    """
    steps = _dispatch(broker, data, trace_store)
    try:
        while True:  # the blocking driver
            concurrent.futures.wait([next(steps)])
    except StopIteration as stop:
        return stop.value


# ----------------------------------------------------------------------
# HTTP routing — pure functions, no sockets
# ----------------------------------------------------------------------
_JSON_TYPE = "application/json"
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``(status, content-type, body)`` — everything a transport needs to
#: write one HTTP response.
HttpResponse = Tuple[int, str, bytes]


def _json_reply(payload: Dict[str, Any], status: int = 200) -> HttpResponse:
    return status, _JSON_TYPE, compact_json(payload)


def _query_int(query: Dict[str, list], key: str, default: int) -> int:
    try:
        return int(query[key][0])
    except (KeyError, IndexError, ValueError):
        return default


def _get_envelope(path: str,
                  query: Dict[str, list]) -> Optional[Dict[str, Any]]:
    """The envelope a GET path stands for; ``None`` for an unknown one
    (``/healthz`` is the server's own)."""
    if path in ("/metrics", "/cache", "/problems"):
        return {"op": path[1:]}
    if path in ("/traces", "/events"):
        return {"op": path[1:], "limit": _query_int(query, "limit", 100)}
    if path.startswith("/trace/"):
        return {"op": "trace", "id": path[len("/trace/"):]}
    return None


def _envelope(blob) -> Dict[str, Any]:
    """One message's envelope: a JSON object, else ``ValueError``."""
    data = json.loads(blob)
    if not isinstance(data, dict):
        raise ValueError(f"an envelope is a JSON object, not "
                         f"{type(data).__name__}")
    return data


_NOT_FOUND = 404, _JSON_TYPE, compact_json({"ok": False,
                                             "error": "not found"})


def _decode_post(path: str, body: bytes, batch: bool = False):
    """The envelope of one POST with a ``solve`` op's request decoded
    (and with ``batch``, a batch's: :func:`_decode_batch`), or the
    :data:`HttpResponse` that refuses it."""
    if path not in ("/api", "/"):
        # like an unknown GET: a POST to /metrics or a typo'd path is
        # client misconfiguration, not a solve request
        return _NOT_FOUND
    try:
        data = _envelope(body or b"{}")
    except ValueError as exc:
        return _json_reply(_error_response(exc, status=400), status=400)
    op = data.get("op", "solve")
    if op == "solve":
        request = _decode_or_error(data.get("request", data))
        if not isinstance(request, SolveRequest):
            return _post_reply(request)
        return {**data, "request": request}
    if batch and op == "batch" and isinstance(data.get("requests"), list):
        return {**data, "requests": _decode_batch(data["requests"])}
    return data


def _post_reply(response: Dict[str, Any]) -> HttpResponse:
    # the dispatcher stamps every error with its status (400 bad
    # request / 422 invalid spec / 500 server bug); default defensively
    # for responses predating the field
    status = response.get("status", 200 if response.get("ok") else 422)
    return _json_reply(response, status=status)


def route_post(broker: Broker, path: str, body: bytes,
               trace_store: Optional[TraceStore] = None) -> HttpResponse:
    """Route one POST body; pure — no I/O beyond the broker dispatch."""
    data = _decode_post(path, body)
    if isinstance(data, tuple):
        return data
    return _post_reply(handle_request(broker, data, trace_store=trace_store))


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class _RefusedRequest(Exception):
    """A request whose head alone earns an error reply; the server
    answers ``status`` without reading the body, then closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: A larger POST body is parsed and decoded off the loop, so a huge
#: platform cannot stall it; its dispatch runs on the loop like any other.
LOOP_BODY_BYTES = 256 * 1024


class AsyncServiceServer(LoopServer):
    """asyncio HTTP/1.1 keep-alive front-end over a :class:`Broker`.

    Every connection is a coroutine on one event loop, and so is every
    op: a POST's envelope, or the one a GET path names
    (:func:`_get_envelope`), is dispatched by awaiting the futures
    :func:`_dispatch` yields (``broker.submit``, ``submit_snapshot``,
    ``submit_invalidate``), so no thread is crossed here, nor behind it
    when the broker runs its ring on this loop (``serve``).  Only the
    parse and decode of a body over :data:`LOOP_BODY_BYTES` leave the
    loop.  A ``solve`` body whose answer came back cached is kept in
    :attr:`memo` (a :class:`~repro.service.cache.BodyMemo`): its next
    sighting skips the JSON parse, the decode and the fingerprint.
    ``broker`` is required: ``serve`` hands it a
    :class:`~repro.service.sharding.ShardedBroker`; an in-process
    :class:`Broker` (a test's) answers inside each call, on the loop.

    In-flight dispatch is published on the broker's metrics as the
    ``http_inflight`` / ``http_inflight_max`` gauges (merged into
    ``/metrics`` and the Prometheus view), so saturation of the HTTP
    tier is observable next to the shard-side queue gauges.
    """

    def __init__(
        self,
        address=("127.0.0.1", 0),
        *,
        broker: Broker,
        trace_store: Optional[TraceStore] = None,
        tracing: bool = True,
    ) -> None:
        self.broker = broker
        self.trace_store = (
            trace_store if trace_store is not None
            else (TraceStore() if tracing else None)
        )
        super().__init__(address)
        self.memo = BodyMemo()  # loop-confined, like the gauges below
        # loop-confined gauge state (event loop only, no locks)
        self._inflight = 0
        self._max_inflight = 0

    # ------------------------------------------------------------------
    # the per-connection coroutine
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RefusedRequest as refusal:
                    await self._write_response(
                        writer,
                        _json_reply({"ok": False, "error": str(refusal),
                                     "status": refusal.status},
                                    status=refusal.status),
                        close=True)
                    return
                if request is None:
                    return
                method, target, version, headers, body = request
                parsed = urlparse(target)
                self._inflight += 1
                self._max_inflight = max(self._max_inflight, self._inflight)
                self._publish_gauges()
                try:
                    if method == "GET":
                        response = await self._get(parsed)
                    elif method == "POST":
                        response = await self._post(parsed.path, body)
                    else:
                        response = _json_reply(
                            {"ok": False,
                             "error": f"method {method} not allowed"},
                            status=405)
                finally:
                    self._inflight -= 1
                    self._publish_gauges()
                close = (headers.get("connection", "").lower() == "close"
                         or (version == "HTTP/1.0"
                             and headers.get("connection", "").lower()
                             != "keep-alive"))
                await self._write_response(writer, response, close=close)
                if close:
                    return
        except (ConnectionError, OSError):
            pass  # client went away mid-exchange
        finally:
            writer.close()

    async def _get(self, parsed) -> HttpResponse:
        """A GET is the op its path names; ``/metrics`` adds :attr:`memo`."""
        path, query = parsed.path, parse_qs(parsed.query)
        if path in ("/healthz", "/"):
            return _json_reply({"ok": True, "service": "repro", "ready": True})
        data = _get_envelope(path, query)
        if data is None:
            return _NOT_FOUND
        response = await self._drive(data)
        if path == "/metrics":
            if response.get("ok"):  # next to the near-cache
                response.setdefault("replication", {})["body_memo"] = \
                    self.memo.snapshot()
            if query.get("format", [""])[0] == "prometheus":
                return (200, _PROMETHEUS_TYPE,
                        render_prometheus(response).encode("utf-8"))
        # only a trace the store lacks answers other than 200
        return _json_reply(response, status=response.get("status", 200)
                           if data["op"] == "trace" else 200)

    async def _post(self, path: str, body: bytes) -> HttpResponse:
        small = len(body) <= LOOP_BODY_BYTES
        data = (self.memo.get(body) if small and path in ("/api", "/")
                else None)
        if data is None:
            # a small batch decodes in _run_batch: decoded here, ahead of
            # its dispatch, it left the front 2 MB larger on churn_mixed
            data = (_decode_post(path, body) if small else
                    await asyncio.to_thread(_decode_post, path, body, True))
            if isinstance(data, tuple):
                return data
        response = await self._drive(
            data, functools.partial(self._respond, body, data))
        if isinstance(response, bytes):
            return 200, _JSON_TYPE, response
        return _post_reply(response)

    async def _drive(self, data: Dict[str, Any], *respond):
        """Drive :func:`_dispatch` by awaiting each future it yields."""
        steps = _dispatch(self.broker, data, self.trace_store, *respond)
        try:
            while True:
                fut = next(steps)
                if not fut.done():
                    await asyncio.wait([asyncio.wrap_future(fut)])
        except StopIteration as stop:
            return stop.value
        finally:
            steps.close()  # cancelled mid-wait: unwind its trace now

    def _respond(self, body: bytes, data: Dict[str, Any],
                 result: BrokerResult, extra: Dict[str, Any]) -> bytes:
        # traffic that never repeats, or is too large, never enters
        if result.cached and len(body) <= LOOP_BODY_BYTES:
            self.memo.put(body, data)
        return _solve_json(result, extra)

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request head + body; ``None`` when the client is done.

        Malformed heads are answered by returning ``None`` (drop the
        connection) — a client that cannot frame HTTP cannot be sent a
        response it will parse either.  A well-framed head announcing a
        body the server will not read raises :class:`_RefusedRequest`.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None  # clean close between requests, or mid-head drop
        except asyncio.LimitOverrunError:
            return None  # absurd header block: drop it
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        body = b""
        announced = headers.get("content-length", "0")
        try:
            length = int(announced)
        except ValueError:
            length = -1
        if length < 0:
            raise _RefusedRequest(
                400, f"Content-Length {announced!r} is not a byte count")
        if length > MAX_FRAME_BYTES:
            # one bound for everything a peer can make us buffer: an
            # HTTP body may be as large as a shard frame and no larger
            raise _RefusedRequest(
                413, f"body of {length} bytes exceeds the "
                     f"{MAX_FRAME_BYTES}-byte limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return None
        return method.upper(), target, version, headers, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: HttpResponse, close: bool) -> None:
        status, content_type, blob = response
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + blob)
        await writer.drain()

    def _publish_gauges(self) -> None:
        metrics = getattr(self.broker, "metrics", None)
        if metrics is not None:
            metrics.set_gauge("http_inflight", float(self._inflight))
            metrics.set_gauge("http_inflight_max", float(self._max_inflight))


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


def serve_stdio(broker: Broker, stdin, stdout,
                trace_store: Optional[TraceStore] = None) -> int:
    """JSON-lines loop: one envelope per input line, one response per line."""
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            data = _envelope(line)
        except ValueError as exc:
            response = _error_response(exc, status=400)
        else:
            if data.get("op") == "shutdown":
                print(json.dumps({"ok": True, "bye": True}), file=stdout,
                      flush=True)
                break
            response = handle_request(broker, data, trace_store=trace_store)
        print(json.dumps(response), file=stdout, flush=True)
    return 0
