"""End-to-end request tracing: span trees across every service layer.

Flat per-endpoint percentiles (``/metrics``) say *that* a request was
slow; this module says *where*.  A :class:`Trace` is a request-scoped
tree of :class:`Span`\\ s — each with a monotonic start offset, a
duration and typed annotations — threaded through the broker (cache
lookup, warm-vs-cold decision, a shard's coalescing follower links), the
consistent-hash ring (shard chosen, failover hops), the shard
transport (socketpair / TCP round-trips) and the exact simplex (phase
timings, pivot counts).  The design goals, in order:

1. **Zero cost when off.**  :func:`span` consults one
   :class:`contextvars.ContextVar`; with no active trace it returns a
   shared no-op context manager — no allocation, no timestamps.  Layers
   instrument unconditionally and the price is one ``ContextVar.get``
   per instrumentation point.  Context variables propagate both across
   threads (each thread sees its own value, exactly like the previous
   thread-local) *and* into asyncio tasks (``create_task`` snapshots the
   spawning context), so the async transport/server layers inherit the
   active span for free where a thread-local would silently drop it.
2. **Crosses every process/host boundary we have.**  The shard protocol
   of :mod:`repro.service.transport` carries an optional ``trace`` flag;
   a shard that sees it records its own span tree around the solve and
   returns it on the reply, and the caller *grafts* those spans under
   its transport span (:func:`graft_remote`) — re-identified,
   re-parented, and rebased into the caller's timeline by centering the
   remote tree inside the observed round-trip (the symmetric-delay
   assumption; cross-host offsets are therefore approximate by half the
   network asymmetry, durations are exact).
3. **Slow traces survive.**  :class:`TraceStore` keeps a bounded ring of
   recent traces plus a separate bounded ring of *slow* ones (duration
   over a configurable threshold), so a burst of fast requests can never
   evict the one trace you need (``GET /traces`` / ``GET /trace/<id>``).

Supervision events (shard ejection, rejoin, restart, timeout, failover)
are structured JSON lines — :func:`log_event` appends to a bounded
in-memory :class:`EventLog` *and* emits one ``repro.events`` log record
whose message is the JSON object, greppable by any log shipper.

This module imports only the standard library, on purpose: any layer
(including :mod:`repro.lp`) may use it without import cycles.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import logging
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Trace",
    "TraceStore",
    "EventLog",
    "EVENTS",
    "log_event",
    "current_span",
    "start_trace",
    "span",
    "annotate",
    "graft_remote",
    "render_waterfall",
]

# The active span.  A ContextVar behaves like the thread-local it
# replaced on plain threads (fresh threads start empty) while also
# flowing into asyncio tasks; exits restore the *remembered* previous
# span via ``set`` rather than a ``Token`` reset so a context manager
# entered in one task context and exited in another keeps working.
_current_span: "contextvars.ContextVar[Optional[Span]]" = \
    contextvars.ContextVar("repro_current_span", default=None)

# Trace ids are a random per-process prefix plus a counter: unique across
# processes (shards) with high probability, and allocation stays off the
# syscall path — ``next()`` on ``itertools.count`` is atomic under the GIL.
_ID_PREFIX = os.urandom(4).hex()
_ID_COUNTER = itertools.count(int.from_bytes(os.urandom(4), "big"))


def _next_trace_id() -> str:
    return "%s%08x" % (_ID_PREFIX, next(_ID_COUNTER) & 0xFFFFFFFF)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# spans and traces
# ----------------------------------------------------------------------
class Span:
    """One timed operation inside a trace.

    ``start`` is seconds since the trace began (one monotonic clock per
    trace); ``duration_seconds`` is ``None`` until :meth:`finish`.
    Annotations are small JSON-safe facts ("shard", "pivots", "cached").
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "start",
                 "duration_seconds", "annotations")

    def __init__(self, trace: "Trace", span_id: int,
                 parent_id: Optional[int], name: str, start: float) -> None:
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration_seconds: Optional[float] = None
        self.annotations: Dict[str, Any] = {}

    def annotate(self, **fields: Any) -> None:
        self.annotations.update(fields)

    def finish(self) -> None:
        if self.duration_seconds is None:
            self.duration_seconds = (
                time.perf_counter() - self.trace._t0 - self.start)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_seconds": self.start,
            "duration_seconds": self.duration_seconds,
            "annotations": {k: _json_safe(v)
                            for k, v in self.annotations.items()},
        }


class Trace:
    """A request-scoped tree of spans sharing one monotonic clock.

    Spans may be opened from any thread (a shard's engine lane, the
    sharded broker's ring loop); the trace serialises id allocation and
    the span list, nothing else.  The root span is created on
    construction and closed by :meth:`finish`.
    """

    def __init__(self, name: str, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id is not None \
            else _next_trace_id()
        self.name = name
        # wall clock, for humans; span math uses _t0 (perf_counter)
        self.started_at = time.time()  # repro-lint: allow(tracing)
        self._t0 = time.perf_counter()
        # Hot path is lock-free: ``next()`` on ``itertools.count`` and
        # ``list.append`` are both atomic under the GIL, which is all the
        # cross-thread span creation here needs.
        self._ids = itertools.count(1)
        self.duration_seconds: Optional[float] = None
        self.slow = False
        self.root = Span(self, 0, None, name, 0.0)  # starts at t0
        self.spans: List[Span] = [self.root]

    def new_span(self, name: str, parent_id: Optional[int],
                 start: Optional[float] = None) -> Span:
        if start is None:
            start = time.perf_counter() - self._t0
        sp = Span(self, next(self._ids), parent_id, name, start)
        self.spans.append(sp)
        return sp

    def reserve_ids(self, count: int) -> List[int]:
        """Allocate an id block (for grafting remote spans)."""
        return [next(self._ids) for _ in range(count)]

    def adopt(self, spans: Iterable[Span]) -> None:
        self.spans.extend(spans)

    def finish(self) -> None:
        self.root.finish()
        self.duration_seconds = self.root.duration_seconds

    def as_dict(self) -> Dict[str, Any]:
        spans = list(self.spans)  # atomic snapshot under the GIL
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "slow": self.slow,
            "spans": [sp.as_dict()
                      for sp in sorted(spans,
                                       key=lambda s: (s.start, s.span_id))],
        }

    def span_wire(self) -> List[Dict[str, Any]]:
        """The spans alone, JSON-safe — what crosses a shard boundary."""
        return self.as_dict()["spans"]

    def summary(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "slow": self.slow,
            "spans": len(self.spans),
            "annotations": {k: _json_safe(v)
                            for k, v in self.root.annotations.items()},
        }


# ----------------------------------------------------------------------
# the context-variable span state (threads and asyncio tasks)
# ----------------------------------------------------------------------
def current_span() -> Optional[Span]:
    """The innermost active span in this context (None when not tracing)."""
    return _current_span.get()


def annotate(**fields: Any) -> None:
    """Annotate the current span; a no-op when no trace is active."""
    sp = _current_span.get()
    if sp is not None:
        sp.annotations.update(fields)


class _NullContext:
    """Shared no-op for :func:`span` when not tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL = _NullContext()


class _SpanContext:
    __slots__ = ("_parent", "_name", "_annotations", "span", "_prev")

    def __init__(self, parent: Span, name: str,
                 annotations: Dict[str, Any]) -> None:
        self._parent = parent
        self._name = name
        self._annotations = annotations

    def __enter__(self) -> Span:
        sp = self._parent.trace.new_span(self._name, self._parent.span_id)
        if self._annotations:
            sp.annotations.update(self._annotations)
        self.span = sp
        self._prev = _current_span.get()
        _current_span.set(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.annotations.setdefault(
                "error", f"{exc_type.__name__}: {exc}")
        self.span.finish()
        _current_span.set(self._prev)
        return False


def span(name: str, **annotations: Any):
    """Open a child span of the current span; no-op when not tracing.

    Yields the :class:`Span` (or ``None`` when inactive) — guard direct
    use with ``if sp is not None`` or use :func:`annotate`.
    """
    parent = _current_span.get()
    if parent is None:
        return _NULL
    return _SpanContext(parent, name, annotations)


class _TraceContext:
    __slots__ = ("_name", "_store", "_annotations", "trace", "_prev")

    def __init__(self, name: str, store: Optional["TraceStore"],
                 annotations: Dict[str, Any]) -> None:
        self._name = name
        self._store = store
        self._annotations = annotations

    def __enter__(self) -> Trace:
        tr = Trace(self._name)
        if self._annotations:
            tr.root.annotations.update(self._annotations)
        self.trace = tr
        self._prev = _current_span.get()
        _current_span.set(tr.root)
        return tr

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.trace.root.annotations.setdefault(
                "error", f"{exc_type.__name__}: {exc}")
        self.trace.finish()
        _current_span.set(self._prev)
        if self._store is not None:
            self._store.add(self.trace)
        return False


def start_trace(name: str, store: Optional["TraceStore"] = None,
                **annotations: Any) -> _TraceContext:
    """Begin a new trace and make its root the current span.

    On exit the trace is finished (duration stamped, errors annotated)
    and, when ``store`` is given, captured by it.  Nesting is allowed
    but unusual — the inner trace is independent; the outer one resumes
    on exit (what a shard does when a traced request arrives while the
    host process is itself being traced).
    """
    return _TraceContext(name, store, annotations)


# ----------------------------------------------------------------------
# grafting spans recorded on the far side of a transport
# ----------------------------------------------------------------------
def graft_remote(under: Span, wire_spans: List[Dict[str, Any]],
                 round_trip_seconds: float) -> int:
    """Attach a remote shard's span tree beneath ``under``.

    The remote spans carry offsets on the *shard's* clock (zero = the
    shard's root span).  They are re-identified into ``under``'s trace,
    re-parented (remote roots hang off ``under``) and rebased by
    centering the remote root inside the observed round-trip — i.e. the
    unaccounted wire/queue time is split evenly between the outbound and
    return legs.  Durations are preserved exactly; only the offsets are
    approximate.  Returns the number of spans grafted.
    """
    if not wire_spans:
        return 0
    trace = under.trace
    remote_total = max(
        (rec.get("duration_seconds") or 0.0)
        for rec in wire_spans if rec.get("parent") is None
    ) if any(rec.get("parent") is None for rec in wire_spans) else 0.0
    shift = under.start + max(0.0, (round_trip_seconds - remote_total) / 2)
    ids = trace.reserve_ids(len(wire_spans))
    id_map = {rec["id"]: ids[i] for i, rec in enumerate(wire_spans)}
    grafted: List[Span] = []
    for rec in wire_spans:
        parent = rec.get("parent")
        sp = Span(
            trace,
            id_map[rec["id"]],
            id_map[parent] if parent in id_map else under.span_id,
            rec["name"],
            float(rec.get("start_seconds", 0.0)) + shift,
        )
        sp.duration_seconds = rec.get("duration_seconds")
        sp.annotations.update(rec.get("annotations", {}))
        sp.annotations.setdefault("remote", True)
        grafted.append(sp)
    trace.adopt(grafted)
    return len(grafted)


# ----------------------------------------------------------------------
# the bounded store with always-keep-slow capture
# ----------------------------------------------------------------------
class StoredTrace:
    """A finished trace as the store keeps it: the compact JSON of its
    :meth:`Trace.as_dict`, and its :meth:`Trace.summary`."""

    __slots__ = ("trace_id", "started_at", "blob", "summary")

    def __init__(self, trace: Trace) -> None:
        self.trace_id, self.started_at = trace.trace_id, trace.started_at
        self.blob = json.dumps(trace.as_dict(), separators=(",", ":")).encode()
        self.summary = trace.summary()

    def as_dict(self) -> Dict[str, Any]:
        return json.loads(self.blob)


class TraceStore:
    """Bounded in-memory trace retention with slow-trace protection.

    Two rings: ``capacity`` recent traces (everything captured, FIFO
    eviction) and ``slow_capacity`` slow ones (duration >=
    ``slow_threshold`` seconds), evicted only by *other slow traces* —
    a flood of fast requests cannot push out the trace that explains
    the outlier.  A trace is added once finished — :func:`start_trace`
    adds it at context exit, after the last remote graft — and kept as
    its bytes (:class:`StoredTrace`).  Thread-safe; lookups check both
    rings.
    """

    def __init__(self, capacity: int = 256, slow_capacity: int = 64,
                 slow_threshold: float = 0.25) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("capacities must be >= 1")
        self.capacity = capacity
        self.slow_capacity = slow_capacity
        self.slow_threshold = slow_threshold
        self._lock = threading.Lock()
        self._recent: "OrderedDict[str, StoredTrace]" = OrderedDict()  # guarded-by: _lock
        self._slow: "OrderedDict[str, StoredTrace]" = OrderedDict()  # guarded-by: _lock
        self.captured = 0  # guarded-by: _lock
        self.slow_captured = 0  # guarded-by: _lock

    def add(self, trace: Trace) -> None:
        trace.slow = (trace.duration_seconds or 0.0) >= self.slow_threshold
        stored = StoredTrace(trace)
        with self._lock:
            self.captured += 1
            if trace.slow:
                self.slow_captured += 1
                self._slow[stored.trace_id] = stored
                while len(self._slow) > self.slow_capacity:
                    self._slow.popitem(last=False)
            self._recent[stored.trace_id] = stored
            while len(self._recent) > self.capacity:
                self._recent.popitem(last=False)

    def get(self, trace_id: str) -> Optional[StoredTrace]:
        with self._lock:
            return self._recent.get(trace_id) or self._slow.get(trace_id)

    def _stored(self) -> Dict[str, StoredTrace]:  # caller-holds: _lock
        return {**self._slow, **self._recent}

    def index(self, limit: int = 100) -> List[Dict[str, Any]]:
        """Newest-first summaries across both rings (slow ones flagged)."""
        with self._lock:
            stored = list(self._stored().values())
        ordered = sorted(stored, key=lambda t: t.started_at, reverse=True)
        return [tr.summary for tr in ordered[:max(0, limit)]]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "captured": self.captured,
                "slow_captured": self.slow_captured,
                "stored": len(self._recent),
                "stored_slow": len(self._slow),
                "bytes": sum(len(tr.blob)
                             for tr in self._stored().values()),
                "capacity": self.capacity,
                "slow_capacity": self.slow_capacity,
                "slow_threshold_seconds": self.slow_threshold,
            }


# ----------------------------------------------------------------------
# structured JSON event logging (supervision events)
# ----------------------------------------------------------------------
_events_logger = logging.getLogger("repro.events")


class EventLog:
    """Bounded ring of structured supervision events.

    :meth:`emit` stamps a wall-clock time, keeps the record in memory
    (``GET /events``) and logs the JSON object as one ``repro.events``
    line — machine-parseable supervision history (shard ejected, shard
    rejoined, worker restarted, request timed out, failover taken)
    without standing up a log pipeline.
    """

    def __init__(self, capacity: int = 512,
                 logger: logging.Logger = _events_logger) -> None:
        self.capacity = max(1, capacity)
        self._logger = logger
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []  # guarded-by: _lock
        self.emitted = 0  # guarded-by: _lock

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        # supervision events carry human-facing wall-clock timestamps;
        # they are not spans and join no trace clock
        record = {"ts": time.time(), "event": event}  # repro-lint: allow(tracing)
        record.update({k: _json_safe(v) for k, v in fields.items()})
        with self._lock:
            self.emitted += 1
            self._events.append(record)
            if len(self._events) > self.capacity:
                del self._events[: len(self._events) - self.capacity]
        self._logger.info(json.dumps(record, sort_keys=True))
        return record

    def recent(self, limit: int = 100) -> List[Dict[str, Any]]:
        if limit <= 0:
            return []  # a slice from -0 would be the whole ring
        with self._lock:
            return list(self._events[-limit:])


#: process-wide default event log (the sharding layer emits here)
EVENTS = EventLog()


def log_event(event: str, **fields: Any) -> Dict[str, Any]:
    """Emit one supervision event to the process-wide :data:`EVENTS` log."""
    return EVENTS.emit(event, **fields)


# ----------------------------------------------------------------------
# waterfall rendering (the `submit --trace` printer)
# ----------------------------------------------------------------------
def render_waterfall(trace_dict: Dict[str, Any]) -> str:
    """ASCII waterfall of a trace *dict* (API response / store export).

    One line per span, indented by tree depth, with the start offset,
    duration, a proportional bar on a shared timeline, and the span's
    annotations.  Orphaned spans (parent evicted or foreign) are shown
    at the root level rather than dropped.
    """
    width = 28  # columns of the shared timeline
    spans = trace_dict.get("spans", [])
    header = (
        f"trace {trace_dict.get('trace_id', '?')} "
        f"{trace_dict.get('name', '?')} — "
        f"{(trace_dict.get('duration_seconds') or 0.0) * 1e3:.3f} ms, "
        f"{len(spans)} spans"
        + (" [SLOW]" if trace_dict.get("slow") else "")
    )
    if not spans:
        return header
    ids = {rec["id"] for rec in spans}
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent not in ids:
            parent = None
        children.setdefault(parent, []).append(rec)
    for kids in children.values():
        kids.sort(key=lambda r: (r.get("start_seconds") or 0.0, r["id"]))
    total = max(
        (rec.get("start_seconds") or 0.0)
        + (rec.get("duration_seconds") or 0.0)
        for rec in spans
    ) or 1e-9
    name_width = max(
        len(rec["name"]) + 2 * _depth(rec, spans) for rec in spans
    )
    lines = [header]

    def walk(rec: Dict[str, Any], depth: int) -> None:
        start = rec.get("start_seconds") or 0.0
        duration = rec.get("duration_seconds")
        left = int(round(start / total * width))
        filled = max(1, int(round((duration or 0.0) / total * width)))
        filled = min(filled, width - min(left, width - 1))
        bar = " " * min(left, width - 1) + "█" * filled
        label = ("  " * depth + rec["name"]).ljust(name_width)
        dur_text = ("?" if duration is None
                    else f"{duration * 1e3:9.3f}ms")
        ann = " ".join(
            f"{k}={v}" for k, v in sorted(rec.get("annotations", {}).items())
        )
        lines.append(
            f"  {label}  +{start * 1e3:8.3f}ms {dur_text} "
            f"|{bar.ljust(width)}|" + (f"  {ann}" if ann else "")
        )
        for kid in children.get(rec["id"], ()):
            walk(kid, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


def _depth(rec: Dict[str, Any], spans: List[Dict[str, Any]]) -> int:
    by_id = {r["id"]: r for r in spans}
    depth = 0
    cursor = rec
    while cursor.get("parent") in by_id and depth < 64:
        cursor = by_id[cursor["parent"]]
        depth += 1
    return depth
