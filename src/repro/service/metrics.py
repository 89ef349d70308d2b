"""Per-endpoint latency / throughput counters for the scheduling service.

Each endpoint (``solve``, ``batch``, ``invalidate``, ...) accumulates a
request count, an error count, total busy time, min/max and a fixed
log-scale latency histogram (:data:`LATENCY_BUCKETS`) from which p50/p99
are read.  Everything is thread-safe and snapshottable as JSON — the API
exposes :meth:`MetricsRegistry.snapshot` verbatim.

Every stored number is a counter, so snapshots of several registries
merge by one rule (:func:`merge_counters`): a merged endpoint is exactly
what one registry that had seen every observation would report.  The
percentiles are exact to one bucket and cover the registry's whole
life; an interval's distribution is the difference of two snapshots.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from bisect import bisect_left
from itertools import zip_longest
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from contextlib import contextmanager

#: upper bounds (seconds) of the latency histogram: 2**(k/4) for
#: k = -80..28, about 0.95 µs to 128 s, each 2**(1/4) ≈ 1.19x the one
#: before; one overflow bucket past the last holds anything slower
LATENCY_BUCKETS = tuple(2.0 ** (k / 4) for k in range(-80, 29))


def _percentile(buckets: List[int], max_seconds: Optional[float],
                p: float) -> Optional[float]:
    """Nearest-rank percentile to one bucket: the upper bound of the
    bucket holding the rank-th observation, clamped to ``max_seconds`` —
    so in the exact value's bucket, never below it, never above the max."""
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    rank = max(1, -(-sum(buckets) * p // 100))  # ceil without floats
    seen = 0
    for index, n in enumerate(buckets):
        seen += n
        if seen >= rank and max_seconds is not None:
            bound = (LATENCY_BUCKETS[index] if index < len(LATENCY_BUCKETS)
                     else max_seconds)
            return min(bound, max_seconds)
    return None


def _with_derived(ep: Dict[str, Any]) -> Dict[str, Any]:
    """An endpoint's counters plus what is read off them (recomputed on
    every merge, never merged)."""
    count, buckets, top = ep["count"], ep["buckets"], ep["max_seconds"]
    return {
        **ep,
        "mean_seconds": ep["total_seconds"] / count if count else None,
        "p50_seconds": _percentile(buckets, top, 50),
        "p99_seconds": _percentile(buckets, top, 99),
    }


class EndpointMetrics:
    """Counters for one endpoint; not thread-safe on its own (the registry
    serialises access)."""

    __slots__ = ("name", "count", "errors", "total_seconds", "min_seconds",
                 "max_seconds", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.min_seconds: Optional[float] = None
        self.max_seconds: Optional[float] = None
        self.buckets = [0] * (len(LATENCY_BUCKETS) + 1)

    def observe(self, seconds: float, error: bool = False) -> None:
        self.count += 1
        if error:
            self.errors += 1
        self.total_seconds += seconds
        self.min_seconds = (seconds if self.min_seconds is None
                            else min(self.min_seconds, seconds))
        self.max_seconds = (seconds if self.max_seconds is None
                            else max(self.max_seconds, seconds))
        self.buckets[bisect_left(LATENCY_BUCKETS, seconds)] += 1

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile, exact to one bucket."""
        return _percentile(self.buckets, self.max_seconds, p)

    def as_dict(self) -> Dict[str, Any]:
        used = len(self.buckets)
        while used and not self.buckets[used - 1]:
            used -= 1
        return _with_derived({
            "count": self.count,
            "errors": self.errors,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "buckets": self.buckets[:used],
        })


class MetricsRegistry:
    """Thread-safe collection of :class:`EndpointMetrics` plus uptime.

    ``clock`` is injectable for tests; it must be monotonic.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointMetrics] = {}  # guarded-by: _lock
        self._gauges: Dict[str, float] = {}  # guarded-by: _lock
        self._clock = clock
        self._started = clock()

    def observe(self, endpoint: str, seconds: float, error: bool = False) -> None:
        with self._lock:
            em = self._endpoints.get(endpoint)
            if em is None:
                em = EndpointMetrics(endpoint)
                self._endpoints[endpoint] = em
            em.observe(seconds, error=error)

    @contextmanager
    def timer(self, endpoint: str) -> Iterator[None]:
        """Time a block; records an error observation when it raises."""
        start = self._clock()
        try:
            yield
        except BaseException:
            self.observe(endpoint, self._clock() - start, error=True)
            raise
        self.observe(endpoint, self._clock() - start)

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time level (queue depth, in-flight requests).

        Gauges are last-write-wins, not accumulated; merged snapshots
        combine them by :func:`merge_counters` (depths and in-flight
        counts across shards add up, ``*_max`` high-water marks take the
        max).
        """
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def endpoint(self, name: str) -> Optional[EndpointMetrics]:
        with self._lock:
            return self._endpoints.get(name)

    @property
    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot: per-endpoint stats + derived requests/sec.

        ``total_requests`` counts top-level endpoints only: a dotted name
        ("solve.cold", "solve.hit") is a sub-timer of its prefix endpoint
        and would double-count.
        """
        with self._lock:
            uptime = self.uptime_seconds
            endpoints = {
                name: em.as_dict() for name, em in self._endpoints.items()
            }
            gauges = dict(self._gauges)
        return _registry_view(endpoints, gauges, uptime)


def _registry_view(endpoints: Dict[str, Any], gauges: Dict[str, float],
                   uptime: float) -> Dict[str, Any]:
    """The snapshot shape a registry and a merge both report."""
    total = sum(e["count"] for name, e in endpoints.items() if "." not in name)
    return {
        "uptime_seconds": uptime,
        "total_requests": total,
        "requests_per_second": total / uptime if uptime > 0 else 0.0,
        "endpoints": endpoints,
        "gauges": gauges,
    }


# ----------------------------------------------------------------------
def process_snapshot() -> Dict[str, Any]:
    """Footprint of the calling process, as every snapshot reports it.

    ``max_rss_bytes`` is the kernel's resident-set high-water mark
    (``ru_maxrss``: kilobytes on Linux, bytes on macOS; Linux carries
    it across ``exec``, so a process started by a larger one reports at
    least what its parent held resident at that moment).  ``pid`` lets
    a merged view count a process that holds several ring slots once.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "pid": os.getpid(),
        "max_rss_bytes": peak if sys.platform == "darwin" else peak * 1024,
    }


def distinct_processes(snapshot: Dict[str, Any]) -> list:
    """``(shard label, process dict)`` per distinct process in a broker
    or sharded-broker snapshot: the front end first, then every shard
    that lives in a process of its own."""
    found = []
    seen = set()
    candidates = [("front", snapshot.get("process"))] + [
        (str(s.get("shard")), s.get("process"))
        for s in snapshot.get("per_shard", [])
    ]
    for label, process in candidates:
        if process is not None and process["pid"] not in seen:
            seen.add(process["pid"])
            found.append((label, process))
    return found


def _merge_value(key: str, old: Any, new: Any) -> Any:
    if old is None or new is None:
        return new if old is None else old
    if isinstance(new, dict):
        return merge_counters([old, new])
    if isinstance(new, list):
        return [a + b for a, b in zip_longest(old, new, fillvalue=0)]
    if key == "min_seconds":
        return min(old, new)
    if key == "max_seconds" or key.endswith("_max"):
        return max(old, new)
    return old + new


def merge_counters(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge snapshot sections by the one rule: numbers add; ``*_max``
    and ``max_seconds`` take the max, ``min_seconds`` the min; lists add
    element by element; nested dicts merge by the same rule; ``None``
    counts as absent.  Ratios and percentiles are the caller's to
    recompute from the merged counters."""
    out: Dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = _merge_value(key, out.get(key), value)
    return out


def merge_snapshots(snapshots: Iterable[Dict[str, Any]],
                    uptime_seconds: Optional[float] = None) -> Dict[str, Any]:
    """Merge per-shard :meth:`MetricsRegistry.snapshot` dicts into one.

    Endpoints and gauges merge by :func:`merge_counters`, and each
    endpoint's mean and percentiles are re-read off the merged counters:
    the result is what one registry that had seen every observation
    would report.

    ``uptime_seconds`` should be the *caller registry's* uptime (the
    front door every merged request passed through): remote shards start
    — and restart, and rejoin — at their own times, so the max of shard
    uptimes can be far longer than the service has been routing requests,
    deflating the derived requests/sec.  Without it the max across
    snapshots is used as a fallback (exact only when every shard started
    with the caller).
    """
    snapshots = list(snapshots)
    uptime = (uptime_seconds if uptime_seconds is not None
              else max((s.get("uptime_seconds", 0.0) for s in snapshots),
                       default=0.0))
    merged = merge_counters(s.get("endpoints", {}) for s in snapshots)
    endpoints = {name: _with_derived(ep)
                 for name, ep in sorted(merged.items())}
    gauges = merge_counters(s.get("gauges", {}) for s in snapshots)
    return _registry_view(endpoints, gauges, uptime)


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4) of a broker snapshot
# ----------------------------------------------------------------------
def _label_escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _histogram_samples(name: str, ep: Dict[str, Any]) -> Iterator[tuple]:
    """One endpoint's histogram lines: cumulative buckets up to the
    highest non-empty one, then ``+Inf``, ``_sum`` and ``_count``."""
    cumulative = 0
    for bound, n in zip(LATENCY_BUCKETS, ep["buckets"]):
        cumulative += n
        yield {"endpoint": name, "le": bound}, cumulative, "_bucket"
    yield {"endpoint": name, "le": "+Inf"}, ep["count"], "_bucket"
    yield {"endpoint": name}, ep["total_seconds"], "_sum"
    yield {"endpoint": name}, ep["count"], "_count"


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a broker/sharded-broker :meth:`snapshot` dict as Prometheus
    text exposition.

    The snapshot stays the single source of truth — this is a *view* of
    it, so every deployment (single broker, sharded, remote shards) exposes
    identical metric names.  Endpoint latencies come out as one histogram
    family over :data:`LATENCY_BUCKETS`, which aggregates across scrapes
    and deployments by adding.
    """
    metrics = snapshot.get("metrics", {})
    lines: list = []

    def emit(name: str, kind: str, help_text: str, samples: list) -> None:
        real = [sample for sample in samples if sample[1] is not None]
        if not real:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value, *suffix in real:
            label_text = ""
            if labels:
                inner = ",".join(
                    f'{k}="{_label_escape(str(v))}"'
                    for k, v in sorted(labels.items())
                )
                label_text = "{" + inner + "}"
            lines.append(f"{name}{''.join(suffix)}{label_text} {value}")

    emit("repro_uptime_seconds", "gauge",
         "Seconds since the metrics registry started.",
         [({}, metrics.get("uptime_seconds"))])
    emit("repro_requests_total", "counter",
         "Top-level requests observed (sub-timers excluded).",
         [({}, metrics.get("total_requests"))])
    emit("repro_requests_per_second", "gauge",
         "Aggregate request rate over the service uptime.",
         [({}, metrics.get("requests_per_second"))])
    emit("repro_shard_coalesced_total", "counter",
         "Solves coalesced at a shard across brokers (same fingerprint "
         "already in flight).",
         [({}, snapshot.get("shard_coalesced"))])

    gauges = metrics.get("gauges", {})
    emit("repro_gauge", "gauge",
         "Point-in-time service levels (queue depth, in-flight requests; "
         "*_max names are high-water marks).",
         [({"name": name}, value) for name, value in sorted(gauges.items())])

    endpoints = metrics.get("endpoints", {})
    emit("repro_request_duration_seconds", "histogram",
         "Per-endpoint request latency (log-scale buckets, each 2^(1/4) "
         "times the one before).",
         [sample for name, ep in sorted(endpoints.items())
          for sample in _histogram_samples(name, ep)])
    emit("repro_request_errors_total", "counter",
         "Per-endpoint error count.",
         [({"endpoint": name}, ep.get("errors"))
          for name, ep in sorted(endpoints.items())])

    cache = snapshot.get("cache", {})
    for key, help_text in (
        ("size", "Entries currently cached."),
        ("bytes", "Bytes of reply JSON the cached entries keep."),
        ("hits", "Cache lookups served."),
        ("misses", "Cache lookups missed."),
        ("evictions", "Entries evicted by the size bound."),
        ("invalidations", "Entries dropped by platform invalidation."),
    ):
        kind = "gauge" if key in ("size", "bytes") else "counter"
        suffix = "" if kind == "gauge" else "_total"
        emit(f"repro_cache_{key}{suffix}", kind, help_text,
             [({}, cache.get(key))])
    emit("repro_cache_hit_rate", "gauge",
         "Fraction of cache lookups served.",
         [({}, cache.get("hit_rate"))])

    replication = snapshot.get("replication", {})
    emit("repro_shard_load_imbalance", "gauge",
         "Max/mean per-shard request load (1.0 = perfectly even).",
         [({}, replication.get("load_imbalance"))])
    near = replication.get("near_cache", {})
    emit("repro_near_cache_size", "gauge",
         "Entries in the broker near-cache.", [({}, near.get("size"))])
    emit("repro_near_cache_hits_total", "counter",
         "Requests served from the broker near-cache (no shard touched).",
         [({}, near.get("hits"))])
    emit("repro_near_cache_misses_total", "counter",
         "Near-cache lookups that fell through to the ring.",
         [({}, near.get("misses"))])
    memo = replication.get("body_memo", {})
    emit("repro_body_memo_hits_total", "counter",
         "Solve bodies the HTTP loop knew by their bytes (no decode, no "
         "fingerprint).", [({}, memo.get("hits"))])
    emit("repro_body_memo_misses_total", "counter",
         "Loop-road POST bodies the body memo did not hold.",
         [({}, memo.get("misses"))])
    emit("repro_body_memo_entries", "gauge",
         "Solve bodies held by the body memo.", [({}, memo.get("entries"))])
    emit("repro_body_memo_bytes", "gauge",
         "Bytes the body memo keeps: bodies and their kept requests.",
         [({}, memo.get("bytes"))])

    health = snapshot.get("shard_health", {})
    for key in ("shard_failures", "shard_timeouts", "shard_restarts",
                "failovers", "rejoins"):
        emit(f"repro_{key}_total", "counter",
             f"Supervision counter: {key.replace('_', ' ')}.",
             [({}, health.get(key))])
    emit("repro_shard_up", "gauge",
         "Per-shard liveness (1 = on the ring, 0 = ejected or dead).",
         [({"shard": s.get("shard"), "kind": s.get("kind", "?")},
           1 if s.get("active") else 0)
          for s in health.get("shards", [])])

    incremental = snapshot.get("incremental", {})
    emit("repro_warm_models", "gauge",
         "Hot LP models retained for warm re-solves.",
         [({}, incremental.get("hot_models"))])
    for key in sorted(incremental):
        if key == "hot_models":
            continue
        if key.endswith("_max"):
            # high-water marks (eta-file length, ...) are gauges: they
            # can reset with their SimplexInstance and merge by max
            emit(f"repro_warm_{key}", "gauge",
                 f"Warm-path high-water mark: {key.replace('_', ' ')}.",
                 [({}, incremental.get(key))])
            continue
        emit(f"repro_warm_{key}_total", "counter",
             f"Warm-path counter: {key.replace('_', ' ')}.",
             [({}, incremental.get(key))])
    basis_nnz = incremental.get("lu_basis_nnz")
    if basis_nnz:
        emit("repro_warm_lu_fill_ratio", "gauge",
             "Sparse-LU fill ratio: accumulated L+U nonzeros over basis "
             "nonzeros (1.0 = no fill-in).",
             [({}, incremental.get("lu_fill_nnz", 0) / basis_nnz)])

    processes = distinct_processes(snapshot)
    emit("repro_process_max_rss_bytes", "gauge",
         "Resident-set high-water mark of each process of the deployment.",
         [({"shard": label}, process["max_rss_bytes"])
          for label, process in processes])

    traces = snapshot.get("traces", {})
    emit("repro_traces_captured_total", "counter",
         "Traces captured by the in-memory store.",
         [({}, traces.get("captured"))])
    emit("repro_traces_slow_total", "counter",
         "Captured traces over the slow threshold.",
         [({}, traces.get("slow_captured"))])
    emit("repro_traces_bytes", "gauge",
         "Bytes of JSON the stored traces keep.", [({}, traces.get("bytes"))])

    return "\n".join(lines) + "\n"
