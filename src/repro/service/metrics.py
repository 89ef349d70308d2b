"""Per-endpoint latency / throughput counters for the scheduling service.

Each endpoint (``solve``, ``batch``, ``invalidate``, ...) accumulates a
request count, an error count, total busy time and a bounded reservoir of
recent latencies from which p50/p99 are read.  Everything is thread-safe
and snapshottable as JSON — the API exposes :meth:`MetricsRegistry.snapshot`
verbatim.

The reservoir keeps the most recent ``reservoir_size`` observations (a
sliding window, not a random sample): the service cares about *current*
tail latency, and a window is both exact over its span and cheap.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, Iterator, Optional
from contextlib import contextmanager


def _nearest_rank(ordered: list, p: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class EndpointMetrics:
    """Counters for one endpoint; not thread-safe on its own (the registry
    serialises access)."""

    __slots__ = ("name", "count", "errors", "total_seconds", "min_seconds",
                 "max_seconds", "_window")

    def __init__(self, name: str, reservoir_size: int = 4096) -> None:
        self.name = name
        self.count = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.min_seconds: Optional[float] = None
        self.max_seconds: Optional[float] = None
        self._window: "deque[float]" = deque(maxlen=reservoir_size)

    def observe(self, seconds: float, error: bool = False) -> None:
        self.count += 1
        if error:
            self.errors += 1
        self.total_seconds += seconds
        self.min_seconds = (seconds if self.min_seconds is None
                            else min(self.min_seconds, seconds))
        self.max_seconds = (seconds if self.max_seconds is None
                            else max(self.max_seconds, seconds))
        self._window.append(seconds)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the recent-latency window."""
        if not self._window:
            return None
        return _nearest_rank(sorted(self._window), p)

    @property
    def mean_seconds(self) -> Optional[float]:
        return self.total_seconds / self.count if self.count else None

    def as_dict(self) -> Dict[str, Any]:
        # one sort serves every percentile in the snapshot — percentile()
        # used to be called per quantile, sorting the window each time
        ordered = sorted(self._window)
        return {
            "count": self.count,
            "errors": self.errors,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": _nearest_rank(ordered, 50) if ordered else None,
            "p99_seconds": _nearest_rank(ordered, 99) if ordered else None,
            "window": len(ordered),
        }


class MetricsRegistry:
    """Thread-safe collection of :class:`EndpointMetrics` plus uptime.

    ``clock`` is injectable for tests; it must be monotonic.
    """

    def __init__(
        self,
        reservoir_size: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointMetrics] = {}  # guarded-by: _lock
        self._gauges: Dict[str, float] = {}  # guarded-by: _lock
        self._reservoir_size = reservoir_size
        self._clock = clock
        self._started = clock()

    def observe(self, endpoint: str, seconds: float, error: bool = False) -> None:
        with self._lock:
            em = self._endpoints.get(endpoint)
            if em is None:
                em = EndpointMetrics(endpoint, self._reservoir_size)
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

        Gauges are last-write-wins, not accumulated; when snapshots from
        several registries are merged the convention is: names ending in
        ``_max`` merge by max, everything else sums (depths and in-flight
        counts across shards add up).
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
        total = sum(
            e["count"] for name, e in endpoints.items() if "." not in name
        )
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


def _merge_endpoint_dicts(dicts: list) -> Dict[str, Any]:
    count = sum(d["count"] for d in dicts)
    errors = sum(d["errors"] for d in dicts)
    total = sum(d["total_seconds"] for d in dicts)
    mins = [d["min_seconds"] for d in dicts if d["min_seconds"] is not None]
    maxs = [d["max_seconds"] for d in dicts if d["max_seconds"] is not None]

    def weighted(key: str) -> Optional[float]:
        pairs = [(d[key], d["count"]) for d in dicts
                 if d.get(key) is not None and d["count"]]
        weight = sum(n for _v, n in pairs)
        if not weight:
            return None
        return sum(v * n for v, n in pairs) / weight

    return {
        "count": count,
        "errors": errors,
        "total_seconds": total,
        "mean_seconds": total / count if count else None,
        "min_seconds": min(mins) if mins else None,
        "max_seconds": max(maxs) if maxs else None,
        "p50_seconds": weighted("p50_seconds"),
        "p99_seconds": weighted("p99_seconds"),
        "window": sum(d["window"] for d in dicts),
    }


def merge_snapshots(snapshots: Iterable[Dict[str, Any]],
                    uptime_seconds: Optional[float] = None) -> Dict[str, Any]:
    """Merge per-shard :meth:`MetricsRegistry.snapshot` dicts into one.

    Counts, errors and busy time are exact sums; min/max are exact;
    the mean is re-derived from the summed totals.  Percentiles cannot be
    reconstructed from per-shard percentiles, so the merged p50/p99 are
    *count-weighted averages* of the shard values — a documented
    approximation (exact when shards see similar latency distributions,
    which hash routing makes the common case).

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
    names: Dict[str, list] = {}
    for snap in snapshots:
        for name, ep in snap.get("endpoints", {}).items():
            names.setdefault(name, []).append(ep)
    endpoints = {
        name: _merge_endpoint_dicts(dicts)
        for name, dicts in sorted(names.items())
    }
    # gauges are levels, not rates: in-flight/depth gauges sum across
    # shards, high-water marks (``*_max``) take the max
    gauges: Dict[str, float] = {}
    for snap in snapshots:
        for name, value in snap.get("gauges", {}).items():
            if name in gauges:
                gauges[name] = (max(gauges[name], value)
                                if name.endswith("_max")
                                else gauges[name] + value)
            else:
                gauges[name] = value
    total = sum(
        e["count"] for name, e in endpoints.items() if "." not in name
    )
    return {
        "uptime_seconds": uptime,
        "total_requests": total,
        "requests_per_second": total / uptime if uptime > 0 else 0.0,
        "endpoints": endpoints,
        "gauges": gauges,
    }


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4) of a broker snapshot
# ----------------------------------------------------------------------
def _label_escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a broker/sharded-broker :meth:`snapshot` dict as Prometheus
    text exposition.

    The snapshot stays the single source of truth — this is a *view* of
    it, so every deployment (single broker, sharded, remote shards) exposes
    identical metric names.  Endpoint latencies come out as summary-style
    quantile samples (pre-computed nearest-rank p50/p99, not client-side
    aggregatable histograms — documented limitation).
    """
    metrics = snapshot.get("metrics", {})
    lines: list = []

    def emit(name: str, kind: str, help_text: str, samples: list) -> None:
        real = [(labels, v) for labels, v in samples if v is not None]
        if not real:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in real:
            label_text = ""
            if labels:
                inner = ",".join(
                    f'{k}="{_label_escape(str(v))}"'
                    for k, v in sorted(labels.items())
                )
                label_text = "{" + inner + "}"
            lines.append(f"{name}{label_text} {value}")

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
    emit("repro_request_duration_seconds", "summary",
         "Per-endpoint request latency (nearest-rank quantiles over the "
         "recent window).",
         [({"endpoint": name, "quantile": q}, ep.get(f"p{p}_seconds"))
          for name, ep in sorted(endpoints.items())
          for q, p in (("0.5", 50), ("0.99", 99))])
    emit("repro_request_duration_seconds_sum", "counter",
         "Per-endpoint total busy time.",
         [({"endpoint": name}, ep.get("total_seconds"))
          for name, ep in sorted(endpoints.items())])
    emit("repro_request_duration_seconds_count", "counter",
         "Per-endpoint request count.",
         [({"endpoint": name}, ep.get("count"))
          for name, ep in sorted(endpoints.items())])
    emit("repro_request_errors_total", "counter",
         "Per-endpoint error count.",
         [({"endpoint": name}, ep.get("errors"))
          for name, ep in sorted(endpoints.items())])

    cache = snapshot.get("cache", {})
    for key, help_text in (
        ("size", "Entries currently cached."),
        ("hits", "Cache lookups served."),
        ("misses", "Cache lookups missed."),
        ("evictions", "Entries evicted by the size bound."),
        ("expirations", "Entries expired by TTL."),
        ("invalidations", "Entries dropped by platform invalidation."),
    ):
        kind = "gauge" if key == "size" else "counter"
        suffix = "" if key == "size" else "_total"
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
    emit("repro_near_cache_stale_rejects_total", "counter",
         "Near-cache admissions refused because the generation moved "
         "during the solve (stale serves stay impossible).",
         [({}, near.get("stale_rejects"))])

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

    return "\n".join(lines) + "\n"
