"""repro.service — a cached, batched steady-state scheduling service.

The paper's central argument is that steady-state throughput is *cheap to
compute* (one LP per platform) and therefore practical to recompute as
platforms change.  This package turns the one-shot solver library into a
long-running scheduling service that amortises solves across requests:

* :mod:`~repro.service.fingerprint` — canonical, order-independent hashing
  of a platform + problem spec, so structurally identical requests share a
  cache key;
* :mod:`~repro.service.cache` — an LRU + TTL solution cache with hit /
  miss / eviction counters and explicit invalidation on platform mutation;
* :mod:`~repro.service.broker` — the cache → warm → cold solve core of
  one shard and the in-process broker around it, dispatching every
  problem through the typed solver registry of :mod:`repro.problems`
  (one generic path, no per-problem adapters);
* :mod:`~repro.service.incremental` — warm re-solve when only edge/node
  weights change, for every solver declaring the ``warm_resolve``
  capability (the LP structure is reused, only coefficients are rebuilt;
  topology changes fall back to a full rebuild);
* :mod:`~repro.service.api` — a JSON request/response layer and the
  ``python -m repro serve`` / ``python -m repro submit`` CLI entry points;
* :mod:`~repro.service.metrics` — per-endpoint latency / throughput
  counters exposed through the API;
* :mod:`~repro.service.transport` + :mod:`~repro.service.wire` — the
  shard wire protocol, one client and one server for every shard:
  :class:`AsyncTcpTransport` multiplexes many in-flight id-tagged
  requests over one connection (a TCP dial to ``python -m repro
  shard-serve``, or a local worker's socketpair),
  :class:`AsyncShardServer` answers pings on the loop, enforces
  server-side op deadlines and coalesces cross-broker solves by
  fingerprint — and the exact JSON result codec they reply with;
* :mod:`~repro.service.sharding` — :class:`ShardedBroker`: consistent-
  hash routing over local worker processes and remote TCP shards with
  health supervision (auto-restart, ring ejection/rejoin, failover) —
  coroutines on one private event loop behind a synchronous API;
* :mod:`~repro.service.tracing` — request-scoped span trees threaded
  through every layer above (broker, ring, transports, simplex), a
  bounded slow-trace store behind ``GET /traces`` / ``GET /trace/<id>``,
  structured JSON supervision events, and the Prometheus text view of
  the metrics snapshot (``GET /metrics?format=prometheus``).

Quickstart
----------
>>> from repro import generators
>>> from repro.service import Broker, SolveRequest
>>> broker = Broker()
>>> req = SolveRequest(problem="master-slave",
...                    platform=generators.paper_figure1(), master="P1")
>>> cold = broker.solve(req)
>>> warm = broker.solve(req)          # served from cache
>>> assert warm.cached and warm.solution.throughput == cold.solution.throughput
"""

from .fingerprint import (
    platform_signature,
    request_fingerprint,
    spec_signature,
    topology_signature,
)
from .cache import CacheEntry, CacheStats, HeatSketch, SolutionCache
from .metrics import (
    EndpointMetrics,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from .tracing import (
    EventLog,
    Span,
    Trace,
    TraceStore,
    activate,
    annotate,
    current_span,
    current_trace,
    log_event,
    render_waterfall,
    span,
    start_trace,
)
from .broker import Broker, BrokerResult, SolveEngine, SolveRequest
from .incremental import IncrementalSolver, WarmSolveStats
from .api import (
    AsyncServiceServer,
    handle_request,
    request_from_dict,
    request_to_dict,
    response_to_dict,
    route_get,
    route_post,
)
from .wire import (
    WireCodecError,
    result_from_wire,
    result_to_wire,
    solution_from_wire,
    solution_to_wire,
)
from .transport import (
    AsyncShardServer,
    AsyncTcpTransport,
    TransportError,
    TransportTimeout,
    encode_frame,
    parse_shard_address,
    read_frame_async,
)
from .sharding import (
    HashRing,
    ShardedBroker,
    ShardError,
    ShardTimeoutError,
    ShardUnavailableError,
)

__all__ = [
    "platform_signature",
    "topology_signature",
    "spec_signature",
    "request_fingerprint",
    "CacheEntry",
    "CacheStats",
    "HeatSketch",
    "SolutionCache",
    "EndpointMetrics",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus",
    "EventLog",
    "Span",
    "Trace",
    "TraceStore",
    "activate",
    "annotate",
    "current_span",
    "current_trace",
    "log_event",
    "render_waterfall",
    "span",
    "start_trace",
    "Broker",
    "BrokerResult",
    "SolveEngine",
    "SolveRequest",
    "HashRing",
    "ShardedBroker",
    "ShardError",
    "ShardTimeoutError",
    "ShardUnavailableError",
    "TransportError",
    "TransportTimeout",
    "AsyncTcpTransport",
    "AsyncShardServer",
    "encode_frame",
    "read_frame_async",
    "parse_shard_address",
    "WireCodecError",
    "result_to_wire",
    "result_from_wire",
    "solution_to_wire",
    "solution_from_wire",
    "IncrementalSolver",
    "WarmSolveStats",
    "AsyncServiceServer",
    "handle_request",
    "request_from_dict",
    "request_to_dict",
    "response_to_dict",
    "route_get",
    "route_post",
]
