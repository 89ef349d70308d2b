"""repro.service — a cached, batched steady-state scheduling service.

The paper's central argument is that steady-state throughput is *cheap to
compute* (one LP per platform) and therefore practical to recompute as
platforms change.  This package turns the one-shot solver library into a
long-running scheduling service that amortises solves across requests:

* :mod:`~repro.service.fingerprint` — canonical, order-independent hashing
  of a platform + problem spec, so structurally identical requests share a
  cache key;
* :mod:`~repro.service.cache` — an LRU solution cache with hit / miss /
  eviction counters and explicit invalidation on platform mutation;
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
  :class:`~repro.service.transport.AsyncTcpTransport` multiplexes many in-flight id-tagged
  requests over one connection (a TCP dial to ``python -m repro
  shard-serve``, or a local worker's socketpair),
  :class:`~repro.service.transport.AsyncShardServer` answers pings on the loop, enforces
  server-side op deadlines and coalesces cross-broker solves by
  fingerprint — and the exact JSON result codec they reply with;
* :mod:`~repro.service.sharding` — :class:`~repro.service.sharding.ShardedBroker`: consistent-
  hash routing over local worker processes and remote TCP shards with
  health supervision (auto-restart, ring ejection/rejoin, failover) —
  coroutines on one private event loop behind a synchronous API;
* :mod:`~repro.service.tracing` — request-scoped span trees threaded
  through every layer above (broker, ring, transports, simplex), a
  bounded slow-trace store behind ``GET /traces`` / ``GET /trace/<id>``,
  structured JSON supervision events, and the Prometheus text view of
  the metrics snapshot (``GET /metrics?format=prometheus``).

The package re-exports nothing: each name is imported from the module
that defines it (``repro`` itself offers ``Broker`` and ``SolveRequest``),
so a shard process that imports :mod:`~repro.service.transport` loads
neither the API layer nor the ring.

Quickstart
----------
>>> from repro import Broker, SolveRequest, generators
>>> from repro.problems import MasterSlaveSpec
>>> broker = Broker()
>>> req = SolveRequest(MasterSlaveSpec(platform=generators.paper_figure1(),
...                                    master="P1"))
>>> cold = broker.solve(req)
>>> warm = broker.solve(req)          # served from cache
>>> assert warm.cached and warm.solution.throughput == cold.solution.throughput
"""
