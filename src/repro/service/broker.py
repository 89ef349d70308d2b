"""Request broker: the solve core of one shard and its in-process facade.

The broker sits between the JSON API (or a library caller) and the LP
solvers.  For every :class:`SolveRequest` it:

1. computes the request's canonical fingerprint
   (:mod:`repro.service.fingerprint`);
2. serves it from the :class:`~repro.service.cache.SolutionCache` when a
   structurally identical request was solved before;
3. otherwise solves it on the calling thread: a problem with an LP
   model (the ``warm_resolve`` capability) through the engine's
   :mod:`repro.service.incremental` solver, which patches and re-solves
   a hot model of the same topology or builds one, and any other
   through the problem registry (:mod:`repro.problems.registry`);
4. leaves concurrency to the served broker: ``python -m repro serve`` is
   always a :class:`~repro.service.sharding.ShardedBroker` ring, whose
   shards run misses on their engine lane and coalesce identical
   in-flight solves.

A batch is its requests' solves, under the ``solve.batch`` timer, so a
duplicate inside a batch is served from the cache like any other
request: each steady-state LP is a small, independent job.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.activities import SteadyStateSolution
from ..platform.graph import Platform
from ..platform.serialization import (
    platform_from_dict,
    platform_to_dict,
    schedule_to_dict,
)
from ..problems import (
    ProblemSpec,
    SpecError,
    reconstructable_problems,
    resolve,
    spec_from_wire,
)
from .cache import CacheEntry, KeptRequest, SolutionCache, topology_digest
from .fingerprint import request_fingerprint
from .incremental import IncrementalSolver
from .metrics import MetricsRegistry, process_snapshot
from .tracing import current_span, span

#: Malformed request (unknown problem kind, missing fields, ...).  The
#: historical broker-level error type is the spec-validation error of the
#: problem registry: a request is malformed exactly when its typed spec
#: cannot be built, so both layers raise the same class.
BrokerError = SpecError


#: where a solution keeps its throughput, by precedence — attribute
#: names on the objects, and keys of their response payloads
THROUGHPUT_FIELDS = ("throughput", "achieved", "tree_optimal")


def solution_throughput(solution: Any):
    """The throughput of any registered problem's solution object."""
    for attr in THROUGHPUT_FIELDS:
        if hasattr(solution, attr):
            return getattr(solution, attr)
    raise AttributeError(f"no throughput on {type(solution).__name__}")


def schedule_flag(request_wire: Any) -> bool:
    """The ``include_schedule`` of a wire request: absent is ``False``
    and a JSON boolean is itself.  Anything else — ``"false"`` is a
    string, not a no — is a :class:`BrokerError` naming the field."""
    if not isinstance(request_wire, dict):
        raise BrokerError(f"a solve request is a JSON object, not "
                          f"{type(request_wire).__name__}")
    flag = request_wire.get("include_schedule", False)
    if not isinstance(flag, bool):
        raise BrokerError(
            f"'include_schedule' must be true or false, not {flag!r}")
    return flag


@dataclass(frozen=True)
class SolveRequest:
    """One steady-state solve: a typed spec, and whether to reconstruct
    its periodic schedule.

    ``spec`` is a validated :class:`~repro.problems.specs.ProblemSpec`
    of a registered problem (see :func:`repro.problems.registered_problems`)
    and carries everything the solve needs — its platform, its
    distinguished node, its commodity set, its options.  A served
    request is solved exactly, so there is no solver choice to carry;
    ``include_schedule`` asks for the reconstructed periodic schedule
    alongside the solution, and a problem that cannot reconstruct one
    is a :class:`BrokerError` here, not a silent omission later.
    """

    spec: ProblemSpec
    include_schedule: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ProblemSpec):
            raise BrokerError(f"a solve request needs a ProblemSpec, got "
                              f"{type(self.spec).__name__}")
        entry = resolve(self.spec.problem)
        port_model = self.spec.port_setting()[0]
        if self.include_schedule and (
                not entry.capabilities.reconstructs_schedule
                or port_model != "one-port"):
            # fail loudly up front rather than returning a response whose
            # missing "schedule" the client cannot tell from a server bug.
            # Another port model has no served schedule either: a
            # send-or-receive schedule's period is stretched past the lcm
            # of the LP's denominators, and multiport's per-card
            # reconstruction (section 5.1.2) is not implemented
            under = "" if port_model == "one-port" \
                else f" under the {port_model} model"
            raise BrokerError(
                f"include_schedule is not supported for {entry.problem!r}"
                f"{under}; schedules are reconstructable for: "
                f"{sorted(reconstructable_problems())} under one-port"
            )
        # snapshot: Platform is mutable (add_node/add_edge), and both the
        # memoized fingerprint and any cached solution must describe the
        # platform as it was when the request was made — not whatever the
        # caller mutates it into afterwards
        object.__setattr__(self, "spec", dataclasses.replace(
            self.spec, platform=self.spec.platform.copy()))
        object.__setattr__(self, "include_schedule",
                           bool(self.include_schedule))

    # kept only for bench/workloads.py's SolveRequest.from_spec(spec)
    @classmethod
    def from_spec(cls, spec: ProblemSpec,
                  include_schedule: bool = False) -> "SolveRequest":
        return cls(spec, include_schedule)

    @classmethod
    def from_kept(cls, kept: KeptRequest) -> "SolveRequest":
        """The request a :class:`~repro.service.cache.BodyMemo` entry
        keeps, rebuilt from its bytes and scalars: its fingerprint,
        topology digest and wire bytes are read off ``kept``, and its
        ``spec`` is decoded from the bytes only when first read."""
        request = object.__new__(cls)
        request.__dict__.update(
            include_schedule=kept.include_schedule, _problem=kept.problem,
            _fingerprint=kept.fingerprint, _topology=kept.topology,
            _wire_json=kept.request_json)
        return request

    def __getattr__(self, name: str) -> Any:
        # reached only for an absent attribute: the spec of a request
        # rebuilt by from_kept, decoded on its first read
        wire = self.__dict__.get("_wire_json")
        if name != "spec" or wire is None:
            raise AttributeError(name)
        data = json.loads(wire)
        spec = spec_from_wire(platform_from_dict(data["platform"]),
                              data["spec"])
        object.__setattr__(self, "spec", spec)
        return spec

    @property
    def problem(self) -> str:
        return self.__dict__.get("_problem") or self.spec.problem

    @property
    def platform(self) -> Platform:
        return self.spec.platform

    def _memo(self, name: str, compute) -> Any:
        cached = self.__dict__.get(name)
        if cached is None:
            cached = compute()
            object.__setattr__(self, name, cached)
        return cached

    def fingerprint(self) -> str:
        """The cache key: :func:`request_fingerprint` of the spec,
        memoized (``include_schedule`` is not part of it)."""
        return self._memo("_fingerprint",
                          lambda: request_fingerprint(self.spec))

    def topology(self) -> bytes:
        """The platform's ``topology_signature``, memoized: what the
        near-cache files an admitted answer under."""
        return self._memo("_topology",
                          lambda: topology_digest(self.platform))

    def wire_json(self) -> bytes:
        """The request's canonical compact wire bytes, memoized and
        read-only: what a shard frame splices
        (:func:`~repro.service.transport.message_json`), so re-sends and
        failovers never re-encode the platform, and what
        :func:`repro.service.api.request_to_dict` decodes."""
        from .wire import compact_json  # deferred: wire imports broker

        return self._memo("_wire_json", lambda: compact_json({
            "spec": self.spec.to_wire(),
            "platform": platform_to_dict(self.platform),
            "include_schedule": self.include_schedule,
        }))


@dataclass
class BrokerResult:
    """What a solve request resolves to.

    ``cached`` / ``warm`` describe how the solve that answered it went.
    """

    fingerprint: str
    solution: Any
    schedule: Any = None
    cached: bool = False
    warm: bool = False
    latency_seconds: float = 0.0

    @property
    def throughput(self):
        return solution_throughput(self.solution)


# ----------------------------------------------------------------------
# cold execution
# ----------------------------------------------------------------------
def execute_request(request: SolveRequest) -> Any:
    """Dispatch one request through the problem registry.

    One generic path for every registered problem: the request's typed
    spec (validated at construction) goes straight to the registered
    solver — no per-problem branches, no argument adapters.
    """
    return resolve(request.problem).solve(request.spec)


# ----------------------------------------------------------------------
class SolveEngine:
    """The cache → warm → cold solve core of *one* shard.

    Owns exactly the state that must never be shared across shards — a
    :class:`SolutionCache`, a :class:`MetricsRegistry` and an
    :class:`~repro.service.incremental.IncrementalSolver` with its hot LP
    models (each created when not passed) — and nothing else: no pools,
    no futures, no coalescing.  A problem with an LP model is solved by
    the incremental solver, warm when its structure is hot; any other
    goes through :func:`execute_request`.
    :class:`Broker` calls one engine inline;
    :class:`~repro.service.sharding.ShardedBroker` runs N of them side
    by side, each behind a shard server that coalesces in-flight twins.
    """

    def __init__(
        self,
        cache: Optional[SolutionCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        incremental: Optional[IncrementalSolver] = None,
    ) -> None:
        self.cache = cache if cache is not None else SolutionCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.incremental = (incremental if incremental is not None
                            else IncrementalSolver())

    # ------------------------------------------------------------------
    def run(self, request: SolveRequest, fp: str) -> BrokerResult:
        """Solve one request (cache -> warm -> cold), metered: the cache
        entry's bytes, bound to the request's spec when read."""
        start = time.perf_counter()
        served = self.run_hit(fp, request.include_schedule)
        if served is not None:
            served.request = request  # bound, and decoded, on read
            return served
        with span("engine.run") as sp:
            try:
                lookup_started = time.perf_counter()
                entry = self.cache.get(fp)
                if entry is not None:
                    # the entry lacks the schedule this request wants (or
                    # landed since run_hit looked): reconstruct on top
                    result = self._from_cache(request, entry)
                    self.metrics.observe("solve.hit",
                                         time.perf_counter() - start)
                else:
                    if sp is not None:
                        lookup = sp.trace.new_span(
                            "cache.lookup", sp.span_id,
                            start=lookup_started - sp.trace._t0)
                        lookup.finish()
                    result = self._solve_cold(request, fp)
                    endpoint = "solve.warm" if result.warm else "solve.cold"
                    self.metrics.observe(endpoint,
                                         time.perf_counter() - start)
                if sp is not None:
                    sp.annotate(cached=result.cached, warm=result.warm)
                result.latency_seconds = time.perf_counter() - start
                self.metrics.observe("solve", result.latency_seconds)
                return result
            except BaseException:
                self.metrics.observe("solve", time.perf_counter() - start,
                                     error=True)
                raise

    def run_hit(self, fp: str,
                include_schedule: bool) -> Optional[BrokerResult]:
        """:meth:`run` for a request the cache answers as it stands:
        no request object, no solve, no reconstruction, only the
        cache's and registry's own short locks — a shard
        server calls it on its event loop.  The books are any hit's (one
        cache hit, ``solve.hit`` + ``solve``, an
        ``engine.run`` span when tracing).  Returns ``None`` with
        **nothing** counted when the entry is absent or lacks a wanted
        schedule: :meth:`run` then does the one counted lookup.  The
        result is the entry's bytes, bound to no spec."""
        from .wire import entry_result  # deferred: wire imports broker

        start = time.perf_counter()
        entry = self.cache.hit(fp, with_schedule=include_schedule)
        if entry is None:
            return None
        parent = current_span()
        if parent is not None:
            # on a hit engine.run *is* the lookup: back-date the span
            sp = parent.trace.new_span("engine.run", parent.span_id,
                                       start=start - parent.trace._t0)
            sp.annotate(cached=True, warm=False)
            sp.finish()
        latency = time.perf_counter() - start
        self.metrics.observe("solve.hit", latency)
        self.metrics.observe("solve", latency)
        return entry_result(entry, None, include_schedule,
                            latency_seconds=latency)

    def _from_cache(self, request: SolveRequest,
                    entry: CacheEntry) -> BrokerResult:
        from .wire import compact_json, entry_result

        result = entry_result(entry, request.spec, request.include_schedule)
        if request.include_schedule and result.schedule_json is None:
            schedule = self._reconstruct(request, result.solution)
            if schedule is not None:
                result.schedule = schedule
                result.schedule_json = compact_json(schedule_to_dict(
                    schedule))
                self.cache.attach_schedule(entry.key, result.schedule_json)
        return result

    def _solve_cold(
        self, request: SolveRequest, fp: str
    ) -> BrokerResult:
        from .wire import compact_json, entry_result, solution_to_wire

        warm, topology = False, request.platform
        if resolve(request.problem).capabilities.warm_resolve:
            # the hot-model key starts with the entry's topology digest:
            # one digest per miss, and the fingerprint the solver keys
            # its earned-model rule on is the cache's
            key = self.incremental.key(request.spec)
            solution, warm = self.incremental.solve_spec_ex(request.spec,
                                                            key, fp)
            topology = key[0]
        else:
            with span("solver.solve", path="registry"):
                solution = execute_request(request)
        schedule = None
        if request.include_schedule:
            schedule = self._reconstruct(request, solution)
        # encoded once, here: the entry keeps these bytes, never objects
        entry = self.cache.put(fp, compact_json(solution_to_wire(solution)),
                               topology, schedule and compact_json(
                                   schedule_to_dict(schedule)))
        result = entry_result(entry, request.spec, True, cached=False,
                              warm=warm)
        result.__dict__.update(solution=solution, schedule=schedule)
        return result

    @staticmethod
    def _reconstruct(request: SolveRequest, solution: Any):
        if (
            not resolve(request.problem).capabilities.reconstructs_schedule
            or not isinstance(solution, SteadyStateSolution)
        ):
            return None
        from ..schedule.reconstruction import reconstruct_schedule

        with span("schedule.reconstruct"):
            return reconstruct_schedule(solution)

    # ------------------------------------------------------------------
    def invalidate_platform(self, platform: Platform) -> int:
        """Drop cached results and hot LP models for this platform
        shape, taking its topology digest once for both."""
        topology = topology_digest(platform)
        removed = self.cache.invalidate_platform(topology)
        self.incremental.forget(topology)
        return removed

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe operational state of this shard."""
        return {
            "cache": self.cache.snapshot(),
            "metrics": self.metrics.snapshot(),
            "process": process_snapshot(),
            "incremental": {
                "hot_models": len(self.incremental),
                **self.incremental.stats.as_dict(),
            },
        }


# ----------------------------------------------------------------------
class Broker:
    """Cached, batching, in-process front-end over the solver library.

    Every request is solved inline, on the calling thread, by one
    :class:`SolveEngine` — the broker of library code and of ``python
    -m repro submit`` without ``--url``.  What a served deployment
    adds — worker processes, failover, in-flight coalescing — is the
    :class:`~repro.service.sharding.ShardedBroker` ring, which ``python
    -m repro serve`` always runs.

    Parameters
    ----------
    cache:
        A :class:`SolutionCache` (a default one is created when omitted).
    metrics:
        A :class:`MetricsRegistry`; created when omitted.
    executor:
        Selects nothing: a broker solves inline, and any value but
        ``"sync"`` raises :class:`ValueError`.

    A request whose problem has an LP model (master-slave, scatter,
    gather, all-to-all, multiport and send-or-receive) is solved by
    the engine's incremental solver, warm when its topology is hot.
    """

    def __init__(
        self,
        cache: Optional[SolutionCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        # kept only for bench/layers.py's Broker(executor="sync")
        executor: str = "sync",
    ) -> None:
        if executor != "sync":
            raise ValueError(
                f"a Broker solves inline; executor={executor!r} selects "
                f"nothing (serve runs the ShardedBroker ring)"
            )
        self.engine = SolveEngine(cache=cache, metrics=metrics)

    # the per-shard state lives on the engine; expose it under the
    # historical names so `broker.cache.stats` / `broker.metrics` keep
    # working for library users
    @property
    def cache(self) -> SolutionCache:
        return self.engine.cache

    @property
    def metrics(self) -> MetricsRegistry:
        return self.engine.metrics

    # ------------------------------------------------------------------
    # lifecycle: nothing to release, closed like the ring
    # ------------------------------------------------------------------
    def close(self) -> None:
        pass

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the solve paths
    # ------------------------------------------------------------------
    def solve(self, request: SolveRequest) -> BrokerResult:
        """Synchronous solve (cache -> warm -> cold), metered; a hit is
        bound to this request's spec, whichever spelling was cached."""
        return self.engine.run(request, request.fingerprint())

    def submit(self, request: SolveRequest) -> "Future[BrokerResult]":
        """:meth:`solve` as a resolved future, the dispatcher's shape."""
        return _resolved(self.solve, request)

    def solve_batch(self, requests: List[SolveRequest]) -> List[BrokerResult]:
        """Solve every request in order, under the ``solve.batch`` timer.
        A failing request raises here; the JSON API's ``batch`` op
        isolates errors."""
        with self.metrics.timer("solve.batch"):
            return [self.solve(request) for request in requests]

    # ------------------------------------------------------------------
    # invalidation + introspection
    # ------------------------------------------------------------------
    def invalidate_platform(self, platform: Platform) -> int:
        """Drop cached results and hot LP models for this platform shape."""
        return self.submit_invalidate(platform).result()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe operational state (exposed by the API)."""
        return self.submit_snapshot().result()

    # the dispatcher's shape of the two, resolved futures like submit()
    def submit_invalidate(self, platform: Platform) -> "Future[int]":
        return _resolved(self.engine.invalidate_platform, platform)

    def submit_snapshot(self) -> "Future[Dict[str, Any]]":
        return _resolved(self.engine.snapshot)


def _resolved(fn, *args) -> Future:
    """``fn(*args)``, or what it raised, as an already-resolved future."""
    fut: Future = Future()
    try:
        fut.set_result(fn(*args))
    except Exception as exc:  # noqa: BLE001 — the future carries it
        fut.set_exception(exc)
    return fut
