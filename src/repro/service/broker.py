"""Request broker: coalescing, batching and worker-pool fan-out.

The broker sits between the JSON API (or a library caller) and the LP
solvers.  For every :class:`SolveRequest` it:

1. computes the request's canonical fingerprint
   (:mod:`repro.service.fingerprint`);
2. serves it from the :class:`~repro.service.cache.SolutionCache` when a
   structurally identical request was solved before;
3. **coalesces** duplicate in-flight requests — two concurrent submissions
   with the same fingerprint share one solve (one LP, two futures
   resolved);
4. otherwise dispatches the request through the problem registry
   (:mod:`repro.problems.registry`) on a pool of worker threads, taking
   the warm re-solve shortcut of :mod:`repro.service.incremental` whenever
   the registered solver declares the ``warm_resolve`` capability and a
   model with the same topology is already hot.

A batch is its requests' :meth:`Broker.submit`\\ s —
:meth:`Broker.solve_batch` submits every request, then waits in order —
so a duplicate inside a batch is coalesced in flight or served from the
cache like any other request: each steady-state LP is a small,
independent job.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.activities import SteadyStateSolution
from ..core.dag import TaskGraph
from ..platform.graph import NodeId, Platform
from ..problems import (
    ProblemSpec,
    SpecError,
    reconstructable_problems,
    resolve,
)
from .cache import CacheEntry, SolutionCache
from .fingerprint import request_fingerprint
from .incremental import IncrementalSolver
from .metrics import MetricsRegistry, process_snapshot
from .tracing import activate, current_span, span

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
    """One steady-state solve, in solver-neutral form.

    ``problem`` names a registered problem (see
    :func:`repro.problems.registered_problems`); ``source`` is the
    distinguished node (master / scatter source / broadcast source /
    gather sink / DAG master — absent for all-to-all); ``targets`` is the
    commodity set (scatter targets, gather sources, multicast targets,
    all-to-all participants).  ``options`` carries the spec's own
    keywords (``ports``, ``port_model``, ``tree_limit``) — a served
    request is solved exactly, so there is no solver choice to carry;
    ``include_schedule`` asks for the reconstructed periodic schedule
    alongside the solution.

    Construction builds the problem's typed
    :class:`~repro.problems.specs.ProblemSpec` (available as
    :attr:`spec`), so a malformed request fails here with a
    :class:`BrokerError` — never with a ``KeyError`` inside a solver.
    The flat fields are re-derived from the validated spec, which also
    folds every option default in: a request relying on a default and one
    spelling it out explicitly hash to the same fingerprint (and
    therefore share cache entries and coalesce).
    """

    problem: str
    platform: Platform
    source: Optional[NodeId] = None
    targets: Tuple[NodeId, ...] = ()
    dag: Optional[TaskGraph] = None
    options: Tuple[Tuple[str, Any], ...] = ()
    include_schedule: bool = False

    def __init__(
        self,
        problem: str,
        platform: Platform,
        source: Optional[NodeId] = None,
        master: Optional[NodeId] = None,
        targets: Any = (),
        dag: Optional[TaskGraph] = None,
        options: Any = (),
        include_schedule: bool = False,
    ) -> None:
        if master is not None and source is not None and master != source:
            raise BrokerError("pass either source or master, not both")
        entry = resolve(problem)
        # snapshot: Platform is mutable (add_node/add_edge), and both the
        # memoized fingerprint and any cached solution must describe the
        # platform as it was when the request was made — not whatever the
        # caller mutates it into afterwards
        spec = entry.spec_type.from_request_fields(
            platform.copy(),
            source=source if source is not None else master,
            targets=targets,
            dag=dag,
            options=dict(options),
        )
        self._init_from_spec(entry, spec, include_schedule=include_schedule)

    @classmethod
    def from_spec(
        cls,
        spec: ProblemSpec,
        include_schedule: bool = False,
    ) -> "SolveRequest":
        """Build a request straight from a typed spec.

        The already-validated spec is kept as-is (with the platform
        snapshotted) rather than being round-tripped through the flat
        legacy fields, so spec types stay the single source of truth for
        what a request can express.
        """
        snapshot = dataclasses.replace(spec, platform=spec.platform.copy())
        self = object.__new__(cls)
        self._init_from_spec(resolve(spec.problem), snapshot,
                             include_schedule=include_schedule)
        return self

    def _init_from_spec(
        self, entry, spec: ProblemSpec, include_schedule: bool
    ) -> None:
        if include_schedule and not entry.capabilities.reconstructs_schedule:
            # fail loudly up front rather than returning a response whose
            # missing "schedule" the client cannot tell from a server bug
            raise BrokerError(
                f"include_schedule is not supported for {spec.problem!r}; "
                f"schedules are reconstructable for: "
                f"{sorted(reconstructable_problems())}"
            )
        object.__setattr__(self, "problem", entry.problem)
        object.__setattr__(self, "platform", spec.platform)
        object.__setattr__(self, "source", spec.source_node())
        object.__setattr__(self, "targets", spec.target_nodes())
        object.__setattr__(self, "dag", spec.dag_graph())
        object.__setattr__(self, "options",
                           tuple(sorted(spec.option_fields().items())))
        object.__setattr__(self, "include_schedule", bool(include_schedule))
        object.__setattr__(self, "_spec", spec)

    @property
    def spec(self) -> ProblemSpec:
        """The validated typed spec this request was built from."""
        return self.__dict__["_spec"]

    @property
    def master(self) -> Optional[NodeId]:
        return self.source

    def option_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def fingerprint(self) -> str:
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        options = self.option_dict()
        if self.dag is not None:
            # fold the DAG spec into the canonical options so two requests
            # with the same platform but different task graphs never collide
            options["__dag_types"] = tuple(
                (t, str(w)) for t, w in sorted(self.dag.types.items())
            )
            options["__dag_files"] = tuple(
                (a, b, str(sz)) for (a, b), sz in sorted(self.dag.files.items())
            )
        fp = request_fingerprint(
            self.platform,
            self.problem,
            source=self.source,
            targets=self.targets,
            options=options,
        )
        object.__setattr__(self, "_fingerprint", fp)
        return fp


@dataclass
class BrokerResult:
    """What a solve request resolves to.

    ``cached`` / ``warm`` describe how *this request's own* solve went;
    ``coalesced`` marks a request that never solved at all because it
    piggybacked on an identical in-flight solve (the cache-hit
    equivalent for requests that arrive while the answer is still being
    computed).  A coalesced result carries its *own* latency — the time
    this caller waited — not the leader's.
    """

    fingerprint: str
    solution: Any
    schedule: Any = None
    cached: bool = False
    warm: bool = False
    coalesced: bool = False
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
    :class:`SolutionCache`, a :class:`MetricsRegistry` and (optionally) an
    :class:`~repro.service.incremental.IncrementalSolver` with its hot LP
    models — and nothing else: no pools, no futures, no coalescing.
    :class:`Broker` wraps one engine with a worker pool and in-flight
    coalescing; :class:`~repro.service.sharding.ShardedBroker` runs N of
    them side by side, each a bare engine behind a shard server.
    """

    def __init__(
        self,
        cache: Optional[SolutionCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        incremental: Optional[IncrementalSolver] = None,
    ) -> None:
        self.cache = cache if cache is not None else SolutionCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.incremental = incremental

    # ------------------------------------------------------------------
    def run(self, request: SolveRequest, fp: str) -> BrokerResult:
        """Solve one request (cache -> warm -> cold), metered."""
        start = time.perf_counter()
        served = self.run_hit(fp, request.include_schedule)
        if served is not None:
            return served
        with span("engine.run") as sp:
            try:
                # captured before the lookup: a solution computed from here
                # on is only storable if no invalidation arrives meanwhile
                generation = self.cache.generation
                lookup_started = time.perf_counter()
                entry = self.cache.get(fp)
                if entry is not None:
                    # the entry lacks the schedule this request wants (or
                    # landed since run_hit looked): reconstruct on top
                    result = self._from_cache(request, fp, entry)
                    self.metrics.observe("solve.hit",
                                         time.perf_counter() - start)
                else:
                    if sp is not None:
                        lookup = sp.trace.new_span(
                            "cache.lookup", sp.span_id,
                            start=lookup_started - sp.trace._t0)
                        lookup.finish()
                    result = self._solve_cold(request, fp, generation)
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
        **nothing** counted when the entry is absent, expired or lacks a
        wanted schedule: :meth:`run` then does the one counted lookup."""
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
        return BrokerResult(
            fingerprint=fp,
            solution=entry.solution,
            schedule=entry.schedule if include_schedule else None,
            cached=True,
            latency_seconds=latency,
        )

    def _from_cache(
        self, request: SolveRequest, fp: str, entry: CacheEntry
    ) -> BrokerResult:
        schedule = entry.schedule
        if request.include_schedule and schedule is None:
            schedule = self._reconstruct(request, entry.solution)
            if schedule is not None:
                self.cache.attach_schedule(fp, schedule)
        return BrokerResult(
            fingerprint=fp,
            solution=entry.solution,
            schedule=schedule if request.include_schedule else None,
            cached=True,
        )

    def _solve_cold(
        self, request: SolveRequest, fp: str, generation: int
    ) -> BrokerResult:
        warm = False
        if (
            self.incremental is not None
            and resolve(request.problem).capabilities.warm_resolve
        ):
            solution, warm = self.incremental.solve_spec_ex(request.spec)
        else:
            with span("solver.solve", path="registry"):
                solution = execute_request(request)
        schedule = None
        if request.include_schedule:
            schedule = self._reconstruct(request, solution)
        self.cache.put(fp, solution, request.platform, schedule=schedule,
                       generation=generation)
        return BrokerResult(
            fingerprint=fp,
            solution=solution,
            schedule=schedule,
            cached=False,
            warm=warm,
        )

    def tailor_schedule(
        self, request: SolveRequest, result: BrokerResult
    ) -> BrokerResult:
        """Shape a shared (coalesced) result to this caller's
        ``include_schedule``: reconstruct lazily when asked, strip when not
        (so the response shape never depends on which twin solved first)."""
        if request.include_schedule:
            if result.schedule is not None:
                return result
            # another waiter may have reconstructed and attached it already
            entry = self.cache.peek(result.fingerprint)
            schedule = entry.schedule if entry is not None else None
            if schedule is None:
                schedule = self._reconstruct(request, result.solution)
                if schedule is None:
                    return result
                self.cache.attach_schedule(result.fingerprint, schedule)
        else:
            if result.schedule is None:
                return result
            schedule = None
        return dataclasses.replace(result, schedule=schedule)

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
        """Drop cached results and hot LP models for this platform shape."""
        removed = self.cache.invalidate_platform(platform)
        if self.incremental is not None:
            self.incremental.forget(platform)
        return removed

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe operational state of this shard."""
        out: Dict[str, Any] = {
            "cache": self.cache.snapshot(),
            "metrics": self.metrics.snapshot(),
            "process": process_snapshot(),
        }
        if self.incremental is not None:
            out["incremental"] = {
                "hot_models": len(self.incremental),
                **self.incremental.stats.as_dict(),
            }
        return out


# ----------------------------------------------------------------------
class Broker:
    """Cached, coalescing, batching front-end over the solver library.

    Parameters
    ----------
    cache:
        A :class:`SolutionCache` (a default one is created when omitted);
        pass ``None``-like ``max_size``/``ttl`` choices through it.
    metrics:
        A :class:`MetricsRegistry`; created when omitted.
    workers:
        Worker-pool width for :meth:`submit` / :meth:`solve_batch`.
    executor:
        ``"thread"`` (default) runs solves on a thread pool — fine for the
        exact simplex, whose Fraction arithmetic releases the GIL rarely
        but whose requests are short; ``"sync"`` executes inline (no pool
        — deterministic, for tests).  Process parallelism is the sharded
        broker's job (``ShardedBroker(shards=N)`` / ``serve --shards N``).
    incremental:
        Use the warm re-solve path for requests whose registered solver
        declares the ``warm_resolve`` capability (master-slave, scatter,
        gather) and whose topology was seen before (default on).
    """

    def __init__(
        self,
        cache: Optional[SolutionCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 4,
        executor: str = "thread",
        incremental: bool = True,
    ) -> None:
        if executor not in ("thread", "sync"):
            raise ValueError("executor must be 'thread' or 'sync'")
        self.workers = max(1, int(workers))
        self.executor_kind = executor
        self._pool: Optional[ThreadPoolExecutor] = None
        if executor != "sync":
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-broker"
            )
        self.engine = SolveEngine(
            cache=cache,
            metrics=metrics,
            incremental=IncrementalSolver() if incremental else None,
        )
        # RLock: a future that completes before add_done_callback returns
        # runs its callback inline on the submitting thread, re-entering
        # the lock held by submit()
        self._inflight_lock = threading.RLock()
        self._inflight: Dict[str, Future] = {}  # guarded-by: _inflight_lock
        # submissions answered by an in-flight future
        self.coalesced = 0  # guarded-by: _inflight_lock

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
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the solve paths
    # ------------------------------------------------------------------
    def solve(self, request: SolveRequest) -> BrokerResult:
        """Synchronous solve (cache -> warm -> cold), metered."""
        return self.engine.run(request, request.fingerprint())

    def submit(self, request: SolveRequest) -> "Future[BrokerResult]":
        """Asynchronous solve; duplicate in-flight requests share a future."""
        fp = request.fingerprint()
        start = time.perf_counter()
        if self._pool is None:  # sync broker: resolve immediately
            fut: "Future[BrokerResult]" = Future()
            try:
                fut.set_result(self.engine.run(request, fp))
            except BaseException as exc:  # noqa: BLE001 — future carries it
                fut.set_exception(exc)
            return fut
        # the caller's span (if any) must follow the request onto the pool
        # thread; the leader future also remembers which trace it solves
        # under so coalesced followers can link the two trees
        parent = current_span()
        with self._inflight_lock:
            inflight = self._inflight.get(fp)
            if inflight is None:
                fut = self._pool.submit(self._run_pooled, request, fp, parent)
                fut._repro_trace_id = (  # type: ignore[attr-defined]
                    parent.trace.trace_id if parent is not None else None
                )
                self._inflight[fp] = fut
                fut.add_done_callback(
                    lambda _f, fp=fp: self._forget_inflight(fp)
                )
            else:
                self.coalesced += 1
        if inflight is None:
            return fut
        # outside the lock: chaining onto an already-completed future runs
        # the relay (possibly a full schedule reconstruction) inline on this
        # thread, which must not stall other submitters.  The in-flight
        # request may not have asked for a schedule; honour this caller's
        # include_schedule on top of its result.
        follower_span = None
        if parent is not None:
            follower_span = parent.trace.new_span("coalesce.wait",
                                                  parent.span_id)
            leader_trace = getattr(inflight, "_repro_trace_id", None)
            if leader_trace is not None:
                follower_span.annotate(leader_trace=leader_trace)
        return self._chain_schedule(inflight, request, start, follower_span)

    def _run_pooled(self, request: SolveRequest, fp: str,
                    parent) -> BrokerResult:
        with activate(parent):
            return self.engine.run(request, fp)

    def _forget_inflight(self, fp: str) -> None:
        with self._inflight_lock:
            self._inflight.pop(fp, None)

    def _chain_schedule(
        self,
        fut: "Future[BrokerResult]",
        request: SolveRequest,
        start: float,
        follower_span=None,
    ) -> "Future[BrokerResult]":
        """Resolve a coalesced follower on top of the leader's future.

        The follower is a first-class request: it gets its own ``solve``
        observation (plus the ``solve.coalesced`` sub-timer) and its own
        latency — the time *this* caller waited — and is flagged
        ``coalesced=True`` rather than echoing the leader's ``cached`` /
        ``warm`` flags, which describe how the *leader's* solve went.
        ``follower_span``, when tracing, covers the wait-on-leader window
        in the follower's own trace (annotated with the leader's trace id
        — the cross-trace link).
        """
        out: "Future[BrokerResult]" = Future()

        def _relay(done: "Future[BrokerResult]") -> None:
            try:
                with activate(follower_span):
                    tailored = self.engine.tailor_schedule(request,
                                                           done.result())
                out.set_result(self._mark_coalesced(tailored, start))
            except BaseException as exc:  # noqa: BLE001 — future carries it
                self.metrics.observe("solve", time.perf_counter() - start,
                                     error=True)
                out.set_exception(exc)
            finally:
                if follower_span is not None:
                    follower_span.finish()

        fut.add_done_callback(_relay)
        return out

    def _mark_coalesced(
        self, result: BrokerResult, start: float
    ) -> BrokerResult:
        """Stamp a follower result: own latency, own ``solve`` /
        ``solve.coalesced`` observations, ``coalesced=True`` instead of
        the leader's ``cached``/``warm`` flags."""
        latency = time.perf_counter() - start
        self.metrics.observe("solve", latency)
        self.metrics.observe("solve.coalesced", latency)
        return dataclasses.replace(
            result,
            cached=False,
            warm=False,
            coalesced=True,
            latency_seconds=latency,
        )

    def solve_batch(self, requests: List[SolveRequest]) -> List[BrokerResult]:
        """The blocking form of the served batch: :meth:`submit` every
        request, then wait for each answer in order.  A failing request
        raises here; the JSON API's ``batch`` op isolates errors."""
        with self.metrics.timer("solve.batch"):
            futures = [self.submit(request) for request in requests]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # invalidation + introspection
    # ------------------------------------------------------------------
    def invalidate_platform(self, platform: Platform) -> int:
        """Drop cached results and hot LP models for this platform shape."""
        return self.engine.invalidate_platform(platform)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe operational state (exposed by the API)."""
        return {
            "executor": self.executor_kind,
            "workers": self.workers,
            # GIL-atomic int read; a snapshot may lag one increment
            "coalesced": self.coalesced,  # repro-lint: allow(locks)
            **self.engine.snapshot(),
        }
