"""Sharded broker: consistent-hash routing over N independent solve shards.

One :class:`~repro.service.broker.SolveEngine` owns one
:class:`~repro.service.cache.SolutionCache` and one
:class:`~repro.service.incremental.IncrementalSolver`.  That is exactly
the state that should *not* be shared once the platform corpus outgrows a
single cache or the solve load outgrows a single process — or a single
host.  :class:`ShardedBroker` routes each request by **consistent hash of
its fingerprint** to one of N shards, each owning its own engine, so
cache entries and hot models never contend across shards and the
aggregate capacity scales linearly with the shard count.  Identical
requests always land on the same shard, so sharding never duplicates
cache entries and per-request results are exactly the single-broker
results — ``Fraction``-exact.

Every shard is an :class:`~repro.service.transport.AsyncShardServer`
reached through the multiplexed id-tagged client
(:class:`~repro.service.transport.AsyncBridgeTransport`): requests
travel as the spec wire codec, replies as the exact JSON result codec of
:mod:`repro.service.wire`, many requests are in flight per connection,
the shard enforces ``request_timeout`` as a server-side deadline,
answers pings ahead of queued solves and coalesces identical in-flight
solves.  Two placements share that one path and mix on one hash ring;
they differ only in who owns the shard's life:

local shards (``shards=N``)
    Worker **processes** this broker spawns, each serving the far end
    of a private ``socket.socketpair()`` — no listener, no port.  A
    worker keeps its cache and warm LP models hot across calls, and is
    **supervised**: one that dies or stops answering is restarted (a
    fresh process on a fresh socketpair, empty cache) and the request
    is retried — first on the fresh worker, then on the next ring
    shard.  Workers exit when the broker closes, and on their own if it
    dies.

remote shards (``shard_addresses=["host:port", ...]``)
    ``python -m repro shard-serve --port N`` on any host (CLI: repeated
    ``--shard host:port``), possibly shared by several brokers.  One
    that fails or stops answering is **ejected** from the ring — its
    keys fail over to the clockwise-next live shard, moving only that
    shard's slice of the keyspace — and a background health probe
    re-admits it when its host returns (after clearing its cache, so
    invalidations it missed during the outage can never resurface).

Failure semantics, uniformly: a transport-level failure raises a typed
:class:`ShardUnavailableError` (a :class:`ShardError`) carrying the
shard id; per-request timeouts raise :class:`ShardTimeoutError`; and
every failure is counted — ``shard_failures`` / ``shard_timeouts`` /
``shard_restarts`` / ``failovers`` / ``rejoins`` all surface under
``shard_health`` in :meth:`ShardedBroker.snapshot` (and therefore in
``/metrics``), alongside transport round-trip latency (the
``transport.async`` endpoint timer).

:meth:`ShardedBroker.invalidate_platform` fans out to every shard and
**tolerates outages**: an unreachable shard is ejected and counted, not
raised — its entries are dropped wholesale before it rejoins, so cache
invalidation never fails the caller during a shard outage, and a solve
racing the invalidation still cannot re-insert a stale entry (each
shard's cache generation counter, see
:class:`~repro.service.cache.SolutionCache`).

The consistent-hash ring (many points per shard, like the routing rings
in Dask ``distributed``-style schedulers) keeps the fingerprint → shard
map stable and balanced; ejecting a shard remaps *only its own keys*
(each walks clockwise to the next live owner), which is what makes
failover cheap and rejoin cheap again.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import multiprocessing
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from ..platform.graph import Platform
from ..platform.serialization import platform_to_dict
from .broker import BrokerError, BrokerResult, SolveRequest
from .cache import HeatSketch, SolutionCache
from .metrics import (
    MetricsRegistry,
    distinct_processes,
    merge_snapshots,
    process_snapshot,
)
from .tracing import activate, current_span, graft_remote, log_event, span
from .transport import (
    TransportError,
    TransportTimeout,
    connect_async,
    parse_shard_address,
    spawn_local_shard,
)
from .wire import result_from_wire


class ShardError(RuntimeError):
    """A shard failed; ``shard`` carries the shard id when known."""

    #: True when the *shard itself* reported the failure on a healthy
    #: channel (e.g. a server-side deadline) — the shard is alive, so
    #: the routing layer must not eject it or fail the request over.
    server_reported = False

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardUnavailableError(ShardError):
    """Transport-level shard failure: the worker died, the host is
    unreachable, or the channel broke mid-request.  The sharding layer
    reacts (restart / ejection / failover); callers only see this when
    every candidate shard is gone."""


class ShardTimeoutError(ShardUnavailableError):
    """The shard sent no reply within the per-request timeout — or, on
    the multiplexed transport, the shard itself answered that the op
    missed its server-side deadline (``server_reported`` is then True
    and the shard stays on the ring)."""


#: dynamically minted ShardError subclasses named after the worker-side
#: exception class, so ``type(exc).__name__`` — the JSON API's ``"type"``
#: field — reports the ORIGINAL class (RuntimeError, ZeroDivisionError,
#: ...) identically to the unsharded broker, while remaining catchable
#: as ShardError.
_REMOTE_ERROR_TYPES: Dict[str, type] = {}


def _remote_error(type_name: str, message: str) -> ShardError:
    cls = _REMOTE_ERROR_TYPES.get(type_name)
    if cls is None:
        cls = type(type_name, (ShardError,), {
            "__doc__": f"worker-side {type_name}, relayed over the shard "
                       f"transport",
        })
        _REMOTE_ERROR_TYPES[type_name] = cls
    return cls(message)


def _raise_worker_error(reply: Dict[str, Any],
                        shard: Optional[int] = None) -> Exception:
    """The exception for a worker-side ``{"ok": False, ...}`` reply —
    :class:`BrokerError` for spec validation, a genuine
    :class:`ShardTimeoutError` for a shard-reported deadline miss, a
    relayed :class:`ShardError` subclass otherwise (shared by
    single-solve replies and per-item ``solve_many`` replies)."""
    if reply.get("type") == "SpecError":
        return BrokerError(reply.get("error", "shard error"))
    if reply.get("type") == "ShardTimeoutError":
        # the async shard server answered — promptly, on a healthy
        # channel — that the op missed its server-side deadline.  Mint
        # the real class (not a dynamic relay) so callers catch it like
        # a client-side timeout, and flag it so routing does not treat
        # a live, honest shard as dead.
        exc = ShardTimeoutError(reply.get("error", "shard deadline"),
                                shard=shard)
        exc.server_reported = True
        return exc
    return _remote_error(reply.get("type", "ShardError"),
                         reply.get("error", ""))


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
def _hash_point(label: str) -> int:
    """A stable 64-bit point on the ring for a text label."""
    return int(hashlib.sha256(label.encode("utf-8")).hexdigest()[:16], 16)


class HashRing:
    """Consistent-hash ring mapping request fingerprints to shard ids.

    ``replicas`` virtual points per shard smooth the key distribution;
    routing is a binary search, and the map depends only on (shard count,
    replicas) — every :class:`ShardedBroker` with the same configuration
    routes identically, across processes and across restarts.

    :meth:`route` accepts a ``skip`` set of ejected shard ids: a skipped
    owner's keys walk clockwise to the next live owner, and keys owned
    by live shards are untouched — the **minimal-disruption invariant**
    failover relies on (dropping one shard remaps only that shard's
    keys).
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        points = sorted(
            (_hash_point(f"shard:{shard}:replica:{rep}"), shard)
            for shard in range(shards)
            for rep in range(replicas)
        )
        self._keys = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def route(self, fingerprint: str, skip: Iterable[int] = ()) -> int:
        """Shard id owning this fingerprint (a hex SHA-256 digest).

        ``skip`` excludes ejected shards; raises :class:`ValueError`
        when every shard is excluded.
        """
        point = int(fingerprint[:16], 16)
        idx = bisect.bisect_right(self._keys, point)
        skip = frozenset(skip)
        if not skip:
            return self._owners[idx % len(self._owners)]
        for step in range(len(self._owners)):
            owner = self._owners[(idx + step) % len(self._owners)]
            if owner not in skip:
                return owner
        raise ValueError("every shard is excluded from routing")

    def successors(self, fingerprint: str, count: int,
                   skip: Iterable[int] = ()) -> List[int]:
        """The first ``count`` *distinct* live shards clockwise from the
        fingerprint's ring point — the replica set of a hot key.

        The walk is the same one :meth:`route` takes, so
        ``successors(fp, 1, skip)[0] == route(fp, skip)`` always, and the
        list is a prefix-stable ordering of the live shards: asking for
        ``count + 1`` appends one shard without reshuffling the first
        ``count`` (what lets a replication factor be raised without
        moving existing replicas), and ejecting one shard removes only
        *that shard* from every key's walk — the minimal-disruption
        invariant, extended from single owners to replica sets.

        Returns fewer than ``count`` shards when fewer are live; raises
        :class:`ValueError` when every shard is excluded.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        point = int(fingerprint[:16], 16)
        idx = bisect.bisect_right(self._keys, point)
        skip = frozenset(skip)
        out: List[int] = []
        seen: set = set()
        for step in range(len(self._owners)):
            owner = self._owners[(idx + step) % len(self._owners)]
            if owner in seen or owner in skip:
                continue
            seen.add(owner)
            out.append(owner)
            if len(out) == count:
                break
        if not out:
            raise ValueError("every shard is excluded from routing")
        return out


# ----------------------------------------------------------------------
# the shard handle: one transport + one dispatch queue per shard
# ----------------------------------------------------------------------
#: dispatch-queue width: how many of one shard's requests this broker
#: keeps in flight on the shared connection at once (the shard server
#: bounds actual engine work with its own solve executor, so this only
#: caps wire-level concurrency)
ASYNC_SHARD_WIDTH = 8


class _Shard:
    """Parent-side handle: a multiplexed transport, a dispatch queue
    and the supervision counters of one shard.

    ``process`` is the worker a **local** shard owns (spawned here,
    replaced by :meth:`restart`); it is ``None`` for a **remote** shard,
    whose life belongs to its operator — we supervise only its ring
    membership (``ejected``).  Nothing else differs between the two.

    Calls do not serialise on the lock: the transport is thread-safe
    and pairs replies to requests by id, so many of this broker's
    threads keep requests in flight on one connection.  The lock guards
    the counters, the worker swap and the prober's rejoin handshake.
    The per-shard **own** executor is what prevents head-of-line
    blocking: a burst of requests hashing to one busy shard queues on
    *that shard's* threads and can never starve dispatch to idle shards
    or the introspection fan-outs, which a shared pool would allow.

    ``epoch`` increments on every worker swap; a caller that saw a
    failure on epoch *e* only triggers recovery if the shard is still
    on epoch *e*, so concurrent failures cause one restart, not a
    stampede.
    """

    def __init__(self, index: int, address: Optional[str] = None,
                 spawn=None) -> None:
        self.index = index
        self._spawn = spawn
        if spawn is not None:
            self.process, self.transport = spawn()
        else:
            self.process, self.transport = None, connect_async(address)
        self.lock = threading.Lock()
        self.executor = ThreadPoolExecutor(
            max_workers=ASYNC_SHARD_WIDTH,
            thread_name_prefix=f"repro-shard-{index}",
        )
        # transport round-trips (one request+reply pair)
        self.calls = 0  # guarded-by: lock
        # failures/timeouts are mutated by the owning ShardedBroker
        # under ITS _health_lock (cross-object guarding the lock
        # checker cannot express), so they stay unannotated here
        self.failures = 0
        self.timeouts = 0
        self.restarts = 0  # guarded-by: lock
        self.epoch = 0  # guarded-by: lock
        self.ejected = False  # remote: off the ring until health rejoin
        self.dead = False  # local: respawn itself failed (permanent)

    @property
    def active(self) -> bool:
        return not (self.ejected or self.dead)

    @property
    def address(self) -> str:
        if self.process is not None:
            return f"local://pid={self.process.pid}"
        return self.transport.address

    def call(self, msg: Dict[str, Any],
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """One round-trip; worker-side errors become exceptions."""
        with self.lock:
            self.calls += 1
            transport = self.transport
        # the round-trip happens OUTSIDE the lock — that is the whole
        # point of the multiplexed transport
        reply = transport.request(msg, timeout=timeout)
        if not reply.get("ok"):
            raise _raise_worker_error(reply, shard=self.index)
        return reply

    def _reap(self, grace: float) -> None:
        """Close the channel and make sure the worker is gone."""
        self.transport.close()  # EOF: a healthy worker exits on it
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace)
            if self.process.is_alive():  # pragma: no cover — last resort
                self.process.kill()
                self.process.join(timeout=grace)

    def restart(self, expected_epoch: int) -> bool:
        """Swap in a fresh worker on a fresh socketpair (local shards
        only); returns whether the shard is usable."""
        with self.lock:
            if self.epoch != expected_epoch:
                return not self.dead  # another thread already recovered
            try:
                # the worker is dead or wedged: no grace worth giving
                self._reap(grace=0.2)
            except Exception:  # noqa: BLE001 — already beyond saving
                pass
            try:
                self.process, self.transport = self._spawn()
            except Exception:  # noqa: BLE001 — respawn failed: shard dead
                self.dead = True
                return False
            self.epoch += 1
            self.restarts += 1
            return True

    def health(self) -> Dict[str, Any]:
        return {
            "shard": self.index,
            "kind": self.transport.kind,
            "address": self.address,
            "active": self.active,
            "ejected": self.ejected,
            "dead": self.dead,
            # GIL-atomic int reads; taking self.lock here would block
            # the health probe behind a worker swap
            "calls": self.calls,  # repro-lint: allow(locks)
            "failures": self.failures,
            "timeouts": self.timeouts,
            "restarts": self.restarts,  # repro-lint: allow(locks)
        }

    def stop(self, timeout: float = 5.0) -> None:
        self.executor.shutdown(wait=True)  # drain queued dispatches first
        if self.process is None:
            self.transport.close()
            return
        try:
            # closing our end is an EOF only once no sibling worker
            # holds a forked copy of it; the handshake does not wait
            self.transport.request({"op": "stop"}, timeout=timeout)
        except TransportError:
            pass
        self._reap(grace=timeout)


# ----------------------------------------------------------------------
def _merge_cache_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-shard cache snapshots: counters sum, rate re-derives.

    ``size`` stays the raw per-shard sum (what the shards actually hold);
    when the snapshots carry their key lists, ``unique_size`` reports the
    *deduplicated* fingerprint count alongside it — under hot-key
    replication the same fingerprint lives on several shards on purpose,
    so the raw sum over-counts the distinct solutions cached.
    """
    summed = {
        key: sum(s.get(key, 0) for s in snaps)
        for key in ("size", "max_size", "hits", "misses", "evictions",
                    "expirations", "invalidations", "stale_puts",
                    "generation")
    }
    lookups = summed["hits"] + summed["misses"]
    merged = {
        **summed,
        "ttl": snaps[0].get("ttl") if snaps else None,
        "hit_rate": summed["hits"] / lookups if lookups else 0.0,
        "shards": len(snaps),
    }
    key_lists = [s.get("keys") for s in snaps]
    if snaps and all(keys is not None for keys in key_lists):
        unique: Set[str] = set()
        for keys in key_lists:
            unique.update(keys)
        merged["unique_size"] = len(unique)
    return merged


class _AggregateCacheView:
    """Read-only stand-in for ``broker.cache`` over all shards.

    The JSON API (and any library caller poking ``broker.cache``) only
    needs the aggregate snapshot; per-shard caches stay private to their
    shards on purpose.
    """

    def __init__(self, owner: "ShardedBroker") -> None:
        self._owner = owner

    def snapshot(self) -> Dict[str, Any]:
        return _merge_cache_snapshots(
            [s["cache"] for s in self._owner.shard_snapshots()
             if s is not None]
        )


#: health-probe request budget: pings and rejoin clears are cheap ops,
#: so a shard that cannot answer within this is treated as down
_PING_TIMEOUT = 2.0


@dataclass
class _HotContext:
    """Everything captured *before* a hot request is dispatched.

    The generations are the PR 3 race discipline extended to fan-out:
    each replica's cache generation (and the near-cache's) is captured
    at solve start, and every replicated/near put passes its captured
    value back — a racing ``invalidate_platform`` bumps the counter in
    between and the late put is refused instead of reinstating a stale
    solution.  ``replicas`` is ``None`` when only the near-cache is in
    play (replication factor 1).
    """

    replicas: Optional[List[int]] = None
    #: the replica chosen to serve this request (rotation over replicas)
    target: Optional[int] = None
    #: shard id -> that replica's cache generation at solve start: a
    #: monotone lower bound learned from shard replies (``None`` when
    #: nothing was learned yet — the put is then skipped shard-side and
    #: the reply seeds the bound)
    generations: Dict[int, Optional[int]] = field(default_factory=dict)
    near_generation: Optional[int] = None


# ----------------------------------------------------------------------
class ShardedBroker:
    """Consistent-hash front-end over N independent solve shards.

    Drop-in for :class:`~repro.service.broker.Broker` where the JSON API
    is concerned (``solve`` / ``submit`` / ``solve_batch`` /
    ``invalidate_platform`` / ``snapshot`` / ``metrics`` / ``cache``).

    Parameters
    ----------
    shards:
        Number of **local** shards — worker processes this broker
        spawns, supervises and stops (>= 1 without remote addresses;
        may be 0 when ``shard_addresses`` supplies the whole ring).
    cache_size / ttl:
        Per-shard :class:`SolutionCache` budget for local shards; the
        aggregate capacity is ``shards * cache_size`` plus whatever the
        remote servers were started with.
    incremental:
        Enable the per-shard warm re-solve path (local shards; remote
        servers decide for themselves at ``shard-serve`` time).
    replicas:
        Virtual ring points per shard (routing smoothness).
    mp_start_method:
        Override the multiprocessing start method for local shards
        (``"fork"``/``"spawn"``/``"forkserver"``; default: platform
        default).
    shard_addresses:
        Remote shard servers (``"host:port"`` or ``"tcp://host:port"``)
        appended to the ring after the local shards.
    request_timeout:
        Per-request transport timeout in seconds (``None`` — the
        default — waits indefinitely, like the unsharded broker).  A
        shard receives the budget as a server-side deadline: it
        answers a miss itself, promptly, and stays on the ring with its
        cache warm instead of being punished for being busy; only a
        shard that does not answer at all (the budget plus a grace) is
        restarted (local) or ejected (remote).  Pick a budget above the
        worst-case cold solve.
    health_interval:
        Seconds between background health probes.  ``None`` picks the
        default: 5 s when remote shards are present (they cannot rejoin
        without a prober), disabled otherwise; ``0`` disables
        explicitly.  Local-shard restart and remote ejection also
        happen reactively on request failures, prober or not.
    async_transport:
        Selects nothing: every shard rides the multiplexed
        :class:`~repro.service.transport.AsyncBridgeTransport`, and
        ``False`` raises :class:`ValueError`.
    replication_factor:
        Replica count for **hot** fingerprints.  With ``R >= 2`` a
        fingerprint whose heat (lookup count in the broker's
        :class:`~repro.service.cache.HeatSketch`) reaches
        ``hot_threshold`` is served by rotating over its first R live
        ring successors (:meth:`HashRing.successors`), and solutions
        are fanned to the replicas that miss them — generation-checked
        puts piggybacked on the solve reply path, so a racing
        invalidation can never be undone by a replica write.  The
        default ``1`` keeps classic single-owner routing.
    near_cache_size:
        Entry budget of a tiny broker-side cache in front of the ring
        for the very head of the key distribution (``0`` disables).
        Hot entries (heat >= ``hot_threshold``) are admitted with the
        generation captured at solve start and revalidated the same
        way shard caches are — :meth:`invalidate_platform`/:meth:`clear`
        bump its generation, so serving a stale near-cache entry is
        structurally impossible.
    hot_threshold:
        Lookup count (per the heat sketch) at which a fingerprint is
        treated as hot — replicated and near-cached.
    heat_capacity:
        Tracked-key budget of the broker's space-saving heat sketch
        (``0`` disables heat tracking, and with it replication and the
        near-cache).
    """

    def __init__(
        self,
        shards: int = 2,
        cache_size: int = 256,
        ttl: Optional[float] = None,
        incremental: bool = True,
        replicas: int = 64,
        mp_start_method: Optional[str] = None,
        shard_addresses: Optional[List[str]] = None,
        request_timeout: Optional[float] = None,
        health_interval: Optional[float] = None,
        # kept only for bench/layers.py's ShardedBroker(async_transport=True)
        async_transport: bool = True,
        replication_factor: int = 1,
        near_cache_size: int = 64,
        hot_threshold: int = 8,
        heat_capacity: int = 512,
    ) -> None:
        addresses = list(shard_addresses or [])
        if not async_transport:
            raise ValueError(
                "shards always use the multiplexed async transport; "
                "async_transport=False selects nothing"
            )
        for address in addresses:
            parse_shard_address(address)  # refuse before spawning anything
        local_count = int(shards)
        if local_count < 0:
            raise ValueError("shards must be >= 0")
        self.ring = HashRing(local_count + len(addresses),
                             replicas=replicas)
        self.metrics = MetricsRegistry()  # front-door ops + transport RTT
        self.cache = _AggregateCacheView(self)
        self.request_timeout = (request_timeout
                                if request_timeout and request_timeout > 0
                                else None)
        self._health_lock = threading.Lock()
        # requests that abandoned a shard mid-flight
        self.failovers = 0  # guarded-by: _health_lock
        # ejected remote shards re-admitted to the ring
        self.rejoins = 0  # guarded-by: _health_lock
        self._closed = False
        # ---- hot-key replication + near-cache ------------------------
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        if near_cache_size < 0:
            raise ValueError("near_cache_size must be >= 0")
        if heat_capacity < 0:
            raise ValueError("heat_capacity must be >= 0")
        self.replication_factor = int(replication_factor)
        self.hot_threshold = int(hot_threshold)
        hot_features = self.replication_factor > 1 or near_cache_size > 0
        self._heat = (HeatSketch(heat_capacity)
                      if heat_capacity > 0 and hot_features else None)
        self._near_cache = (SolutionCache(max_size=near_cache_size, ttl=ttl)
                            if near_cache_size > 0 and self._heat is not None
                            else None)
        self._rep_lock = threading.Lock()
        # hot-key solutions written to replicas that missed them
        self.replicated_puts = 0  # guarded-by: _rep_lock
        # replicated puts refused: generation moved (stale), no known
        # generation yet, or the replica's transport failed
        self.replica_put_rejects = 0  # guarded-by: _rep_lock
        # hot reads served by a non-primary replica (rotation working)
        self.replica_reads = 0  # guarded-by: _rep_lock
        # per-shard cache-generation lower bounds learned from transport
        # replies ("gen" rides on every shard reply); monotone, so a lag
        # only makes a replicated put reject safely, never land stale
        self._known_gens: Dict[int, int] = {}  # guarded-by: _rep_lock
        # in-flight replica put dispatches (drained by flush_replication)
        self._put_futures: Set[Future] = set()  # guarded-by: _rep_lock
        ctx = (multiprocessing.get_context(mp_start_method)
               if mp_start_method else multiprocessing.get_context())
        spawn = functools.partial(spawn_local_shard, ctx, cache_size, ttl,
                                  incremental)
        self._shards: List[_Shard] = []
        try:
            for index in range(local_count):
                self._shards.append(_Shard(index, spawn=spawn))
            for address in addresses:
                self._shards.append(_Shard(len(self._shards),
                                           address=address))
        except BaseException:
            for shard in self._shards:  # stop whatever did start
                shard.stop()
            raise
        if health_interval is None:
            health_interval = 5.0 if addresses else 0.0
        self.health_interval = (health_interval
                                if health_interval > 0 else None)
        self._stop_event = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if self.health_interval:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="repro-shard-health",
                daemon=True,
            )
            self._health_thread.start()

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return self.ring.shards

    def shard_for(self, fingerprint: str) -> int:
        """The shard id a fingerprint routes to (stable, deterministic;
        ignores ejections — the *home* shard, not today's stand-in)."""
        return self.ring.route(fingerprint)

    @property
    def ipc_round_trips(self) -> int:
        """Total transport round-trips across all shards — what
        ``solve_many`` batching is measured by."""
        return sum(shard.calls for shard in self._shards)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop_event.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10.0)
        for shard in self._shards:
            shard.stop()

    def __enter__(self) -> "ShardedBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport dispatch: metered calls, recovery, ring failover
    # ------------------------------------------------------------------
    def _shard_call(self, shard: _Shard,
                    msg: Dict[str, Any]) -> Dict[str, Any]:
        """One metered call; transport failures trigger recovery and
        re-raise as typed :class:`ShardUnavailableError`\\ s."""
        endpoint = f"transport.{shard.transport.kind}"
        epoch = shard.epoch
        timeout = self.request_timeout
        if timeout is not None and msg.get("op") == "solve_many":
            # request_timeout is a PER-REQUEST budget; a solve_many
            # round-trip carries a whole sub-batch, so the wait scales
            # with it — otherwise any batch longer than one budget would
            # deterministically "time out" a healthy shard and wipe its
            # warm state
            timeout *= max(1, len(msg.get("items", ())))
        if timeout is not None:
            # ship the budget as a server-side deadline and wait a
            # little longer client-side, so the *shard* answers the
            # deadline miss (promptly, channel intact) rather than this
            # end guessing and abandoning a healthy connection
            msg = {**msg, "deadline": timeout}
            timeout = timeout + max(1.0, timeout * 0.5)
        with span(endpoint, shard=shard.index,
                  address=shard.address,
                  op=msg.get("op")) as sp:
            start = time.perf_counter()
            try:
                reply = shard.call(msg, timeout=timeout)
            except ShardTimeoutError as exc:
                # server-reported deadline miss (shard.call minted it
                # from the reply): the shard is alive and the channel is
                # fine — count the timeout, never eject or restart
                self.metrics.observe(endpoint, time.perf_counter() - start,
                                     error=True)
                with self._health_lock:
                    shard.timeouts += 1
                log_event("shard.deadline", shard=shard.index,
                          kind=shard.transport.kind,
                          address=shard.address,
                          op=msg.get("op"))
                raise
            except TransportTimeout as exc:
                self.metrics.observe(endpoint, time.perf_counter() - start,
                                     error=True)
                self._note_transport_failure(shard, epoch, timeout=True)
                raise ShardTimeoutError(
                    f"shard {shard.index} ({shard.address}): "
                    f"{exc}",
                    shard=shard.index,
                ) from exc
            except TransportError as exc:
                self.metrics.observe(endpoint, time.perf_counter() - start,
                                     error=True)
                self._note_transport_failure(shard, epoch)
                raise ShardUnavailableError(
                    f"shard {shard.index} ({shard.address}): "
                    f"{exc}",
                    shard=shard.index,
                ) from exc
            rtt = time.perf_counter() - start
            self.metrics.observe(endpoint, rtt)
            gen = reply.get("gen")
            if isinstance(gen, int):
                self._note_generation(shard.index, gen)
            if sp is not None:
                # re-parent shard-side span trees (single replies and
                # solve_many items alike) into this caller's trace
                remote = reply.get("trace")
                if remote:
                    graft_remote(sp, remote.get("spans", []), rtt)
                for item in reply.get("results", ()):
                    item_trace = item.get("trace") if isinstance(item, dict) \
                        else None
                    if item_trace:
                        graft_remote(sp, item_trace.get("spans", []), rtt)
            return reply

    def _note_transport_failure(self, shard: _Shard, epoch: int,
                                timeout: bool = False) -> None:
        """Count one failure and recover the shard: local shards get one
        automatic restart, remote shards are ejected until the health
        probe sees them answer again."""
        with self._health_lock:
            shard.failures += 1
            if timeout:
                shard.timeouts += 1
        log_event("shard.timeout" if timeout else "shard.failure",
                  shard=shard.index, kind=shard.transport.kind,
                  address=shard.address)
        if shard.process is not None:
            usable = shard.restart(epoch)  # marks dead if respawn fails
            log_event("shard.restart", shard=shard.index, usable=usable)
        else:
            shard.ejected = True
            log_event("shard.eject", shard=shard.index,
                      address=shard.address)

    def _inactive_ids(self) -> set:
        return {s.index for s in self._shards if not s.active}

    # ------------------------------------------------------------------
    # hot-key machinery: heat, near-cache, replica fan-out
    # ------------------------------------------------------------------
    def _note_generation(self, shard_id: int, gen: int) -> None:
        """Raise the learned generation lower bound for a shard (every
        transport reply carries the shard's current cache generation)."""
        with self._rep_lock:
            prev = self._known_gens.get(shard_id)
            if prev is None or gen > prev:
                self._known_gens[shard_id] = gen

    def _record_heat(self, fp: str) -> int:
        """Count one lookup; 0 when heat tracking is disabled."""
        return self._heat.record(fp) if self._heat is not None else 0

    def _near_lookup(self, request: SolveRequest,
                     fp: str) -> Optional[BrokerResult]:
        """Serve from the broker near-cache when possible.

        Counts a hit/miss on the near-cache's own stats either way.  A
        hit that cannot satisfy ``include_schedule`` (the near entry
        holds no schedule) falls through to the owning shard, which can
        reconstruct it; that rare case still counts as a near hit.
        """
        near = self._near_cache
        if near is None:
            return None
        start = time.perf_counter()
        entry = near.get(fp)
        if entry is None:
            return None
        if request.include_schedule and entry.schedule is None:
            return None
        elapsed = time.perf_counter() - start
        # a near hit never reaches a shard engine, so the front-door
        # registry must count the request for the merged totals
        self.metrics.observe("solve", elapsed)
        self.metrics.observe("solve.near", elapsed)
        with span("near_cache.hit", fingerprint=fp[:12]):
            pass
        return BrokerResult(
            fingerprint=fp,
            solution=entry.solution,
            schedule=entry.schedule if request.include_schedule else None,
            cached=True,
            latency_seconds=elapsed,
        )

    def _hot_context(self, fp: str, count: int) -> Optional[_HotContext]:
        """Capture the replica set and all generations for a hot solve —
        *before* dispatch, per the PR 3 race discipline.  ``None`` when
        the fingerprint is not (yet) hot or the features are off."""
        if count < self.hot_threshold:
            return None
        if self.replication_factor < 2 and self._near_cache is None:
            return None
        ctx = _HotContext()
        if self.replication_factor > 1:
            try:
                replica_ids = self.ring.successors(
                    fp, self.replication_factor, skip=self._inactive_ids())
            except ValueError:
                replica_ids = []
            if len(replica_ids) > 1:
                ctx.replicas = replica_ids
                ctx.target = replica_ids[count % len(replica_ids)]
                with self._rep_lock:
                    ctx.generations = {
                        sid: self._known_gens.get(sid)
                        for sid in replica_ids
                    }
        if self._near_cache is not None:
            ctx.near_generation = self._near_cache.generation
        return ctx

    def _count_replica_read(self, ctx: Optional[_HotContext]) -> None:
        """A hot read about to be served off the primary replica."""
        if ctx is not None and ctx.replicas and ctx.target != ctx.replicas[0]:
            with self._rep_lock:
                self.replica_reads += 1

    def _propagate(self, request: SolveRequest, fp: str,
                   result: BrokerResult, ctx: Optional[_HotContext],
                   wire_result: Dict[str, Any],
                   entry_sink: Optional[
                       Dict[int, List[Dict[str, Any]]]] = None) -> None:
        """Fan a hot solution out: near-cache admission plus writes to
        the replicas that missed it, each put guarded by the generation
        captured at solve start (:class:`_HotContext`).

        ``entry_sink`` collects the put entries instead of dispatching
        them, so a batch fans all its hot keys to a shard in ONE
        round-trip — the ``solve_many`` batching discipline applied to
        replication.
        """
        if ctx is None:
            return
        near = self._near_cache
        if near is not None and near.peek(fp) is None:
            near.put(fp, result.solution, request.platform,
                     schedule=result.schedule,
                     generation=ctx.near_generation)
        if not ctx.replicas:
            return
        entries_by_shard: Dict[int, List[Dict[str, Any]]] = (
            {} if entry_sink is None else entry_sink
        )
        encoded = platform_to_dict(request.platform)
        for sid in ctx.replicas:
            if sid == ctx.target:
                continue
            entry = {"fp": fp, "result": wire_result, "platform": encoded}
            gen = ctx.generations.get(sid)
            if gen is not None:
                entry["gen"] = gen
            entries_by_shard.setdefault(sid, []).append(entry)
        if entry_sink is None:
            self._dispatch_puts(entries_by_shard)

    def _dispatch_puts(
        self, entries_by_shard: Dict[int, List[Dict[str, Any]]]
    ) -> None:
        """Queue batched replica puts on each shard's own dispatch
        queue — fire-and-forget from the solve path (the reply already
        went to the caller), drainable via :meth:`flush_replication`."""
        parent = current_span()
        for sid, entries in entries_by_shard.items():
            shard = self._shards[sid]
            if not shard.active:
                with self._rep_lock:
                    self.replica_put_rejects += len(entries)
                continue
            fut = shard.executor.submit(self._run_put, shard, entries,
                                        parent)
            with self._rep_lock:
                self._put_futures.add(fut)
            fut.add_done_callback(self._discard_put_future)

    def _discard_put_future(self, fut: Future) -> None:
        with self._rep_lock:
            self._put_futures.discard(fut)

    def _run_put(self, shard: _Shard,
                 entries: List[Dict[str, Any]], parent) -> None:
        with activate(parent):
            with span("ring.replicate", shard=shard.index,
                      entries=len(entries)):
                try:
                    reply = self._shard_call(
                        shard, {"op": "put", "entries": entries})
                except ShardError:
                    with self._rep_lock:
                        self.replica_put_rejects += len(entries)
                    return
        with self._rep_lock:
            self.replicated_puts += reply.get("stored", 0)
            self.replica_put_rejects += (reply.get("stale", 0)
                                         + reply.get("skipped", 0))

    def flush_replication(self, timeout: Optional[float] = None) -> int:
        """Block until queued replica puts land; returns how many
        dispatches were waited on (tests use this for determinism —
        production callers never need it)."""
        with self._rep_lock:
            pending = list(self._put_futures)
        if pending:
            wait(pending, timeout=timeout)
        return len(pending)

    def _routed_call(self, fp: str, msg: Dict[str, Any],
                     prefer: Optional[int] = None) -> Dict[str, Any]:
        """Route to the fingerprint's shard with automatic failover.

        ``prefer`` names the shard to try first (a hot key's rotating
        replica); failover from it walks the ring exactly as before.  A
        transport failure retries once on the same shard when it was
        just restarted (local), then walks the ring to the next live
        shard.  Worker-*reported* errors (the shard is alive and said
        no) propagate immediately — failing over a deterministic solver
        error would just fail N times.
        """
        tried: set = set()
        first_error: Optional[ShardUnavailableError] = None
        while True:
            skip = tried | self._inactive_ids()
            if prefer is not None and prefer not in skip:
                shard_id = prefer
                prefer = None  # one preferred attempt, then ring order
            else:
                try:
                    shard_id = self.ring.route(fp, skip=skip)
                except ValueError:
                    raise first_error or ShardError(
                        "no shards available (all ejected or dead)"
                    )
            shard = self._shards[shard_id]
            retried_fresh_worker = False
            while True:
                try:
                    return self._shard_call(shard, msg)
                except ShardUnavailableError as exc:
                    if exc.server_reported:
                        # the shard is alive and answered within budget
                        # that the op itself blew its deadline; failing
                        # over would just run the same slow solve again
                        # somewhere colder
                        raise
                    if first_error is None:
                        first_error = exc
                    if (shard.process is not None and shard.active
                            and not retried_fresh_worker):
                        # the failure handler just swapped in a fresh
                        # worker — the request gets one try on it
                        retried_fresh_worker = True
                        continue
                    break
            tried.add(shard_id)
            with self._health_lock:
                self.failovers += 1
            log_event("shard.failover", from_shard=shard_id,
                      fingerprint=fp[:12])
            # a zero-length marker in the waterfall: the request left
            # this shard and re-entered routing
            with span("ring.failover", from_shard=shard_id):
                pass

    # ------------------------------------------------------------------
    # the solve paths
    # ------------------------------------------------------------------
    def solve(self, request: SolveRequest) -> BrokerResult:
        """Route one request to its shard and solve synchronously.

        Hot fingerprints (heat >= ``hot_threshold``) take the skew
        path: near-cache first, then a rotating replica, with the
        solution fanned to the replicas (and the near-cache) that
        missed it — see :class:`_HotContext` for the staleness
        discipline.
        """
        fp = request.fingerprint()
        count = self._record_heat(fp)
        near = self._near_lookup(request, fp)
        if near is not None:
            return near
        return self._transport_solve(request, fp,
                                     self._hot_context(fp, count))

    def submit(self, request: SolveRequest) -> "Future[BrokerResult]":
        """Asynchronous solve on the owning shard.

        Identical concurrent requests route to the same shard and share
        its connection, so the shard coalesces them onto one engine run
        (a hot key's rotation step changes the target only every
        ``len(replicas)`` lookups, and the replicas serve repeats from
        their own caches).
        """
        fp = request.fingerprint()
        count = self._record_heat(fp)
        near = self._near_lookup(request, fp)
        if near is not None:
            done: "Future[BrokerResult]" = Future()
            done.set_result(near)
            return done
        ctx = self._hot_context(fp, count)
        shard = self._shards[self._queue_shard_id(fp, ctx)]
        # the caller's span must follow the request onto the shard's
        # dispatch thread (where the transport span is opened)
        parent = current_span()
        return shard.executor.submit(self._dispatch_solve, request, fp,
                                     parent, ctx)

    def _dispatch_solve(self, request: SolveRequest, fp: str, parent,
                        ctx: Optional[_HotContext] = None) -> BrokerResult:
        with activate(parent):
            return self._transport_solve(request, fp, ctx)

    def _queue_shard_id(self, fp: str,
                        ctx: Optional[_HotContext] = None) -> int:
        """The dispatch queue for an async solve: the hot key's chosen
        replica, else the fingerprint's live owner, or its home shard
        when nothing is live (the routed call will then raise the
        no-shards error inside the future)."""
        if ctx is not None and ctx.target is not None:
            return ctx.target
        try:
            return self.ring.route(fp, skip=self._inactive_ids())
        except ValueError:
            return self.ring.route(fp)

    def _transport_solve(self, request: SolveRequest, fp: str,
                         ctx: Optional[_HotContext] = None) -> BrokerResult:
        from .api import _request_wire  # deferred: avoid import cycle

        # the memoized read-only encoding: re-sends never re-encode the
        # platform, whichever shard (or failover stand-in) receives it
        msg = {
            "op": "solve",
            "fp": fp,
            "request": _request_wire(request),
        }
        if current_span() is not None:
            msg["trace"] = True  # ask the shard for its span tree
        prefer = ctx.target if ctx is not None else None
        self._count_replica_read(ctx)
        reply = self._routed_call(fp, msg, prefer=prefer)
        result = result_from_wire(reply["result"])
        self._propagate(request, fp, result, ctx,
                        wire_result=reply["result"])
        return result

    def solve_batch(self, requests: List[SolveRequest]) -> List[BrokerResult]:
        """Fan a mixed batch out across shards; order preserved.

        Each shard receives ONE ``solve_many`` message (the whole
        sub-batch crosses in a single round-trip instead of one per
        request — the IPC/network cost that dominates hit-heavy
        workloads).  A
        sub-batch whose shard dies mid-call fails over: its requests are
        re-dispatched individually through the ring, so a killed shard
        loses no requests.  As with
        :meth:`~repro.service.broker.Broker.solve_batch`, a failing
        *request* propagates its exception; callers needing per-request
        error isolation submit individually.
        """
        with self.metrics.timer("solve.batch"):
            return self._transport_solve_batch(requests)

    def _dispatch_call(self, shard: _Shard, msg: Dict[str, Any],
                       parent) -> Dict[str, Any]:
        with activate(parent):
            return self._shard_call(shard, msg)

    def _transport_solve_batch(
        self, requests: List[SolveRequest]
    ) -> List[BrokerResult]:
        from .api import _request_wire  # deferred: avoid import cycle

        fps = [request.fingerprint() for request in requests]
        parent = current_span()
        traced = parent is not None
        inactive = self._inactive_ids()
        by_shard: Dict[Optional[int], List[int]] = {}
        ctxs: Dict[int, Optional[_HotContext]] = {}
        outcomes: List[Any] = [None] * len(requests)
        for index, fp in enumerate(fps):
            count = self._record_heat(fp)
            near = self._near_lookup(requests[index], fp)
            if near is not None:
                outcomes[index] = near  # served before touching a shard
                continue
            ctx = self._hot_context(fp, count)
            ctxs[index] = ctx
            if ctx is not None and ctx.target is not None:
                self._count_replica_read(ctx)
                owner: Optional[int] = ctx.target
            else:
                try:
                    owner = self.ring.route(fp, skip=inactive)
                except ValueError:
                    owner = None  # nothing live: the retry path will raise
            by_shard.setdefault(owner, []).append(index)
        # one solve_many per shard, dispatched through the shard's own
        # queue (ordered with its other work), all shards in parallel
        futures = {
            shard_id: self._shards[shard_id].executor.submit(
                self._dispatch_call,
                self._shards[shard_id],
                {
                    "op": "solve_many",
                    "items": [
                        {"fp": fps[i], "request": _request_wire(requests[i]),
                         **({"trace": True} if traced else {})}
                        for i in indices
                    ],
                },
                parent,
            )
            for shard_id, indices in by_shard.items()
            if shard_id is not None
        }
        retry: List[int] = list(by_shard.get(None, ()))
        for shard_id, indices in by_shard.items():
            if shard_id is None:
                continue
            try:
                reply = futures[shard_id].result()
            except ShardUnavailableError as exc:
                if exc.server_reported:
                    raise  # the shard is alive; see _routed_call
                # the shard died holding this whole sub-batch: fail its
                # members over individually (recovery already ran)
                retry.extend(indices)
                with self._health_lock:
                    self.failovers += 1
                continue
            for i, item in zip(indices, reply["results"]):
                outcomes[i] = item
        for i in sorted(retry):
            outcomes[i] = self._transport_solve(requests[i], fps[i],
                                                ctxs.get(i))
        results: List[BrokerResult] = []
        # hot keys fan out in ONE batched put per replica shard, not one
        # round-trip per hot item
        put_sink: Dict[int, List[Dict[str, Any]]] = {}
        for index, item in enumerate(outcomes):
            assert item is not None
            if isinstance(item, BrokerResult):  # near hit / failover
                results.append(item)
                continue
            if not item.get("ok"):
                raise _raise_worker_error(item)
            result = result_from_wire(item["result"])
            results.append(result)
            self._propagate(requests[index], fps[index], result,
                            ctxs.get(index), wire_result=item["result"],
                            entry_sink=put_sink)
        if put_sink:
            self._dispatch_puts(put_sink)
        return results

    # ------------------------------------------------------------------
    # invalidation + introspection
    # ------------------------------------------------------------------
    def invalidate_platform(self, platform: Platform) -> int:
        """Drop this platform's entries and hot models on *every* shard.

        A platform's requests spread across shards (each problem/option
        combination fingerprints differently), so invalidation must fan
        out.  Each shard's generation counter makes the fan-out sound
        under racing in-flight solves, and an **unreachable shard never
        fails the caller**: it is ejected (remote) or restarted with an
        empty cache (local) and counted in ``shard_health`` — either
        way its stale entries are gone before it serves again (a remote
        shard's cache is cleared on rejoin).

        The broker near-cache is invalidated first (its generation
        bumps, so a replicated or near put racing this call is refused);
        near-cache removals are duplicates of shard entries and are NOT
        counted in the returned total.
        """
        if self._near_cache is not None:
            self._near_cache.invalidate_platform(platform)
        encoded = platform_to_dict(platform)
        return sum(
            reply["removed"]
            for _shard, reply in self._fanout({"op": "invalidate",
                                               "platform": encoded})
            if reply is not None
        )

    def clear(self) -> int:
        """Drop every cached entry on every shard; returns entries removed.

        (The per-shard generation counters advance — the near-cache's
        too — so in-flight solves cannot re-populate the caches with
        pre-clear solutions.  Like :meth:`invalidate_platform`, an
        unreachable shard is recovered and counted, never raised; near-
        cache removals are duplicates and are not counted.)
        """
        if self._near_cache is not None:
            self._near_cache.clear()
        return sum(reply["cleared"]
                   for _shard, reply in self._fanout({"op": "clear"})
                   if reply is not None)

    def _fanout(self, msg: Dict[str, Any]):
        """Send one op to every *live* shard concurrently, ahead of
        each shard's queued solves.

        Transient threads call the shards directly rather than joining
        the per-shard dispatch queues, so a metrics scrape or an
        invalidation does not wait for a deep solve backlog to drain —
        and the shards are visited in parallel, so the total wait is
        the slowest shard's, not the sum.  Returns ``(shard, reply-or-None)`` pairs
        in shard-id order; ``None`` marks a shard that failed at the
        transport level mid-fan-out (recovery already ran — it was
        restarted or ejected).  Worker-*reported* errors still raise:
        the shard is alive, the request itself is at fault.
        """
        shards = [s for s in self._shards if s.active]
        if not shards:
            return []
        with ThreadPoolExecutor(
            max_workers=len(shards),
            thread_name_prefix="repro-shard-fanout",
        ) as pool:
            futures = [(shard, pool.submit(self._shard_call, shard,
                                           dict(msg)))
                       for shard in shards]
            out = []
            for shard, fut in futures:
                try:
                    out.append((shard, fut.result()))
                except ShardUnavailableError:
                    out.append((shard, None))
            return out

    def shard_snapshots(self) -> List[Optional[Dict[str, Any]]]:
        """Per-shard engine snapshots (``cache`` / ``metrics`` /
        ``incremental``), in shard-id order; ``None`` for shards that
        are ejected, dead, or failed mid-scrape (the shards are queried
        concurrently — see :meth:`_fanout`).  Cache key lists ride along
        so merged snapshots can deduplicate replicated entries."""
        snaps: List[Optional[Dict[str, Any]]] = (
            [None] * len(self._shards)
        )
        for shard, reply in self._fanout({"op": "snapshot"}):
            if reply is not None:
                snaps[shard.index] = reply["snapshot"]
        return snaps

    def shard_health(self) -> Dict[str, Any]:
        """Supervision counters + per-shard liveness (JSON-safe)."""
        with self._health_lock:
            out: Dict[str, Any] = {
                "shard_failures": sum(s.failures
                                      for s in self._shards),
                "shard_timeouts": sum(s.timeouts
                                      for s in self._shards),
                "shard_restarts": sum(s.restarts
                                      for s in self._shards),
                "failovers": self.failovers,
                "rejoins": self.rejoins,
            }
        out["shards"] = [s.health() for s in self._shards]
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe aggregate state: merged cache counters, merged
        metrics (see :func:`~repro.service.metrics.merge_snapshots` for
        the aggregation semantics), supervision counters and a compact
        per-shard breakdown (unreachable shards flagged, not omitted)."""
        shard_snaps = self.shard_snapshots()
        present = [s for s in shard_snaps if s is not None]
        # the front-door registry's uptime is the service's routing age;
        # remote shards start/restart/rejoin at their own times, so their
        # uptimes must not dilate the derived requests/sec
        merged_metrics = merge_snapshots(
            [self.metrics.snapshot()] + [s["metrics"] for s in present],
            uptime_seconds=self.metrics.uptime_seconds,
        )
        per_shard = []
        for idx, s in enumerate(shard_snaps):
            if s is None:
                shard = self._shards[idx]
                per_shard.append({"shard": idx, "unreachable": True,
                                  **shard.health()})
                continue
            per_shard.append({
                "shard": idx,
                "requests": s["metrics"]["total_requests"],
                "cache_size": s["cache"]["size"],
                "hits": s["cache"]["hits"],
                "misses": s["cache"]["misses"],
                "process": s["process"],
                # the full warm-path breakdown of this shard (hot
                # models, evictions, basis restarts, pivots, ...)
                **({"incremental": s["incremental"]}
                   if "incremental" in s else {}),
                # async shard servers report their loop state (in-flight
                # ops, queue depth, cross-broker coalescing)
                **({"async": s["async"]} if "async" in s else {}),
            })
        out: Dict[str, Any] = {
            "executor": "sharded",
            "shards": self.shards,
            # solves coalesced ON the shards across all their brokers
            # (this broker's view is whatever its shards report)
            "shard_coalesced": sum(
                s.get("async", {}).get("shard_coalesced", 0)
                for s in present
            ),
            "cache": _merge_cache_snapshots([s["cache"] for s in present]),
            "metrics": merged_metrics,
            "shard_health": self.shard_health(),
            "process": process_snapshot(),
            "per_shard": per_shard,
            "replication": self._replication_snapshot(per_shard),
        }
        # the deployment's footprint: this process plus one per shard
        # (a shard server shared by several ring slots counts once)
        processes = [p for _label, p in distinct_processes(out)]
        out["processes"] = {
            "count": len(processes),
            "max_rss_bytes": sum(p["max_rss_bytes"] for p in processes),
            "float_backend_loaded": sum(
                p["float_backend_loaded"] for p in processes),
        }
        incremental = [s["incremental"] for s in present
                       if "incremental" in s]
        if incremental:
            # sum over the union of counters so new WarmSolveStats fields
            # (evictions, basis_restarts, pivot counts, ...) surface in
            # /metrics without this list needing maintenance; *_max keys
            # are high-water marks and merge by max, not sum
            keys = sorted({key for snap in incremental for key in snap})
            out["incremental"] = {
                key: (max if key.endswith("_max") else sum)(
                    snap.get(key, 0) for snap in incremental)
                for key in keys
            }
        return out

    def _replication_snapshot(
        self, per_shard: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The hot-key subsystem's JSON view: config, fan-out counters,
        near-cache stats, the sketch's hot head, and the per-shard
        request imbalance (max/mean — 1.0 is perfectly even; the gauge
        replication exists to pull down under Zipf skew)."""
        with self._rep_lock:
            out: Dict[str, Any] = {
                "factor": self.replication_factor,
                "hot_threshold": self.hot_threshold,
                "replicated_puts": self.replicated_puts,
                "replica_put_rejects": self.replica_put_rejects,
                "replica_reads": self.replica_reads,
            }
        loads = [s["requests"] for s in per_shard if "requests" in s]
        if loads and sum(loads) > 0:
            mean = sum(loads) / len(loads)
            out["load_imbalance"] = max(loads) / mean
        else:
            out["load_imbalance"] = None
        if self._heat is not None:
            out["heat"] = self._heat.snapshot()
        if self._near_cache is not None:
            near = self._near_cache.snapshot()
            out["near_cache"] = {
                "size": near["size"],
                "max_size": near["max_size"],
                "generation": near["generation"],
                "hits": near["hits"],
                "misses": near["misses"],
                "hit_rate": near["hit_rate"],
                # a refused put IS the staleness guarantee working: the
                # generation moved between solve start and admission
                "stale_rejects": near["stale_puts"],
            }
        return out

    # ------------------------------------------------------------------
    # background health: probe, restart, eject, rejoin
    # ------------------------------------------------------------------
    def _health_loop(self) -> None:
        while not self._stop_event.wait(self.health_interval):
            for shard in self._shards:
                if self._closed:
                    return
                try:
                    self._health_check(shard)
                except Exception:  # noqa: BLE001 — the prober must live
                    pass

    def _health_check(self, shard: _Shard) -> None:
        if shard.dead:
            return  # local respawn failed: permanent until close
        if shard.ejected:
            # rejoin probe; the transport redials lazily, so a ping
            # answered means the host is back.  Clear before re-admitting:
            # invalidations fanned out during the outage skipped this
            # shard, so whatever it still caches may be stale.
            if not shard.transport.ping(timeout=_PING_TIMEOUT):
                return
            try:
                with shard.lock:
                    shard.transport.request({"op": "clear"},
                                            timeout=_PING_TIMEOUT)
            except TransportError:
                return  # came back and vanished again; next round retries
            shard.ejected = False
            with self._health_lock:
                self.rejoins += 1
            log_event("shard.rejoin", shard=shard.index,
                      address=shard.address)
            return
        with shard.lock:  # a consistent pair across a worker swap
            epoch, transport = shard.epoch, shard.transport
        # pings are answered on the shard's loop, ahead of queued solves:
        # a busy shard still answers, only a dead or wedged one does not
        if not transport.ping(timeout=_PING_TIMEOUT):
            self._note_transport_failure(shard, epoch)
