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
(:class:`~repro.service.transport.AsyncTcpTransport`): requests travel
as the spec wire codec, replies as the exact JSON result codec of
:mod:`repro.service.wire`, many requests are in flight per connection,
the shard enforces ``request_timeout`` as a server-side deadline,
answers pings ahead of queued solves and coalesces identical in-flight
solves.

**The ring is a coroutine.**  Routing, the restart/failover ladder, the
invalidate/clear/snapshot fan-outs and health probing are coroutines
confined to **one event loop**, and they ``await`` the shard transports
directly.  Everything they share — ring membership, supervision
counters — is touched by that loop only, so none of it is locked.
:meth:`ShardedBroker.on_running_loop` (what ``serve`` builds) runs the
ring on the caller's loop, where :meth:`~ShardedBroker.submit`,
:meth:`~ShardedBroker.submit_snapshot` and
:meth:`~ShardedBroker.submit_invalidate` are tasks — the HTTP front
awaits them, so no thread is crossed; a broker built plainly owns a
private loop thread (``repro-ring``), and each public method is a
**single crossing** onto it.  The fingerprint, the heat count and the
near-cache lookup run on the calling thread, so a near hit makes no hop.
Only a worker respawn or reap (``join`` + ``fork``) leaves the loop.
A batch is its requests' :meth:`~ShardedBroker.submit`\\ s: N ``solve``
frames in flight on the multiplexed shard connections, each routed,
near-cached and failed over on its own.

Two placements share that one path and mix on one hash ring; they
differ only in who owns the shard's life:

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
    re-admits it, its cache as it was, when its host returns.

Failure semantics, uniformly: a transport-level failure raises a typed
:class:`ShardUnavailableError` (a :class:`ShardError`) carrying the
shard id; per-request timeouts raise :class:`ShardTimeoutError`; and
every failure is counted — ``shard_failures`` / ``shard_timeouts`` /
``shard_restarts`` / ``failovers`` / ``rejoins`` all surface under
``shard_health`` in :meth:`ShardedBroker.snapshot` (and therefore in
``/metrics``), alongside transport round-trip latency (the
``transport.async`` endpoint timer).  Shard snapshots merge into the
front's by adding counters (:func:`~repro.service.metrics.merge_counters`),
so a merged latency histogram is exact, never an average of shards.

:meth:`ShardedBroker.invalidate_platform` fans out to every shard and
**tolerates outages**: an unreachable shard is ejected and counted, not
raised.  Invalidation frees memory and hot models; it guards no
correctness, because a cache entry is the exact answer to its
fingerprint for ever (see :class:`~repro.service.cache.SolutionCache`),
so an entry a rejoined shard kept, or a racing solve stored, is still
right.

The consistent-hash ring (many points per shard, like the routing rings
in Dask ``distributed``-style schedulers) keeps the fingerprint → shard
map stable and balanced; ejecting a shard remaps *only its own keys*
(each walks clockwise to the next live owner), which is what makes
failover cheap and rejoin cheap again.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import hashlib
import multiprocessing
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..platform.graph import Platform
from ..platform.serialization import platform_to_dict
from .broker import BrokerError, BrokerResult, SolveRequest
from .cache import HeatSketch, SolutionCache
from .metrics import (
    MetricsRegistry,
    distinct_processes,
    merge_counters,
    merge_snapshots,
    process_snapshot,
)
from .tracing import current_span, graft_remote, log_event, span
from .transport import (
    AsyncTcpTransport,
    TransportError,
    TransportTimeout,
    parse_shard_address,
    spawn_local_shard,
)
from .wire import compact_json, near_result, result_from_wire


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
#: ...) identically to an in-process broker, while remaining catchable
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
    relayed :class:`ShardError` subclass otherwise."""
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
#: virtual ring points per shard (routing smoothness)
RING_POINTS = 64


def _hash_point(label: str) -> int:
    """A stable 64-bit point on the ring for a text label."""
    return int(hashlib.sha256(label.encode("utf-8")).hexdigest()[:16], 16)


class HashRing:
    """Consistent-hash ring mapping request fingerprints to shard ids.

    :data:`RING_POINTS` virtual points per shard smooth the key
    distribution; routing is a binary search, and the map depends only on
    the shard count — every :class:`ShardedBroker` with the same shards
    routes identically, across processes and across restarts.

    :meth:`route` accepts a ``skip`` set of ejected shard ids: a skipped
    owner's keys walk clockwise to the next live owner, and keys owned
    by live shards are untouched — the **minimal-disruption invariant**
    failover relies on (dropping one shard remaps only that shard's
    keys).
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        points = sorted(
            (_hash_point(f"shard:{shard}:replica:{rep}"), shard)
            for shard in range(shards)
            for rep in range(RING_POINTS)
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


# ----------------------------------------------------------------------
# the shard handle: one transport + the supervision state of one shard
# ----------------------------------------------------------------------
#: how many of one shard's *solve* ops this broker keeps in flight on
#: the shared connection at once (the shard server bounds actual engine
#: work with its own solve executor, so this only caps wire-level
#: concurrency); every other op bypasses the cap
ASYNC_SHARD_WIDTH = 8


class _Shard:
    """Parent-side handle: a multiplexed transport and the supervision
    state of one shard, all of it **confined to the ring's loop**.

    ``process`` is the worker a **local** shard owns (spawned here,
    replaced by :meth:`ShardedBroker._restart`); it is ``None`` for a
    **remote** shard, whose life belongs to its operator — we supervise
    only its ring membership (``ejected``).  Nothing else differs
    between the two.

    The ring's coroutines ``await`` the transport directly and only
    they write the counters, so nothing here is locked.  ``solve_slots``
    is what prevents head-of-line blocking: a burst of solves hashing to
    one busy shard waits on *that shard's* semaphore and can never
    starve dispatch to idle shards, and the introspection fan-outs do
    not take it at all.

    ``epoch`` names the channel: it increments on every worker swap
    and every rejoin.  A caller that saw a failure on epoch *e* only
    counts it, and only triggers recovery, if the shard is still on
    epoch *e* and no other caller has reported *e* (``failed_epoch``):
    a broken channel fails every request in flight on it at once, and
    that is one failure.  ``swap`` serialises the swap itself (the one
    step of recovery that awaits), so concurrent failures cause one
    restart, not a stampede.
    """

    def __init__(self, index: int, address: Optional[str] = None,
                 spawn=None) -> None:
        self.index = index
        self._spawn = spawn
        if spawn is not None:
            self.process, self.transport = spawn()
        else:
            self.process = None
            self.transport = AsyncTcpTransport(*parse_shard_address(address))
        self.solve_slots = asyncio.Semaphore(ASYNC_SHARD_WIDTH)
        self.swap = asyncio.Lock()
        self.calls = 0  # transport round-trips (one request+reply pair)
        self.failures = 0
        self.timeouts = 0
        self.restarts = 0
        self.epoch = 0
        self.failed_epoch = -1  # the last epoch whose failure was counted
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

    async def call(self, msg: Dict[str, Any],
                   timeout: Optional[float] = None) -> Dict[str, Any]:
        """One round-trip; worker-side errors become exceptions."""
        self.calls += 1
        reply = await self.transport.request(msg, timeout=timeout)
        if not reply.get("ok"):
            raise _raise_worker_error(reply, shard=self.index)
        return reply

    def reap(self, grace: float) -> None:
        """Make sure the worker is gone (blocking: never on the loop).
        Its channel is closed already — EOF is a healthy worker's order
        to exit."""
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace)
            if self.process.is_alive():  # pragma: no cover — last resort
                self.process.kill()
                self.process.join(timeout=grace)

    def respawn(self):
        """A fresh worker on a fresh socketpair, once the old one is
        gone (blocking ``join`` + ``fork``: run off the loop)."""
        self.reap(grace=0.2)  # dead or wedged: no grace worth giving
        return self._spawn()

    async def stop(self, timeout: float = 5.0) -> None:
        """Say goodbye and close the channel; a local worker is then
        reaped off the loop (:meth:`reap`)."""
        async with self.swap:  # a respawn under way ends first
            if self.process is not None:
                try:
                    # closing our end is an EOF only once no sibling
                    # worker holds a forked copy of it; the handshake
                    # does not wait
                    await self.transport.request({"op": "stop"},
                                                 timeout=timeout)
                except TransportError:
                    pass
            await self.transport.close()

    def health(self) -> Dict[str, Any]:
        return {
            "shard": self.index,
            "kind": self.transport.kind,
            "address": self.address,
            "active": self.active,
            "ejected": self.ejected,
            "dead": self.dead,
            "calls": self.calls,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "restarts": self.restarts,
        }


# ----------------------------------------------------------------------
def _merge_cache_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-shard cache snapshots: counters merge, the rate
    re-derives (a fingerprint has one owning shard, so ``size`` counts
    distinct solutions)."""
    merged = merge_counters(snaps)
    hits, misses = merged.get("hits", 0), merged.get("misses", 0)
    merged["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    merged["shards"] = len(snaps)
    return merged


#: health-probe request budget: a ping is cheap, so a shard that
#: cannot answer one within this is treated as down
_PING_TIMEOUT = 2.0

#: lookups (per the heat sketch) at which a fingerprint is hot enough
#: for the near-cache to admit it
HOT_THRESHOLD = 8
#: tracked-key budget of the broker's space-saving heat sketch
HEAT_CAPACITY = 512


# ----------------------------------------------------------------------
class ShardedBroker:
    """Consistent-hash front-end over N independent solve shards.

    Drop-in for :class:`~repro.service.broker.Broker` where the JSON API
    is concerned (``solve`` / ``submit`` / ``solve_batch`` /
    ``invalidate_platform`` / ``snapshot`` (and ``submit_*``) / ``metrics``).

    Parameters
    ----------
    shards:
        Number of **local** shards — worker processes this broker
        spawns, supervises and stops (>= 1 without remote addresses;
        may be 0 when ``shard_addresses`` supplies the whole ring).
    cache_size:
        Per-shard :class:`SolutionCache` budget for local shards; the
        aggregate capacity is ``shards * cache_size`` plus whatever the
        remote servers were started with.
    mp_start_method:
        Override the multiprocessing start method for local shards
        (``"fork"``/``"spawn"``/``"forkserver"``; default: platform
        default).
    shard_addresses:
        Remote shard servers (``"host:port"`` or ``"tcp://host:port"``)
        appended to the ring after the local shards.
    request_timeout:
        Per-request transport timeout in seconds (``None`` — the
        default — waits indefinitely, like an in-process broker).  A
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
        :class:`~repro.service.transport.AsyncTcpTransport`, and
        ``False`` raises :class:`ValueError`.
    near_cache_size:
        Entry budget of a tiny broker-side cache in front of the ring
        for the very head of the key distribution (``0`` disables).
        A fingerprint looked up :data:`HOT_THRESHOLD` times (per the
        broker's :class:`~repro.service.cache.HeatSketch`) has its
        answer admitted once its owning shard has answered.
    """

    def __init__(
        self,
        shards: int = 2,
        cache_size: int = 256,
        mp_start_method: Optional[str] = None,
        shard_addresses: Optional[List[str]] = None,
        request_timeout: Optional[float] = None,
        health_interval: Optional[float] = None,
        # kept only for bench/layers.py's ShardedBroker(async_transport=True)
        async_transport: bool = True,
        near_cache_size: int = 64,
        *,
        _loop: Optional[asyncio.AbstractEventLoop] = None,
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
        self.ring = HashRing(local_count + len(addresses))
        self.metrics = MetricsRegistry()  # front-door ops + transport RTT
        self.request_timeout = (request_timeout
                                if request_timeout and request_timeout > 0
                                else None)
        # ---- ring state: touched by the loop thread only, never locked
        # requests that abandoned a shard mid-flight
        self.failovers = 0
        # ejected remote shards re-admitted to the ring
        self.rejoins = 0
        # set by close() on the caller's thread; the loop only reads it
        self._closed = False
        # ---- near-cache: the heat sketch gates its admission ----------
        if near_cache_size < 0:
            raise ValueError("near_cache_size must be >= 0")
        self._heat = HeatSketch(HEAT_CAPACITY) if near_cache_size else None
        self._near_cache = (SolutionCache(max_size=near_cache_size)
                            if near_cache_size else None)
        if health_interval is None:
            health_interval = 5.0 if addresses else 0.0
        self.health_interval = (health_interval
                                if health_interval > 0 else None)
        self._health = None  # the prober's future, when it runs
        ctx = (multiprocessing.get_context(mp_start_method)
               if mp_start_method else multiprocessing.get_context())
        spawn = functools.partial(spawn_local_shard, ctx, cache_size)
        self._shards: List[_Shard] = []
        # the ring's loop: the caller's (on_running_loop), else a
        # private thread's, which the blocking API crosses onto
        self._loop, self._thread = _loop, None
        if _loop is None:
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(target=self._loop.run_forever,
                                            name="repro-ring", daemon=True)
            self._thread.start()
        try:
            for index in range(local_count):
                self._shards.append(_Shard(index, spawn=spawn))
            for address in addresses:
                self._shards.append(_Shard(len(self._shards),
                                           address=address))
            if self.health_interval:
                self._health = self._cross(self._health_loop())
        except BaseException:
            self.close()  # stop whatever did start
            raise

    @classmethod
    async def on_running_loop(cls, **options: Any) -> "ShardedBroker":
        """A broker whose ring runs on the calling coroutine's loop, as
        ``serve`` builds it on its HTTP loop: :meth:`submit` there is a
        task on it, no thread is crossed, and ``await aclose()`` closes
        it there.  Other threads keep the blocking API; on this loop it
        raises :class:`ShardError`, since it would wait on itself.  The
        workers are spawned off the loop, which keeps serving meanwhile."""
        return await asyncio.to_thread(
            cls, **options, _loop=asyncio.get_running_loop())

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return self.ring.shards

    def shard_for(self, fingerprint: str) -> int:
        """The shard id a fingerprint routes to (stable, deterministic;
        ignores ejections — the *home* shard, not today's stand-in)."""
        return self.ring.route(fingerprint)

    # ------------------------------------------------------------------
    # lifecycle: the ring's loop, the one crossing onto it, shutdown
    # ------------------------------------------------------------------
    def _on_ring_loop(self) -> bool:
        return asyncio._get_running_loop() is self._loop  # None off loops

    def _blocking(self) -> None:
        if self._on_ring_loop():  # it would wait on the loop it holds
            raise ShardError("a blocking broker call on the ring's own "
                             "loop: await submit() / aclose() there")

    def _cross(self, coro):
        """Hand a ring coroutine to the loop: on the loop itself, a task
        (no crossing); from any other thread, the **one** crossing of a
        public call, a ``concurrent.futures.Future``."""
        if not self._closed:
            if self._on_ring_loop():
                return self._loop.create_task(coro)
            try:
                return asyncio.run_coroutine_threadsafe(coro, self._loop)
            except RuntimeError:  # the loop is gone
                pass
        coro.close()
        raise ShardError("broker is closed")

    async def aclose(self) -> None:
        """Close on the ring's loop: stop every shard's channel (a
        respawn under way ends first: its worker must hear the goodbye
        too) and reap the local workers off the loop.  A private loop
        then cancels what is left on it — any request that raced the
        close — so no caller waits on a loop that is gone."""
        if self._closed:
            return
        self._closed = True  # from here on nothing crosses or respawns
        if self._health is not None:
            self._health.cancel()
        await asyncio.gather(*(shard.stop() for shard in self._shards))
        await asyncio.gather(*(asyncio.to_thread(shard.reap, 5.0)
                               for shard in self._shards if shard.process))
        if self._thread is not None:
            left = [task for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()]
            for task in left:
                task.cancel()
            await asyncio.gather(*left, return_exceptions=True)
            await self._loop.shutdown_default_executor()

    def close(self) -> None:
        """:meth:`aclose` from any thread but the ring's loop.  A
        caller's loop that ended without it leaves workers to reap."""
        self._blocking()
        if self._loop.is_closed():
            if not self._closed:
                self._closed = True
                for shard in self._shards:
                    if shard.process is not None:
                        shard.reap(grace=0.2)
            return
        asyncio.run_coroutine_threadsafe(self.aclose(), self._loop).result()
        if self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()

    def __enter__(self) -> "ShardedBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport dispatch: metered calls, recovery, ring failover
    # ------------------------------------------------------------------
    async def _shard_call(self, shard: _Shard,
                          msg: Dict[str, Any]) -> Dict[str, Any]:
        """One metered call; transport failures trigger recovery and
        re-raise as typed :class:`ShardUnavailableError`\\ s."""
        endpoint = f"transport.{shard.transport.kind}"
        # the worker this call talks to: a failure recovers the shard
        # only while it is still on this epoch
        epoch = shard.epoch
        timeout = self.request_timeout
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
                reply = await shard.call(msg, timeout=timeout)
            except ShardTimeoutError:
                # server-reported deadline miss (shard.call minted it
                # from the reply): the shard is alive and the channel is
                # fine — count the timeout, never eject or restart
                self.metrics.observe(endpoint, time.perf_counter() - start,
                                     error=True)
                shard.timeouts += 1
                log_event("shard.deadline", shard=shard.index,
                          kind=shard.transport.kind,
                          address=shard.address,
                          op=msg.get("op"))
                raise
            except TransportError as exc:
                self.metrics.observe(endpoint, time.perf_counter() - start,
                                     error=True)
                timed_out = isinstance(exc, TransportTimeout)
                await self._note_transport_failure(shard, epoch,
                                                   timeout=timed_out)
                error = (ShardTimeoutError if timed_out
                         else ShardUnavailableError)
                raise error(
                    f"shard {shard.index} ({shard.address}): "
                    f"{exc}",
                    shard=shard.index,
                ) from exc
            rtt = time.perf_counter() - start
            self.metrics.observe(endpoint, rtt)
            if sp is not None:
                # re-parent the shard-side span tree into this caller's
                # trace
                remote = reply.get("trace")
                if remote:
                    graft_remote(sp, remote.get("spans", []), rtt)
            return reply

    async def _note_transport_failure(self, shard: _Shard, epoch: int,
                                      timeout: bool = False) -> None:
        """Count one failure and recover the shard: local shards get one
        automatic restart, remote shards are ejected until the health
        probe sees them answer again.  Only the first report of an
        epoch counts; the requests that were in flight beside it only
        wait for the recovery it started."""
        first = epoch == shard.epoch and epoch != shard.failed_epoch
        if first:
            shard.failed_epoch = epoch
            shard.failures += 1
            if timeout:
                shard.timeouts += 1
            log_event("shard.timeout" if timeout else "shard.failure",
                      shard=shard.index, kind=shard.transport.kind,
                      address=shard.address)
        if shard.process is not None:
            # shielded: the swap runs to its end even when the request
            # that tripped it is cancelled — a worker spawned into a
            # cancelled ``await`` would belong to nobody
            usable = await asyncio.shield(self._restart(shard, epoch))
            if first:
                log_event("shard.restart", shard=shard.index, usable=usable)
        elif first:
            shard.ejected = True
            log_event("shard.eject", shard=shard.index,
                      address=shard.address)

    async def _restart(self, shard: _Shard, expected_epoch: int) -> bool:
        """Swap in a fresh worker on a fresh socketpair (local shards
        only); returns whether the shard is usable."""
        async with shard.swap:
            if shard.epoch != expected_epoch:
                return not shard.dead  # another failure already recovered
            if self._closed:
                return False  # a closed broker resurrects nothing
            await shard.transport.close()
            try:
                shard.process, shard.transport = \
                    await asyncio.to_thread(shard.respawn)
            except Exception:  # noqa: BLE001 — respawn failed: shard dead
                shard.dead = True
                return False
            shard.epoch += 1
            shard.restarts += 1
            return True

    def _inactive_ids(self) -> set:
        return {s.index for s in self._shards if not s.active}

    # ------------------------------------------------------------------
    # the near-cache: heat-gated admission in front of the ring
    # ------------------------------------------------------------------
    def _record_heat(self, fp: str) -> int:
        """Count one lookup; 0 when the near-cache, and so heat
        tracking, is off."""
        return self._heat.record(fp) if self._heat is not None else 0

    def _near_lookup(self, request: SolveRequest,
                     fp: str) -> Optional[BrokerResult]:
        """Serve from the broker near-cache when possible.

        Counts a hit/miss on the near-cache's own stats either way.  An
        entry without the schedule a request wants is a near miss: the
        owning shard, which can reconstruct it, answers instead.  An
        entry keeps the shard's reply bytes: a hit decodes nothing.
        """
        near = self._near_cache
        if near is None:
            return None
        start = time.perf_counter()
        entry = near.get(fp, with_schedule=request.include_schedule)
        if entry is None:
            return None
        elapsed = time.perf_counter() - start
        # a near hit never reaches a shard engine, so the front-door
        # registry must count the request for the merged totals
        self.metrics.observe("solve", elapsed)
        self.metrics.observe("solve.near", elapsed)
        with span("near_cache.hit", fingerprint=fp[:12]):
            pass
        return near_result(entry, request, elapsed)

    async def _routed_call(self, fp: str,
                           msg: Dict[str, Any]) -> Dict[str, Any]:
        """Route to the fingerprint's shard with automatic failover.

        A transport failure retries once on the same shard when it was
        just restarted (local), then walks the ring to the next live
        shard.  Worker-*reported* errors (the shard is alive and said
        no) propagate immediately — failing over a deterministic solver
        error would just fail N times.
        """
        tried: set = set()
        first_error: Optional[ShardUnavailableError] = None
        while True:
            try:
                shard_id = self.ring.route(
                    fp, skip=tried | self._inactive_ids())
            except ValueError:
                raise first_error or ShardError(
                    "no shards available (all ejected or dead)"
                )
            shard = self._shards[shard_id]
            retried_fresh_worker = False
            while True:
                try:
                    async with shard.solve_slots:  # solves take turns
                        return await self._shard_call(shard, msg)
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
        """Route one request to its shard and wait for the answer.

        The near-cache answers the hot head first; a hot fingerprint
        (heat >= :data:`HOT_THRESHOLD`) it does not hold yet is
        admitted once its owning shard has answered.
        """
        self._blocking()
        return self.submit(request).result()

    def submit(self, request: SolveRequest) -> "Future[BrokerResult]":
        """Asynchronous solve on the owning shard.

        The fingerprint, the heat count and the near-cache lookup run on
        the calling thread — a near hit returns without a thread hop —
        and everything else is a task on the ring's loop: an ``asyncio``
        future when called on it, near hit or not, and otherwise one
        crossing onto it, a ``concurrent.futures.Future``.  Identical
        concurrent requests route to the same shard and share its
        connection, so the shard coalesces them onto one engine run.
        """
        if self._closed:
            raise ShardError("broker is closed")
        fp = request.fingerprint()
        count = self._record_heat(fp)
        near = self._near_lookup(request, fp)
        if near is not None:
            done = (self._loop.create_future() if self._on_ring_loop()
                    else Future())
            done.set_result(near)
            return done
        # the caller's span follows the request onto the loop: the task
        # copies this thread's context
        return self._cross(self._transport_solve(
            request, fp, hot=count >= HOT_THRESHOLD))

    async def _transport_solve(
        self, request: SolveRequest, fp: str, hot: bool,
    ) -> BrokerResult:
        # the request's memoized wire bytes, spliced into the frame:
        # re-sends never re-encode the platform, whichever shard (or
        # failover stand-in) receives it, and a body-memo hit gets here
        # without a decode
        msg = {"op": "solve", "fp": fp, "request": request.wire_json()}
        if current_span() is not None:
            msg["trace"] = True  # ask the shard for its span tree
        reply = await self._routed_call(fp, msg)
        result = result_from_wire(reply["result"])
        result.request = request  # its spec is read, if ever, on binding
        if hot:  # admit the reply's bytes; an entry learns a schedule late
            wire, entry = result.wire, self._near_cache.peek(fp)
            schedule = wire.get("schedule")
            schedule = None if schedule is None else compact_json(schedule)
            if entry is None:
                self._near_cache.put(fp, compact_json(wire["solution"]),
                                     request.topology(), schedule)
            elif entry.schedule_json is None and schedule is not None:
                self._near_cache.attach_schedule(fp, schedule)
        return result

    def solve_batch(self, requests: List[SolveRequest]) -> List[BrokerResult]:
        """The blocking form of the served batch: :meth:`submit` every
        request, then wait for each answer in order.  A failing request
        raises here; the JSON API's ``batch`` op isolates errors."""
        self._blocking()
        with self.metrics.timer("solve.batch"):
            futures = [self.submit(request) for request in requests]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # invalidation + introspection
    # ------------------------------------------------------------------
    def invalidate_platform(self, platform: Platform) -> int:
        """Drop this platform's entries and hot models on *every* shard.

        A platform's requests spread across shards (each problem/option
        combination fingerprints differently), so invalidation must fan
        out.  An **unreachable shard never fails the caller**: it is
        ejected (remote) or restarted with an empty cache (local) and
        counted in ``shard_health``.  The entries a remote shard keeps
        through its outage, like those a racing solve stores, are
        exact answers to their keys: invalidation frees memory and hot
        models, nothing else.

        The broker near-cache is invalidated first; near-cache removals
        are duplicates of shard entries and are NOT counted in the
        returned total.
        """
        self._blocking()
        return self.submit_invalidate(platform).result()

    def submit_invalidate(self, platform: Platform) -> "Future[int]":
        """:meth:`invalidate_platform` as the ring's future (a task on
        its own loop, one crossing from any other thread), which the
        dispatcher awaits."""
        if self._near_cache is not None:
            self._near_cache.invalidate_platform(platform)
        return self._cross(self._fanout_total(
            {"op": "invalidate", "platform": platform_to_dict(platform)},
            "removed"))

    def clear(self) -> int:
        """Drop every cached entry on every shard; returns entries removed.

        (Like :meth:`invalidate_platform`, an unreachable shard is
        recovered and counted, never raised; near-cache removals are
        duplicates and are not counted.)
        """
        self._blocking()
        if self._near_cache is not None:
            self._near_cache.clear()
        return self._cross(self._fanout_total({"op": "clear"},
                                              "cleared")).result()

    async def _fanout_total(self, msg: Dict[str, Any], count: str) -> int:
        """:meth:`_fanout`, summing ``count`` over the shards' replies."""
        return sum(reply[count] for _shard, reply in await self._fanout(msg)
                   if reply is not None)

    async def _fanout(
        self, msg: Dict[str, Any]
    ) -> List[Tuple[_Shard, Optional[Dict[str, Any]]]]:
        """Send one op to every *live* shard concurrently, ahead of
        each shard's queued solves.

        These ops do not take a shard's ``solve_slots``, so a metrics
        scrape or an invalidation does not wait for a deep solve
        backlog to drain — and the shards are visited in parallel, so
        the total wait is the slowest shard's, not the sum.  Returns
        ``(shard, reply-or-None)`` pairs in shard-id order; ``None``
        marks a shard that failed at the transport level mid-fan-out
        (recovery already ran — it was restarted or ejected).
        Worker-*reported* errors still raise: the shard is alive, the
        request itself is at fault.
        """
        async def one(shard: _Shard):
            try:
                return shard, await self._shard_call(shard, dict(msg))
            except ShardUnavailableError:
                return shard, None

        return await asyncio.gather(
            *(one(shard) for shard in self._shards if shard.active))

    def shard_health(self) -> Dict[str, Any]:
        """Supervision counters + per-shard liveness (JSON-safe)."""
        return {
            "shard_failures": sum(s.failures for s in self._shards),
            "shard_timeouts": sum(s.timeouts for s in self._shards),
            "shard_restarts": sum(s.restarts for s in self._shards),
            "failovers": self.failovers,
            "rejoins": self.rejoins,
            "shards": [s.health() for s in self._shards],
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe aggregate state: merged cache counters, merged
        metrics (see :func:`~repro.service.metrics.merge_snapshots` for
        the aggregation semantics), supervision counters and a compact
        per-shard breakdown (unreachable shards flagged, not omitted)."""
        self._blocking()
        return self.submit_snapshot().result()

    def submit_snapshot(self) -> "Future[Dict[str, Any]]":
        """:meth:`snapshot` as the ring's future, like submit_invalidate."""
        return self._cross(self._snapshot())

    async def _snapshot(self) -> Dict[str, Any]:
        # per shard its engine snapshot, None if it did not answer
        shard_snaps = [None] * len(self._shards)
        for shard, reply in await self._fanout({"op": "snapshot"}):
            if reply is not None:
                shard_snaps[shard.index] = reply["snapshot"]
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
        }
        incremental = [s["incremental"] for s in present
                       if "incremental" in s]
        if incremental:
            out["incremental"] = merge_counters(incremental)
        return out

    def _replication_snapshot(
        self, per_shard: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The skew view: near-cache stats, the sketch's hot head, and
        the per-shard request imbalance (max/mean — 1.0 is perfectly
        even; what the near-cache pulls down under Zipf skew).  The
        section keeps the name ``bench/`` reads it under."""
        out: Dict[str, Any] = {"hot_threshold": HOT_THRESHOLD}
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
                "bytes": near["bytes"],
                "hits": near["hits"],
                "misses": near["misses"],
                "hit_rate": near["hit_rate"],
            }
        return out

    # ------------------------------------------------------------------
    # background health: probe, restart, eject, rejoin
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        """The prober: one more task on the ring's loop, cancelled by
        :meth:`aclose`."""
        while True:
            await asyncio.sleep(self.health_interval)
            for shard in self._shards:
                try:
                    await self._health_check(shard)
                except Exception:  # noqa: BLE001 — the prober must live
                    pass

    async def _health_check(self, shard: _Shard) -> None:
        if shard.dead:
            return  # local respawn failed: permanent until close
        if shard.ejected:
            # rejoin probe; the transport redials lazily, so a ping
            # answered means the host is back, its cache as it was
            if not await shard.transport.ping(timeout=_PING_TIMEOUT):
                return
            shard.ejected = False
            shard.epoch += 1  # a new channel: its failures count afresh
            self.rejoins += 1
            log_event("shard.rejoin", shard=shard.index,
                      address=shard.address)
            return
        epoch = shard.epoch  # of the worker the ping goes to
        # pings are answered on the shard's loop, ahead of queued solves:
        # a busy shard still answers, only a dead or wedged one does not
        if not await shard.transport.ping(timeout=_PING_TIMEOUT):
            await self._note_transport_failure(shard, epoch)
