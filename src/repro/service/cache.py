"""LRU + TTL cache for steady-state solutions and reconstructed schedules.

One entry per request fingerprint (see :mod:`repro.service.fingerprint`),
holding the solver's result and — lazily, once somebody asks for it — the
reconstructed :class:`~repro.schedule.periodic.PeriodicSchedule`.  The
cache is thread-safe: a shard's event loop (serving hits) and its engine
lane (solving misses) hit it concurrently.

Eviction happens on three paths, each with its own counter:

* **LRU** — beyond ``max_size`` entries, the least recently *used* goes;
* **TTL** — entries older than ``ttl`` (seconds) are dropped on access
  ("expirations") — pass ``ttl=None`` to disable;
* **invalidation** — :meth:`SolutionCache.invalidate_platform` removes
  every entry computed against a platform with the given structural
  signature; call it after mutating a platform the service solved for.

Invalidation also bumps a monotonically increasing **generation**
counter.  A solve that was already in flight when ``invalidate_platform``
(or ``clear``) ran computed its solution against the *pre-invalidation*
platform; if its ``put`` landed afterwards it would silently reinstate
the stale solution.  Callers therefore capture
:attr:`SolutionCache.generation` when the solve *starts* and pass it back
to :meth:`SolutionCache.put`, which rejects the write (counted in
``stale_puts``) when an invalidation happened in between.

The clock is injectable for deterministic TTL tests.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..platform.graph import Platform
from .fingerprint import Signature, topology_signature


@dataclass
class CacheStats:
    """Monotonic counters; ``hit_rate`` is derived."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    stale_puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "stale_puts": self.stale_puts,
            "hit_rate": self.hit_rate,
        }


class HeatSketch:
    """Bounded per-key frequency sketch (*space-saving* top-K).

    Counts lookups per fingerprint in O(``capacity``) memory: a tracked
    key increments exactly; an untracked key, once the sketch is full,
    **replaces the coldest tracked key** and inherits its count plus one
    (the classic space-saving over-estimate, so a genuinely hot key can
    never be missed — estimates only ever err high, by at most the
    evicted minimum).  The hot head of a skewed distribution therefore
    stabilises in the sketch after one pass, which is what the
    near-cache's admission keys off.

    The coldest key is found through a lazily rebuilt min-heap: stale
    heap entries (whose count moved since they were pushed) are popped
    and re-pushed on demand, giving amortised ``O(log K)`` evictions
    instead of an ``O(K)`` scan per cold-tail request.

    Thread-safe; every public method takes the internal lock.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}  # guarded-by: _lock
        # (count-at-push, key) pairs; may lag _counts (lazily repaired)
        self._heap: List[Tuple[int, str]] = []  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)

    def record(self, key: str) -> int:
        """Count one lookup; returns the key's (estimated) total."""
        with self._lock:
            count = self._counts.get(key)
            if count is not None:
                count += 1
                self._counts[key] = count
                heapq.heappush(self._heap, (count, key))
                if len(self._heap) > 4 * self.capacity:
                    self._compact()
                return count
            if len(self._counts) < self.capacity:
                self._counts[key] = 1
                heapq.heappush(self._heap, (1, key))
                return 1
            floor = self._evict_min()
            count = floor + 1
            self._counts[key] = count
            heapq.heappush(self._heap, (count, key))
            self.evictions += 1
            return count

    def _evict_min(self) -> int:  # caller-holds: _lock
        """Drop the coldest tracked key; returns its count (the
        space-saving error floor inherited by the replacement)."""
        while True:
            count, key = heapq.heappop(self._heap)
            current = self._counts.get(key)
            if current == count:
                del self._counts[key]
                return count
            if current is not None:
                # stale entry: the key was bumped since this push; its
                # fresher pair is (or will be) elsewhere in the heap
                continue

    def _compact(self) -> None:  # caller-holds: _lock
        """Rebuild the heap from live counts (bounds stale growth)."""
        self._heap = [(count, key) for key, count in self._counts.items()]
        heapq.heapify(self._heap)

    def count(self, key: str) -> int:
        """Estimated lookups for a key (0 when untracked)."""
        with self._lock:
            return self._counts.get(key, 0)

    def hot_keys(self, top: Optional[int] = None,
                 min_count: int = 1) -> List[Tuple[str, int]]:
        """Tracked keys with at least ``min_count`` lookups, hottest
        first, at most ``top`` of them (all when ``None``)."""
        with self._lock:
            ranked = sorted(
                ((key, count) for key, count in self._counts.items()
                 if count >= min_count),
                key=lambda pair: (-pair[1], pair[0]),
            )
        return ranked[:top] if top is not None else ranked

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._heap.clear()

    def snapshot(self, top: int = 10) -> Dict[str, Any]:
        """JSON-safe view: config, occupancy and the current hot head."""
        with self._lock:
            tracked = len(self._counts)
            evictions = self.evictions
        return {
            "capacity": self.capacity,
            "tracked": tracked,
            "evictions": evictions,
            "hot_keys": [
                {"fingerprint": key, "count": count}
                for key, count in self.hot_keys(top=top)
            ],
        }


@dataclass
class CacheEntry:
    """A cached solve: the solution, plus the schedule once reconstructed.

    ``topology_sig`` (weights erased) is what :meth:`SolutionCache.
    invalidate_platform` matches on; the full weighted signature is already
    folded into ``key`` by the fingerprint, so it is not stored again.

    ``solution_json`` / ``schedule_json`` memoise the two objects' wire
    bytes: :func:`repro.service.wire.encode_result` fills each on its
    first serve and splices it into every later reply.
    """

    key: str
    topology_sig: Signature
    solution: Any
    schedule: Any = None
    created_at: float = 0.0
    hits: int = 0
    solution_json: Optional[bytes] = None
    schedule_json: Optional[bytes] = None


class SolutionCache:
    """Thread-safe LRU + TTL mapping ``fingerprint -> CacheEntry``.

    Parameters
    ----------
    max_size:
        Entry budget; the least-recently-used entry is evicted beyond it.
    ttl:
        Seconds an entry stays valid, or ``None`` for no expiry.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_size: int = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.max_size = max_size
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()  # guarded-by: _lock
        self._generation = 0  # guarded-by: _lock
        self.stats = CacheStats()  # guarded-by: _lock

    @property
    def generation(self) -> int:
        """Invalidation epoch; capture at solve start, pass to :meth:`put`."""
        with self._lock:
            return self._generation

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._expired(entry)

    def _expired(self, entry: CacheEntry) -> bool:
        return self.ttl is not None and self._clock() - entry.created_at > self.ttl

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CacheEntry]:
        """Look up a fingerprint; counts a hit or a miss either way."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                del self._entries[key]
                self.stats.expirations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            return self._touch(entry)

    def hit(self, key: str, with_schedule: bool = False
            ) -> Optional[CacheEntry]:
        """:meth:`get` for a caller whose fallback is a full lookup: a
        live entry (with a schedule, when one is wanted) counts a hit;
        anything else returns ``None`` and counts, drops and expires
        **nothing** — the fallback's :meth:`get` keeps those books."""
        with self._lock:
            entry = self._entries.get(key)
            if (entry is None or self._expired(entry)
                    or (with_schedule and entry.schedule is None)):
                return None
            return self._touch(entry)

    def _touch(self, entry: CacheEntry) -> CacheEntry:  # caller-holds: _lock
        self._entries.move_to_end(entry.key)
        entry.hits += 1
        self.stats.hits += 1
        return entry

    def put(
        self,
        key: str,
        solution: Any,
        platform: Platform,
        schedule: Any = None,
        generation: Optional[int] = None,
    ) -> Optional[CacheEntry]:
        """Insert (or refresh) an entry, evicting LRU entries beyond budget.

        ``generation`` is the value of :attr:`generation` captured when the
        solve producing ``solution`` started.  When an invalidation has
        happened since (the counter moved), the write is refused and
        ``None`` is returned: the solution was computed against a platform
        state the caller has since declared stale, and storing it would
        undo the invalidation.  Pass ``None`` to skip the check (the
        solution is known current, e.g. a manual warm-up).
        """
        topo = topology_signature(platform)
        with self._lock:
            if generation is not None and generation != self._generation:
                self.stats.stale_puts += 1
                return None
            entry = CacheEntry(
                key=key,
                topology_sig=topo,
                solution=solution,
                schedule=schedule,
                created_at=self._clock(),
            )
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Look up without touching counters, recency or TTL eviction.

        For internal short-circuits (e.g. checking whether a schedule was
        already attached by another waiter) that must not distort the
        hit-rate statistics.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                return None
            return entry

    def attach_schedule(self, key: str, schedule: Any) -> None:
        """Record a lazily reconstructed schedule on an existing entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.schedule = schedule
                entry.schedule_json = None

    # ------------------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry by fingerprint; True when something was removed."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                return True
            return False

    def invalidate_platform(self, platform: Platform) -> int:
        """Drop every entry whose platform shares this platform's *topology*.

        The intended call site is a platform mutation: weights are frozen
        in :class:`~repro.platform.graph.Platform`, so "mutating" means
        deriving a re-weighted copy (e.g. :meth:`Platform.scale` or a
        monitoring update).  Matching on the topology signature removes
        all stale weight-variants of the platform in one call; returns the
        number of entries removed.
        """
        topo = topology_signature(platform)
        with self._lock:
            # bump even when nothing matched: an in-flight solve for this
            # platform has no entry yet, and its late put must still be
            # refused (the whole point of the generation check)
            self._generation += 1
            doomed: List[str] = [
                key for key, entry in self._entries.items()
                if entry.topology_sig == topo
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> int:
        with self._lock:
            self._generation += 1
            n = len(self._entries)
            self._entries.clear()
            return n

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of size, config and counters (for the API)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "ttl": self.ttl,
                "generation": self._generation,
                **self.stats.as_dict(),
            }
