"""LRU cache for steady-state answers, kept as their wire bytes.

One entry per request fingerprint (see :mod:`repro.service.fingerprint`),
holding the compact JSON the service replies with — the solution's and,
once somebody asks for it, the reconstructed schedule's — and no object
and no platform: a read binds the bytes to the caller's own spec
(:mod:`repro.service.wire`).  The cache is thread-safe: a shard's event
loop (serving hits) and its engine lane (solving misses) hit it
concurrently.

An entry is the answer to its key and never goes stale: the fingerprint
hashes every node and edge weight exactly, so a re-weighted platform is
another key, solved into another entry.  The cache needs a bound, never
an expiry.  Entries leave on two paths, each with its own counter:

* **LRU** — beyond ``max_size`` entries, the least recently *used* goes;
* **invalidation** — :meth:`SolutionCache.invalidate_platform` frees
  every entry computed against a platform with the given structural
  signature: the weight-variants of a platform that has moved on.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..platform.graph import Platform
from .fingerprint import topology_signature


def topology_digest(topology: Union[bytes, Platform]) -> bytes:
    """``topology`` itself when it is a ``topology_signature`` already,
    else the platform's: a caller that holds the digest passes it on."""
    if isinstance(topology, bytes):
        return topology
    return topology_signature(topology)


@dataclass
class CacheStats:
    """Monotonic counters; ``hit_rate`` is derived."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

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
            "invalidations": self.invalidations,
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
    """A cached solve, as bytes: ``solution_json`` and, once
    reconstructed, ``schedule_json`` are the compact JSON that
    :func:`repro.service.wire.encode_result` splices into every reply.

    ``topology_sig`` (the weights-erased digest) is what
    :meth:`SolutionCache.invalidate_platform` matches on; the full
    weighted signature is already folded into ``key`` by the
    fingerprint, so it is not stored again.  A broker near-cache entry
    holds the shard's reply bytes in the same two fields, and memoises
    the HTTP payload it splices in ``payload_json``
    (:func:`repro.service.wire.payload_json`).
    """

    key: str
    topology_sig: bytes
    solution_json: Optional[bytes]
    schedule_json: Optional[bytes] = None
    hits: int = 0
    payload_json: Optional[bytes] = None


class SolutionCache:
    """Thread-safe LRU mapping ``fingerprint -> CacheEntry``; the least
    recently used entry is evicted beyond ``max_size``."""

    def __init__(self, max_size: int = 256) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.max_size = max_size
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()  # guarded-by: _lock
        self.stats = CacheStats()  # guarded-by: _lock

    # ------------------------------------------------------------------
    def get(self, key: str, with_schedule: bool = False
            ) -> Optional[CacheEntry]:
        """Look up a fingerprint; counts a hit or a miss either way.  An
        entry without a wanted schedule is a miss and keeps its
        recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (with_schedule
                                 and entry.schedule_json is None):
                self.stats.misses += 1
                return None
            return self._touch(entry)

    def hit(self, key: str, with_schedule: bool = False
            ) -> Optional[CacheEntry]:
        """:meth:`get` for a caller whose fallback is a full lookup: an
        entry (with a schedule, when one is wanted) counts a hit;
        anything else returns ``None`` and counts **nothing** — the
        fallback's :meth:`get` keeps those books."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (with_schedule
                                 and entry.schedule_json is None):
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
        solution_json: Optional[bytes],
        topology: Union[bytes, Platform],
        schedule_json: Optional[bytes] = None,
    ) -> CacheEntry:
        """Insert (or refresh) an entry, evicting LRU entries beyond
        budget; ``topology`` is the entry's ``topology_signature``, or
        a platform read for that digest only."""
        entry = CacheEntry(key, topology_digest(topology), solution_json,
                           schedule_json)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Look up without touching counters or recency.

        For internal short-circuits (e.g. checking whether a schedule was
        already attached by another waiter) that must not distort the
        hit-rate statistics.
        """
        with self._lock:
            return self._entries.get(key)

    def attach_schedule(self, key: str, schedule_json: bytes) -> None:
        """Record a lazily reconstructed schedule's bytes on an existing
        entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.schedule_json = schedule_json

    # ------------------------------------------------------------------
    def invalidate_platform(self, topology: Union[bytes, Platform]) -> int:
        """Drop every entry whose platform shares this *topology* (a
        ``topology_signature``, or a platform read for that digest).

        The intended call site is a platform mutation: weights are frozen
        in :class:`~repro.platform.graph.Platform`, so "mutating" means
        deriving a re-weighted copy (e.g. :meth:`Platform.scale` or a
        monitoring update).  An old weighting's entries stay exact answers
        to their own keys; this frees them all in one call and returns
        the number of entries removed.
        """
        topo = topology_digest(topology)
        with self._lock:
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
            n = len(self._entries)
            self._entries.clear()
            return n

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of size, config and counters (for the API);
        ``bytes`` is what the kept blobs hold."""
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "bytes": sum(len(blob or b"") for entry in
                             self._entries.values() for blob in
                             (entry.solution_json, entry.schedule_json,
                              entry.payload_json)),
                **self.stats.as_dict(),
            }


#: the body memo's bound: this many ``solve`` bodies, or this many
#: bytes of what their entries keep, whichever binds first
BODY_MEMO_ENTRIES = 256
BODY_MEMO_BYTES = 1 << 20


class KeptRequest:
    """What a :class:`BodyMemo` entry keeps of a decoded request: its
    fingerprint, its ``include_schedule`` flag, its topology digest
    (which near-cache admission files an answer under), its canonical
    compact wire bytes (which a shard frame splices) and its problem's
    registered name.  No spec, platform or wire dict:
    :meth:`~repro.service.broker.SolveRequest.from_kept` rebuilds the
    request, and decodes its spec only when a solve reads it."""

    __slots__ = ("fingerprint", "include_schedule", "topology",
                 "request_json", "problem")

    def __init__(self, request: Any) -> None:
        self.fingerprint: str = request.fingerprint()
        self.include_schedule: bool = request.include_schedule
        self.topology: bytes = request.topology()
        self.request_json: bytes = request.wire_json()
        self.problem: str = request.problem

    @property
    def size(self) -> int:
        """The bytes this entry keeps beside its body."""
        return (len(self.fingerprint) + len(self.topology)
                + len(self.request_json))


class BodyMemo:
    """Bounded LRU from the exact bytes of a ``solve`` body to what its
    full decode produced, kept as a :class:`KeptRequest`, for the HTTP
    loop that alone touches it: no lock.

    It holds no answers, so it needs a bound and never an invalidation:
    a memo hit is exactly the decode it skips, and reaches the ring
    without decoding anything (the request's spec is decoded from the
    kept bytes only where a solve reads it).  Beyond
    :data:`BODY_MEMO_ENTRIES` bodies or :data:`BODY_MEMO_BYTES` of what
    the entries keep — each body and its :attr:`KeptRequest.size`, about
    2 KiB for a benchmark ``hit_zipf`` body of 0.9 KiB — the least
    recently used goes.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[bytes, KeptRequest]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, body: bytes) -> Optional[KeptRequest]:
        kept = self._entries.get(body)
        if kept is None:
            self.misses += 1
            return None
        self._entries.move_to_end(body)
        self.hits += 1
        return kept

    def put(self, body: bytes, request: Any) -> None:
        """Keep ``request`` (a decoded
        :class:`~repro.service.broker.SolveRequest`) under ``body``."""
        if body in self._entries:
            return
        kept = self._entries[body] = KeptRequest(request)
        self.bytes += len(body) + kept.size
        while (len(self._entries) > BODY_MEMO_ENTRIES
               or self.bytes > BODY_MEMO_BYTES):
            old, dropped = self._entries.popitem(last=False)
            self.bytes -= len(old) + dropped.size

    def snapshot(self) -> Dict[str, Any]:
        return {"entries": len(self._entries),
                "max_entries": BODY_MEMO_ENTRIES, "bytes": self.bytes,
                "max_bytes": BODY_MEMO_BYTES, "hits": self.hits,
                "misses": self.misses}
