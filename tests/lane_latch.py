"""A test-side hold on a shard's engine lane.

A shard runs its engine work on one executor thread, the *engine lane*
(:class:`repro.service.AsyncShardServer`).  Tests that need a busy
shard — a queue behind a solve, a deadline that fires, twins that must
meet in flight — park a :class:`LaneLatch` job on that lane: it sets
``held`` once it owns the lane and blocks until :meth:`LaneLatch.release`.
Both ends are fork-inherited ``multiprocessing`` objects, so the latch
reaches a forked shard too:

* an in-thread server is built as :class:`LatchedShardServer`, or held
  later with :meth:`LaneLatch.hold`;
* a ring's forked local workers are latched by patching
  ``repro.service.transport.AsyncShardServer`` before the ring spawns
  them (:meth:`LaneLatch.patch_local_shards`);
* a ``shard-serve`` process builds a :class:`LatchedShardServer`.

Nothing here is part of the shard protocol: a peer cannot hold a lane.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import time

from repro.service import AsyncShardServer


class LaneLatch:
    """Holds engine lanes until :meth:`release`.

    ``held`` is an event a holder sets once it owns a lane.  The release
    is a one-way pipe, not a second event: a holder waits for the pipe
    to turn readable without reading it, so one message wakes every
    holder in every process.  An event could not be set once a holder had been
    killed mid-wait — its condition waits for every sleeper to wake.
    """

    def __init__(self) -> None:
        self.held = multiprocessing.Event()
        self._wake, self._release = multiprocessing.Pipe(duplex=False)

    def hold(self, server: AsyncShardServer) -> None:
        """Queue the hold on ``server``'s engine lane: every lane job
        queued after it waits for :meth:`release`."""
        server._executor.submit(self._hold)

    def _hold(self) -> None:
        self.held.set()
        self._wake.poll(None)

    def release(self) -> None:
        self._release.send_bytes(b"")

    def patch_local_shards(self, monkeypatch) -> None:
        """Every local worker a ring forks from now on is born held."""
        import repro.service.transport as transport

        monkeypatch.setattr(transport, "AsyncShardServer",
                            functools.partial(LatchedShardServer, self))


class LatchedShardServer(AsyncShardServer):
    """An :class:`AsyncShardServer` whose engine lane is held by
    ``latch`` from birth."""

    def __init__(self, latch: LaneLatch, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        latch.hold(self)


def until(probe, timeout: float = 10.0):
    """Poll ``probe()`` until it returns a true value, and return that;
    fail after ``timeout``."""
    give_up = time.monotonic() + timeout
    while not (value := probe()):
        assert time.monotonic() < give_up, "the condition never held"
        time.sleep(0.005)
    return value


async def until_async(probe, timeout: float = 10.0):
    """:func:`until` for a coroutine ``probe`` on a running loop."""
    give_up = time.monotonic() + timeout
    while not (value := await probe()):
        assert time.monotonic() < give_up, "the condition never held"
        await asyncio.sleep(0.005)
    return value
