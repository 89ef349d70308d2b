"""Single-process asyncio load generator: HTTP/1.1 keep-alive over a
fixed number of connections, open loop (Poisson schedule, latency from
each request's *due* time) and closed loop (a fixed list, drained as
fast as the connections allow).

Requests are pre-encoded bytes; replies are kept as raw bytes and only
parsed after the clocks stop.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .workloads import Op

CONNECTIONS = 2  # one per vCPU of the reference machine
_SPIN = 0.0015   # finish a wait by yielding to the loop, not by sleeping


@dataclass
class Sample:
    """One request as the generator saw it (perf_counter seconds)."""

    op: Op
    due: float       # when it should have been sent (== ready when closed)
    ready: float     # max(due, the connection became free)
    sent: float
    done: float
    status: int      # 0 on a transport error
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator itself was."""
        return self.sent - self.ready


class Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(host, port))

    async def call(self, wire: bytes) -> "tuple[int, bytes]":
        self.writer.write(wire)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _wait_until(due: float) -> None:
    # the selector rounds sleeps up to whole milliseconds; sleep short and
    # finish by yielding so the other connection's I/O keeps being served
    delay = due - time.perf_counter() - _SPIN
    if delay > 0:
        await asyncio.sleep(delay)
    while time.perf_counter() < due:
        await asyncio.sleep(0)


async def drive(conns: Sequence[Connection], ops: Sequence[Op],
                due_offsets: Optional[Sequence[float]] = None,
                ) -> List[Sample]:
    """Send ``ops`` in order over ``conns``; each connection takes the
    next unsent request as soon as it is free.  With ``due_offsets`` a
    request is held until its due time (open loop); without, it goes out
    at once (closed loop)."""
    samples: List[Optional[Sample]] = [None] * len(ops)
    cursor = 0
    start = time.perf_counter()

    async def worker(conn: Connection) -> None:
        nonlocal cursor
        free_at = start
        while cursor < len(ops):
            index = cursor
            cursor += 1
            op = ops[index]
            if due_offsets is not None:
                due = start + due_offsets[index]
                await _wait_until(due)
            else:
                due = free_at
            ready = max(due, free_at)
            sent = time.perf_counter()
            try:
                status, body = await conn.call(op.wire)
            except (ConnectionError, OSError, ValueError,
                    asyncio.IncompleteReadError) as exc:
                done = time.perf_counter()
                samples[index] = Sample(op, due, ready, sent, done, 0,
                                        repr(exc).encode("utf-8"))
                return  # the connection is gone; what it leaves is unsent
            done = time.perf_counter()
            samples[index] = Sample(op, due, ready, sent, done, status, body)
            free_at = done

    await asyncio.gather(*(worker(conn) for conn in conns))
    now = time.perf_counter()
    return [s if s is not None
            else Sample(ops[i], now, now, now, now, 0, b"unsent")
            for i, s in enumerate(samples)]
