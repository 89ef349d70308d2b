"""Rule ``asyncio`` — no blocking calls on the event loop.

The async service core (PR 8) runs framing, routing and coalescing on
one event loop; anything that blocks inside an ``async def`` stalls
*every* connection, not just its own — a busy shard stops answering
pings, deadlines fire late, and the multiplexing win evaporates.  The
convention is mechanical, so it is machine-checked:

* no ``time.sleep(...)`` — use ``await asyncio.sleep(...)``;
* no raw socket calls (``recv``/``recv_into``/``recvfrom``/``accept``/
  ``sendall``, ``socket.create_connection``) — stream readers/writers
  only;
* no un-awaited ``.request(...)`` / ``.ping(...)`` — the shard
  transport is a coroutine API: without ``await`` the call sends
  nothing and leaves a never-awaited coroutine behind;
* no ``.result()`` — a ``concurrent.futures`` wait parks the loop;
  hand the future to ``asyncio.wrap_future`` or await the executor;
* no sync ``with <...lock...>:`` — an engine/state lock held across a
  blocking acquire convoys the loop; engine locks belong *inside*
  executor jobs, loop-confined state needs no lock at all
  (``async with`` on an ``asyncio.Lock`` is of course fine).  The one
  lock a loop does wait on is taken for it, inside a callee: a
  loop-served cache hit (``SolveEngine.run_hit``) enters
  ``SolutionCache``'s lock within ``hit`` / ``peek`` only, and an
  executor thread holds that lock for at most one
  ``invalidate_platform`` scan (~150 µs by the benchmark's
  ``cache.invalidate_platform_us``) — never across a solve, which runs
  under the *engine* lock the loop never touches;
* no direct call of the blocking dispatchers ``route_post`` /
  ``handle_request`` — each blocks until the broker's futures resolve.
  A coroutine drives the generator dispatcher by awaiting the futures
  it yields, as the HTTP loop does for every op, and must not drift
  back onto the loop as a blocking call.

Nested sync ``def``/``lambda`` bodies are exempt — they are exactly
the functions handed to executors — and the deliberate exceptions
carry ``allow(asyncio)`` pragmas.

Scope: the service layer (``repro/service/``) and any file opting in
via ``scope(asyncio)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import (
    Checker,
    Finding,
    ModuleInfo,
    iter_own_scope,
    register_checker,
)

_SCOPE_DIRS = ("repro/service/",)
_SOCKET_METHODS = frozenset(
    {"recv", "recv_into", "recvfrom", "accept", "sendall"})
_TRANSPORT_METHODS = frozenset({"request", "ping"})
_BLOCKING_DISPATCHERS = frozenset(
    {"route_post", "route_get", "handle_request"})


def _terminal_name(expr: ast.AST) -> str:
    """The rightmost identifier of a context expression."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


@register_checker
class AsyncioChecker(Checker):
    rule = "asyncio"
    description = (
        "async def bodies in repro/service/ must not block the event "
        "loop: no time.sleep, raw socket calls, un-awaited "
        "transport request/ping, Future.result(), sync 'with' on a "
        "lock (engine locks belong inside executor jobs), or direct "
        "call of route_post/handle_request"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        q = "/" + module.display_path
        return (any("/" + d in q for d in _SCOPE_DIRS)
                or module.scoped(self.rule))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for outer in ast.walk(module.tree):
            if not isinstance(outer, ast.AsyncFunctionDef):
                continue
            awaited: Set[int] = set()
            for node in iter_own_scope(outer):
                if isinstance(node, ast.Await):
                    awaited.add(id(node.value))
            for node in iter_own_scope(outer):
                yield from self._check_node(module, outer, node, awaited)

    def _check_node(self, module: ModuleInfo, outer: ast.AsyncFunctionDef,
                    node: ast.AST, awaited: Set[int]) -> Iterator[Finding]:
        where = f"in async def {outer.name}"
        if isinstance(node, ast.With):
            for item in node.items:
                name = _terminal_name(item.context_expr)
                if "lock" in name.lower():
                    yield Finding(
                        self.rule, module.display_path, node.lineno,
                        node.col_offset,
                        f"sync 'with {name}:' {where} blocks the event "
                        f"loop on acquire (take engine locks inside "
                        f"executor jobs; asyncio.Lock wants 'async with')",
                    )
            return
        if not isinstance(node, ast.Call):
            return
        func = node.func
        callee = _terminal_name(func)
        if callee in _BLOCKING_DISPATCHERS:
            yield Finding(
                self.rule, module.display_path, node.lineno,
                node.col_offset,
                f"{callee}() {where} blocks the loop on "
                f"the broker's futures; drive the dispatcher by awaiting",
            )
            return
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            called = f"{func.value.id}.{func.attr}"
            if called == "time.sleep":
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f"time.sleep() {where} stalls every connection on "
                    f"the loop; use 'await asyncio.sleep(...)'",
                )
                return
            if called == "socket.create_connection":
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f"socket.create_connection() {where} blocks the "
                    f"loop; use 'await asyncio.open_connection(...)'",
                )
                return
        if isinstance(func, ast.Attribute):
            if func.attr in _SOCKET_METHODS:
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f".{func.attr}() {where} is a blocking socket call; "
                    f"use the connection's StreamReader/StreamWriter",
                )
            elif (func.attr in _TRANSPORT_METHODS
                    and id(node) not in awaited):
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f"un-awaited .{func.attr}() {where}: the shard "
                    f"transport is a coroutine API — without 'await' "
                    f"nothing is sent",
                )
            elif func.attr == "result" and id(node) not in awaited:
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f".result() {where} parks the loop until the future "
                    f"resolves; await it (asyncio.wrap_future for "
                    f"concurrent.futures)",
                )
