"""Rule ``locks`` — ``# guarded-by:`` attributes touched under lock only.

The service layer's shared mutable state (caches, in-flight maps, shard
health counters, trace rings) is protected by per-object locks whose
coverage used to live in comments and reviewer memory — the race class
PRs 3 and 5 fixed by hand.  This rule makes the comments enforceable:

    self._entries = OrderedDict()  # guarded-by: _lock

declares that every load or store of ``self._entries`` elsewhere in the
class must sit lexically inside a ``with self._lock:`` block.
``__init__`` is exempt (the object is not yet shared), nested
functions/lambdas reset the held-lock set (they run later, when the
lock may no longer be held), and base classes defined in the same
module contribute their declarations to subclasses.  Deliberately
unlocked accesses (GIL-atomic counter reads in snapshots, single-
threaded shutdown paths) carry a line ``allow(locks)`` pragma with the
justification.

Private helpers that a lock-holding method factors its work into (the
heat sketch's lazy-heap eviction, for example) are declared with a
method-level annotation on the ``def`` line::

    def _evict_min(self):  # caller-holds: _lock

The helper's body is then checked as if ``with self._lock:`` enclosed
it — guarded attributes may be touched freely — and, in exchange,
**every call** ``self._evict_min()`` elsewhere in the class must itself
sit inside a ``with self._lock:`` block (or another method making the
same declaration).  The annotation moves the obligation to the call
site instead of silencing it.

Known model limits (documented, not checked): attributes guarded by a
*different object's* lock (e.g. shard failure counters mutated under
the owning broker's health lock) and locks acquired with explicit
``acquire``/``release`` instead of ``with``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from ..engine import Checker, Finding, ModuleInfo, register_checker

_GUARD_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_CALLER_HOLDS_RE = re.compile(r"caller-holds:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Methods where unlocked access is allowed by construction.
_EXEMPT_METHODS = frozenset({"__init__", "__new__"})


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` attribute name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


class _ClassInfo:
    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.bases: List[str] = [
            b.id for b in node.bases if isinstance(b, ast.Name)
        ]
        self.guards: Dict[str, str] = {}  # attr -> lock attr
        self.caller_holds: Dict[str, str] = {}  # method -> lock attr


@register_checker
class LockChecker(Checker):
    rule = "locks"
    description = (
        "attributes annotated '# guarded-by: <lock>' may only be "
        "read/written inside a 'with self.<lock>:' block of the "
        "enclosing class (construction in __init__ exempt)"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return "guarded-by" in module.source

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        guard_lines: Dict[int, str] = {}
        holds_lines: Dict[int, str] = {}
        for line, _col, text in module.comments:
            match = _GUARD_RE.search(text)
            if match:
                guard_lines[line] = match.group(1)
            match = _CALLER_HOLDS_RE.search(text)
            if match:
                holds_lines[line] = match.group(1)
        if not guard_lines and not holds_lines:
            return

        classes: Dict[str, _ClassInfo] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = _ClassInfo(node)

        holds_claimed: Set[int] = set()
        for info in classes.values():
            for item in info.node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                # the annotation may sit on any line of the def header
                # (signatures wrap); the body's first line ends it
                header_end = (item.body[0].lineno if item.body
                              else item.lineno + 1)
                for ln in range(item.lineno, header_end):
                    if ln in holds_lines:
                        info.caller_holds[item.name] = holds_lines[ln]
                        holds_claimed.add(ln)
                        break
        for line in sorted(set(holds_lines) - holds_claimed):
            yield Finding(
                self.rule, module.display_path, line, 0,
                "dangling caller-holds annotation (not on a method's "
                "'def' header)",
            )

        claimed: Set[int] = set()
        for info in classes.values():
            for stmt in ast.walk(info.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                span = range(stmt.lineno,
                             (stmt.end_lineno or stmt.lineno) + 1)
                lock = next((guard_lines[ln] for ln in span
                             if ln in guard_lines), None)
                if lock is None:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        info.guards[attr] = lock
                        claimed.update(ln for ln in span
                                       if ln in guard_lines)

        for line, lock in sorted(guard_lines.items()):
            if line not in claimed:
                yield Finding(
                    self.rule, module.display_path, line, 0,
                    f"dangling guarded-by annotation (no 'self.<attr> = "
                    f"...' assignment on this line declares it)",
                )

        for name, info in classes.items():
            effective = self._effective_guards(name, classes, set())
            holds = self._effective_caller_holds(name, classes, set())
            if not effective and not holds:
                continue
            for item in info.node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if item.name in _EXEMPT_METHODS:
                    continue
                yield from self._check_method(
                    module, name, item, effective, holds)

    def _effective_guards(
        self, name: str, classes: Dict[str, _ClassInfo], seen: Set[str]
    ) -> Dict[str, str]:
        if name in seen or name not in classes:
            return {}
        seen.add(name)
        info = classes[name]
        merged: Dict[str, str] = {}
        for base in info.bases:
            merged.update(self._effective_guards(base, classes, seen))
        merged.update(info.guards)
        return merged

    def _effective_caller_holds(
        self, name: str, classes: Dict[str, _ClassInfo], seen: Set[str]
    ) -> Dict[str, str]:
        if name in seen or name not in classes:
            return {}
        seen.add(name)
        info = classes[name]
        merged: Dict[str, str] = {}
        for base in info.bases:
            merged.update(self._effective_caller_holds(base, classes, seen))
        merged.update(info.caller_holds)
        return merged

    def _check_method(
        self, module: ModuleInfo, cls_name: str,
        method: ast.AST, guards: Dict[str, str],
        caller_holds: Dict[str, str],
    ) -> Iterator[Finding]:
        method_name = method.name  # type: ignore[attr-defined]

        def walk(node: ast.AST, held: Set[str]) -> Iterator[Finding]:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired: Set[str] = set()
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None:
                        acquired.add(attr)
                    yield from walk(item.context_expr, held)
                    if item.optional_vars is not None:
                        yield from walk(item.optional_vars, held)
                inner = held | acquired
                for stmt in node.body:
                    yield from walk(stmt, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                # a nested callable runs later; locks held at definition
                # time are not held at call time
                for child in ast.iter_child_nodes(node):
                    yield from walk(child, set())
                return
            if isinstance(node, ast.Call):
                callee = _self_attr(node.func)
                if callee is not None and callee in caller_holds:
                    lock = caller_holds[callee]
                    if lock not in held:
                        yield Finding(
                            self.rule, module.display_path, node.lineno,
                            node.col_offset,
                            f"self.{callee}() called without holding "
                            f"'with self.{lock}:' in "
                            f"{cls_name}.{method_name} "
                            f"(caller-holds: {lock})",
                        )
            attr = _self_attr(node)
            if attr is not None and attr in guards:
                lock = guards[attr]
                if lock not in held:
                    yield Finding(
                        self.rule, module.display_path, node.lineno,
                        node.col_offset,
                        f"self.{attr} accessed outside 'with "
                        f"self.{lock}:' in {cls_name}.{method_name} "
                        f"(guarded-by: {lock})",
                    )
            for child in ast.iter_child_nodes(node):
                yield from walk(child, held)

        # a caller-holds method runs with its declared lock already
        # held — its body is checked as if the with-block enclosed it
        initial: Set[str] = set()
        if method_name in caller_holds:
            initial.add(caller_holds[method_name])
        for stmt in method.body:  # type: ignore[attr-defined]
            yield from walk(stmt, initial)
