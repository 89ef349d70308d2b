"""``repro lint`` — AST-based invariant checkers for the reproduction.

Stdlib-only static analysis enforcing the invariants the codebase's
guarantees rest on: exact (float-free) LP paths, lock discipline over
``# guarded-by:`` annotated shared state, wire/registry drift,
tracing discipline, and a float stack (numpy/scipy/networkx) imported
on use rather than by every serving process.  See
:mod:`repro.lint.engine` for the framework and ``repro.lint.checkers``
for the rules; ``python -m repro lint`` is the CLI entry point.
"""

from .engine import Checker, Finding, register_checker

__all__ = ["Checker", "Finding", "register_checker"]
