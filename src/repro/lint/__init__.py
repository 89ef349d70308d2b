"""``repro lint`` — AST-based invariant checkers for the reproduction.

Stdlib-only static analysis enforcing the invariants the codebase's
guarantees rest on: exact (float-free) LP paths, lock discipline over
``# guarded-by:`` annotated shared state, tracing discipline, an
asyncio loop that never blocks, and one owner module per section of
the construction.  Two invariants are tests, not rules.  The float
stack (numpy/scipy/networkx) stays out of every module's import:
``tests/test_import_closure.py`` imports each one in a fresh
interpreter and looks.  The wire codec is not linted either:
``tests/test_wire_roundtrip.py`` encodes and decodes every registered
problem's answer, and :func:`repro.problems.registry.register` checks
each spec as it is declared.  See :mod:`repro.lint.engine` for the
framework and ``repro.lint.checkers`` for the rules; ``python -m repro
lint --list-rules`` names them.
"""

from .engine import Checker, Finding, register_checker

__all__ = ["Checker", "Finding", "register_checker"]
