"""``repro lint`` — AST-based invariant checkers for the reproduction.

Stdlib-only static analysis enforcing the invariants the codebase's
guarantees rest on: exact (float-free) LP paths, lock discipline over
``# guarded-by:`` annotated shared state, tracing discipline, an
asyncio loop that never blocks, a float stack (numpy/scipy/networkx)
imported on use rather than by every serving process, and one owner
module per section of the construction.  The wire codec is not linted:
``tests/test_wire_roundtrip.py`` encodes and decodes every registered
problem's answer, and :func:`repro.problems.registry.register` checks
each spec as it is declared.  See :mod:`repro.lint.engine` for the
framework and ``repro.lint.checkers`` for the rules; ``python -m repro
lint --list-rules`` names them.
"""

from .engine import Checker, Finding, register_checker

__all__ = ["Checker", "Finding", "register_checker"]
