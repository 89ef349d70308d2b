"""Rule ``exactness`` — no float arithmetic in the exact LP paths.

The reproduction's headline guarantee is that every result is
``Fraction``-identical across warm restarts, shards and hosts.  A
single float literal, ``float()`` coercion or ``math.*`` call inside
the exact pipeline silently breaks that: the benchmark exactness
assertions only catch the divergences their inputs happen to excite.
This rule bans the float surface outright in the declared exact paths;
``lp/scipy_backend.py`` is exempt as the declared float backend, and
deliberate float use (operational metadata, documented float-backed
approximations) carries an ``allow(exactness)`` pragma with its
justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Checker, Finding, ModuleInfo, register_checker

#: Exact-path files (suffix match on the repo-relative path).
EXACT_FILES = (
    "repro/lp/simplex.py",
    "repro/lp/factor.py",
    "repro/lp/model.py",
    "repro/service/wire.py",
)

#: Exact-path directories (segment match).
EXACT_DIRS = (
    "repro/core/",
    "repro/schedule/",
    "repro/problems/",
)

#: The declared float backend — never checked.
EXEMPT_FILES = ("repro/lp/scipy_backend.py",)


def is_float_file(display_path: str) -> bool:
    """True for the declared float files, which no float rule checks."""
    q = "/" + display_path
    return any(q.endswith("/" + f) for f in EXEMPT_FILES)


def _in_exact_path(display_path: str) -> bool:
    if is_float_file(display_path):
        return False
    q = "/" + display_path
    if any(q.endswith("/" + f) for f in EXACT_FILES):
        return True
    return any("/" + d in q for d in EXACT_DIRS)


@register_checker
class ExactnessChecker(Checker):
    rule = "exactness"
    description = (
        "no float literals, float() calls or math.* in the exact paths "
        "(lp/simplex.py, lp/factor.py, lp/model.py, core/, schedule/, "
        "problems/, service/wire.py; lp/scipy_backend.py exempt)"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return _in_exact_path(module.display_path) or module.scoped(self.rule)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)):
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f"float literal {node.value!r} in exact path "
                    f"(use Fraction)",
                )
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    "float() coercion in exact path (use Fraction)",
                )
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f"math.{node.attr} in exact path (float math; use "
                    f"exact integer/Fraction arithmetic)",
                )
