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
justification.  ``math`` is banned by name except its integer functions
(``gcd``, ``lcm``, ``isqrt`` — int in, int out), as ``math.<name>`` or
``from math import <name>``.

The all-integer kernel files (``INTEGER_FILES``: ``lp/factor.py``, or a
``scope(integer-kernel)`` pragma) carry every rational as integer
numerators over one common denominator, so there a **true division**
``/`` (or ``/=``) is a finding too: ``int / int`` is a silent float.
The kernels need only ``//``, ``divmod`` and ``gcd``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..engine import Checker, Finding, ModuleInfo, register_checker

#: Exact-path files (suffix match on the repo-relative path).
EXACT_FILES = (
    "repro/lp/simplex.py",
    "repro/lp/factor.py",
    "repro/lp/model.py",
    "repro/lp/certify.py",
    "repro/service/wire.py",
)

#: All-integer kernel files: exact paths where ``/`` is also a finding.
INTEGER_FILES = ("repro/lp/factor.py",)

#: The ``math`` functions that map ints to ints exactly.
INTEGER_MATH = frozenset({"gcd", "lcm", "isqrt"})

#: Exact-path directories (segment match).
EXACT_DIRS = (
    "repro/core/",
    "repro/schedule/",
    "repro/problems/",
)

#: The declared float backend — never checked.
EXEMPT_FILES = ("repro/lp/scipy_backend.py",)


def _listed(display_path: str, files: Tuple[str, ...]) -> bool:
    """Suffix match of a repo-relative path against a file list."""
    q = "/" + display_path
    return any(q.endswith("/" + f) for f in files)


def is_float_file(display_path: str) -> bool:
    """True for the declared float files, which no float rule checks."""
    return _listed(display_path, EXEMPT_FILES)


def _in_exact_path(display_path: str) -> bool:
    if is_float_file(display_path):
        return False
    if _listed(display_path, EXACT_FILES):
        return True
    q = "/" + display_path
    return any("/" + d in q for d in EXACT_DIRS)


@register_checker
class ExactnessChecker(Checker):
    rule = "exactness"
    description = (
        "no float literals, float() calls or math.* beyond gcd/lcm/isqrt "
        "in the exact paths (lp/simplex.py, lp/factor.py, lp/model.py, "
        "lp/certify.py, core/, schedule/, problems/, service/wire.py; "
        "lp/scipy_backend.py exempt); no true division in the integer "
        "kernels (lp/factor.py)"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return (_in_exact_path(module.display_path)
                or module.scoped(self.rule)
                or module.scoped("integer-kernel"))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        integer_kernel = (module.scoped("integer-kernel")
                          or _listed(module.display_path, INTEGER_FILES))
        for node in ast.walk(module.tree):
            message = None
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)):
                message = (f"float literal {node.value!r} in exact path "
                           f"(use Fraction)")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                message = "float() coercion in exact path (use Fraction)"
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"):
                message = _math_message(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                message = next(filter(None, (_math_message(alias.name)
                                             for alias in node.names)), None)
            elif (integer_kernel
                    and isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                message = ("true division in an integer kernel (int / int "
                           "is a float; use //, divmod or gcd)")
            if message:
                yield Finding(self.rule, module.display_path, node.lineno,
                              node.col_offset, message)


def _math_message(name: str) -> Optional[str]:
    if name in INTEGER_MATH:
        return None
    return (f"math.{name} in exact path (float math; use exact "
            f"integer/Fraction arithmetic)")
