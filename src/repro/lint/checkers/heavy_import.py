"""Rule ``heavy-import`` — the float stack is imported on use, not on import.

Every process role of the service (front end, TCP shard, pipe-shard
worker, process-executor worker) imports ``repro`` before it can
answer anything, and answers exact ``Fraction`` results from the
standard library alone.  One module-scope ``import numpy`` /
``scipy`` / ``networkx`` anywhere in the package puts ~56 MB and
~0.7 s on each of those processes for a backend no served request
calls.  This rule makes the boundary a checked invariant: under
``src/repro/`` those three packages may only be imported inside a
function, which is where ``LinearProgram.solve(backend="scipy")`` and
``Platform.to_networkx`` import them.

Module scope includes class bodies and any ``if`` / ``try`` block
outside a function: they all run when the module is imported.  The
declared float files (:data:`exactness.EXEMPT_FILES`:
``lp/scipy_backend.py``) are exempt, and importing one of *them* at
module scope is the same finding, since that is how the float stack
got into every process before this rule existed
(``from .scipy_backend import solve_scipy`` in ``lp/__init__.py``).

Scope: the package (``src/repro/``; tests and benchmarks import the
float stack freely) and any file opting in via ``scope(heavy-import)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import (
    Checker,
    Finding,
    ModuleInfo,
    iter_own_scope,
    register_checker,
)
from .exactness import EXEMPT_FILES, is_float_file

HEAVY_PACKAGES = frozenset({"numpy", "scipy", "networkx"})
#: module names of the declared float files ("scipy_backend")
_FLOAT_MODULES = frozenset(
    f.rsplit("/", 1)[-1][:-len(".py")] for f in EXEMPT_FILES)


@register_checker
class HeavyImportChecker(Checker):
    rule = "heavy-import"
    description = (
        "numpy, scipy and networkx may only be imported inside a "
        "function under repro/ (lp/scipy_backend.py exempt): a serving "
        "process loads the exact stack only"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        if is_float_file(module.display_path):
            return False
        return ("/src/repro/" in "/" + module.display_path
                or module.scoped(self.rule))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in iter_own_scope(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                relative = False
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}".lstrip(".")
                                  for alias in node.names]
                relative = bool(node.level)
            else:
                continue
            for name in names:
                parts = name.split(".")
                if not relative and parts[0] in HEAVY_PACKAGES:
                    heavy = parts[0]
                elif _FLOAT_MODULES.intersection(parts):
                    heavy = "the float backend"
                else:
                    continue
                yield Finding(
                    self.rule, module.display_path, node.lineno,
                    node.col_offset,
                    f"import of {name} at module scope loads {heavy} "
                    f"in every process that imports repro (import it "
                    f"inside the function that uses it)",
                )
                break  # one finding per statement
