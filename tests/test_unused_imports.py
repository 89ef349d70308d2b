"""A module under ``src/repro/`` imports only the names it uses.

A module-level import that nothing in the module reads is a dependency
and a load-time cost with no caller, and it reads as if the module
needed it.  A name is used when the module reads it anywhere
(annotations included) or lists it in ``__all__``.  Exempt are
``from __future__`` imports, ``__init__.py`` files (a package
re-exports; ``tests/test_public_surface.py`` holds those lists to their
callers) and an import marked ``# noqa: F401``, which is imported for
its registering side effect.  This is a test rather than a
``repro lint`` rule: it is one pass over one tree, with no pragma or
fixture corpus of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_level_imports(body):
    """The import statements a module runs when it is imported, those
    under a module-level ``if`` / ``try`` included."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _module_level_imports(block)


def unused_imports(source):
    """``[(line, name)]`` of the module-level imports ``source`` binds
    and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in _module_level_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_module_under_src_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(SRC.parent))] = unused
    assert not found, found


def test_an_unused_import_is_found_and_the_exemptions_hold():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import xml.dom\n"
              "from typing import Dict, List\n"
              "from . import plugins  # noqa: F401 — registers them\n"
              "try:\n"
              "    import json\n"
              "except ImportError:\n"
              "    json = None\n"
              "from .names import exported\n"
              "__all__ = ['exported']\n"
              "\n"
              "def rows() -> List[int]:\n"
              "    return xml.dom\n")
    assert unused_imports(source) == [(2, "os"), (4, "Dict"), (7, "json")]
