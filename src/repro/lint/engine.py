"""Core of the ``repro lint`` static-analysis framework.

The exactness contract — results ``Fraction``-identical across warm
restarts, shards and hosts — and the service layer's lock/tracing
discipline rest on conventions a reviewer has to hold in their head.
This module turns them into machine-checked invariants: an ``ast``-based
checker registry (stdlib only, mirroring :mod:`repro.problems.registry`),
per-file suppression pragmas, a JSON/text reporter and a baseline file
so the gate can be adopted incrementally on a dirty tree.

Pragmas (comments, parsed with :mod:`tokenize` so strings never match):

* ``# repro-lint: allow(<rule>[, <rule>...])`` — trailing on a code
  line, suppresses those rules' findings on that physical line; on a
  comment line of its own it covers the next line, except at the very
  top of the file (before any statement) where it covers the whole
  file.  ``allow(*)`` suppresses every rule.  Each allow should carry
  a justification in the same comment — the pragma is the sanctioned
  escape hatch, the justification is for the reviewer.
* ``# repro-lint: scope(<rule>)`` — opts the file *into* a rule whose
  default scope is path-based (used by the fixture corpus under
  ``tests/lint_fixtures/`` and by new exact modules not yet listed in
  the checker's path map).

Directory walks skip ``lint_fixtures`` directories (deliberate
violations used by the test-suite); explicitly named files are always
checked.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: Bumped when the JSON report schema changes shape.
REPORT_VERSION = 1

#: Directory names never descended into during a path walk.
SKIP_DIRS = frozenset({"__pycache__", "lint_fixtures", ".git", ".hg"})

_PRAGMA_RE = re.compile(r"repro-lint:\s*(allow|scope)\(([^)]*)\)")


class LintError(ValueError):
    """Framework misuse: bad registration, unreadable baseline, ..."""


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str

    @property
    def baseline_key(self) -> str:
        # line numbers drift with unrelated edits; a baseline entry is
        # keyed on what the finding *says*, not where it currently sits
        return f"{self.rule}::{self.path}::{self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# per-file context handed to checkers
# ----------------------------------------------------------------------
class ModuleInfo:
    """A parsed source file plus its comments and pragmas."""

    def __init__(self, path: str, display_path: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        #: (line, col, text) of every comment token, 1-based lines
        self.comments: List[Tuple[int, int, str]] = _extract_comments(source)
        self._file_allows: Set[str] = set()
        self._line_allows: Dict[int, Set[str]] = {}
        self._scopes: Set[str] = set()
        first_code = _first_code_line(tree)
        for line, col, text in self.comments:
            for verb, rules_text in _PRAGMA_RE.findall(text):
                rules = {r.strip() for r in rules_text.split(",") if r.strip()}
                if verb == "scope":
                    self._scopes |= rules
                elif not _comment_owns_line(source, line, col):
                    self._line_allows.setdefault(line, set()).update(rules)
                elif line < first_code:
                    self._file_allows |= rules
                else:
                    # standalone pragma mid-file: covers the next code
                    # line (comment/blank lines in between are skipped)
                    target = _next_code_line(source, line)
                    self._line_allows.setdefault(target, set()).update(rules)

    def scoped(self, rule: str) -> bool:
        """True when a ``scope(<rule>)`` pragma opts this file in."""
        return rule in self._scopes

    def allowed(self, rule: str, line: int) -> bool:
        """True when a pragma suppresses ``rule`` findings at ``line``."""
        if rule in self._file_allows or "*" in self._file_allows:
            return True
        allows = self._line_allows.get(line, ())
        return rule in allows or "*" in allows


def _extract_comments(source: str) -> List[Tuple[int, int, str]]:
    comments: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenizeError, IndentationError):
        pass  # the ast parse already succeeded; comments best-effort
    return comments


def _comment_owns_line(source: str, line: int, col: int) -> bool:
    """True when nothing but whitespace precedes the comment."""
    text = source.splitlines()[line - 1][:col]
    return not text.strip()


def _next_code_line(source: str, line: int) -> int:
    """First line after ``line`` that is not blank or a pure comment."""
    lines = source.splitlines()
    for idx in range(line, len(lines)):
        stripped = lines[idx].strip()
        if stripped and not stripped.startswith("#"):
            return idx + 1  # 1-based
    return line + 1


def iter_own_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without crossing into nested functions: what a
    module runs when it is imported, what a coroutine runs on the loop
    (a nested ``def`` or ``lambda`` runs later, somewhere else)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _first_code_line(tree: ast.Module) -> int:
    """Line of the first statement past the module docstring."""
    body = tree.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body[0].lineno if body else 1 << 30


# ----------------------------------------------------------------------
# checker registry
# ----------------------------------------------------------------------
class Checker:
    """Base class: one rule, run over every applicable module.

    Subclasses set :attr:`rule` and :attr:`description`, implement
    :meth:`check` (per-file findings) and may override
    :meth:`applies_to` (path/scope gating, default: every file) and
    :meth:`finalize` (project-level findings emitted after all files,
    e.g. the registry cross-checks of the drift rule).  A fresh checker
    instance is built per :func:`run_lint` call, so instance state may
    accumulate across files.
    """

    rule: str = ""
    description: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        return iter(())


_CHECKERS: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.rule:
        raise LintError(f"checker {cls.__name__} declares no rule name")
    if cls.rule in _CHECKERS:
        raise LintError(f"duplicate checker rule {cls.rule!r}")
    _CHECKERS[cls.rule] = cls
    return cls


def unregister_checker(rule: str) -> None:
    """Remove a registered rule (test hook)."""
    _CHECKERS.pop(rule, None)


def registered_rules() -> Tuple[str, ...]:
    _load_builtin_checkers()
    return tuple(sorted(_CHECKERS))


def checker_descriptions() -> Dict[str, str]:
    _load_builtin_checkers()
    return {rule: cls.description for rule, cls in sorted(_CHECKERS.items())}


def _load_builtin_checkers() -> None:
    from . import checkers  # noqa: F401 — import side effect registers


# ----------------------------------------------------------------------
# baseline files
# ----------------------------------------------------------------------
def load_baseline(path: str) -> Set[str]:
    """Read a baseline file written by :func:`write_baseline`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise LintError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("findings"), list):
        raise LintError(f"baseline {path} is not a repro-lint baseline")
    return {str(key) for key in data["findings"]}


def write_baseline(path: str, findings: Iterable[Finding]) -> None:
    data = {
        "version": REPORT_VERSION,
        "findings": sorted({f.baseline_key for f in findings}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint pass."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "findings": [f.as_dict() for f in self.findings],
            "suppressed_count": len(self.suppressed),
            "baselined_count": len(self.baselined),
            "baselined": sorted(f.baseline_key for f in self.baselined),
        }

    def render_text(self) -> str:
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.rule))]
        counts = (f"{self.files_checked} files, "
                  f"{len(self.findings)} finding(s), "
                  f"{len(self.suppressed)} suppressed, "
                  f"{len(self.baselined)} baselined")
        if lines:
            return "\n".join(lines) + f"\n\nrepro lint FAILED: {counts}"
        return f"repro lint OK: {counts}"


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` (walks skip SKIP_DIRS and
    hidden directories; explicitly named files are always yielded)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        if not os.path.isdir(path):
            raise LintError(f"no such file or directory: {path}")
        for root, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _display_path(path: str, root: Optional[str]) -> str:
    out = path
    if root:
        try:
            rel = os.path.relpath(path, root)
            if not rel.startswith(".."):
                out = rel
        except ValueError:  # different drive on windows
            pass
    return out.replace(os.sep, "/")


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Set[str]] = None,
    root: Optional[str] = None,
) -> LintReport:
    """Run the registered checkers over ``paths`` and classify findings.

    ``rules`` restricts to a subset of registered rules; ``baseline``
    is a set of :attr:`Finding.baseline_key` strings treated as known
    debt (reported separately, not failures); ``root`` anchors the
    repo-relative display paths (default: the current directory).
    """
    _load_builtin_checkers()
    root = os.path.abspath(root or os.getcwd())
    if rules is not None:
        unknown = sorted(set(rules) - set(_CHECKERS))
        if unknown:
            raise LintError(f"unknown rule(s): {', '.join(unknown)}")
        selected = [cls() for name, cls in sorted(_CHECKERS.items())
                    if name in set(rules)]
    else:
        selected = [cls() for _, cls in sorted(_CHECKERS.items())]

    report = LintReport(rules=tuple(c.rule for c in selected))
    modules: Dict[str, ModuleInfo] = {}
    raw: List[Finding] = []

    for path in iter_python_files(paths):
        display = _display_path(os.path.abspath(path), root)
        if display in modules:
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 0) or 0
            raw.append(Finding("syntax", display, line, 0,
                               f"cannot parse: {exc}"))
            continue
        report.files_checked += 1
        module = ModuleInfo(path, display, source, tree)
        modules[display] = module
        for checker in selected:
            if checker.applies_to(module):
                raw.extend(checker.check(module))
    for checker in selected:
        raw.extend(checker.finalize())

    baseline = baseline or set()
    for finding in raw:
        module = modules.get(finding.path)
        if module is not None and module.allowed(finding.rule, finding.line):
            report.suppressed.append(finding)
        elif finding.baseline_key in baseline:
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    return report
