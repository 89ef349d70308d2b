"""The public surface is one list: a package re-exports a name only if a
caller outside ``tests/`` imports it through that package.

A *caller* is a module under ``src/`` outside the package, a file under
``bench/``, ``benchmarks/`` or ``examples/``, a fenced code block of
``README.md``, or ``.github/workflows/ci.yml`` (read whole: its ``run:``
blocks hold the CI heredocs).  Tests import every other name from its defining
module, so a name only tests reach through a package is a second import
path nobody else uses: it leaves the package's ``__all__`` and its
``__init__``.  This is a test rather than a ``repro lint`` rule because
most callers live outside lint's scope (``bench/``, README, CI).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``from <package> import <names>`` in a text that is not parsed as Python
_TEXT_FROM = re.compile(
    r"^\s*(?:>>>\s*)?from\s+([\w.]+)\s+import\s+(\([^)]*\)|[^\n#]+)", re.M)
#: a dotted name such as ``repro.solve_master_slave``
_TEXT_DOTTED = re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def _all_names(tree):
    """The strings a module assigns to ``__all__``: a literal list, whose
    ``*name`` items unpack a module-level dict literal's keys."""
    literals = {}
    names = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node.value, ast.Dict):
            for target in targets:
                literals[target] = node.value.keys
        if "__all__" not in targets:
            continue
        for item in node.value.elts:
            if isinstance(item, ast.Starred):
                names += [key.value for key in literals[item.value.id]]
            else:
                names.append(item.value)
    return names


def package_exports(src):
    """``{dotted package: (its __all__, names its __init__ binds by a
    from-import of a submodule)}`` for every package under ``src``."""
    packages = {}
    for init in sorted(Path(src).rglob("__init__.py")):
        dotted = ".".join(init.parent.relative_to(src).parts)
        tree = ast.parse(init.read_text())
        bound = [alias.asname or alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level
                 and node.module
                 for alias in node.names]
        packages[dotted] = (_all_names(tree), bound)
    return packages


def _python_uses(text, module=None, is_package=False):
    """``(package, name)`` pairs a Python source reaches through a package:
    ``from P import name`` (relative forms resolved against ``module``)
    and attribute chains ``P.name`` off a name bound to module ``P``."""
    tree = ast.parse(text)
    uses = set()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                keep = len(parts) - node.level + (1 if is_package else 0)
                base = ".".join(parts[:keep] + ([base] if base else []))
            for alias in node.names:
                uses.add((base, alias.name))
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            _add_chain(uses, bound[node.id], reversed(chain))
    return uses


def _add_chain(uses, base, attrs):
    for attr in attrs:
        uses.add((base, attr))
        base = f"{base}.{attr}"


def _text_uses(text):
    """The same pairs, read off shell / YAML / Markdown text by pattern."""
    uses = set()
    for base, names in _TEXT_FROM.findall(text):
        for item in re.sub(r"#[^\n]*", "", names).strip("()").split(","):
            if item.split():
                uses.add((base, item.split()[0]))
    for dotted in _TEXT_DOTTED.findall(text):
        head, *attrs = dotted.split(".")
        _add_chain(uses, head, attrs)
    return uses


def callers(root):
    """``(module or None, uses)`` for every caller outside ``tests/``;
    ``module`` is a Python file's dotted name (under ``src/`` for the
    library), ``None`` for a text."""
    root = Path(root)
    for base, folder in (("src", "src"), (".", "bench"),
                         (".", "benchmarks"), (".", "examples")):
        for path in sorted((root / folder).rglob("*.py")):
            parts = path.relative_to(root / base).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_package else parts)
            yield module, _python_uses(path.read_text(), module, is_package)
    readme = root / "README.md"
    if readme.exists():
        for block in _FENCE.findall(readme.read_text()):
            yield None, _text_uses(block)
    ci = root / ".github" / "workflows" / "ci.yml"
    if ci.exists():
        yield None, _text_uses(ci.read_text())


def surface_findings(root):
    """One line per name a package re-exports that no caller imports
    through it, or that its ``__init__`` binds without listing."""
    packages = package_exports(Path(root) / "src")
    used = set()
    for module, uses in callers(root):
        for package, name in uses:
            inside = module is not None and (
                module == package or module.startswith(package + "."))
            if package in packages and not inside:
                used.add((package, name))
    findings = []
    for package, (exported, bound) in sorted(packages.items()):
        for name in exported:
            if (package, name) not in used:
                findings.append(f"{package}.__all__ lists {name!r}, which "
                                f"no caller outside tests/ imports from it")
        for name in bound:
            if name not in exported and not name.startswith("_"):
                findings.append(f"{package}.__init__ binds {name!r} "
                                f"outside its __all__")
    return findings


def test_every_exported_name_has_a_caller_outside_tests():
    assert surface_findings(ROOT) == []


def test_every_name_a_caller_imports_through_a_package_resolves():
    """The other direction: a CI heredoc or a README block is run by no
    tier-1 test, so a name leaving a package must not strand it."""
    packages = package_exports(ROOT / "src")
    stranded = []
    for module, uses in callers(ROOT):
        for package, name in uses:
            if package not in packages or hasattr(
                    importlib.import_module(package), name):
                continue
            try:
                importlib.import_module(f"{package}.{name}")
            except ImportError:
                stranded.append((module, package, name))
    assert stranded == []


def test_the_top_level_list_is_the_documented_api():
    import repro

    readme = ROOT / "README.md"
    section = readme.read_text().split("## Public API", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert len(set(repro.__all__)) == len(repro.__all__)
    missing = [name for name in repro.__all__
               if f"`{name}`" not in section]
    assert missing == []
    for name in repro.__all__:
        assert getattr(repro, name) is not None


#: each name ``repro.__all__`` no longer lists, with its defining module
#: (the all-to-all wrapper it also dropped is deleted, not moved)
LEFT_THE_TOP_LEVEL = {
    "as_fraction": "repro._rational",
    "lcm_denominators": "repro._rational",
    "Platform": "repro.platform.graph",
    "PlatformError": "repro.platform.graph",
    "SteadyStateSolution": "repro.core.activities",
    "SteadyStateError": "repro.core.activities",
    "star_throughput": "repro.core.master_slave",
    "BroadcastSolution": "repro.core.broadcast",
    "edmonds_cut_bound": "repro.core.broadcast",
    "MulticastAnalysis": "repro.core.multicast",
    "multicast_bounds": "repro.core.multicast",
    "CommSlice": "repro.schedule.periodic",
    "PeriodicSchedule": "repro.schedule.periodic",
    "ScheduleError": "repro.schedule.periodic",
    "fixed_period_schedule": "repro.schedule.fixed_period",
    "BatchSchedule": "repro.schedule.batch",
    "default_group_count": "repro.schedule.batch",
    "PeriodicRunResult": "repro.simulator.periodic_runner",
    "ModelViolation": "repro.simulator.trace",
    "Trace": "repro.simulator.trace",
    "alnem_graph_view": "repro.platform.topology",
    "complete_graph_view": "repro.platform.topology",
    "env_tree_view": "repro.platform.topology",
    "BrokerResult": "repro.service.broker",
    "IncrementalSolver": "repro.service.incremental",
    "MetricsRegistry": "repro.service.metrics",
    "SolutionCache": "repro.service.cache",
    "request_fingerprint": "repro.service.fingerprint",
}


@pytest.mark.parametrize("name, module", sorted(LEFT_THE_TOP_LEVEL.items()))
def test_a_name_off_the_top_level_list_stays_in_its_module(name, module):
    import repro

    assert name not in repro.__all__
    assert not hasattr(repro, name)
    assert getattr(importlib.import_module(module), name).__module__ == module


@pytest.mark.parametrize("name", ["Broker", "SolveRequest"])
def test_a_lazy_export_is_its_defining_modules_object(name):
    import repro

    module = importlib.import_module(repro._LAZY_EXPORTS[name])
    assert getattr(repro, name) is getattr(module, name)
    assert getattr(repro, name).__module__ == module.__name__


def test_repro_lp_certify_is_the_module():
    """The ``repro.lp`` of old rebound ``certify`` to the function of the
    same name; with no re-export it is the submodule that defines it."""
    import types

    import repro.lp
    from repro.lp.certify import certify

    assert "certify" not in repro.lp.__all__
    assert isinstance(repro.lp.certify, types.ModuleType)
    assert repro.lp.certify.certify is certify


def _plant(root, files):
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_a_name_only_tests_import_is_found_and_a_caller_clears_it(tmp_path):
    _plant(tmp_path, {
        "src/pkg/__init__.py": '"""pkg."""\n\nfrom .mod import a, b\n\n'
                               '__all__ = ["a", "b"]\n',
        "src/pkg/mod.py": "def a():\n    pass\n\n\ndef b():\n    pass\n",
        "src/user.py": "from pkg import b\n",
        "tests/test_pkg.py": "from pkg import a, b\n",
    })
    assert surface_findings(tmp_path) == [
        "pkg.__all__ lists 'a', which no caller outside tests/ imports "
        "from it"]
    _plant(tmp_path, {"examples/use_a.py": "import pkg\n\npkg.a()\n"})
    assert surface_findings(tmp_path) == []


@pytest.mark.parametrize("text, expected", [
    ("```python\nfrom pkg import (a,  # why\n    b)\n```\n",
     {("pkg", "a"), ("pkg", "b")}),
    ("```bash\npython - <<'EOF'\nimport pkg\nprint(pkg.sub.c)\nEOF\n```\n",
     {("pkg", "sub"), ("pkg.sub", "c")}),
])
def test_readme_code_blocks_are_callers(tmp_path, text, expected):
    _plant(tmp_path, {"README.md": "prose: from pkg import d\n\n" + text})
    uses = set().union(*(uses for _, uses in callers(tmp_path)))
    assert expected <= uses
    assert ("pkg", "d") not in uses


def test_an_init_binding_a_name_outside_its_list_is_found(tmp_path):
    _plant(tmp_path, {
        "src/pkg/__init__.py": "from .mod import a\n\n__all__ = []\n",
        "src/pkg/mod.py": "a = 1\n",
    })
    assert surface_findings(tmp_path) == [
        "pkg.__init__ binds 'a' outside its __all__"]


def test_every_layer_table_probe_resolves(monkeypatch):
    """``bench/layers.py`` turns a target it cannot resolve into "n/a",
    so a name that moves would blank a layer row silently.  Only the
    transport bridge, deleted before this table's last edit, is gone."""
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.layers import PATHS, Probes

    probes = Probes()
    for key in PATHS:
        probes.get(key)
    assert probes.missing == [
        "repro.service.transport:AsyncBridgeTransport"]
