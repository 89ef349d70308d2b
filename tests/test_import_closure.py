"""The import-closure contract: a serving process loads the exact stack
only.

The service answers ``Fraction``s from the standard library; numpy,
scipy and networkx belong to the library's opt-in float backend, the
cross-check tests and ``Platform.to_networkx``.  Each test runs in a fresh
interpreter (``fresh_python``) and asserts module *names*, never times.
This file is the one guard of that boundary: importing every module of
the package runs each import a module makes at import time (module
scope, class bodies, ``try`` / ``if`` blocks), wherever it is written.
"""

from __future__ import annotations

import ast
from pathlib import Path

HEAVY = ("networkx", "numpy", "scipy")
SRC = Path(__file__).resolve().parents[1] / "src"
#: ``repro.__main__`` runs the CLI; ``lp/scipy_backend.py`` is the
#: declared float file, imported by ``LinearProgram.solve`` on use
NOT_IMPORTED = ("repro.__main__", "repro.lp.scipy_backend")
#: library modules no serving role needs: the top-level names that live
#: in them load on first read, and the CLI's table printer on its command
NOT_SERVED = (
    "repro.analysis", "repro.baselines", "repro.dynamic",
    "repro.simulator", "repro.core.divisible", "repro.platform.monitoring",
    "repro.platform.topology", "repro.schedule.batch",
    "repro.schedule.fixed_period",
)

_ROLES = """
import json, os, sys
from fractions import Fraction

import repro, repro.cli, repro.problems
import repro.service.api, repro.service.sharding, repro.service.transport
from repro.platform import generators
from repro import Broker, SolveRequest
from repro.service.api import request_to_dict
from repro.service.sharding import ShardedBroker

repro.cli.build_parser()
request = SolveRequest(repro.problems.MasterSlaveSpec(
    platform=generators.paper_figure1(), master="P1"))
with Broker() as broker:
    sync = broker.solve(request).throughput
    # a request for the float backend is refused, and loads nothing
    floated = repro.service.api.handle_request(broker, {
        "request": {**request_to_dict(request),
                    "options": {"backend": "scipy"}}})
# a spawn worker starts from a fresh import, as a restarted shard does
with ShardedBroker(shards=1, mp_start_method="spawn") as sharded:
    piped = sharded.solve(request).throughput
    worker = sharded.snapshot()["per_shard"][0]["process"]
print(json.dumps({
    "exact": sync == piped == Fraction(2),
    "floated": floated["status"],
    "heavy": sorted({name.split(".")[0] for name, module
                     in sys.modules.items() if module is not None}
                    & set(%r)),
    "first_party": sorted(name for name in sys.modules
                          if name.split(".")[0] == "repro"),
    "pid": os.getpid(),
    "worker": worker,
}))
""" % (HEAVY,)

_NO_FLOAT_STACK = """
import contextlib, io, json, sys

for name in %r:
    sys.modules[name] = None  # any import of it now raises ImportError

from repro.cli import main
from repro.lp import LinearProgram
from repro.lp.model import LPError
from repro.platform import generators
from repro.platform.serialization import platform_to_dict
from repro.service.api import handle_request
from repro.service.broker import Broker

log = io.StringIO()
with contextlib.redirect_stdout(log):
    check = main(["problems", "--check"])

lp = LinearProgram()
x = lp.variable("x", lo=0, hi=1)
lp.maximize(x)
try:
    lp.solve(backend="scipy")
    typed = None
except LPError as exc:
    typed = str(exc)

with Broker() as broker:
    served = handle_request(broker, {"op": "solve", "request": {
        "spec": {"problem": "master-slave", "master": "P1"},
        "platform": platform_to_dict(generators.paper_figure1()),
        "options": {"backend": "scipy"}}})
print(json.dumps({"check": check, "log": log.getvalue(), "typed": typed,
                  "exact": str(lp.solve().objective), "served": served}))
""" % (HEAVY,)


def test_every_process_role_loads_the_exact_stack_only(fresh_python):
    out = fresh_python(_ROLES)
    assert out["exact"]
    assert out["floated"] == 422
    assert out["heavy"] == []
    # the closure really was imported, and none of the library beyond it
    loaded = out["first_party"]
    assert "repro.service.transport" in loaded
    assert [name for name in loaded
            if any(name == top or name.startswith(top + ".")
                   for top in NOT_SERVED)] == []
    # the shard worker is another process and says so itself; its
    # import closure is a subset of this one's, so scipy stands for all
    assert out["worker"]["pid"] != out["pid"]


def test_no_module_of_the_package_imports_the_float_stack(fresh_python):
    """Import every module under ``src/repro/`` but the two that
    :data:`NOT_IMPORTED` names: none may load numpy, scipy or networkx.
    Where they are not installed (CI's ``no-float`` leg), such an import
    fails this test as an ``ImportError`` instead."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
            ".__init__")
        for path in (SRC / "repro").rglob("*.py"))
    modules = [name for name in modules if name not in NOT_IMPORTED]
    out = fresh_python("""
        import importlib, json, sys

        for name in %r:
            importlib.import_module(name)
        print(json.dumps(sorted({name.split(".")[0] for name in sys.modules}
                                & set(%r))))
    """ % (modules, HEAVY))
    assert "repro.service.transport" in modules  # the walk found them
    assert out == []


def test_the_exact_service_works_without_the_float_stack(fresh_python):
    out = fresh_python(_NO_FLOAT_STACK)
    assert out["check"] == 0, out["log"]
    assert "registry check OK" in out["log"]
    assert out["exact"] == "1"
    # asking the library for the float backend is a typed refusal, not
    # a traceback from inside an import
    assert out["typed"] == ("backend 'scipy' needs numpy and scipy "
                            "installed (pip install repro[float])")
    # the service has no float road: such a request is refused as
    # invalid before any solver (or import) is reached
    assert out["served"]["ok"] is False
    assert out["served"]["status"] == 422
    assert out["served"]["type"] == "SpecError"
    assert "'options'" in out["served"]["error"]


def test_the_certificate_checker_imports_nothing_from_the_solver():
    """``lp/certify.py`` is the proof checker: what it shares with the
    solver it cannot check.  It may import the model it checks against
    and the standard library's numbers — not ``simplex``, not
    ``factor``."""
    source = (Path(__file__).resolve().parents[1]
              / "src/repro/lp/certify.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "fractions", "typing", ".model"}
    assert ".model" in imported


def test_the_library_loads_no_service_module(fresh_python):
    """``run_adaptive`` re-plans on the service layer's warm engine but
    imports it inside the function: the library itself loads none of
    ``repro.service``, and a run loads it only when it starts."""
    out = fresh_python("""
        import json, sys
        import repro
        from repro.platform import generators
        from repro.platform.monitoring import TimeVaryingPlatform

        def service():
            return sorted(name for name in sys.modules
                          if name.startswith("repro.service"))

        before = service()
        repro.run_adaptive(
            TimeVaryingPlatform(generators.star(2), seed=1), "M", epochs=2)
        print(json.dumps({"before": before, "after": service()}))
    """)
    assert out["before"] == []
    assert "repro.service.incremental" in out["after"]


def test_a_shard_loads_only_the_shard(fresh_python):
    """``shard-serve`` and a local worker import the transport: that
    loads the shard's own stack (broker, caches, wire codec), not the
    HTTP API or the ring that route requests to a shard.  The service
    package re-exports nothing, so importing one of its modules runs no
    other."""
    out = fresh_python("""
        import json, sys
        import repro.service.transport

        print(json.dumps(sorted(name for name in sys.modules
                                if name.startswith("repro.service"))))
    """)
    assert "repro.service.transport" in out
    assert "repro.service.api" not in out
    assert "repro.service.sharding" not in out
