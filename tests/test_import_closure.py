"""The import-closure contract: a serving process loads the exact stack
only.

The service answers ``Fraction``s from the standard library; numpy,
scipy and networkx belong to the library's opt-in float backend, the
cross-check tests and ``Platform.to_networkx``.  Each test runs in a fresh
interpreter (``fresh_python``) and asserts module *names*, never times.
"""

from __future__ import annotations

import ast
from pathlib import Path

HEAVY = ("networkx", "numpy", "scipy")

_ROLES = """
import json, os, sys
from fractions import Fraction

import repro, repro.cli, repro.problems
import repro.service.api, repro.service.sharding, repro.service.transport
from repro.platform import generators
from repro.service import Broker, ShardedBroker, SolveRequest, request_to_dict

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
    "first_party": sum(name.split(".")[0] == "repro"
                       for name in sys.modules),
    "pid": os.getpid(),
    "worker": worker,
}))
""" % (HEAVY,)

_NO_FLOAT_STACK = """
import contextlib, io, json, sys

for name in %r:
    sys.modules[name] = None  # any import of it now raises ImportError

from repro.cli import main
from repro.lp import LinearProgram, LPError
from repro.platform import generators
from repro.platform.serialization import platform_to_dict
from repro.service import Broker
from repro.service.api import handle_request

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
    assert out["first_party"] > 50  # the closure really was imported
    # the shard worker is another process and says so itself; its
    # import closure is a subset of this one's, so scipy stands for all
    assert out["worker"]["pid"] != out["pid"]


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
    ``factor``, not the package (whose ``__init__`` imports both)."""
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
        import repro, repro.dynamic
        from repro.platform import generators
        from repro.platform.monitoring import TimeVaryingPlatform

        def service():
            return sorted(name for name in sys.modules
                          if name.startswith("repro.service"))

        before = service()
        repro.dynamic.run_adaptive(
            TimeVaryingPlatform(generators.star(2), seed=1), "M", epochs=2)
        print(json.dumps({"before": before, "after": service()}))
    """)
    assert out["before"] == []
    assert "repro.service.incremental" in out["after"]
