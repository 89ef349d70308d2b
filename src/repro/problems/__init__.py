"""repro.problems — typed specs + a capability-declaring solver registry.

One steady-state LP formulation covers every problem in the paper; this
package gives the code the same uniformity.  Each problem is a typed
:class:`~repro.problems.specs.ProblemSpec` (validated, JSON round-trip)
bound to a solver through the :mod:`~repro.problems.registry`, which also
records the solver's *capabilities*: whether its LP supports warm
re-solves on weight-only platform mutations (``warm_resolve`` + a
:class:`~repro.problems.registry.WarmModel`), whether its solutions
reconstruct into executable periodic schedules
(``reconstructs_schedule``), and which LP structure family it belongs to.

The CLI, the JSON API, the request broker and the incremental solver all
dispatch through :func:`~repro.problems.registry.resolve`; making a new
problem servable everywhere is one spec class plus one
:func:`~repro.problems.registry.register` call in
:mod:`~repro.problems.catalog`, which binds its LP model or, for a
problem without one, its solve function.

>>> from repro.platform import generators
>>> from repro.problems import MasterSlaveSpec, solve
>>> sol = solve(MasterSlaveSpec(platform=generators.star(3), master="M"))
>>> sol.throughput > 0
True
"""

from .specs import (
    AllToAllSpec,
    BroadcastSpec,
    GatherSpec,
    MasterSlaveSpec,
    MulticastSpec,
    MultiportSpec,
    ProblemSpec,
    ScatterSpec,
    SendOrReceiveSpec,
    SpecError,
)
from .registry import (
    Capabilities,
    WarmModel,
    describe,
    reconstructable_problems,
    register,
    registered_problems,
    resolve,
    solve,
    spec_from_wire,
)
from . import catalog  # noqa: F401  — registers the built-in problems

__all__ = [
    "AllToAllSpec",
    "BroadcastSpec",
    "Capabilities",
    "GatherSpec",
    "MasterSlaveSpec",
    "MulticastSpec",
    "MultiportSpec",
    "ProblemSpec",
    "ScatterSpec",
    "SendOrReceiveSpec",
    "SpecError",
    "WarmModel",
    "describe",
    "reconstructable_problems",
    "register",
    "registered_problems",
    "resolve",
    "solve",
    "spec_from_wire",
]
