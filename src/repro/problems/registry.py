"""Capability-declaring solver registry — one dispatch path for everything.

Every problem the library can solve is registered here exactly once, as a
:class:`SolverEntry` binding

* a typed spec class (:mod:`repro.problems.specs`),
* how it is solved: either a :class:`WarmModel` — the problem's LP
  model, split into structure and coefficients — or, for a problem
  without one, a solve function ``fn(spec, backend=...)``; never both,
* a :class:`Capabilities` declaration (can the solver's LP be warm
  re-solved on weight-only mutations?  can its solution be turned into a
  periodic schedule?  which LP structure family does it belong to?), and
* an example factory used by the end-to-end registry consistency check
  (``python -m repro problems --check``).

A problem with an LP model is solved by that model and nothing else:
:meth:`SolverEntry.solve` runs ``build`` → ``lp.solve(backend)`` →
``package``, the same three steps the incremental solver runs on a hot
model, so the registry and the engine cannot drift apart.  The float
backend is chosen here, by :meth:`SolverEntry.solve`'s ``backend``, and
nowhere below it: a packager verifies exactly the answers an exact
solve produced.

The CLI, the JSON API, the request broker and the incremental solver all
route through :func:`resolve` — there is no per-problem branch ladder
anywhere downstream.  Registering a new problem (one spec + one
:func:`register` call in :mod:`repro.problems.catalog`) makes it
servable everywhere at once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Optional, Sequence, Tuple, Type,
                    Union)

from ..platform.graph import NodeId, Platform
from .specs import ProblemSpec, SpecError


@dataclass(frozen=True)
class Capabilities:
    """What a registered solver declares about itself.

    ``warm_resolve``
        The solver's LP structure depends only on the platform topology;
        weight-only mutations can be re-solved by patching coefficients.
        :func:`register` sets it: it holds exactly when the entry binds
        a :class:`WarmModel`.
    ``reconstructs_schedule``
        The solution can be turned into an executable periodic schedule
        by :func:`repro.schedule.reconstruction.reconstruct_schedule`.
    ``lp_structure``
        Label of the LP family ("ssms", "ssps", "tree-packing", ...) —
        solvers sharing a structure share warm-model machinery.
    """

    warm_resolve: bool = False
    reconstructs_schedule: bool = False
    lp_structure: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class WarmModel:
    """The structure-vs-coefficient split behind ``warm_resolve``.

    ``spec_key(spec)``
        The structural part of the spec (distinguished nodes, target set,
        port model, ...) — together with the platform's topology signature
        it keys the hot-model cache.  Weights must NOT appear in it.
    ``build(spec)``
        Assemble the LP from scratch; returns ``(lp, handles)``.
    ``patch(lp, handles, spec)``
        Rewrite every weight-derived coefficient of an assembled model in
        place (the :class:`~repro.lp.model.LinearProgram` rebuild hook).
    ``package(spec, lp_solution, handles)``
        Turn a solved model into the problem's public solution object,
        verified when the solve was exact (a hot model always is; only
        :meth:`SolverEntry.solve` with a float ``backend`` is not).
    """

    spec_key: Callable[[ProblemSpec], Tuple]
    build: Callable[[ProblemSpec], Tuple[Any, Dict]]
    patch: Callable[[Any, Dict, ProblemSpec], None]
    package: Callable[[ProblemSpec, Any, Dict], Any]


#: example factory signature: (platform, root, other_nodes) -> spec — used
#: by the registry consistency check to prove each problem servable
ExampleFactory = Callable[[Platform, NodeId, Sequence[NodeId]], ProblemSpec]


@dataclass(frozen=True)
class SolverEntry:
    """One registered problem: spec type, how it is solved (its LP
    model, or a solve function when it has none) and its declared
    capabilities."""

    problem: str
    spec_type: Type[ProblemSpec]
    capabilities: Capabilities
    warm_model: Optional[WarmModel] = None
    solve_fn: Optional[Callable[..., Any]] = None
    example: Optional[ExampleFactory] = None

    def solve(self, spec: ProblemSpec, backend: str = "exact") -> Any:
        """The uniform solve entry: typed spec in, solution object out.

        A problem with an LP model is built, solved under ``backend``
        and packaged by that model; any other goes to its solve
        function."""
        if not isinstance(spec, self.spec_type):
            raise SpecError(
                f"{self.problem} expects a {self.spec_type.__name__}, got "
                f"{type(spec).__name__}"
            )
        model = self.warm_model
        if model is None:
            return self.solve_fn(spec, backend=backend)
        lp, handles = model.build(spec)
        return model.package(spec, lp.solve(backend=backend), handles)


_REGISTRY: Dict[str, SolverEntry] = {}


def register(
    spec_type: Type[ProblemSpec],
    solver: Union[WarmModel, Callable[..., Any]],
    capabilities: Optional[Capabilities] = None,
    example: Optional[ExampleFactory] = None,
) -> None:
    """Register how a spec type's problem is solved: its LP model (a
    :class:`WarmModel`), or a solve function ``fn(spec, backend=...)``
    for a problem without one.  ``warm_resolve`` is set exactly when
    ``solver`` is a model.

    >>> register(MySpec, MY_WARM_MODEL,
    ...          capabilities=Capabilities(lp_structure="ssms"))
    """
    model = solver if isinstance(solver, WarmModel) else None
    caps = dataclasses.replace(capabilities or Capabilities(),
                               warm_resolve=model is not None)
    problem = spec_type.problem
    if not problem:
        raise ValueError(f"{spec_type.__name__} declares no problem name")
    if problem in _REGISTRY:
        raise ValueError(f"problem {problem!r} is already registered")
    _REGISTRY[problem] = SolverEntry(
        problem=problem,
        spec_type=spec_type,
        capabilities=caps,
        warm_model=model,
        solve_fn=None if model is not None else solver,
        example=example,
    )


# ----------------------------------------------------------------------
# lookup + dispatch
# ----------------------------------------------------------------------
def resolve(problem: str) -> SolverEntry:
    """Look up a registered problem; raise :class:`SpecError` if unknown."""
    entry = _REGISTRY.get(problem)
    if entry is None:
        raise SpecError(
            f"unknown problem {problem!r}; known: {sorted(_REGISTRY)}"
        )
    return entry


def registered_problems() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def solve(spec: ProblemSpec, backend: str = "exact") -> Any:
    """Solve any typed spec through its registered solver."""
    return resolve(spec.problem).solve(spec, backend=backend)


def reconstructable_problems() -> frozenset:
    """Problems whose solutions reconstruct into periodic schedules."""
    return frozenset(
        name for name, entry in _REGISTRY.items()
        if entry.capabilities.reconstructs_schedule
    )


def spec_from_wire(platform: Platform, payload: Any) -> ProblemSpec:
    """Typed spec from a versioned wire envelope (``{"spec": ...}``)."""
    if not isinstance(payload, dict):
        raise SpecError(
            f"spec envelope must be an object, got {type(payload).__name__}"
        )
    problem = payload.get("problem")
    if not problem:
        raise SpecError("spec envelope needs a 'problem'")
    return resolve(str(problem)).spec_type.from_wire(platform, payload)


def describe() -> Dict[str, Any]:
    """JSON-safe registry metadata (CLI ``problems`` command, API op)."""
    out: Dict[str, Any] = {}
    for name, entry in sorted(_REGISTRY.items()):
        spec_fields = []
        for f in entry.spec_type._spec_fields():
            required = entry.spec_type._field_required(f)
            default = None if required else f.default
            if isinstance(default, tuple):
                default = list(default)
            spec_fields.append({
                "name": f.name,
                "role": entry.spec_type._role(f.name),
                "required": required,
                "default": default,
            })
        out[name] = {
            "spec": entry.spec_type.__name__,
            "fields": spec_fields,
            "capabilities": entry.capabilities.as_dict(),
            # a problem with an LP model is solved by it
            "solver": ("model" if entry.warm_model is not None
                       else entry.solve_fn.__qualname__),
        }
    return out
