"""Capability-declaring solver registry — one dispatch path for everything.

Every problem the library can solve is registered here exactly once, as a
:class:`SolverEntry` binding

* a typed spec class (:mod:`repro.problems.specs`),
* a uniform ``solve(spec, backend=...)`` callable,
* a :class:`Capabilities` declaration (can the solver's LP be warm
  re-solved on weight-only mutations?  can its solution be turned into a
  periodic schedule?  which LP structure family does it belong to?), and
* optionally a :class:`WarmModel` — the structure-vs-coefficient split
  that makes the ``warm_resolve`` capability executable — and an example
  factory used by the end-to-end registry consistency check
  (``python -m repro problems --check``).

The CLI, the JSON API, the request broker and the incremental solver all
route through :func:`resolve` — there is no per-problem branch ladder
anywhere downstream.  Registering a new problem (one spec + one decorated
solver in :mod:`repro.problems.catalog`) makes it servable everywhere at
once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type

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
        Turn a solved model — always an exact simplex solve — into the
        problem's public solution object.
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
    """One registered problem: spec type + solver + declared capabilities."""

    problem: str
    spec_type: Type[ProblemSpec]
    solve_fn: Callable[..., Any]
    capabilities: Capabilities
    entry_point: Callable[..., Any]
    warm_model: Optional[WarmModel] = None
    example: Optional[ExampleFactory] = None

    def solve(self, spec: ProblemSpec, backend: str = "exact") -> Any:
        """The uniform solve entry: typed spec in, solution object out."""
        if not isinstance(spec, self.spec_type):
            raise SpecError(
                f"{self.problem} expects a {self.spec_type.__name__}, got "
                f"{type(spec).__name__}"
            )
        return self.solve_fn(spec, backend=backend)


_REGISTRY: Dict[str, SolverEntry] = {}


def register(
    spec_type: Type[ProblemSpec],
    capabilities: Optional[Capabilities] = None,
    entry_point: Optional[Callable[..., Any]] = None,
    warm_model: Optional[WarmModel] = None,
    example: Optional[ExampleFactory] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering ``fn(spec, backend=...)`` for a spec type.

    >>> @register(MySpec, capabilities=Capabilities(lp_structure="ssms"))
    ... def solve_my_problem(spec, backend="exact"):
    ...     return my_core_solver(spec.platform, spec.master, backend=backend)
    """
    caps = dataclasses.replace(capabilities or Capabilities(),
                               warm_resolve=warm_model is not None)
    problem = spec_type.problem
    if not problem:
        raise ValueError(f"{spec_type.__name__} declares no problem name")

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        if problem in _REGISTRY:
            raise ValueError(f"problem {problem!r} is already registered")
        _REGISTRY[problem] = SolverEntry(
            problem=problem,
            spec_type=spec_type,
            solve_fn=fn,
            capabilities=caps,
            entry_point=entry_point if entry_point is not None else fn,
            warm_model=warm_model,
            example=example,
        )
        return fn

    return decorator


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
            "solver": getattr(entry.entry_point, "__qualname__",
                              repr(entry.entry_point)),
        }
    return out
