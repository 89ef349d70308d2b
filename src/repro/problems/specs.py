"""Typed problem specifications — one dataclass per steady-state problem.

The paper's "why" is that a single steady-state LP formulation covers
master-slave tasking, scatter/gather, broadcast/reduce, multicast and DAG
collections.  This module gives each of those problems a *typed spec*: a
frozen dataclass naming exactly the fields the problem needs (its
distinguished node, its commodity set, its structural options), with

* validation at construction time — a malformed spec raises
  :class:`SpecError`, never a downstream ``KeyError``/``TypeError``;
* an exact JSON wire codec (:meth:`ProblemSpec.to_wire` /
  :meth:`ProblemSpec.from_wire`) with explicit versioning;
* one canonical form (:meth:`ProblemSpec.canonical_wire`) that a
  :class:`~repro.service.broker.SolveRequest`'s fingerprint hashes, so
  two specs share a cache key exactly when they pose the same problem.

Specs are *data only*.  How a spec is solved — and which capabilities the
solver declares — lives in :mod:`repro.problems.registry` and the built-in
:mod:`repro.problems.catalog`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..core.activities import PORT_MODELS
from ..core.dag import BEGIN, TaskGraph
from ..platform.graph import NodeId, Platform

#: wire-format version accepted by :meth:`ProblemSpec.from_wire`
SPEC_VERSION = 1

#: the request-level ``options`` that earlier service clients send beside
#: every spec envelope: it asks for the exact solve every request gets,
#: so a request decoder may accept it and read nothing from it
LEGACY_REQUEST_OPTIONS = {"backend": "exact"}


class SpecError(ValueError):
    """A malformed problem spec (missing, unknown or ill-typed fields)."""


# ----------------------------------------------------------------------
# task-graph wire codec
# ----------------------------------------------------------------------
def dag_from_dict(data: Any) -> TaskGraph:
    """Decode the wire form of a task graph; raise :class:`SpecError`."""
    try:
        dag = TaskGraph()
        for name, work in data.get("types", {}).items():
            dag.add_type(name, Fraction(str(work)))
        for rec in data.get("files", []):
            dag.add_file(rec["producer"], rec["consumer"],
                         Fraction(str(rec["size"])))
        if data.get("anchor", True):
            dag.anchor_at_master(Fraction(str(data.get("input_size", 1))))
        return dag
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise SpecError(f"malformed task graph spec: {exc}") from exc


def dag_to_dict(dag: TaskGraph) -> Dict[str, Any]:
    """Encode a task graph (inverse of :func:`dag_from_dict`)."""
    from ..platform.serialization import encode_weight

    return {
        "types": {
            t: encode_weight(w) for t, w in dag.types.items() if t != BEGIN
        },
        "files": [
            {"producer": a, "consumer": b, "size": encode_weight(sz)}
            for (a, b), sz in dag.files.items() if a != BEGIN
        ],
        "anchor": BEGIN in dag.types,
        "input_size": encode_weight(
            next(
                (sz for (a, _b), sz in dag.files.items() if a == BEGIN),
                Fraction(1),
            )
        ),
    }


# ----------------------------------------------------------------------
# the spec hierarchy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProblemSpec:
    """Base class: a platform plus problem-specific fields.

    Subclasses declare their fields as ordinary dataclass fields and steer
    the generic validation / codec machinery with class attributes:

    ``problem``
        The wire-level problem name (the registry key).
    ``_SOURCE_FIELD`` / ``_TARGETS_FIELD``
        The field naming the spec's distinguished node (master, source,
        sink, root) and the one holding its commodity set (targets,
        sources, participants).  Both must name nodes of the platform,
        the commodity set without repeats and without the distinguished
        node.
    ``_ROLES``
        Human-readable field descriptions used in validation errors.
    ``_INT_FIELDS``
        Option fields coerced to ``int`` (wire JSON may carry strings).
    """

    platform: Platform

    problem: ClassVar[str] = ""
    _SOURCE_FIELD: ClassVar[Optional[str]] = None
    _TARGETS_FIELD: ClassVar[Optional[str]] = None
    _ROLES: ClassVar[Dict[str, str]] = {}
    _INT_FIELDS: ClassVar[Tuple[str, ...]] = ()

    # ------------------------------------------------------------------
    # construction-time validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not isinstance(self.platform, Platform):
            raise SpecError(
                f"{self.problem} spec needs a Platform, got "
                f"{type(self.platform).__name__}"
            )
        for f in self._spec_fields():
            value = getattr(self, f.name)
            if f.name == self._SOURCE_FIELD:
                if value is None or (isinstance(value, str) and not value):
                    raise SpecError(
                        f"{self.problem} requests need {self._role(f.name)}"
                    )
                self._check_node(f.name, value)
            elif f.name == self._TARGETS_FIELD:
                if isinstance(value, (str, bytes)):
                    # tuple("P5") would silently become ('P', '5')
                    raise SpecError(
                        f"{self._role(f.name)} must be a sequence of node "
                        f"names, got the bare string {value!r}"
                    )
                try:
                    value = tuple(value)
                except TypeError:
                    raise SpecError(
                        f"{self._role(f.name)} must be a sequence of node "
                        f"names, got {value!r}"
                    ) from None
                object.__setattr__(self, f.name, value)
                if not value and self._field_required(f):
                    raise SpecError(
                        f"{self.problem} requests need {self._role(f.name)}"
                    )
                for node in value:
                    self._check_node(f.name, node)
                if len(set(value)) != len(value):
                    raise SpecError(f"{self._role(f.name)} repeat a node: "
                                    f"{list(value)}")
                if self.source_node() in value:
                    raise SpecError(f"{self._role(f.name)} include the "
                                    f"{self._role(self._SOURCE_FIELD)}")
            elif f.name in self._INT_FIELDS:
                try:
                    if isinstance(value, bool):
                        raise ValueError  # a JSON true is not a count
                    coerced = int(value)
                    # int() on a string already rejects "2.9"; for numeric
                    # input, refuse to truncate 2.9 -> 2 silently
                    if not isinstance(value, str) and coerced != value:
                        raise ValueError
                except (TypeError, ValueError):
                    raise SpecError(
                        f"{self.problem} option {f.name!r} must be an "
                        f"integer, got {value!r}"
                    ) from None
                object.__setattr__(self, f.name, coerced)
        self._validate()

    def _validate(self) -> None:
        """Subclass hook for problem-specific invariants."""

    def _check_node(self, name: str, node: Any) -> None:
        if not isinstance(node, str) or not self.platform.has_node(node):
            raise SpecError(f"{self._role(name)} {node!r} is not a node "
                            f"of the platform")

    # ------------------------------------------------------------------
    # generic introspection helpers
    # ------------------------------------------------------------------
    @classmethod
    def _spec_fields(cls):
        return [f for f in fields(cls) if f.name != "platform"]

    @staticmethod
    def _field_required(f) -> bool:
        return (f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING)

    @classmethod
    def _role(cls, name: str) -> str:
        return cls._ROLES.get(name, name)

    def source_node(self) -> Optional[NodeId]:
        """The distinguished node (master / source / sink / root), if any."""
        if self._SOURCE_FIELD is None:
            return None
        return getattr(self, self._SOURCE_FIELD)

    def port_setting(self) -> Tuple[str, int]:
        """``(port_model, ports)``: the section 5.1 communication model
        the problem's LP is built and verified under — one-port unless
        the problem says otherwise."""
        return "one-port", 1

    # ------------------------------------------------------------------
    # wire codec (the versioned "spec" envelope)
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe encoding; exact inverse of :meth:`from_wire`."""
        out: Dict[str, Any] = {"version": SPEC_VERSION, "problem": self.problem}
        for f in self._spec_fields():
            value = getattr(self, f.name)
            if isinstance(value, TaskGraph):
                value = dag_to_dict(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def canonical_wire(self) -> Dict[str, Any]:
        """:meth:`to_wire` with the orders that mean nothing sorted out:
        the commodity set and a task graph's files.  Construction has
        already folded defaults and spellings (``"2"`` and ``2`` ports),
        so two specs of one problem pose the same problem exactly when
        their canonical forms are equal."""
        out = self.to_wire()
        if self._TARGETS_FIELD is not None:
            out[self._TARGETS_FIELD].sort()
        if "dag" in out:
            out["dag"]["files"].sort(
                key=lambda rec: (rec["producer"], rec["consumer"]))
        return out

    @classmethod
    def from_wire(cls, platform: Platform, payload: Any) -> "ProblemSpec":
        """Decode a spec envelope; raise :class:`SpecError` when malformed."""
        if not isinstance(payload, dict):
            raise SpecError(f"spec envelope must be an object, got "
                            f"{type(payload).__name__}")
        data = dict(payload)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"unsupported spec version {version!r} "
                f"(this build speaks version {SPEC_VERSION})"
            )
        problem = data.pop("problem", cls.problem)
        if problem != cls.problem:
            raise SpecError(
                f"spec envelope names problem {problem!r} but was decoded "
                f"as {cls.problem!r}"
            )
        names = {f.name for f in cls._spec_fields()}
        unknown = set(data) - names
        if unknown:
            raise SpecError(
                f"unknown spec field(s) for {cls.problem}: {sorted(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        for f in cls._spec_fields():
            if f.name not in data:
                if cls._field_required(f):
                    raise SpecError(
                        f"{cls.problem} requests need {cls._role(f.name)}"
                    )
                continue
            value = data[f.name]
            if f.name == "dag" and not isinstance(value, TaskGraph):
                value = dag_from_dict(value)
            kwargs[f.name] = value
        return cls(platform=platform, **kwargs)


# ----------------------------------------------------------------------
# the ten built-in problem kinds (sections 3-5 of the paper)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MasterSlaveSpec(ProblemSpec):
    """SSMS — master-slave tasking (section 3.1)."""

    master: NodeId

    problem = "master-slave"
    _SOURCE_FIELD = "master"
    _ROLES = {"master": "source/master"}


@dataclass(frozen=True)
class ScatterSpec(ProblemSpec):
    """SSPS — pipelined scatter (section 3.2), any port model (5.1)."""

    source: NodeId
    targets: Tuple[NodeId, ...]
    port_model: str = "one-port"
    ports: int = 1

    problem = "scatter"
    _SOURCE_FIELD = "source"
    _TARGETS_FIELD = "targets"
    _INT_FIELDS = ("ports",)

    def _validate(self) -> None:
        if self.port_model not in PORT_MODELS:
            raise SpecError(f"unknown port model {self.port_model!r}")
        if self.ports < 1:
            raise SpecError("ports must be >= 1")
        if self.port_model != "multiport":
            # only multiport counts cards: any other model poses the
            # same problem, and gets the same fingerprint, at every count
            object.__setattr__(self, "ports", 1)

    def port_setting(self) -> Tuple[str, int]:
        return self.port_model, self.ports


@dataclass(frozen=True)
class GatherSpec(ProblemSpec):
    """Pipelined gather — scatter on the reversed platform (section 4.2)."""

    sink: NodeId
    sources: Tuple[NodeId, ...]

    problem = "gather"
    _SOURCE_FIELD = "sink"
    _TARGETS_FIELD = "sources"
    _ROLES = {"sink": "source (the sink)", "sources": "targets (the sources)"}


@dataclass(frozen=True)
class AllToAllSpec(ProblemSpec):
    """Personalised all-to-all (end of section 4.2).

    An empty ``participants`` tuple means every platform node takes part.
    """

    participants: Tuple[NodeId, ...] = ()

    problem = "all-to-all"
    _TARGETS_FIELD = "participants"

    def _validate(self) -> None:
        if len(self.participants or self.platform.nodes()) < 2:
            raise SpecError("all-to-all needs at least two participants")


@dataclass(frozen=True)
class BroadcastSpec(ProblemSpec):
    """Series of broadcasts — priced arborescence packing (3.3, 4.2)."""

    source: NodeId

    problem = "broadcast"
    _SOURCE_FIELD = "source"


@dataclass(frozen=True)
class ReduceSpec(ProblemSpec):
    """Series of reductions — reverse broadcast with combining (4.2)."""

    root: NodeId

    problem = "reduce"
    _SOURCE_FIELD = "root"


@dataclass(frozen=True)
class MulticastSpec(ProblemSpec):
    """Multicast sum/packing/max bracket (section 4.3)."""

    source: NodeId
    targets: Tuple[NodeId, ...]
    tree_limit: int = 100_000

    problem = "multicast"
    _SOURCE_FIELD = "source"
    _TARGETS_FIELD = "targets"
    _INT_FIELDS = ("tree_limit",)

    def _validate(self) -> None:
        if self.tree_limit < 1:
            raise SpecError("tree_limit must be >= 1")


@dataclass(frozen=True)
class DagSpec(ProblemSpec):
    """Collections of identical task graphs (section 4.4)."""

    master: NodeId
    dag: TaskGraph

    problem = "dag"
    _SOURCE_FIELD = "master"
    _ROLES = {"master": "source/master"}

    def _validate(self) -> None:
        if not isinstance(self.dag, TaskGraph):
            raise SpecError("dag requests need a task graph")


@dataclass(frozen=True)
class MultiportSpec(ProblemSpec):
    """SSMS under the multiport model of section 5.1.2."""

    master: NodeId
    ports: int = 2

    problem = "multiport"
    _SOURCE_FIELD = "master"
    _ROLES = {"master": "source/master"}
    _INT_FIELDS = ("ports",)

    def _validate(self) -> None:
        if self.ports < 1:
            raise SpecError("ports must be >= 1")

    def port_setting(self) -> Tuple[str, int]:
        return "multiport", self.ports


@dataclass(frozen=True)
class SendOrReceiveSpec(ProblemSpec):
    """SSMS under the send-OR-receive model of section 5.1.1."""

    master: NodeId

    problem = "send-or-receive"
    _SOURCE_FIELD = "master"
    _ROLES = {"master": "source/master"}

    def port_setting(self) -> Tuple[str, int]:
        return "send-or-receive", 1
