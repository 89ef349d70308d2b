"""Exact JSON wire codec for shard replies.

The shard protocol of :mod:`repro.service.transport` carries *requests*
as the PR 2 spec wire codec (``spec.to_wire()`` + ``platform_to_dict``)
— that has been JSON-safe end to end since the process shards landed.
Replies were the remaining gap: the pipe shards relayed results as
pickled :class:`~repro.service.broker.BrokerResult` objects, which a
TCP shard on another host cannot do (and should not: pickle across
machines couples the hosts' code versions and trusts the peer).  This
module closes the gap with an exact, versioned JSON encoding of a
broker result, so every shard — a local worker or another host —
speaks one schema.

Exactness is the contract: rationals travel as the ``"p/q"`` strings of
:mod:`repro.platform.serialization`, so a result decoded from the wire
compares ``Fraction``-identical to the in-process original.  A reply is
the answer, not an echo (version 2): it carries neither the request's
platform nor a DAG's task graph, and the decoder binds the caller's own
spec instead (it drops a version-1 reply's echo).  Every registered
problem's solution type round-trips:

* :class:`~repro.core.activities.SteadyStateSolution` (master-slave,
  scatter, gather, all-to-all, multiport, send-or-receive) — via the
  existing :func:`~repro.platform.serialization.solution_to_dict`;
* :class:`~repro.core.broadcast.BroadcastSolution` (broadcast, reduce)
  — tree packings as explicit edge lists;
* :class:`~repro.core.multicast.MulticastAnalysis` (multicast);
* :class:`~repro.core.dag.DagSolution` (dag).

An unknown solution type raises :class:`WireCodecError` at *encode*
time, on the shard — a new problem kind must extend this codec before
it can be served remotely, and the failure says so instead of
surfacing as a baffling decode error on the broker.

This is the **one result encoder**, and an answer passes through it
once: a fresh solve is encoded into the bytes its
:class:`~repro.service.cache.CacheEntry` keeps, and :func:`encode_result`
splices those bytes into every reply; a result read off an entry
(:func:`entry_result`) or a transport (:func:`result_from_wire`) is
bound to the caller's spec and builds ``Fraction`` objects only when
``.solution`` / ``.schedule`` are first read; and the HTTP payload is a
view of the wire form (:func:`solution_payload` — for the six
steady-state problems, the wire dict minus ``"kind"``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..core.activities import SteadyStateSolution
from ..core.broadcast import BroadcastSolution
from ..core.dag import DagSolution
from ..core.multicast import MulticastAnalysis
from ..platform.serialization import (
    decode_weight as _decode_weight,
    encode_weight,
    schedule_from_dict,
    schedule_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from ..problems import ProblemSpec
from .broker import THROUGHPUT_FIELDS, BrokerResult, SolveRequest
from .cache import CacheEntry

#: Bumped when the result schema changes shape; a decoder seeing a newer
#: version fails loudly instead of mis-reading fields.
RESULT_WIRE_VERSION = 2


class WireCodecError(ValueError):
    """A result cannot be (de)coded for the shard wire protocol."""


# ----------------------------------------------------------------------
# tree packings (broadcast / multicast): Dict[FrozenSet[Edge], Fraction]
# ----------------------------------------------------------------------
def _packing_to_wire(packing: Dict[Any, Fraction]) -> list:
    return [{"rate": encode_weight(rate), "edges": sorted(map(list, tree))}
            for tree, rate in sorted(packing.items(),
                                     key=lambda tr: sorted(tr[0]))]


def _packing_from_wire(records: list) -> Dict[FrozenSet[Tuple[str, str]],
                                              Fraction]:
    return {frozenset(map(tuple, rec["edges"])): Fraction(rec["rate"])
            for rec in records}


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------
def solution_to_wire(solution: Any) -> Dict[str, Any]:
    """Encode any registered problem's solution object, tagged by kind."""
    if isinstance(solution, SteadyStateSolution):
        return {"kind": "steady-state", **solution_to_dict(solution)}
    if isinstance(solution, BroadcastSolution):
        return {
            "kind": "broadcast",
            "source": solution.source,
            "lp_bound": encode_weight(solution.lp_bound),
            "achieved": encode_weight(solution.achieved),
            "packing": _packing_to_wire(solution.packing),
        }
    if isinstance(solution, MulticastAnalysis):
        return {
            "kind": "multicast",
            "source": solution.source,
            "targets": list(solution.targets),
            "sum_lp": encode_weight(solution.sum_lp),
            "max_lp": encode_weight(solution.max_lp),
            "tree_optimal": encode_weight(solution.tree_optimal),
            "packing": _packing_to_wire(solution.packing),
            "exhaustive": solution.exhaustive,
        }
    if isinstance(solution, DagSolution):
        if solution.affinity is not None:
            # DagSpec has no affinity field: no served DAG answer has one
            raise WireCodecError(
                "no wire encoding for a DAG solution with an affinity")
        return {
            "kind": "dag",
            "master": solution.master,
            "throughput": encode_weight(solution.throughput),
            "cons": [
                {"node": n, "type": t, "rate": encode_weight(r)}
                for (n, t), r in sorted(solution.cons.items())
            ],
            "flow": [
                {"src": i, "dst": j, "producer": k, "consumer": l,
                 "rate": encode_weight(r)}
                for (i, j, (k, l)), r in sorted(solution.flow.items())
            ],
        }
    raise WireCodecError(
        f"no wire encoding for solution type {type(solution).__name__}; "
        f"extend repro.service.wire before serving this problem over a "
        f"shard transport"
    )


def _steady_state_from_wire(data: Dict[str, Any], spec: ProblemSpec) -> Any:
    solution = solution_from_dict(data, spec.platform)
    solution.port_model, solution.ports = spec.port_setting()
    return solution


def solution_from_wire(data: Dict[str, Any], spec: ProblemSpec) -> Any:
    """Decode :func:`solution_to_wire` output on the caller's ``spec``
    (a steady-state answer takes its port model from the spec)."""
    kind = data.get("kind")
    if kind == "steady-state":
        return _steady_state_from_wire(data, spec)
    if kind == "broadcast":
        return BroadcastSolution(
            platform=spec.platform,
            source=data["source"],
            lp_bound=_decode_weight(data["lp_bound"]),
            achieved=_decode_weight(data["achieved"]),
            packing=_packing_from_wire(data["packing"]),
        )
    if kind == "multicast":
        return MulticastAnalysis(
            platform=spec.platform,
            source=data["source"],
            targets=tuple(data["targets"]),
            sum_lp=_decode_weight(data["sum_lp"]),
            max_lp=_decode_weight(data["max_lp"]),
            tree_optimal=_decode_weight(data["tree_optimal"]),
            packing=_packing_from_wire(data["packing"]),
            exhaustive=bool(data["exhaustive"]),
        )
    if kind == "dag":
        return DagSolution(
            platform=spec.platform,
            dag=spec.dag,
            master=data["master"],
            throughput=_decode_weight(data["throughput"]),
            cons={(rec["node"], rec["type"]): _decode_weight(rec["rate"])
                  for rec in data["cons"]},
            flow={
                (rec["src"], rec["dst"],
                 (rec["producer"], rec["consumer"])):
                    _decode_weight(rec["rate"])
                for rec in data["flow"]
            },
        )
    raise WireCodecError(f"unknown solution wire kind {kind!r}")


# ----------------------------------------------------------------------
# the HTTP view of a wire solution
# ----------------------------------------------------------------------
#: wire ``kind`` -> the keys its response payload copies (``None``: all)
_PAYLOAD_KEYS = {
    "steady-state": None,
    "broadcast": ("lp_bound", "achieved", "packing"),
    "multicast": ("sum_lp", "tree_optimal", "max_lp", "exhaustive"),
    "dag": ("throughput",),
}


#: wire ``kind`` -> the keys its version-1 form echoed of the request
_V1_ECHO = {"steady-state": ("platform",), "multicast": ("platform",),
            "broadcast": ("platform", "exhaustive"),
            "dag": ("platform", "dag")}


def _without(data: Dict[str, Any], keys: Tuple[str, ...]) -> Dict[str, Any]:
    return {key: value for key, value in data.items() if key not in keys}


def _kind(data: Dict[str, Any]) -> str:
    kind = data.get("kind")
    if kind not in _PAYLOAD_KEYS:
        raise WireCodecError(f"unknown solution wire kind {kind!r}")
    return kind


def solution_payload(data: Dict[str, Any]) -> Dict[str, Any]:
    """The ``"solution"`` object of a solve response, as a view of the
    wire form (``data`` is not mutated; nested values are shared)."""
    kind = _kind(data)
    if kind == "steady-state":
        return {key: value for key, value in data.items() if key != "kind"}
    out = {"problem": "DagSolution" if kind == "dag" else kind}
    out.update((key, data[key]) for key in _PAYLOAD_KEYS[kind])
    if kind == "broadcast":
        out["optimal"] = (_decode_weight(data["achieved"])
                          == _decode_weight(data["lp_bound"]))
    elif kind == "multicast":
        out["max_lp_achievable"] = bool(data["exhaustive"]) and (
            _decode_weight(data["tree_optimal"])
            == _decode_weight(data["max_lp"]))
    else:
        out["cons"] = [rec for rec in data["cons"]
                       if _decode_weight(rec["rate"]) != 0]
    return out


def payload_throughput(payload: Dict[str, Any]) -> Any:
    """The ``"throughput"`` of a solve response, read off its payload."""
    return next(payload[key] for key in THROUGHPUT_FIELDS if key in payload)


# ----------------------------------------------------------------------
# broker results
# ----------------------------------------------------------------------
def _result_head(result: BrokerResult) -> Dict[str, Any]:
    return {
        "version": RESULT_WIRE_VERSION,
        "fingerprint": result.fingerprint,
        "cached": result.cached,
        "warm": result.warm,
        "latency_seconds": result.latency_seconds,
    }


def result_to_wire(result: BrokerResult) -> Dict[str, Any]:
    """Encode a :class:`BrokerResult` as a JSON-safe dict (a result in
    wire form lends its own dicts)."""
    out = _result_head(result)
    wire = getattr(result, "wire", None) or {
        "solution": solution_to_wire(result.solution),
        "schedule": result.schedule and schedule_to_dict(result.schedule)}
    out["solution"] = wire["solution"]
    if wire.get("schedule") is not None:
        out["schedule"] = wire["schedule"]
    return out


def compact_json(payload: Any) -> bytes:
    """The shard protocol's JSON spelling: no spaces, UTF-8."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def encode_result(result: BrokerResult) -> bytes:
    """:func:`result_to_wire` as compact JSON bytes.  A result served
    from (or stored into) a cache entry splices the entry's bytes."""
    solution = getattr(result, "solution_json", None)
    if solution is None:
        return compact_json(result_to_wire(result))
    parts = [compact_json(_result_head(result))[:-1], b',"solution":',
             solution]
    if result.schedule_json is not None:
        parts += [b',"schedule":', result.schedule_json]
    return b"".join(parts) + b"}"


class _WireResult(BrokerResult):
    """A result in wire form, bound to the caller's ``spec`` on read.

    Its answer is a cache entry's bytes (``solution_json`` /
    ``schedule_json``: an engine's fresh solve or hit, a near hit) or
    the reply dict it came off a transport as (``wire``, which the bytes
    otherwise decode into when first read).  The exact objects are
    built on ``spec`` when first read, into the instance like the
    dataclass fields they stand in for; a result bound to a ``request``
    instead reads its spec then, so a request rebuilt from kept bytes
    decodes only if somebody reads the answer as objects.  ``entry`` is
    the near-cache entry that served it, if one did."""

    spec: Optional[ProblemSpec] = None
    request: Optional[SolveRequest] = None
    solution_json: Optional[bytes] = None
    schedule_json: Optional[bytes] = None
    entry: Optional[CacheEntry] = None

    def _spec(self) -> ProblemSpec:
        if self.spec is None and self.request is not None:
            self.spec = self.request.spec
        if self.spec is None:
            raise WireCodecError("no spec to bind the reply's answer to")
        return self.spec

    @cached_property
    def wire(self) -> Dict[str, Any]:
        out = {"solution": json.loads(self.solution_json)}
        if self.schedule_json is not None:
            out["schedule"] = json.loads(self.schedule_json)
        return out

    @cached_property
    def solution(self) -> Any:  # type: ignore[override]
        return solution_from_wire(self.wire["solution"], self._spec())

    @cached_property
    def schedule(self) -> Any:  # type: ignore[override]
        if self.solution_json is not None and self.schedule_json is None:
            return None  # bytes without a schedule: decode nothing
        data = self.wire.get("schedule")
        return (schedule_from_dict(data, self._spec().platform)
                if data is not None else None)


def _wire_result(fields: Dict[str, Any]) -> _WireResult:
    result = object.__new__(_WireResult)
    result.__dict__.update(fields)
    return result


def result_from_wire(data: Dict[str, Any],
                     # kept only for bench/layers.py's one-argument call:
                     # without a spec, only the payload view is readable
                     spec: Optional[ProblemSpec] = None) -> BrokerResult:
    """Decode :func:`result_to_wire` output (exact inverse) for the
    request whose spec is ``spec``: ``version`` and the solution's
    ``kind`` are checked now, the solution and the schedule decode on
    first read, on the spec's platform."""
    version = data.get("version", RESULT_WIRE_VERSION)
    if version > RESULT_WIRE_VERSION:
        raise WireCodecError(
            f"result wire version {version} is newer than this decoder "
            f"({RESULT_WIRE_VERSION}); upgrade the broker host"
        )
    kind = _kind(data["solution"])
    if version < RESULT_WIRE_VERSION:  # a version-1 reply: drop its echo
        data = {**data, "solution": _without(data["solution"], _V1_ECHO[kind])}
        if data.get("schedule") is not None:
            data["schedule"] = _without(data["schedule"], ("platform",))
    return _wire_result(dict(
        wire=data,
        spec=spec,
        fingerprint=data["fingerprint"],
        cached=bool(data.get("cached", False)),
        warm=bool(data.get("warm", False)),
        # operational metadata (measured seconds), not part of the
        # exact result; explicitly float on both sides of the wire
        latency_seconds=float(data.get("latency_seconds", 0.0)),  # repro-lint: allow(exactness)
    ))


def entry_result(entry: CacheEntry, spec: Optional[ProblemSpec],
                 include_schedule: bool, /, **fields: Any) -> BrokerResult:
    """A result that is ``entry``'s bytes (its schedule's only when
    ``include_schedule``), bound to ``spec`` on read; ``fields`` set
    the scalars, a cached answer by default."""
    return _wire_result({
        "spec": spec, "fingerprint": entry.key, "cached": True,
        "solution_json": entry.solution_json,
        "schedule_json": entry.schedule_json if include_schedule else None,
        **fields})


def near_result(entry: CacheEntry, request: SolveRequest,
                latency_seconds: float) -> BrokerResult:
    """A near-cache hit for ``request``: ``entry`` keeps the shard's
    reply bytes of its solution (and schedule)."""
    return entry_result(entry, None, request.include_schedule,
                        latency_seconds=latency_seconds, entry=entry,
                        request=request)


def payload_json(entry: CacheEntry) -> bytes:
    """``,"throughput":…,"solution":{…}`` of the HTTP reply to a near
    hit on ``entry``: encoded once per entry, into its ``payload_json``,
    then spliced.  Racing first serves store equal bytes."""
    if entry.payload_json is None:
        payload = solution_payload(json.loads(entry.solution_json))
        entry.payload_json = b"," + compact_json(
            {"throughput": payload_throughput(payload),
             "solution": payload})[1:-1]
    return entry.payload_json
