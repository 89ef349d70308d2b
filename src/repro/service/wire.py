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
compares ``Fraction``-identical to the in-process original.  Every
registered problem's solution type round-trips:

* :class:`~repro.core.activities.SteadyStateSolution` (master-slave,
  scatter, gather, all-to-all, multiport, send-or-receive) — via the
  existing :func:`~repro.platform.serialization.solution_to_dict`;
* :class:`~repro.core.broadcast.BroadcastSolution` (broadcast, reduce)
  — tree packings as explicit edge lists;
* :class:`~repro.core.multicast.MulticastAnalysis` (multicast);
* :class:`~repro.core.dag.DagSolution` (dag) — the task graph reuses
  the spec codec's :func:`~repro.problems.specs.dag_to_dict`.

An unknown solution type raises :class:`WireCodecError` at *encode*
time, on the shard — a new problem kind must extend this codec before
it can be served remotely, and the failure says so instead of
surfacing as a baffling decode error on the broker.

This is the **one result encoder**, and an answer passes through it
once: :func:`encode_result` memoises a cached solution's (and
schedule's) bytes on its :class:`~repro.service.cache.CacheEntry` and
splices them into every later reply; :func:`result_from_wire` keeps the
wire dict (``result.wire``) and builds ``Fraction`` objects only when
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
from .._rational import is_infinite
from ..platform.serialization import (
    decode_weight as _decode_weight,
    encode_weight,
    platform_from_dict,
    platform_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from ..problems import dag_from_dict, dag_to_dict
from .broker import THROUGHPUT_FIELDS, BrokerResult
from .cache import CacheEntry

#: Bumped when the result schema changes shape; a decoder seeing a newer
#: version fails loudly instead of mis-reading fields.
RESULT_WIRE_VERSION = 1


class WireCodecError(ValueError):
    """A result cannot be (de)coded for the shard wire protocol."""


# ----------------------------------------------------------------------
# tree packings (broadcast / multicast): Dict[FrozenSet[Edge], Fraction]
# ----------------------------------------------------------------------
def _packing_to_wire(packing: Dict[Any, Fraction]) -> list:
    return [
        {"rate": encode_weight(rate),
         "edges": sorted([u, v] for u, v in tree)}
        for tree, rate in sorted(
            packing.items(), key=lambda tr: sorted(tr[0])
        )
    ]


def _packing_from_wire(records: list) -> Dict[FrozenSet[Tuple[str, str]],
                                              Fraction]:
    return {
        frozenset((u, v) for u, v in rec["edges"]):
            Fraction(rec["rate"])
        for rec in records
    }


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
            "platform": platform_to_dict(solution.platform),
            "source": solution.source,
            "lp_bound": encode_weight(solution.lp_bound),
            "achieved": encode_weight(solution.achieved),
            "packing": _packing_to_wire(solution.packing),
            "exhaustive": solution.exhaustive,
        }
    if isinstance(solution, MulticastAnalysis):
        return {
            "kind": "multicast",
            "platform": platform_to_dict(solution.platform),
            "source": solution.source,
            "targets": list(solution.targets),
            "sum_lp": encode_weight(solution.sum_lp),
            "max_lp": encode_weight(solution.max_lp),
            "tree_optimal": encode_weight(solution.tree_optimal),
            "packing": _packing_to_wire(solution.packing),
            "exhaustive": solution.exhaustive,
        }
    if isinstance(solution, DagSolution):
        out: Dict[str, Any] = {
            "kind": "dag",
            "platform": platform_to_dict(solution.platform),
            "dag": dag_to_dict(solution.dag),
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
        if solution.affinity is not None:
            out["affinity"] = [
                {"node": n, "type": t,
                 "mult": encode_weight(m) if not is_infinite(m)
                 else "inf"}
                for (n, t), m in sorted(solution.affinity.items())
            ]
        return out
    raise WireCodecError(
        f"no wire encoding for solution type {type(solution).__name__}; "
        f"extend repro.service.wire before serving this problem over a "
        f"shard transport"
    )


def solution_from_wire(data: Dict[str, Any]) -> Any:
    """Decode :func:`solution_to_wire` output (exact inverse)."""
    kind = data.get("kind")
    if kind == "steady-state":
        return solution_from_dict(data)
    if kind == "broadcast":
        return BroadcastSolution(
            platform=platform_from_dict(data["platform"]),
            source=data["source"],
            lp_bound=_decode_weight(data["lp_bound"]),
            achieved=_decode_weight(data["achieved"]),
            packing=_packing_from_wire(data["packing"]),
            exhaustive=bool(data["exhaustive"]),
        )
    if kind == "multicast":
        return MulticastAnalysis(
            platform=platform_from_dict(data["platform"]),
            source=data["source"],
            targets=tuple(data["targets"]),
            sum_lp=_decode_weight(data["sum_lp"]),
            max_lp=_decode_weight(data["max_lp"]),
            tree_optimal=_decode_weight(data["tree_optimal"]),
            packing=_packing_from_wire(data["packing"]),
            exhaustive=bool(data["exhaustive"]),
        )
    if kind == "dag":
        affinity = None
        if "affinity" in data:
            affinity = {
                (rec["node"], rec["type"]): _decode_weight(rec["mult"])
                for rec in data["affinity"]
            }
        return DagSolution(
            platform=platform_from_dict(data["platform"]),
            dag=dag_from_dict(data["dag"]),
            master=data["master"],
            throughput=_decode_weight(data["throughput"]),
            cons={
                (rec["node"], rec["type"]): _decode_weight(rec["rate"])
                for rec in data["cons"]
            },
            flow={
                (rec["src"], rec["dst"],
                 (rec["producer"], rec["consumer"])):
                    _decode_weight(rec["rate"])
                for rec in data["flow"]
            },
            affinity=affinity,
        )
    raise WireCodecError(f"unknown solution wire kind {kind!r}")


# ----------------------------------------------------------------------
# the HTTP view of a wire solution
# ----------------------------------------------------------------------
#: wire ``kind`` -> the keys its response payload copies (``None``: all)
_PAYLOAD_KEYS = {
    "steady-state": None,
    "broadcast": ("lp_bound", "achieved", "exhaustive", "packing"),
    "multicast": ("sum_lp", "tree_optimal", "max_lp", "exhaustive"),
    "dag": ("throughput",),
}


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
    """Encode a :class:`BrokerResult` as a JSON-safe dict."""
    out = _result_head(result)
    out["solution"] = solution_to_wire(result.solution)
    if result.schedule is not None:
        out["schedule"] = schedule_to_dict(result.schedule)
    return out


def compact_json(payload: Any) -> bytes:
    """The shard protocol's JSON spelling: no spaces, UTF-8."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _spliced(entry: Optional[CacheEntry], field: str, obj: Any,
             encode) -> bytes:
    """``encode(obj)`` as compact JSON, memoised on ``entry`` while it
    holds ``obj`` itself.  Racing first serves store equal bytes."""
    if entry is None or getattr(entry, field) is not obj:
        return compact_json(encode(obj))
    blob = getattr(entry, field + "_json")
    if blob is None:
        blob = compact_json(encode(obj))
        setattr(entry, field + "_json", blob)
    return blob


def encode_result(result: BrokerResult,
                  entry: Optional[CacheEntry] = None) -> bytes:
    """:func:`result_to_wire` as compact JSON bytes.  ``entry`` is the
    cache entry the result was served from or stored under, if any: its
    solution and schedule are encoded once and spliced in thereafter."""
    parts = [compact_json(_result_head(result))[:-1], b',"solution":',
             _spliced(entry, "solution", result.solution, solution_to_wire)]
    if result.schedule is not None:
        parts += [b',"schedule":', _spliced(entry, "schedule",
                                            result.schedule,
                                            schedule_to_dict)]
    return b"".join(parts) + b"}"


class _WireResult(BrokerResult):
    """A result as it came off the wire (``wire``: the reply's result
    dict); the exact objects are built when first read, into the
    instance like the dataclass fields they stand in for.  ``entry`` is
    the near-cache entry that served it, if one did."""

    wire: Dict[str, Any]
    entry: Optional[CacheEntry] = None

    @cached_property
    def solution(self) -> Any:  # type: ignore[override]
        return solution_from_wire(self.wire["solution"])

    @cached_property
    def schedule(self) -> Any:  # type: ignore[override]
        data = self.wire.get("schedule")
        return schedule_from_dict(data) if data is not None else None


def result_from_wire(data: Dict[str, Any]) -> BrokerResult:
    """Decode :func:`result_to_wire` output (exact inverse): ``version``
    and the solution's ``kind`` are checked now, the solution and the
    schedule decode on first read."""
    version = data.get("version", RESULT_WIRE_VERSION)
    if version > RESULT_WIRE_VERSION:
        raise WireCodecError(
            f"result wire version {version} is newer than this decoder "
            f"({RESULT_WIRE_VERSION}); upgrade the broker host"
        )
    _kind(data["solution"])
    result = object.__new__(_WireResult)
    result.__dict__.update(
        wire=data,
        fingerprint=data["fingerprint"],
        cached=bool(data.get("cached", False)),
        warm=bool(data.get("warm", False)),
        # operational metadata (measured seconds), not part of the
        # exact result; explicitly float on both sides of the wire
        latency_seconds=float(data.get("latency_seconds", 0.0)),  # repro-lint: allow(exactness)
    )
    return result


def near_result(entry: CacheEntry, with_schedule: bool,
                latency_seconds: float) -> BrokerResult:
    """A near-cache hit: ``entry`` keeps the shard's wire form of its
    solution (and schedule), served as a lazy :class:`_WireResult`."""
    data = {"fingerprint": entry.key, "cached": True,
            "latency_seconds": latency_seconds, "solution": entry.solution}
    if with_schedule:
        data["schedule"] = entry.schedule
    result = result_from_wire(data)
    result.__dict__["entry"] = entry
    return result


def payload_json(entry: CacheEntry, with_schedule: bool) -> bytes:
    """``,"throughput":…,"solution":{…}`` (then ``,"schedule":{…}``)
    of the HTTP reply to a near hit on ``entry``: encoded once per
    entry, into its ``solution_json`` / ``schedule_json``, then spliced.
    Racing first serves store equal bytes."""
    if entry.solution_json is None:
        payload = solution_payload(entry.solution)
        entry.solution_json = b"," + compact_json(
            {"throughput": payload_throughput(payload),
             "solution": payload})[1:-1]
    if not with_schedule:
        return entry.solution_json
    if entry.schedule_json is None:
        entry.schedule_json = b',"schedule":' + compact_json(entry.schedule)
    return entry.solution_json + entry.schedule_json
