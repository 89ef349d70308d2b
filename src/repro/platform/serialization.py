"""Platform, schedule and solution (de)serialisation.

Plain-dict / JSON round-trips so platforms can live in version control and
schedules can be shipped to the machines that execute them.  Exact
rationals are encoded as ``"p/q"`` strings; infinite weights as ``"inf"``.

A schedule or a solution travels beside the platform it answers on
(result wire version 2): its dict carries none, and its decoder takes
the reader's own platform as an argument.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict

from .._rational import INF, as_fraction, is_infinite
from .graph import Platform, PlatformError


def _encode_weight(value) -> str:
    if is_infinite(value):
        return "inf"
    f = value if isinstance(value, Fraction) else as_fraction(value)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(
        f.numerator
    )


#: public alias — the one wire encoding of exact rationals, shared by the
#: service layer (fingerprints, API payloads) so the format cannot drift
encode_weight = _encode_weight


def _decode_weight(text: str):
    """Inverse of :func:`encode_weight`.  The canonical ``"p"`` and
    ``"p/q"`` (ASCII digits) are built from their integers; anything
    else — signs, decimals, spaces, ``"1/0"``, non-strings — is left to
    :class:`~fractions.Fraction`, whose value or error is the answer."""
    if text == "inf":
        return INF
    if type(text) is str and text.isascii():
        num, _, den = text.partition("/")
        if num.isdigit():
            if not den:
                if num == text:
                    return Fraction(int(num))
            elif den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
    return Fraction(text)


#: public alias (the service's result codec parses with it too)
decode_weight = _decode_weight


def platform_to_dict(platform: Platform) -> Dict[str, Any]:
    """Serialise a platform to a JSON-safe dict."""
    return {
        "name": platform.name,
        "nodes": [
            {"name": spec.name, "w": _encode_weight(spec.w)}
            for spec in platform._nodes.values()  # noqa: SLF001 same package
        ],
        "edges": [
            {"src": spec.src, "dst": spec.dst, "c": _encode_weight(spec.c)}
            for spec in platform.edges()
        ],
    }


def platform_from_dict(data: Dict[str, Any]) -> Platform:
    """Rebuild a platform; raises :class:`PlatformError` on bad input."""
    try:
        g = Platform(data.get("name", "platform"))
        for node in data["nodes"]:
            g.add_node(node["name"], _decode_weight(node["w"]))
        for edge in data["edges"]:
            g.add_edge(edge["src"], edge["dst"], _decode_weight(edge["c"]))
        return g
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, PlatformError):
            raise
        raise PlatformError(f"malformed platform data: {exc}") from exc


def platform_to_json(platform: Platform, indent: int = 2) -> str:
    return json.dumps(platform_to_dict(platform), indent=indent)


def platform_from_json(text: str) -> Platform:
    return platform_from_dict(json.loads(text))


def schedule_to_dict(schedule) -> Dict[str, Any]:
    """Serialise a :class:`~repro.schedule.periodic.PeriodicSchedule`."""
    return {
        "problem": schedule.problem,
        "period": _encode_weight(schedule.period),
        "throughput": _encode_weight(schedule.throughput),
        "source": schedule.source,
        "slices": [
            {
                "start": _encode_weight(sl.start),
                "duration": _encode_weight(sl.duration),
                "transfers": dict(sl.transfers),
            }
            for sl in schedule.slices
        ],
        "compute": dict(schedule.compute),
        "messages": [
            {"src": i, "dst": j, "count": count}
            for (i, j), count in schedule.messages.items()
        ],
        "routes": {
            commodity: [
                {"path": list(path), "units": _encode_weight(units)}
                for path, units in routes
            ]
            for commodity, routes in schedule.routes.items()
        },
    }


def schedule_from_dict(data: Dict[str, Any], platform: Platform):
    """Rebuild a periodic schedule on ``platform`` (validated)."""
    from ..schedule.periodic import CommSlice, PeriodicSchedule

    slices = [
        CommSlice(
            start=Fraction(s["start"]),
            duration=Fraction(s["duration"]),
            transfers=dict(s["transfers"]),
        )
        for s in data["slices"]
    ]
    schedule = PeriodicSchedule(
        platform=platform,
        problem=data["problem"],
        period=Fraction(data["period"]),
        throughput=Fraction(data["throughput"]),
        slices=slices,
        compute={k: int(v) for k, v in data.get("compute", {}).items()},
        messages={
            (m["src"], m["dst"]): int(m["count"])
            for m in data.get("messages", [])
        },
        routes={
            commodity: [
                (tuple(r["path"]), Fraction(r["units"])) for r in routes
            ]
            for commodity, routes in data.get("routes", {}).items()
        },
        source=data.get("source"),
    )
    schedule.validate()
    return schedule


# ----------------------------------------------------------------------
# steady-state solutions (the service API's response payload)
# ----------------------------------------------------------------------
def solution_to_dict(solution) -> Dict[str, Any]:
    """Serialise a :class:`~repro.core.activities.SteadyStateSolution`.

    The wire format follows the platform conventions above: exact
    rationals as ``"p/q"`` strings, activities as explicit records rather
    than tuple keys so the JSON stays self-describing.
    """
    return {
        "problem": solution.problem,
        "throughput": _encode_weight(solution.throughput),
        "alpha": {
            node: _encode_weight(a) for node, a in solution.alpha.items()
        },
        "s": [
            {"src": i, "dst": j, "value": _encode_weight(v)}
            for (i, j), v in solution.s.items()
        ],
        "send": [
            {"src": i, "dst": j, "commodity": k, "rate": _encode_weight(r)}
            for (i, j, k), r in solution.send.items()
        ],
        "source": solution.source,
        "targets": list(solution.targets),
        "edge_occupation_mode": solution.edge_occupation_mode,
    }


def solution_from_dict(data: Dict[str, Any], platform: Platform):
    """Rebuild a steady-state solution on ``platform``."""
    from ..core.activities import SteadyStateSolution

    return SteadyStateSolution(
        platform=platform,
        problem=data["problem"],
        throughput=_decode_weight(data["throughput"]),
        alpha={
            n: _decode_weight(a) for n, a in data.get("alpha", {}).items()
        },
        s={
            (rec["src"], rec["dst"]): _decode_weight(rec["value"])
            for rec in data.get("s", [])
        },
        send={
            (rec["src"], rec["dst"], rec["commodity"]):
                _decode_weight(rec["rate"])
            for rec in data.get("send", [])
        },
        source=data.get("source"),
        targets=tuple(data.get("targets", ())),
        edge_occupation_mode=data.get("edge_occupation_mode", "sum"),
    )
