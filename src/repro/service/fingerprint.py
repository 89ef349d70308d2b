"""Canonical, order-independent fingerprints for platforms and requests.

Two requests must share a cache key exactly when they describe the *same
mathematical problem*: the same node/edge weights, the same problem kind,
the same distinguished nodes.  Everything presentational is excluded —
the platform's display name, node/edge *insertion order*, the order of a
target set — so a platform rebuilt from JSON, or assembled edge-by-edge
in a different order, still hits the cache.

Two signature levels are exposed:

* :func:`platform_signature` — nodes + edges *with* weights.  Any weight
  mutation changes it, which is what drives cache invalidation.
* :func:`topology_signature` — nodes + edges with weights *erased* (only
  the can-compute flag of each node survives).  Two platforms with equal
  topology signatures admit the *same LP structure*, differing only in
  coefficients — the precondition for the warm re-solve path of
  :mod:`repro.service.incremental`.

Fingerprints are hex SHA-256 digests of a canonical JSON encoding;
signatures are the underlying hashable tuples (useful as dict keys
without paying for the hash).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence, Tuple

from ..platform.graph import Platform
from ..platform.serialization import encode_weight as _encode_weight

Signature = Tuple  # nested tuples of strings — hashable, comparable


def platform_signature(platform: Platform) -> Signature:
    """Order-independent structural signature including all weights.

    Nodes are sorted by name, edges by (src, dst); the platform's display
    name is deliberately excluded.
    """
    nodes = tuple(
        (name, _encode_weight(platform.node(name).w))
        for name in sorted(platform.nodes())
    )
    edges = tuple(
        (spec.src, spec.dst, _encode_weight(spec.c))
        for spec in sorted(platform.edges(), key=lambda e: (e.src, e.dst))
    )
    return ("platform", nodes, edges)


def topology_signature(platform: Platform) -> Signature:
    """Signature with weights erased — equal iff the LP *structure* matches.

    A node keeps only its can-compute flag (a forwarder has no ``alpha``
    variable, so compute-ability is structural, not a coefficient).
    """
    nodes = tuple(
        (name, "compute" if platform.node(name).can_compute else "forward")
        for name in sorted(platform.nodes())
    )
    edges = tuple(
        (spec.src, spec.dst)
        for spec in sorted(platform.edges(), key=lambda e: (e.src, e.dst))
    )
    return ("topology", nodes, edges)


def spec_signature(
    problem: str,
    source: Optional[str] = None,
    targets: Sequence[str] = (),
    options: Optional[Dict[str, Any]] = None,
) -> Signature:
    """Canonical signature of the problem spec (everything but the platform).

    ``targets`` is treated as a *set* of commodities — scatter / multicast /
    all-to-all semantics do not depend on target order — and is sorted.
    ``options`` (port model, port count, tree limit, ...) are sorted by
    key; values must be JSON-representable scalars.
    """
    opts = tuple(sorted((str(k), str(v)) for k, v in (options or {}).items()))
    return (
        "spec",
        str(problem),
        "" if source is None else str(source),
        tuple(sorted(str(t) for t in targets)),
        opts,
    )


def request_fingerprint(
    platform: Platform,
    problem: str,
    source: Optional[str] = None,
    targets: Sequence[str] = (),
    options: Optional[Dict[str, Any]] = None,
) -> str:
    """Hex SHA-256 over the canonical JSON of (platform, spec) signatures."""
    payload = (
        platform_signature(platform),
        spec_signature(problem, source=source, targets=targets, options=options),
    )
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
