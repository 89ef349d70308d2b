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

A request's fingerprint (:func:`request_fingerprint`) is the hex SHA-256
of a canonical JSON encoding of its platform signature and its spec's
canonical form.  A platform signature is the underlying hashable tuple;
a topology signature is a 16-byte digest of its tuple, because caches
and hot models keep one per entry and only ever compare them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

from ..platform.graph import Platform
from ..platform.serialization import encode_weight as _encode_weight
from ..problems.specs import ProblemSpec

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


def topology_signature(platform: Platform) -> bytes:
    """Signature with weights erased — equal iff the LP *structure* matches.

    A node keeps only its can-compute flag (a forwarder has no ``alpha``
    variable, so compute-ability is structural, not a coefficient).  The
    canonical tuple is kept as its 16-byte BLAKE2b digest: callers only
    hash and compare it, and a collision could only free cache entries
    or hot models of another topology, never change an answer.
    """
    nodes = tuple(
        (name, "compute" if platform.node(name).can_compute else "forward")
        for name in sorted(platform.nodes())
    )
    edges = tuple(
        (spec.src, spec.dst)
        for spec in sorted(platform.edges(), key=lambda e: (e.src, e.dst))
    )
    blob = json.dumps(("topology", nodes, edges), separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).digest()


def request_fingerprint(spec: ProblemSpec) -> str:
    """Hex SHA-256 over the canonical JSON of the spec's platform
    signature and the spec's own canonical form
    (:meth:`~repro.problems.specs.ProblemSpec.canonical_wire`)."""
    payload = (platform_signature(spec.platform), spec.canonical_wire())
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
