"""Warm re-solve of steady-state LPs when only platform weights change.

The steady-state LPs have a *structure* (variables, constraint membership)
that is a pure function of the platform topology and the problem spec's
distinguished nodes, and *coefficients* (``1/w_i``, ``1/c_ij``) that are
pure functions of the weights.  When a monitoring layer re-weights a
platform (CPU load changed, a link slowed down) the LP therefore does not
need to be re-assembled: the model is kept hot, the moved coefficients
are patched through the :class:`~repro.lp.model.LinearProgram` rebuild
hook, and the model is re-solved exactly.  A hot model is earned by a
re-weighting: a build is solved and its model dropped unless its
structure was last built under other weights (another request
fingerprint), so one-off topologies, and identical re-solves the
solution cache lost, hold no model at all.

Since the basis-reusing refactor the warm path is first-class all the way
down: each hot model carries a :class:`~repro.lp.simplex.SimplexInstance`
that retains the previous solve's optimal basis, so a warm re-solve
restarts pivoting from that basis (skipping phase 1 entirely when it is
still feasible, repairing primal/dual feasibility otherwise) instead of
re-running the two-phase method — with a guaranteed fallback to the cold
pivot sequence.  :class:`WarmSolveStats` counts the restarts, repairs,
fallbacks and pivots; the broker surfaces them in ``/metrics``.

Which problems support this — and *how* — is declared in the solver
registry (:mod:`repro.problems.registry`): an entry that carries a
:class:`~repro.problems.registry.WarmModel`, spelling out its
structure-vs-coefficient split (build / patch / package), has the
``warm_resolve`` capability.  Master-slave (SSMS, and under its
multiport and send-or-receive models), scatter and gather (SSPS, the
latter on the reversed platform) and all-to-all carry one;
:class:`IncrementalSolver` is the generic executor and contains no
per-problem code.

A topology change (node/edge added or removed, or a node's compute
ability toggled) changes the structure itself; the solver detects it via
:func:`~repro.service.fingerprint.topology_signature` and transparently
falls back to a full rebuild (counted in
:attr:`WarmSolveStats.full_rebuilds`).

Exactness is preserved: a warm re-solve goes through the same exact
rational simplex arithmetic as a cold solve of the mutated platform and
produces the identical :class:`~fractions.Fraction` throughput — asserted
by the test suite and the warm-path benchmark.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..lp.model import LinearProgram
from ..lp.simplex import SimplexInstance
from ..platform.graph import NodeId, Platform
from ..problems import ProblemSpec, SpecError, resolve
from .cache import topology_digest
from .fingerprint import request_fingerprint, topology_signature
from .tracing import span


@dataclass
class WarmSolveStats:
    """How the warm path behaved, down to the pivot level.

    ``warm_solves`` / ``full_rebuilds`` split re-solves by whether a hot
    model was reused; ``single_use_builds`` counts the builds whose model
    was dropped after the solve because their structure had not been
    built before under other weights (a first sighting, or the same
    request again); ``evictions`` counts hot models dropped by the
    ``max_models`` cap (visibility into cache pressure — an evicted model
    costs a full rebuild *and* a cold pivot sequence on its next use).
    ``basis_restarts`` / ``phase1_skips`` / ``basis_fallbacks`` describe
    how the retained simplex basis fared on warm solves, and
    ``warm_pivots`` / ``cold_pivots`` accumulate the exact-simplex pivot
    counts of each path (the benchmark's headline comparison).
    ``form_builds`` counts full lowerings of a model to its integer
    standard form and ``rows_relowered`` the rows a warm re-solve
    rewrote in place instead: on weight-only traffic the first stays at
    one per hot model and the second counts the rows the patches moved.

    The revised-simplex factorisation adds its own telemetry:
    ``refactorisations`` (fresh sparse LUs — on the warm path this is
    the count to compare against ``warm_pivots``: eta updates make it a
    small fraction), ``ftran_ops`` / ``btran_ops`` (forward/backward
    solves, the engine's unit of linear-algebra work),
    ``lu_fill_nnz`` / ``lu_basis_nnz`` (accumulated L+U fill vs basis
    nonzeros — their ratio is the Markowitz fill ratio the metrics
    endpoint derives), and two high-water marks merged by ``max``, not
    sum, across solves and shards: ``eta_len_max`` and ``int_bits_max``
    (the widest integer — LU pivot or common denominator — the
    fraction-free kernels carried; it stays small while the bases stay
    near-triangular, and an operator can watch that remain true).
    """

    warm_solves: int = 0
    full_rebuilds: int = 0
    single_use_builds: int = 0
    evictions: int = 0
    basis_restarts: int = 0
    phase1_skips: int = 0
    basis_fallbacks: int = 0
    warm_pivots: int = 0
    cold_pivots: int = 0
    form_builds: int = 0
    rows_relowered: int = 0
    refactorisations: int = 0
    eta_len_max: int = 0
    ftran_ops: int = 0
    btran_ops: int = 0
    lu_fill_nnz: int = 0
    lu_basis_nnz: int = 0
    int_bits_max: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class IncrementalSolver:
    """Keeps assembled LP models — and their simplex bases — hot across
    weight-only re-solves.

    One instance may serve many platforms and problem kinds: models are
    keyed by ``(topology signature, warm-model spec key)``.  Every build
    records its request fingerprint under its key's hash (at most
    ``16 * max_models`` records, least recently built out first).  A
    build keeps its model only when its structure was last built under
    another fingerprint — a re-weighting, which is what a hot model is
    for — in a table of at most ``max_models``, least recently used out
    first.  A first build, or an identical re-solve
    (the :class:`~repro.service.cache.SolutionCache`'s job), is solved
    and its model dropped.  A hash collision can only keep a model
    early or drop one, never serve a wrong answer.

    A solve checks its model out of the table, patches and solves it
    privately, and checks it back in (a solve that raises drops it).  A
    concurrent solve of the same structure finds no model and builds its
    own; both answers are exact and the last check-in wins.  Every hot
    model is solved by the exact simplex, as every served request is.

    >>> from repro.platform import generators
    >>> from repro.problems import MasterSlaveSpec
    >>> inc = IncrementalSolver()
    >>> spec = MasterSlaveSpec(platform=generators.star(3), master="M")
    >>> once = inc.solve_spec(spec)                # solved, model dropped
    >>> again = inc.solve_spec(spec)               # the same request: dropped
    >>> g2 = spec.platform.scale(compute=2)        # weight-only mutation
    >>> kept = inc.solve_spec(MasterSlaveSpec(platform=g2, master="M"))
    >>> g3 = spec.platform.scale(comm=3)           # and another: warm
    >>> warm = inc.solve_spec(MasterSlaveSpec(platform=g3, master="M"))
    >>> inc.stats.single_use_builds, inc.stats.warm_solves
    (2, 1)
    """

    def __init__(self, max_models: int = 64) -> None:
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        self.max_models = max_models
        # registry lock: guards the two dicts and the stats, never held
        # across an LP solve
        self._lock = threading.Lock()
        self.stats = WarmSolveStats()  # guarded-by: _lock
        # key -> (lp, handles, root node of the spec that built it,
        #         the SimplexInstance that solves it); a model checked
        #         out by a solve is absent
        self._models: Dict[  # guarded-by: _lock
            Tuple,
            Tuple[LinearProgram, Dict[str, object], Optional[NodeId],
                  SimplexInstance],
        ] = {}
        # hash(key) -> the request fingerprint of that structure's last
        # build (the caller's string, often a cache key's), least
        # recently built first
        self._built: Dict[int, str] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    @staticmethod
    def key(spec: ProblemSpec) -> Tuple:
        """The hot-model key of a warm-capable spec: its platform's
        ``topology_signature`` first, then the model's own spec key."""
        entry = resolve(spec.problem)
        if entry.warm_model is None:
            raise SpecError(
                f"{spec.problem} declares no warm_resolve capability"
            )
        return (
            topology_signature(spec.platform),
            *tuple(entry.warm_model.spec_key(spec)),
        )

    def solve_spec(self, spec: ProblemSpec) -> Any:
        """Solve a warm-capable spec, reusing a hot model when possible."""
        return self.solve_spec_ex(spec)[0]

    def solve_spec_ex(self, spec: ProblemSpec, key: Optional[Tuple] = None,
                      fingerprint: Optional[str] = None) -> Tuple[Any, bool]:
        """Like :meth:`solve_spec`, also reporting whether the warm path
        was taken (decided at check-out, so it is exact — unlike an
        outside :meth:`has_model_for` check, which can race with a
        concurrent solve or an eviction).  ``key`` is :meth:`key` of
        ``spec`` and ``fingerprint`` its
        :func:`~repro.service.fingerprint.request_fingerprint`, when the
        caller took them already; a build takes the fingerprint once."""
        model = resolve(spec.problem).warm_model
        key = key or self.key(spec)
        with self._lock:
            cached = self._models.pop(key, None)  # checked out
        if cached is None:
            with span("warm.build", problem=spec.problem):
                lp, handles = model.build(spec)
            instance = SimplexInstance(lp)
            sighting = hash(key)
            fingerprint = fingerprint or request_fingerprint(spec)
            with self._lock:
                self.stats.full_rebuilds += 1
                last = self._built.pop(sighting, fingerprint)
                # kept when re-weighted since the structure's last build
                keep = last != fingerprint
                self._built[sighting] = fingerprint
                if len(self._built) > 16 * self.max_models:
                    del self._built[next(iter(self._built))]
        else:
            lp, handles, _root, instance = cached
            keep = True
            with span("warm.patch", problem=spec.problem):
                model.patch(lp, handles, spec)
            with self._lock:
                self.stats.warm_solves += 1
        sol = self._solve_model(instance, warm=cached is not None)
        out = model.package(spec, sol, handles)
        with self._lock:
            if not keep:
                self.stats.single_use_builds += 1
            else:
                # checked in at the young end; a concurrent twin's model
                # of the same key gives way: the last check-in wins
                self._models.pop(key, None)
                while len(self._models) >= self.max_models:
                    # drop the least recently used model
                    self._models.pop(next(iter(self._models)))
                    self.stats.evictions += 1
                self._models[key] = (lp, handles, spec.source_node(),
                                     instance)
        return out, cached is not None

    def _solve_model(self, instance: SimplexInstance, warm: bool) -> Any:
        """Solve a (possibly just patched) hot model on the
        basis-restart path of its :class:`SimplexInstance`."""
        lowered = instance.form_builds, instance.rows_relowered
        with span("simplex.solve", warm=warm) as sp:
            sol = instance.solve(warm=warm)
            if sp is not None:
                sp.annotate(pivots=sol.pivots,
                            restarted=instance.last_restarted,
                            phase1_skipped=instance.last_phase1_skipped)
                # re-publish the solver's raw phase records as child
                # spans — :mod:`repro.lp.simplex` stays tracing-free
                for ph in instance.last_phases:
                    child = sp.trace.new_span(
                        "simplex." + ph["phase"], sp.span_id,
                        start=sp.start + ph["start_seconds"])
                    child.duration_seconds = ph["duration_seconds"]
                    child.annotations["pivots"] = ph["pivots"]
        with self._lock:
            if warm:
                self.stats.warm_pivots += sol.pivots
                if instance.last_restarted:
                    self.stats.basis_restarts += 1
                    if instance.last_phase1_skipped:
                        self.stats.phase1_skips += 1
                else:
                    self.stats.basis_fallbacks += 1
            else:
                self.stats.cold_pivots += sol.pivots
            self.stats.form_builds += instance.form_builds - lowered[0]
            self.stats.rows_relowered += instance.rows_relowered - lowered[1]
            fs = instance.last_factor_stats
            self.stats.refactorisations += fs["refactorisations"]
            self.stats.ftran_ops += fs["ftran_ops"]
            self.stats.btran_ops += fs["btran_ops"]
            self.stats.lu_fill_nnz += fs["lu_nnz"]
            self.stats.lu_basis_nnz += fs["lu_basis_nnz"]
            self.stats.eta_len_max = max(self.stats.eta_len_max,
                                         fs["eta_len_max"])
            self.stats.int_bits_max = max(self.stats.int_bits_max,
                                          fs["int_bits_max"])
        return sol

    # ------------------------------------------------------------------
    def has_model_for(self, spec: ProblemSpec) -> bool:
        """True when a warm solve of ``spec`` would reuse a built model."""
        key = self.key(spec)
        with self._lock:
            return key in self._models

    def forget(self, topology: Union[bytes, Platform],
               master: Optional[NodeId] = None) -> int:
        """Drop hot models for this topology (all roots unless given);
        ``topology`` is its ``topology_signature``, or a platform read
        for that digest only."""
        topo = topology_digest(topology)
        with self._lock:
            doomed = [
                key
                for key, (_lp, _handles, root, _inst) in self._models.items()
                if key[0] == topo and (master is None or root == master)
            ]
            for key in doomed:
                del self._models[key]
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)
