"""The first-class warm path, end to end: for every problem declaring
``warm_resolve``, a basis-restart warm re-solve after a randomized
weight-only mutation returns the identical ``Fraction`` throughput as a
cold solve — over random star, tree and general platforms — plus the
eviction/restart/pivot counters the service surfaces in ``/metrics``."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from repro._rational import INF, is_infinite
from repro.core.master_slave import build_ssms_lp
from repro.lp import solve_exact
from repro.platform import generators
from repro.platform.graph import Platform
from repro.problems import (
    AllToAllSpec,
    GatherSpec,
    MasterSlaveSpec,
    MultiportSpec,
    ScatterSpec,
    SendOrReceiveSpec,
    registered_problems,
    resolve,
)
from repro.service import Broker, IncrementalSolver, SolveRequest
from repro.service.broker import execute_request, solution_throughput
from repro.service.wire import solution_to_wire

WARM_PROBLEMS = (
    "master-slave", "scatter", "gather", "all-to-all", "multiport",
    "send-or-receive",
)


def _ms(platform: Platform, master) -> MasterSlaveSpec:
    """The master-slave spec an :class:`IncrementalSolver` is handed."""
    return MasterSlaveSpec(platform=platform, master=master)


def _with_weights(platform: Platform, node_w, edge_c) -> Platform:
    """Same topology, every finite ``w`` and every ``c`` mapped."""
    out = Platform(platform.name)
    for spec in platform._nodes.values():  # noqa: SLF001 — test helper
        out.add_node(spec.name,
                     INF if is_infinite(spec.w) else node_w(spec.w))
    for spec in platform.edges():
        out.add_edge(spec.src, spec.dst, edge_c(spec.c))
    return out


def _reweight(platform: Platform, rng: random.Random) -> Platform:
    """Every weight independently re-drawn (the monitoring regime:
    per-node load changes, per-link bandwidth changes)."""
    return _with_weights(
        platform,
        lambda w: Fraction(rng.randint(1, 12), rng.randint(1, 4)),
        lambda c: Fraction(rng.randint(1, 10), rng.randint(1, 4)))


def _drift(platform: Platform, rng: random.Random) -> Platform:
    """Every weight moved by its own factor in [3/4, 5/4]: the regime
    where the retained basis stays optimal or nearly so."""
    def moved(weight):
        return weight * Fraction(rng.randint(12, 20), 16)
    return _with_weights(platform, moved, moved)


def _prime(inc: IncrementalSolver, spec) -> None:
    """Earn ``spec``'s structure a hot model: solve it, then a
    re-weighting of it (a first build keeps no model, nor does the same
    request built again)."""
    inc.solve_spec(spec)
    inc.solve_spec(_reweighted(spec))


def _reweighted(spec, factor=2):
    """``spec`` on its platform with every weight times ``factor``."""
    return dataclasses.replace(
        spec, platform=spec.platform.scale(compute=factor, comm=factor))


def _spec_for(problem: str, platform: Platform, root, others):
    others = tuple(others)
    return {
        "master-slave": lambda: MasterSlaveSpec(platform=platform, master=root),
        "scatter": lambda: ScatterSpec(platform=platform, source=root,
                                       targets=others),
        "gather": lambda: GatherSpec(platform=platform, sink=root,
                                     sources=others),
        "all-to-all": lambda: AllToAllSpec(platform=platform),
        "multiport": lambda: MultiportSpec(platform=platform, master=root,
                                           ports=2),
        "send-or-receive": lambda: SendOrReceiveSpec(platform=platform,
                                                     master=root),
    }[problem]()


def _platform_pool():
    return [
        ("star", generators.star(3, bidirectional=True), "M",
         ("W1", "W2", "W3")),
        ("tree", generators.binary_tree(2, seed=7), "T0", ("T1", "T2")),
        ("general", generators.random_connected(5, seed=11), "R0",
         ("R1", "R2")),
    ]


class TestWarmEqualsColdProperty:
    """The ISSUE's property test: randomized weight mutations, identical
    Fraction throughput from the basis-restart warm path, for every
    warm-capable problem kind."""

    @pytest.mark.parametrize("problem", WARM_PROBLEMS)
    def test_randomized_mutations_are_exact(self, problem):
        rng = random.Random(hash(problem) & 0xFFFF)
        for name, base, root, others in _platform_pool():
            inc = IncrementalSolver()
            base_spec = _spec_for(problem, base, root, others)
            _prime(inc, base_spec)  # keeps model + basis
            for trial in range(3):
                mutated = _reweight(base, rng)
                spec = dataclasses.replace(base_spec, platform=mutated)
                warm_sol, warm = inc.solve_spec_ex(spec)
                assert warm, f"{problem}/{name}: warm path not taken"
                cold_sol = execute_request(SolveRequest.from_spec(spec))
                assert (solution_throughput(warm_sol)
                        == solution_throughput(cold_sol)), (
                    f"{problem}/{name} trial {trial}: warm != cold"
                )
            stats = inc.stats
            assert stats.warm_solves == 3
            assert stats.basis_restarts + stats.basis_fallbacks == 3

    def test_a2a_warm_hit_keeps_the_requesters_participant_order(self):
        # the hot-model key sorts participants, so two orderings share a
        # model — but the packaged solution must reflect THIS request's
        # ordering, identically to a cold solve of the same spec
        g = generators.star(2, bidirectional=True)
        inc = IncrementalSolver()
        _prime(inc, AllToAllSpec(platform=g, participants=("M", "W1", "W2")))
        spec = AllToAllSpec(platform=g, participants=("W2", "W1", "M"))
        warm_sol, warm = inc.solve_spec_ex(spec)
        assert warm
        cold_sol = execute_request(SolveRequest.from_spec(spec))
        assert warm_sol.targets == cold_sol.targets == ("W2", "W1", "M")
        assert warm_sol.throughput == cold_sol.throughput

    @pytest.mark.parametrize("problem", ["all-to-all", "scatter", "gather"])
    def test_warm_reply_does_not_depend_on_who_built_the_model(self, problem):
        # a hot model built for one ordering of the commodities answers a
        # re-weighted request that lists them in another; its reply must
        # be the cold solve's, byte for byte, ``send`` order included.
        # A uniform re-scaling keeps every optimal vertex optimal, so the
        # warm and the cold solve agree on the flows and only their order
        # could differ
        base = generators.random_connected(5, seed=3)

        def spec(platform, order):
            return {
                "all-to-all": lambda: AllToAllSpec(platform=platform,
                                                   participants=order),
                "scatter": lambda: ScatterSpec(platform=platform,
                                               source="R4", targets=order),
                "gather": lambda: GatherSpec(platform=platform, sink="R4",
                                             sources=order),
            }[problem]()

        inc = IncrementalSolver()
        _prime(inc, spec(base, ("R0", "R1", "R2", "R3")))
        scaled = _with_weights(base, lambda w: w * 2, lambda c: c * 3)
        asked = spec(scaled, ("R0", "R3", "R2", "R1"))
        warm_sol, warm = inc.solve_spec_ex(asked)
        assert warm
        cold_sol = execute_request(SolveRequest(asked))
        assert (json.dumps(solution_to_wire(warm_sol))
                == json.dumps(solution_to_wire(cold_sol)))

    def test_all_warm_capable_problems_are_covered(self):
        declared = {p for p in registered_problems()
                    if resolve(p).capabilities.warm_resolve}
        assert declared == set(WARM_PROBLEMS)  # 6 of 10
        for problem in declared:
            assert resolve(problem).warm_model is not None


class TestWarmStatsAndEvictions:
    def test_model_cache_evictions_are_counted(self):
        inc = IncrementalSolver(max_models=1)
        _prime(inc, _ms(generators.star(2), "M"))
        assert inc.stats.evictions == 0
        _prime(inc, _ms(generators.star(3), "M"))  # a distinct topology
        assert inc.stats.evictions == 1
        assert len(inc) == 1

    def test_basis_restart_counters_move_on_warm_solves(self):
        g = generators.paper_figure1()
        inc = IncrementalSolver()
        _prime(inc, _ms(g, "P1"))
        assert inc.stats.cold_pivots > 0
        inc.solve_spec(_ms(g.scale(compute=Fraction(5, 4)), "P1"))
        stats = inc.stats
        assert stats.warm_solves == 1
        assert stats.basis_restarts == 1
        assert stats.basis_fallbacks == 0
        # a basis restart re-solves with (far) fewer pivots than cold
        # (cold_pivots counts both priming solves of the same structure)
        assert 2 * stats.warm_pivots < stats.cold_pivots

    @pytest.mark.parametrize("platform", [
        generators.paper_figure1(),
        generators.binary_tree(3, seed=1),
        generators.star(8, worker_w=list(range(1, 9)), link_c=[1] * 8),
    ], ids=["paper_figure1", "binary_tree3", "star8"])
    def test_weight_drift_refactorises_far_less_than_cold_pivots(
            self, platform):
        """Six weight-drift re-solves: each takes the warm path and
        equals a cold solve of the drifted platform, and the warm path's
        LU bill — one refactorisation per restart plus the odd eta
        overflow — stays far under the pivots the cold solves pay."""
        rounds = 6
        rng = random.Random(20040427)
        master = sorted(platform.nodes())[0]
        inc = IncrementalSolver()
        _prime(inc, _ms(platform, master))
        primed = inc.stats.refactorisations
        cold_pivots = 0
        for _ in range(rounds):
            drifted = _drift(platform, rng)
            warm = inc.solve_spec(_ms(drifted, master))
            cold = solve_exact(build_ssms_lp(drifted, master)[0])
            assert warm.throughput == cold.objective
            cold_pivots += cold.pivots
        stats = inc.stats
        assert stats.warm_solves == rounds and stats.basis_fallbacks == 0
        warm_refactors = stats.refactorisations - primed
        assert warm_refactors <= 2 * rounds
        assert 4 * warm_refactors <= cold_pivots

    def test_counters_surface_in_broker_snapshot(self):
        g = generators.paper_figure1()
        with Broker() as broker:
            # a structure's first build keeps no model: prime it twice
            for prime in (g, g.scale(compute=3)):
                broker.solve(SolveRequest(MasterSlaveSpec(
                    platform=prime, master="P1")))
            broker.solve(SolveRequest(MasterSlaveSpec(
                platform=g.scale(compute=2), master="P1")))
            snap = broker.snapshot()
        inc = snap["incremental"]
        for key in ("hot_models", "warm_solves", "full_rebuilds",
                    "evictions", "basis_restarts", "phase1_skips",
                    "basis_fallbacks", "warm_pivots", "cold_pivots"):
            assert key in inc, f"missing {key} in /metrics incremental"
        assert inc["warm_solves"] == 1 and inc["basis_restarts"] == 1


class TestEarnedHotModels:
    """A hot model pays off only when its structure comes back under
    other weights: a first build, and an identical re-solve, are solved
    and dropped, and only their hashes are recorded."""

    def test_structures_seen_once_hold_no_model(self):
        inc = IncrementalSolver(max_models=4)
        specs = [_spec_for(problem, generators.star(n, bidirectional=True),
                           "M", ("W1", "W2"))
                 for n in range(2, 22)
                 for problem in ("master-slave", "scatter", "gather",
                                 "send-or-receive")]
        assert len(specs) == 80
        for spec in specs:
            _, warm = inc.solve_spec_ex(spec)
            assert not warm
        assert len(inc) == 0
        stats = inc.stats
        assert stats.single_use_builds == stats.full_rebuilds == 80
        assert stats.evictions == 0
        for name, value in vars(inc).items():
            if isinstance(value, (dict, list)):
                assert len(value) <= 16 * inc.max_models, name
        # the oldest sightings aged out; the newest are still on record,
        # and a re-weighting of one earns it a model
        inc.solve_spec(_reweighted(specs[0]))
        assert len(inc) == 0
        inc.solve_spec(_reweighted(specs[-1]))
        assert len(inc) == 1

    def test_an_identical_re_solve_keeps_no_model(self):
        # the same request built again is what the solution cache is
        # for: solved, and its model dropped, however often it comes
        inc = IncrementalSolver()
        spec = _ms(generators.paper_figure1(), "P1")
        for _ in range(3):
            _, warm = inc.solve_spec_ex(spec)
            assert not warm
        assert len(inc) == 0 and not inc.has_model_for(spec)
        stats = inc.stats
        assert stats.single_use_builds == stats.full_rebuilds == 3

    def test_a_re_weighting_keeps_one(self):
        inc = IncrementalSolver()
        spec = _ms(generators.paper_figure1(), "P1")
        inc.solve_spec(spec)
        inc.solve_spec(spec)
        assert len(inc) == 0
        # the structure comes back under other weights: kept, and the
        # next re-weighting is warm
        inc.solve_spec(_reweighted(spec))
        assert len(inc) == 1 and inc.has_model_for(spec)
        _, warm = inc.solve_spec_ex(_reweighted(spec, 3))
        assert warm
        assert inc.stats.single_use_builds == 2

    def test_a_miniature_churn_keeps_models_for_drift_only(self):
        """Corpus re-reads (the same requests again, as after a cache
        eviction) and drift (fresh weights on a few structures) over one
        solver: only the drifting structures hold models, and nothing is
        evicted."""
        rng = random.Random(55)
        inc = IncrementalSolver(max_models=8)
        corpus = [_ms(generators.star(n, worker_w=list(range(1, n + 1)),
                                      link_c=[1] * n), "M")
                  for n in range(2, 14)]
        drifting = [_ms(generators.binary_tree(depth, seed=seed), "T0")
                    for depth, seed in ((2, 1), (2, 2), (3, 3))]
        for _ in range(60):
            if rng.random() < 0.7:
                spec = rng.choice(corpus)
            else:
                base = rng.choice(drifting)
                spec = dataclasses.replace(
                    base, platform=_drift(base.platform, rng))
            sol, _warm = inc.solve_spec_ex(spec)
            cold = solve_exact(build_ssms_lp(spec.platform, spec.master)[0])
            assert sol.throughput == cold.objective
        assert len(corpus) + len(drifting) > inc.max_models
        assert inc.stats.evictions == 0
        assert set(inc._models) == {IncrementalSolver.key(spec)
                                    for spec in drifting}

    def test_kept_on_the_second_build_warm_on_the_third(self):
        g = generators.paper_figure1()
        inc = IncrementalSolver()
        seen = []
        for factor in (1, 2, 3):
            mutated = g.scale(compute=factor)
            sol, warm = inc.solve_spec_ex(_ms(mutated, "P1"))
            cold = solve_exact(build_ssms_lp(mutated, "P1")[0])
            assert sol.throughput == cold.objective
            seen.append((warm, len(inc), inc.stats.full_rebuilds,
                         inc.stats.single_use_builds))
        assert seen == [(False, 0, 1, 1), (False, 1, 2, 1), (True, 1, 2, 1)]

    def test_concurrent_twins_solve_apart_and_both_are_exact(self):
        g = generators.paper_figure1()
        inc = IncrementalSolver()
        _prime(inc, _ms(g, "P1"))
        platforms = [g.scale(compute=2), g.scale(comm=Fraction(3, 2))]
        start = threading.Barrier(2, timeout=10)
        inside = threading.Barrier(2, timeout=10)
        real_solve = inc._solve_model

        def solve_together(instance, warm):
            inside.wait()  # both twins are mid-solve at once
            return real_solve(instance, warm)

        inc._solve_model = solve_together
        out = [None, None]

        def run(i):
            start.wait()
            try:
                out[i] = inc.solve_spec_ex(_ms(platforms[i], "P1"))
            except Exception as exc:  # noqa: BLE001 — asserted below
                out[i] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for got, platform in zip(out, platforms):
            assert isinstance(got, tuple), got
            cold = solve_exact(build_ssms_lp(platform, "P1")[0])
            assert got[0].throughput == cold.objective
        # one twin took the hot model, the other found none and built
        assert sorted(warm for _, warm in out) == [False, True]
        assert (inc.stats.warm_solves, inc.stats.full_rebuilds) == (1, 3)
        assert len(inc) == 1 and inc.stats.evictions == 0

    def test_many_threads_on_few_structures_keep_the_books(self):
        platforms = [generators.star(3), generators.star(4),
                     generators.paper_figure1()]
        masters = ["M", "M", "P1"]
        inc = IncrementalSolver(max_models=2)
        rounds, threads = 6, 6
        failures = []

        def run(seed):
            rng = random.Random(seed)
            for _ in range(rounds):
                i = rng.randrange(len(platforms))
                mutated = _drift(platforms[i], rng)
                sol = inc.solve_spec(_ms(mutated, masters[i]))
                cold = solve_exact(build_ssms_lp(mutated, masters[i])[0])
                if sol.throughput != cold.objective:
                    failures.append((seed, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(seed,))
                       for seed in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert failures == []
        stats = inc.stats
        # every solve counted once, on exactly one path: no lost update
        assert stats.warm_solves + stats.full_rebuilds == rounds * threads
        # each structure's first build, and only that, was dropped
        assert stats.single_use_builds == len(platforms)
        assert len(inc) <= inc.max_models
