"""Service-layer tests: fingerprints, cache, broker, warm re-solve, API."""

from __future__ import annotations

import bisect
import json
import threading
import urllib.error
import urllib.request
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import INF
from repro.core.dag import TaskGraph
from repro.core.master_slave import solve_master_slave
from repro.platform import generators
from repro.platform.graph import Platform
from repro.platform.serialization import platform_to_dict
from repro.problems import (
    AllToAllSpec,
    BroadcastSpec,
    GatherSpec,
    MasterSlaveSpec,
    MulticastSpec,
    MultiportSpec,
    ScatterSpec,
    SendOrReceiveSpec,
    registered_problems,
    resolve,
    solve,
    spec_from_wire,
)
from repro.problems.specs import DagSpec
from repro.service.api import (
    AsyncServiceServer,
    handle_request,
    request_to_dict,
)
from repro.service.cache import SolutionCache
from repro.service.fingerprint import (
    platform_signature,
    request_fingerprint,
    topology_signature,
)
from repro.service.incremental import IncrementalSolver
from repro.service.sharding import ShardedBroker
from repro.service.broker import Broker, BrokerError, SolveRequest
from repro.service.metrics import LATENCY_BUCKETS, MetricsRegistry
import repro.service.broker as broker_mod


def _ms(platform: Platform, master) -> MasterSlaveSpec:
    """The master-slave spec an :class:`IncrementalSolver` is handed."""
    return MasterSlaveSpec(platform=platform, master=master)


def _two_node(name="p", w_x=1, w_y=2, c=1) -> Platform:
    g = Platform(name)
    g.add_node("X", w_x)
    g.add_node("Y", w_y)
    g.add_edge("X", "Y", c)
    return g


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_insertion_order_and_name_independent(self):
        a = Platform("first")
        a.add_node("P1", 1)
        a.add_node("P2", 2)
        a.add_edge("P1", "P2", 3)
        a.add_edge("P2", "P1", 4)
        b = Platform("second")
        b.add_node("P2", 2)
        b.add_node("P1", 1)
        b.add_edge("P2", "P1", 4)
        b.add_edge("P1", "P2", 3)
        assert platform_signature(a) == platform_signature(b)
        assert (request_fingerprint(MasterSlaveSpec(platform=a, master="P1"))
                == request_fingerprint(MasterSlaveSpec(platform=b,
                                                       master="P1")))

    def test_weight_change_changes_fingerprint(self):
        a = _two_node(w_y=2)
        b = _two_node(w_y=3)
        c = _two_node(c="1/2")
        fa, fb, fc = (request_fingerprint(MasterSlaveSpec(platform=g,
                                                          master="X"))
                      for g in (a, b, c))
        assert fa != fb and fa != fc

    def test_request_snapshots_its_platform(self):
        # Platform.copy() shares the frozen specs but no container, so a
        # request still describes the platform as it was when it was made
        from repro.service.api import request_from_dict, request_to_dict

        g = generators.star(3)
        spec = resolve("master-slave").example(g, "M", ("W1", "W2", "W3"))
        for request in (SolveRequest.from_spec(spec),
                        SolveRequest(MasterSlaveSpec(platform=g, master="M"))):
            assert request.platform is not g
            assert request.spec.platform is request.platform
            fingerprint = request.fingerprint()
            snapshot = platform_to_dict(request.platform)
            g.add_node(f"X{g.num_nodes}", 1)
            g.add_edge("M", g.nodes()[-1], 1)
            assert platform_to_dict(request.platform) == snapshot
            # recomputed from scratch (no memo), the hash has not moved,
            # and neither has what a shard would decode
            assert SolveRequest.from_spec(
                request.spec).fingerprint() == fingerprint
            decoded = request_from_dict(request_to_dict(request))
            assert platform_to_dict(decoded.platform) == snapshot
            assert decoded.fingerprint() == fingerprint

    def test_targets_are_a_set(self):
        g = generators.paper_figure2_multicast()
        assert (request_fingerprint(ScatterSpec(platform=g, source="P0",
                                                targets=("P5", "P6")))
                == request_fingerprint(ScatterSpec(platform=g, source="P0",
                                                   targets=("P6", "P5"))))

    def test_spec_fields_matter(self):
        g = generators.star(3)
        fps = {
            request_fingerprint(MasterSlaveSpec(platform=g, master="M")),
            request_fingerprint(BroadcastSpec(platform=g, source="M")),
            request_fingerprint(MasterSlaveSpec(platform=g, master="W1")),
        }
        assert len(fps) == 3

    def test_topology_signature_ignores_weights(self):
        a = _two_node(w_y=2, c=1)
        b = _two_node(w_y=7, c="1/3")
        assert topology_signature(a) == topology_signature(b)
        assert platform_signature(a) != platform_signature(b)

    def test_topology_signature_sees_compute_ability(self):
        a = _two_node()
        b = Platform("p")
        b.add_node("X", 1)
        b.add_node("Y", INF)  # forwarder: different LP structure
        b.add_edge("X", "Y", 1)
        assert topology_signature(a) != topology_signature(b)

    def test_defaulted_options_share_the_fingerprint(self):
        # relying on a default and spelling it out must hit the same entry
        g = generators.paper_figure2_multicast()
        implicit = SolveRequest(ScatterSpec(
            platform=g, source="P0", targets=("P5",)))
        explicit = SolveRequest(ScatterSpec(
            platform=g, source="P0", targets=("P5",), port_model="one-port",
            ports=1))
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_bare_string_targets_rejected(self, fig1):
        # tuple("P5") would silently become ('P', '5')
        with pytest.raises(BrokerError, match="bare"):
            SolveRequest(ScatterSpec(platform=fig1, source="P1", targets="P5"))
        # same guard on the wire path
        with Broker() as broker:
            resp = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "scatter", "source": "P1",
                         "targets": "P5"},
                "platform": platform_to_dict(fig1)}})
            assert not resp["ok"] and "bare" in resp["error"]

    def test_dag_folded_into_fingerprint(self):
        g = generators.star(2)
        r1 = SolveRequest(DagSpec(
            platform=g, master="M", dag=TaskGraph.chain([1, 2], [1])))
        r2 = SolveRequest(DagSpec(
            platform=g, master="M", dag=TaskGraph.chain([1, 3], [1])))
        assert r1.fingerprint() != r2.fingerprint()


#: valid values of every option field a spec has
_OPTION_VALUES = {"ports": (1, 2, 3), "tree_limit": (5, 100_000),
                  "port_model": ("one-port", "send-or-receive", "multiport")}
_weights_pos = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


class TestFingerprintProperty:
    """A fingerprint is the problem posed: presentation never moves it,
    and any one field of the problem always does."""

    @staticmethod
    def _fingerprint(problem, weights, edges, fields):
        platform = Platform("p")
        for node, w in weights:
            platform.add_node(node, w)
        for (src, dst), c in edges:
            platform.add_edge(src, dst, c)
        spec = spec_from_wire(platform, {"problem": problem, **fields})
        return SolveRequest(spec).fingerprint()

    @pytest.mark.parametrize("problem", sorted(registered_problems()))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_presentation_keeps_and_any_field_moves(self, problem, data):
        draw = data.draw
        spec_type = resolve(problem).spec_type
        nodes = [f"N{k}" for k in range(draw(st.integers(3, 5)))]
        weights = {node: draw(_weights_pos) for node in nodes}
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        edges = draw(st.dictionaries(st.sampled_from(pairs), _weights_pos,
                                     min_size=1, max_size=6))
        fields = {}
        source_field = spec_type._SOURCE_FIELD
        targets_field = spec_type._TARGETS_FIELD
        if source_field:
            fields[source_field] = draw(st.sampled_from(nodes))
        if targets_field:
            others = [n for n in nodes if n != fields.get(source_field)]
            fields[targets_field] = draw(st.lists(
                st.sampled_from(others), unique=True,
                min_size=2 if source_field is None else 1))
        defaults = {f.name: f.default for f in spec_type._spec_fields()}
        options = sorted(set(defaults) & set(_OPTION_VALUES))
        for name in options:
            fields[name] = draw(st.sampled_from(_OPTION_VALUES[name]))
        if "dag" in defaults:
            types = {f"T{i}": str(draw(_weights_pos))
                     for i in range(draw(st.integers(2, 4)))}
            fields["dag"] = {"types": types, "files": [
                {"producer": a, "consumer": b, "size": str(draw(_weights_pos))}
                for a in types for b in types
                if a < b and draw(st.booleans())]}
        reference = self._fingerprint(problem, list(weights.items()),
                                      list(edges.items()), fields)

        # the same problem, presented differently; a card count poses
        # another problem only under multiport
        idle = ({"ports"} if fields.get("port_model", "multiport")
                != "multiport" else set())
        same = dict(fields)
        if targets_field:
            same[targets_field] = draw(st.permutations(fields[targets_field]))
        for name in options:
            if name in idle:
                same[name] = draw(st.sampled_from(_OPTION_VALUES[name]))
            elif fields[name] == defaults[name] and draw(st.booleans()):
                del same[name]
            elif isinstance(fields[name], int) and draw(st.booleans()):
                same[name] = str(fields[name])
        if "dag" in same:
            dag = fields["dag"]
            types = draw(st.permutations(list(dag["types"].items())))
            same["dag"] = {"types": dict(types),
                           "files": draw(st.permutations(dag["files"]))}
        assert self._fingerprint(
            problem, draw(st.permutations(list(weights.items()))),
            draw(st.permutations(list(edges.items()))), same) == reference

        # one field of the problem changed
        weights2, edges2, moved = dict(weights), dict(edges), dict(fields)
        spare = [n for n in nodes if n != fields.get(source_field)
                 and n not in fields.get(targets_field, ())]
        kinds = ["node", "edge"]
        if source_field and spare:
            kinds.append("source")
        if targets_field and spare:
            kinds.append("target")
        kinds += [name for name in options if name not in idle]
        if "dag" in fields:
            kinds.append("dag-type")
            if fields["dag"]["files"]:
                kinds.append("dag-file")
        kind = draw(st.sampled_from(kinds))
        if kind == "node":
            node = draw(st.sampled_from(nodes))
            weights2[node] += 1
        elif kind == "edge":
            pair = draw(st.sampled_from(sorted(edges)))
            edges2[pair] += 1
        elif kind == "source":
            moved[source_field] = draw(st.sampled_from(spare))
        elif kind == "target":
            targets = list(fields[targets_field])
            targets[draw(st.integers(0, len(targets) - 1))] = draw(
                st.sampled_from(spare))
            moved[targets_field] = targets
        elif kind in _OPTION_VALUES:
            moved[kind] = draw(st.sampled_from(
                [v for v in _OPTION_VALUES[kind] if v != fields[kind]]))
        else:
            dag = fields["dag"]
            types, files = dict(dag["types"]), [dict(f) for f in dag["files"]]
            if kind == "dag-type":
                name = draw(st.sampled_from(sorted(types)))
                types[name] = str(Fraction(types[name]) + 1)
            else:
                record = files[draw(st.integers(0, len(files) - 1))]
                record["size"] = str(Fraction(record["size"]) + 1)
            moved["dag"] = {"types": types, "files": files}
        assert self._fingerprint(problem, list(weights2.items()),
                                 list(edges2.items()), moved) != reference


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestSolutionCache:
    def test_lru_eviction(self):
        g = generators.star(2)
        cache = SolutionCache(max_size=2)
        cache.put("a", b"A", g)
        cache.put("b", b"B", g)
        assert cache.get("a").solution_json == b"A"  # refresh a
        cache.put("c", b"C", g)                       # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats.evictions == 1

    def test_the_cache_takes_no_ttl_clock_or_generation(self):
        with pytest.raises(TypeError):
            SolutionCache(ttl=1)
        with pytest.raises(TypeError):
            SolutionCache(clock=lambda: 0.0)
        with pytest.raises(TypeError):
            SolutionCache().put("k", 1, generators.star(2), generation=0)

    def test_counters(self):
        g = generators.star(2)
        cache = SolutionCache()
        assert cache.get("x") is None
        cache.put("x", b"1", g)
        assert cache.get("x") is not None
        st_ = cache.stats
        assert (st_.hits, st_.misses) == (1, 1)
        assert st_.hit_rate == 0.5
        snap = cache.snapshot()
        assert snap["size"] == 1 and snap["hits"] == 1

    def test_invalidate_platform_matches_weight_variants(self):
        g = generators.star(3)
        g2 = g.scale(compute=2)           # weight mutation, same topology
        other = generators.chain(3)
        cache = SolutionCache()
        cache.put("a", 1, g)
        cache.put("b", 2, g2)
        cache.put("c", 3, other)
        assert cache.invalidate_platform(g2) == 2
        assert cache.get("a") is None and cache.get("b") is None
        assert cache.get("c") is not None
        assert cache.stats.invalidations == 2


# ----------------------------------------------------------------------
# broker
# ----------------------------------------------------------------------
class TestBroker:
    def test_hit_is_exactly_the_cold_solution(self, fig1):
        with Broker() as broker:
            req = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            cold = broker.solve(req)
            hot = broker.solve(req)
            assert not cold.cached and hot.cached
            # the cache keeps bytes: the hit decodes an equal object
            assert hot.solution == cold.solution
            assert hot.solution.throughput == cold.solution.throughput

    def test_a_cold_miss_takes_one_topology_digest(self, monkeypatch):
        # the hot-model key and the cache entry share one digest; a
        # problem without an LP model takes it in put
        import repro.service.cache as cache_mod
        import repro.service.incremental as incremental_mod

        calls = []

        def counted(platform):
            calls.append(platform)
            return topology_signature(platform)

        monkeypatch.setattr(cache_mod, "topology_signature", counted)
        monkeypatch.setattr(incremental_mod, "topology_signature", counted)
        g = generators.star(3)
        with Broker() as broker:
            assert not broker.solve(SolveRequest(_ms(g, "M"))).cached
            assert len(calls) == 1
            assert not broker.solve(SolveRequest(
                BroadcastSpec(platform=g, source="M"))).cached
            assert len(calls) == 2
            assert broker.solve(SolveRequest(_ms(g, "M"))).cached
            assert len(calls) == 2
            # both entries carry the platform's digest
            assert broker.cache.invalidate_platform(g) == 2

    def test_an_invalidate_takes_one_topology_digest(self, monkeypatch):
        # the cache entries and the hot models of one topology go on
        # one digest
        import repro.service.cache as cache_mod
        import repro.service.incremental as incremental_mod

        g = generators.star(3)
        with Broker() as broker:
            for weights in (g, g.scale(compute=2)):  # two entries, a model
                broker.solve(SolveRequest(_ms(weights, "M")))
            assert len(broker.engine.incremental) == 1
            calls = []

            def counted(platform):
                calls.append(platform)
                return topology_signature(platform)

            monkeypatch.setattr(cache_mod, "topology_signature", counted)
            monkeypatch.setattr(incremental_mod, "topology_signature",
                                counted)
            assert broker.invalidate_platform(g) == 2
            assert len(calls) == 1
            assert len(broker.engine.incremental) == 0
            assert broker.invalidate_platform(g.scale(comm=5)) == 0
            assert len(calls) == 2

    def test_schedule_reconstructed_lazily_on_hit(self, fig1):
        with Broker() as broker:
            bare = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            broker.solve(bare)
            with_sched = SolveRequest(MasterSlaveSpec(
                platform=fig1, master="P1"), include_schedule=True)
            res = broker.solve(with_sched)
            assert res.cached and res.schedule is not None
            assert res.schedule.throughput == res.solution.throughput

    def test_every_problem_kind_routes(self, fig1):
        fig2 = generators.paper_figure2_multicast()
        star_bi = generators.star(3, bidirectional=True)
        requests = [
            SolveRequest(MasterSlaveSpec(platform=fig1, master="P1")),
            SolveRequest(ScatterSpec(
                platform=fig2, source="P0", targets=("P5", "P6"))),
            SolveRequest(GatherSpec(
                platform=star_bi, sink="M", sources=("W1", "W2", "W3"))),
            SolveRequest(AllToAllSpec(platform=star_bi)),
            SolveRequest(BroadcastSpec(
                platform=generators.chain(3), source="N0")),
            SolveRequest(MulticastSpec(
                platform=fig2, source="P0", targets=("P5", "P6"))),
            SolveRequest(DagSpec(
                platform=fig1, master="P1", dag=TaskGraph.chain([1, 2], [1]))),
            SolveRequest(MultiportSpec(platform=fig1, master="P1", ports=2)),
            SolveRequest(SendOrReceiveSpec(platform=fig1, master="P1")),
        ]
        with Broker() as broker:
            results = broker.solve_batch(requests)
            assert len(results) == len(requests)
            for res in results:
                assert res.throughput >= 0

    def test_batch_dedupes_by_fingerprint(self, fig1):
        with Broker() as broker:
            req = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            same = SolveRequest(MasterSlaveSpec(
                platform=fig1.copy("renamed"), master="P1"))
            results = broker.solve_batch([req, same, req])
            assert len({r.fingerprint for r in results}) == 1
            assert broker.cache.stats.misses == 1

    def test_submit_is_an_already_resolved_future(self, fig1, monkeypatch):
        req = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
        with Broker() as broker:
            good = broker.submit(req)
            assert good.done() and good.result().throughput == Fraction(2)

        def boom(solver, spec, key=None, fingerprint=None):
            raise RuntimeError("solver exploded")

        # every engine solves fig1's model through its IncrementalSolver
        monkeypatch.setattr(IncrementalSolver, "solve_spec_ex", boom)
        with Broker() as broker:
            bad = broker.submit(req)
            assert bad.done()
            with pytest.raises(RuntimeError, match="solver exploded"):
                bad.result()
            ep = broker.metrics.endpoint("solve")
            assert ep.count == 1 and ep.errors == 1

    def test_the_http_server_takes_a_broker(self):
        with pytest.raises(TypeError, match="broker"):
            AsyncServiceServer(("127.0.0.1", 0))

    def test_batch_dedup_honours_include_schedule(self, fig1):
        # regression: a deduped request asking for a schedule must not
        # silently inherit the bare result of its fingerprint twin
        with Broker() as broker:
            bare = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            with_sched = SolveRequest(MasterSlaveSpec(
                platform=fig1, master="P1"), include_schedule=True)
            out = broker.solve_batch([bare, with_sched])
            assert out[1].schedule is not None
            assert out[1].schedule.throughput == out[1].solution.throughput
            assert broker.cache.stats.misses == 1

    def test_batch_dedup_strips_unrequested_schedule(self, fig1):
        # the mirror case: a bare request deduped onto a schedule-bearing
        # twin must not receive the schedule it did not ask for
        with Broker() as broker:
            with_sched = SolveRequest(MasterSlaveSpec(
                platform=fig1, master="P1"), include_schedule=True)
            bare = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            out = broker.solve_batch([with_sched, bare])
            assert out[0].schedule is not None
            assert out[1].schedule is None

    def test_batch_dedup_solves_once_but_counts_both_requests(self, fig1):
        with Broker() as broker:
            req = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            out = broker.solve_batch([req, req])
            snap = broker.metrics.snapshot()
            # ONE cold solve, but TWO first-class requests in the metrics:
            # the intra-batch duplicate is a request like any other
            assert snap["endpoints"]["solve.cold"]["count"] == 1
            assert snap["endpoints"]["solve"]["count"] == 2
            assert snap["total_requests"] == 2
            assert "solve.batch" in snap["endpoints"]
            assert out[0].throughput == out[1].throughput
            assert broker.cache.stats.misses == 1

    def test_warm_resolve_equals_cold(self):
        g = generators.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                            link_c=[1, 1, 2, 3])
        mutated = g.scale(compute="3/2", comm="2/3")
        with Broker() as broker:
            # a structure's first build keeps no model: prime it twice
            broker.solve(SolveRequest(MasterSlaveSpec(
                platform=g.scale(compute=5), master="M")))
            first = broker.solve(SolveRequest(MasterSlaveSpec(
                platform=g, master="M")))
            second = broker.solve(SolveRequest(MasterSlaveSpec(
                platform=mutated, master="M")))
            assert not first.warm and second.warm and not second.cached
            assert (second.solution.throughput
                    == solve_master_slave(mutated, "M").throughput)

    def test_invalidate_platform_drops_entries(self, fig1):
        with Broker() as broker:
            req = SolveRequest(MasterSlaveSpec(platform=fig1, master="P1"))
            broker.solve(req)
            assert broker.invalidate_platform(fig1) == 1
            assert not broker.solve(req).cached

    def test_unknown_problem_raises(self, fig1):
        from repro.service.api import request_from_dict

        with Broker() as broker:
            with pytest.raises(BrokerError, match="unknown problem"):
                broker.solve(request_from_dict({
                    "spec": {"problem": "nope", "master": "P1"},
                    "platform": platform_to_dict(fig1)}))

    def test_include_schedule_rejected_for_non_reconstructable(self, fig1):
        with pytest.raises(BrokerError, match="include_schedule"):
            SolveRequest(BroadcastSpec(
                platform=fig1, source="P1"), include_schedule=True)

    def test_missing_fields_raise(self, fig1):
        with Broker() as broker:
            with pytest.raises(BrokerError, match="need"):
                broker.solve(SolveRequest(ScatterSpec(
                    platform=fig1, source="P1", targets=())))

    def test_snapshot_shape(self, fig1):
        with Broker() as broker:
            broker.solve(SolveRequest(MasterSlaveSpec(
                platform=fig1, master="P1")))
            snap = broker.snapshot()
            assert snap["cache"]["misses"] == 1
            assert snap["metrics"]["endpoints"]["solve"]["count"] == 1
            assert snap["incremental"]["full_rebuilds"] == 1


# ----------------------------------------------------------------------
# an entry is the answer to its key: an in-flight solve always stores it
# ----------------------------------------------------------------------
class TestInflightPut:
    def test_a_solve_racing_an_invalidation_stores_its_answer(
            self, monkeypatch):
        release = threading.Event()
        started = threading.Event()
        real = broker_mod.execute_request

        def slow(request):
            started.set()
            assert release.wait(10)
            return real(request)

        monkeypatch.setattr(broker_mod, "execute_request", slow)
        platform = generators.chain(3)
        spec = BroadcastSpec(platform=platform, source="N0")
        with Broker() as broker:
            req = SolveRequest(spec)
            fp = req.fingerprint()
            solved = []
            solver = threading.Thread(target=lambda: solved.append(
                broker.engine.run(req, fp)))
            solver.start()
            assert started.wait(10)
            assert broker.invalidate_platform(platform) == 0  # no entry yet
            release.set()
            solver.join(10)
            (result,) = solved
            cold = broker_mod.solution_throughput(solve(spec))
            assert result.throughput == cold
            # the answer is exact for its key, so the late put keeps it
            assert broker.cache.peek(fp) is not None
            again = broker.solve(req)
            assert again.cached
            assert again.throughput == cold
            assert isinstance(again.throughput, Fraction)


# ----------------------------------------------------------------------
# incremental warm re-solve
# ----------------------------------------------------------------------
class TestIncrementalSolver:
    def test_weight_only_mutation_is_exact(self):
        inc = IncrementalSolver()
        g = generators.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                            link_c=[1, 1, 2, 3])
        inc.solve_spec(_ms(g, "M"))
        # a re-weighting keeps the hot model
        inc.solve_spec(_ms(g.scale(compute=2), "M"))
        for compute, comm in [("1/2", 1), (3, "1/3"), ("7/5", "5/7")]:
            mutated = g.scale(compute=compute, comm=comm)
            warm = inc.solve_spec(_ms(mutated, "M"))
            cold = solve_master_slave(mutated, "M")
            assert warm.throughput == cold.throughput
            warm.verify()  # activities satisfy the steady-state equations
        assert inc.stats.warm_solves == 3
        assert inc.stats.full_rebuilds == 2

    def test_non_uniform_weight_mutation(self, fig1):
        inc = IncrementalSolver()
        inc.solve_spec(_ms(fig1, "P1"))
        # a re-weighting keeps the hot model
        inc.solve_spec(_ms(fig1.scale(compute=2), "P1"))
        mutated = Platform("fig1-mutated")
        for name in fig1.nodes():
            spec = fig1.node(name)
            mutated.add_node(name,
                            spec.w * 2 if name in ("P2", "P5") else spec.w)
        for spec in fig1.edges():
            c = spec.c * Fraction(1, 3) if spec.src == "P1" else spec.c
            mutated.add_edge(spec.src, spec.dst, c)
        warm = inc.solve_spec(_ms(mutated, "P1"))
        cold = solve_master_slave(mutated, "P1")
        assert warm.throughput == cold.throughput
        assert inc.stats.warm_solves == 1

    def test_topology_change_falls_back(self):
        inc = IncrementalSolver()
        g = generators.star(3)
        inc.solve_spec(_ms(g, "M"))
        bigger = generators.star(4)
        warm = inc.solve_spec(_ms(bigger, "M"))
        assert warm.throughput == solve_master_slave(bigger, "M").throughput
        assert inc.stats.full_rebuilds == 2
        assert inc.stats.warm_solves == 0

    def test_forget(self):
        inc = IncrementalSolver()
        g = generators.star(3)
        inc.solve_spec(_ms(g, "M"))
        # a re-weighting keeps the hot model
        inc.solve_spec(_ms(g.scale(compute=2), "M"))
        assert inc.has_model_for(_ms(g, "M"))
        assert inc.forget(g) == 1
        assert not inc.has_model_for(_ms(g, "M"))


# ----------------------------------------------------------------------
# property tests: cache correctness on random platforms (satellite)
# ----------------------------------------------------------------------
_weights = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8))


class TestCacheCorrectnessProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        master_w=_weights,
        data=st.data(),
    )
    def test_star_hit_equals_cold_solve(self, n, master_w, data):
        worker_w = [data.draw(_weights) for _ in range(n)]
        link_c = [data.draw(_weights) for _ in range(n)]
        g = generators.star(n, master_w=master_w, worker_w=worker_w,
                            link_c=link_c)
        with Broker() as broker:
            req = SolveRequest(MasterSlaveSpec(platform=g, master="M"))
            cold = broker.solve(req)
            hit = broker.solve(req)
            assert hit.cached
            assert hit.solution.throughput == cold.solution.throughput
            assert hit.solution.alpha == cold.solution.alpha
            assert hit.solution.s == cold.solution.s
            oracle = solve_master_slave(g, "M").throughput
            assert hit.solution.throughput == oracle

    @settings(max_examples=8, deadline=None)
    @given(depth=st.integers(min_value=2, max_value=3),
           seed=st.integers(min_value=0, max_value=1000))
    def test_tree_hit_equals_cold_solve(self, depth, seed):
        g = generators.binary_tree(depth, seed=seed)
        with Broker() as broker:
            req = SolveRequest(MasterSlaveSpec(platform=g, master="T0"))
            cold = broker.solve(req)
            hit = broker.solve(req)
            assert hit.cached
            assert hit.solution.throughput == cold.solution.throughput
            assert hit.solution.alpha == cold.solution.alpha

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(min_value=1, max_value=4), factor=_weights,
           data=st.data())
    def test_weight_mutation_invalidates_fingerprint(self, n, factor, data):
        worker_w = [data.draw(_weights) for _ in range(n)]
        g = generators.star(n, worker_w=worker_w)
        mutated = g.scale(compute=factor)
        fp = request_fingerprint(MasterSlaveSpec(platform=g, master="M"))
        fp_mut = request_fingerprint(MasterSlaveSpec(platform=mutated,
                                                     master="M"))
        if factor == 1:
            assert fp == fp_mut
        else:
            assert fp != fp_mut


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_observe_and_percentiles(self):
        reg = MetricsRegistry()
        for ms in [1, 2, 3, 4, 100]:
            reg.observe("solve", ms / 1000.0)
        ep = reg.endpoint("solve")
        assert ep.count == 5
        # nearest-rank values 3 ms and 100 ms, each reported as the bound
        # of its bucket (clamped to the max): never below, same bucket
        for p, exact in ((50, 0.003), (99, 0.1)):
            assert exact <= ep.percentile(p) <= ep.max_seconds
            assert (bisect.bisect_left(LATENCY_BUCKETS, exact)
                    == bisect.bisect_left(LATENCY_BUCKETS, ep.percentile(p)))
        assert ep.min_seconds == pytest.approx(0.001)
        snap = reg.snapshot()
        assert snap["endpoints"]["solve"]["count"] == 5
        assert snap["total_requests"] == 5

    def test_timer_counts_errors(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.timer("boom"):
                raise RuntimeError("x")
        assert reg.endpoint("boom").errors == 1


# ----------------------------------------------------------------------
# JSON API + HTTP transport
# ----------------------------------------------------------------------
def _fig1_envelope(**extra):
    return {
        "op": "solve",
        "request": {
            "spec": {"problem": "master-slave", "master": "P1"},
            "platform": platform_to_dict(generators.paper_figure1()),
            **extra,
        },
    }


class TestApi:
    def test_solve_roundtrip(self):
        with Broker() as broker:
            out = handle_request(broker, _fig1_envelope())
            assert out["ok"] and not out["cached"]
            assert Fraction(out["throughput"]) == Fraction(2)
            again = handle_request(broker, _fig1_envelope())
            assert again["cached"]
            assert again["fingerprint"] == out["fingerprint"]

    def test_solve_with_schedule(self):
        with Broker() as broker:
            out = handle_request(broker,
                                 _fig1_envelope(include_schedule=True))
            assert out["ok"] and "schedule" in out
            assert Fraction(out["schedule"]["throughput"]) == Fraction(2)

    def test_request_encode_decode_roundtrip(self):
        req = SolveRequest(ScatterSpec(
            platform=generators.paper_figure2_multicast(), source="P0",
            targets=("P5", "P6")))
        from repro.service.api import request_from_dict

        back = request_from_dict(request_to_dict(req))
        assert back.fingerprint() == req.fingerprint()

    def test_legacy_exact_options_are_the_request_without_them(self):
        # what earlier clients send beside every spec asks for the exact
        # solve every request gets: same fingerprint, same answer
        with Broker() as broker:
            bare = handle_request(broker, _fig1_envelope())
            legacy = handle_request(
                broker, _fig1_envelope(options={"backend": "exact"}))
        assert legacy["fingerprint"] == bare["fingerprint"]
        assert legacy["cached"] and not bare["cached"]
        assert legacy["solution"] == bare["solution"]
        assert Fraction(legacy["throughput"]) == Fraction(2)

    def test_error_is_a_response_not_an_exception(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "master-slave", "master": "P1"}}})
            assert not out["ok"] and "platform" in out["error"]
            out = handle_request(broker, {"op": "wat"})
            assert not out["ok"] and "unknown op" in out["error"]

    def test_ops(self):
        with Broker() as broker:
            assert handle_request(broker, {"op": "ping"})["pong"]
            handle_request(broker, _fig1_envelope())
            m = handle_request(broker, {"op": "metrics"})
            assert m["ok"] and m["metrics"]["total_requests"] >= 1
            c = handle_request(broker, {"op": "cache"})
            assert c["cache"]["size"] == 1
            inv = handle_request(broker, {
                "op": "invalidate",
                "platform": platform_to_dict(generators.paper_figure1()),
            })
            assert inv["invalidated"] == 1

    def test_batch_op(self):
        with Broker() as broker:
            out = handle_request(broker, {
                "op": "batch",
                "requests": [_fig1_envelope()["request"],
                             _fig1_envelope()["request"]],
            })
            assert out["ok"] and len(out["results"]) == 2
            assert (out["results"][0]["fingerprint"]
                    == out["results"][1]["fingerprint"])

    def test_batch_op_isolates_bad_requests(self):
        # one bad member must not discard the good members' results
        bad = {"spec": {"problem": "nope", "master": "M"},
               "platform": platform_to_dict(generators.star(2))}
        with Broker() as broker:
            out = handle_request(broker, {
                "op": "batch",
                "requests": [_fig1_envelope()["request"], bad,
                             {"spec": {"problem": "missing-platform"}}],
            })
            assert out["ok"] and len(out["results"]) == 3
            assert out["results"][0]["ok"]
            assert Fraction(out["results"][0]["throughput"]) == Fraction(2)
            assert not out["results"][1]["ok"]
            assert "unknown problem" in out["results"][1]["error"]
            assert not out["results"][2]["ok"]

    def test_multicast_and_broadcast_over_the_wire(self):
        # regression: payload encoding of non-SteadyStateSolution results
        # (multicast used to call a property and 422 on every request)
        fig2 = platform_to_dict(generators.paper_figure2_multicast())
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "multicast", "source": "P0",
                         "targets": ["P5", "P6"]},
                "platform": fig2}})
            assert out["ok"], out
            payload = out["solution"]
            assert Fraction(payload["sum_lp"]) <= Fraction(payload["max_lp"])
            assert payload["max_lp_achievable"] is False  # section 4.3
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "broadcast", "source": "N0"},
                "platform": platform_to_dict(generators.chain(3))}})
            assert out["ok"], out
            assert out["solution"]["optimal"] is True

    def test_dag_request_over_the_wire(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "dag", "master": "M",
                         "dag": {"types": {"a": "1", "b": "2"},
                                 "files": [{"producer": "a",
                                            "consumer": "b",
                                            "size": "1"}]}},
                "platform": platform_to_dict(generators.star(2)),
            }})
            assert out["ok"], out
            assert Fraction(out["throughput"]) > 0


class TestProcessFootprint:
    """``process`` in every snapshot: which process answered and what it
    holds resident."""

    def test_every_snapshot_carries_pid_and_rss_high_water(self):
        from repro.service.metrics import render_prometheus

        def metrics(broker):
            response = handle_request(broker, {"op": "metrics"})
            lines = [line for line in render_prometheus(response).splitlines()
                     if line.startswith("repro_process")]
            return response["process"], lines

        with Broker() as broker:
            before, _ = metrics(broker)
            assert handle_request(broker, _fig1_envelope())["ok"]
            after, lines = metrics(broker)
        assert set(after) == {"pid", "max_rss_bytes"}
        assert after["pid"] == before["pid"]
        assert after["max_rss_bytes"] >= before["max_rss_bytes"] > 0
        (rss_line,) = [line for line in lines if line.startswith(
            'repro_process_max_rss_bytes{shard="front"} ')]
        # scraped after the JSON view, and a high-water mark only rises
        assert int(rss_line.split()[-1]) >= after["max_rss_bytes"]


class TestErrorStatusMapping:
    """Client errors (400/422) vs server bugs (500), with "type" preserved."""

    def test_invalid_spec_is_422(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "nope", "master": "M"},
                "platform": platform_to_dict(generators.star(2))}})
            assert not out["ok"]
            assert out["status"] == 422 and out["type"] == "SpecError"

    def test_flat_request_without_a_spec_is_422(self):
        # the PR-1 schema (problem fields beside the platform) is gone
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "problem": "master-slave", "master": "M",
                "platform": platform_to_dict(generators.star(2))}})
            assert not out["ok"] and out["status"] == 422
            assert out["type"] == "SpecError"
            assert "needs a 'spec'" in out["error"]

    def test_undecodable_platform_is_400(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "master-slave", "master": "M"},
                "platform": {"nodes": 12}}})
            assert not out["ok"] and out["status"] == 400
            assert out["type"] == "PlatformError"
            out = handle_request(broker, {
                "op": "invalidate", "platform": {"nodes": 12}})
            assert not out["ok"] and out["status"] == 400
            # the failure is recorded as an ERROR observation, not a
            # clean request, so operators see the endpoint failing
            assert broker.metrics.endpoint("invalidate").errors == 1

    def test_unknown_op_is_422(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "wat"})
            assert out["status"] == 422 and out["type"] == "SpecError"

    def test_solver_crash_is_500_with_type(self, monkeypatch):
        # regression: every failure used to surface as 422, so clients
        # could not tell "fix your request" from "server bug"
        def boom(solver, spec, key=None, fingerprint=None):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(IncrementalSolver, "solve_spec_ex", boom)
        with Broker() as broker:
            out = handle_request(broker, _fig1_envelope())
            assert not out["ok"]
            assert out["status"] == 500
            assert out["type"] == "RuntimeError"
            assert "solver exploded" in out["error"]

    def test_batch_isolates_statuses(self, monkeypatch):
        bad_spec = {"spec": {"problem": "nope", "master": "M"},
                    "platform": platform_to_dict(generators.star(2))}
        with Broker() as broker:
            out = handle_request(broker, {"op": "batch", "requests": [
                _fig1_envelope()["request"], bad_spec]})
            assert out["ok"]  # the envelope succeeded; members differ
            assert out["results"][0]["ok"]
            assert out["results"][1]["status"] == 422

    def test_http_transport_maps_statuses(self, monkeypatch):
        def boom(solver, spec, key=None, fingerprint=None):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(IncrementalSolver, "solve_spec_ex", boom)
        broker = Broker()
        server = AsyncServiceServer(("127.0.0.1", 0),
                                    broker=broker).start_in_thread()
        url = f"http://127.0.0.1:{server.port}/api"

        def post(payload: bytes) -> int:
            req = urllib.request.Request(
                url, data=payload,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status
            except urllib.error.HTTPError as exc:
                body = json.loads(exc.read())
                assert body["status"] == exc.code  # body mirrors transport
                return exc.code

        try:
            assert post(b"{not json") == 400
            bad_spec = {"op": "solve", "request": {
                "spec": {"problem": "nope", "master": "M"},
                "platform": platform_to_dict(generators.star(2))}}
            assert post(json.dumps(bad_spec).encode()) == 422
            assert post(json.dumps(_fig1_envelope()).encode()) == 500
        finally:
            server.shutdown()
            broker.close()

    def test_a_malformed_envelope_is_a_client_error(self):
        from repro.service.api import route_post

        with Broker() as broker:
            for body in (b"[1]", b'"x"', b"5"):
                status, _, reply = route_post(broker, "/api", body)
                assert status == 400
                assert json.loads(reply)["type"] == "ValueError"
            for envelope in ({"op": "batch", "requests": 5},
                             {"op": "events", "limit": "x"},
                             {"op": "traces", "limit": [1]}):
                status, _, reply = route_post(
                    broker, "/api", json.dumps(envelope).encode())
                assert status == 422
                assert json.loads(reply)["type"] == "SpecError"

    @pytest.mark.parametrize("options", [
        {"backend": "scipy"}, {"backend": "exact", "ports": 2}, {}, None])
    def test_options_other_than_the_legacy_exact_are_422(self, options):
        from repro.service.api import route_post

        with Broker() as broker:
            status, _, reply = route_post(broker, "/api", json.dumps(
                _fig1_envelope(options=options)).encode())
            out = json.loads(reply)
            assert status == 422 and out["type"] == "SpecError"
            assert "'options'" in out["error"]
            assert broker.cache.snapshot()["size"] == 0  # nothing solved
            assert handle_request(broker, _fig1_envelope())["ok"]

    @pytest.mark.parametrize("flag", ["false", "no", 0, 1, None, [True]])
    def test_include_schedule_is_a_json_boolean(self, flag):
        from repro.service.api import route_post

        with Broker() as broker:
            for spec in ({"problem": "master-slave", "master": "P1"},
                         {"problem": "broadcast", "source": "P1"}):
                envelope = {"op": "solve", "request": {
                    "spec": spec, "include_schedule": flag,
                    "platform": platform_to_dict(generators.paper_figure1())}}
                status, _, reply = route_post(
                    broker, "/api", json.dumps(envelope).encode())
                out = json.loads(reply)
                assert status == 422 and out["type"] == "SpecError", out
                assert "'include_schedule'" in out["error"]
                assert "not supported" not in out["error"]
            assert broker.cache.snapshot()["size"] == 0


#: specs naming a node star(2) (M, W1, W2) lacks, or naming nodes in a
#: shape no spec accepts: each is the client's mistake, never a 500
HOSTILE_SPECS = [
    pytest.param({"problem": "master-slave", "master": "ZZ"}, id="master"),
    pytest.param({"problem": "master-slave", "master": ["M"]}, id="list"),
    pytest.param({"problem": "master-slave", "master": {"a": 1}}, id="dict"),
    pytest.param({"problem": "scatter", "source": "ZZ", "targets": ["W1"]},
                 id="scatter-source"),
    pytest.param({"problem": "scatter", "source": "M",
                  "targets": ["W1", "ZZ"]}, id="scatter-target"),
    pytest.param({"problem": "scatter", "source": "M",
                  "targets": ["W1", "W1"]}, id="scatter-twice"),
    pytest.param({"problem": "scatter", "source": "M", "targets": ["M"]},
                 id="scatter-to-itself"),
    pytest.param({"problem": "gather", "sink": "M", "sources": ["W1", "M"]},
                 id="gather-from-itself"),
    pytest.param({"problem": "multicast", "source": "ZZ", "targets": ["W1"]},
                 id="multicast"),
    pytest.param({"problem": "broadcast", "source": "ZZ"}, id="broadcast"),
    pytest.param({"problem": "reduce", "root": "ZZ"}, id="reduce"),
    pytest.param({"problem": "all-to-all", "participants": ["M"]},
                 id="all-to-all-alone"),
    pytest.param({"problem": "multiport", "master": "M", "ports": True},
                 id="ports-true"),
]


@pytest.fixture(scope="module")
def one_shard_ring():
    with ShardedBroker(shards=1) as ring:  # what a bare `serve` runs
        yield ring


class TestHostileNodes:
    @pytest.mark.parametrize("spec", HOSTILE_SPECS)
    def test_is_refused_at_the_front(self, spec, one_shard_ring):
        envelope = {"op": "solve", "request": {
            "spec": spec, "platform": platform_to_dict(generators.star(2))}}
        calls = [shard.calls for shard in one_shard_ring._shards]
        with Broker() as broker:
            for front in (broker, one_shard_ring):
                out = handle_request(front, envelope)
                assert out["status"] == 422, out
                assert out["type"] == "SpecError", out
        assert [shard.calls for shard in one_shard_ring._shards] == calls


class TestHttpServer:
    def test_end_to_end(self):
        broker = ShardedBroker(shards=1)  # what a bare `serve` runs
        server = AsyncServiceServer(("127.0.0.1", 0),
                                    broker=broker).start_in_thread()
        url = f"http://127.0.0.1:{server.port}"
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
                assert json.loads(resp.read())["ok"]
            body = json.dumps(_fig1_envelope()).encode()
            req = urllib.request.Request(
                url + "/api", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=30) as resp:
                out = json.loads(resp.read())
            assert out["ok"] and Fraction(out["throughput"]) == Fraction(2)
            with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
                metrics = json.loads(resp.read())
            assert metrics["metrics"]["total_requests"] >= 1
        finally:
            server.shutdown()
            broker.close()

    def test_a_malformed_envelope_is_refused_whatever_its_size(self):
        """Every body is dispatched on the loop, a large one parsed off
        it first: either is refused with a typed 4xx when it is not an
        envelope, and the server keeps serving."""
        from repro.service.api import LOOP_BODY_BYTES

        broker = Broker()
        server = AsyncServiceServer(("127.0.0.1", 0),
                                    broker=broker).start_in_thread()

        def post(payload) -> tuple:
            body = (payload if isinstance(payload, bytes)
                    else json.dumps(payload).encode())
            req = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/api", data=body,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        huge_list = json.dumps([0] * 100_000).encode()
        assert len(huge_list) > LOOP_BODY_BYTES  # parsed off the loop
        try:
            for payload, status in ((b"[1]", 400), (huge_list, 400),
                                    ({"op": "batch", "requests": 5}, 422),
                                    ({"op": "events", "limit": "x"}, 422)):
                code, body = post(payload)
                assert (code, body["status"]) == (status, status)
                assert not body["ok"] and body["type"]
            code, body = post({"op": "ping"})
            assert code == 200 and body["pong"]
        finally:
            server.shutdown()
            broker.close()


class TestStdioServer:
    def test_json_lines_loop(self):
        import io

        from repro.service.api import serve_stdio

        lines = [
            json.dumps({"op": "ping"}),
            json.dumps(_fig1_envelope()),
            json.dumps({"op": "shutdown"}),
        ]
        stdout = io.StringIO()
        with Broker() as broker:
            rc = serve_stdio(broker, io.StringIO("\n".join(lines) + "\n"),
                             stdout)
        assert rc == 0
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert replies[0]["pong"]
        assert replies[1]["ok"] and Fraction(replies[1]["throughput"]) == 2
        assert replies[2]["bye"]

    def test_a_line_that_is_no_envelope_is_answered_and_the_loop_goes_on(
            self):
        import io

        from repro.service.api import serve_stdio

        lines = ["[1]", "5", json.dumps({"op": "batch", "requests": 5}),
                 json.dumps({"op": "ping"}), json.dumps({"op": "shutdown"})]
        stdout = io.StringIO()
        with Broker() as broker:
            rc = serve_stdio(broker, io.StringIO("\n".join(lines) + "\n"),
                             stdout)
        assert rc == 0
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r.get("status") for r in replies[:3]] == [400, 400, 422]
        assert replies[3]["pong"] and replies[4]["bye"]


class TestSubmitCli:
    def test_local_submit(self, capsys):
        from repro.cli import main

        rc = main(["submit", "--problem", "master-slave", "--generator",
                   "paper_figure1", "--master", "P1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and Fraction(out["throughput"]) == Fraction(2)

    def test_submit_request_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "req.json"
        path.write_text(json.dumps(_fig1_envelope()["request"]))
        rc = main(["submit", "--request", str(path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_gather_takes_its_sink_as_source(self, capsys):
        from repro.cli import main

        rc = main(["submit", "--problem", "gather", "--generator", "star",
                   "--args", "2", "--source", "M", "--targets", "W1", "W2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_a_role_the_problem_lacks_is_the_codecs_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match=r"unknown spec field.*'source'"):
            main(["submit", "--problem", "all-to-all", "--generator", "star",
                  "--args", "2", "--source", "M"])

    def test_master_is_a_second_spelling_of_source(self, capsys):
        from repro.cli import main

        fingerprints = []
        for flag in ("--master", "--source"):
            assert main(["submit", "--problem", "master-slave", "--generator",
                         "paper_figure1", flag, "P1"]) == 0
            fingerprints.append(
                json.loads(capsys.readouterr().out)["fingerprint"])
        assert fingerprints[0] == fingerprints[1]
