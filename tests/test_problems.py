"""Registry + typed-spec tests: dispatch, capabilities, round-trips, warm.

The tentpole contract of PR 2: every problem is a typed
:class:`~repro.problems.specs.ProblemSpec` bound to a capability-declaring
solver in one registry, and the CLI / API / broker / incremental solver
all dispatch through it — so these tests drive each consumer through the
registry and assert the uniform behaviours (JSON round-trips, typed
validation errors, end-to-end servability, warm re-solve for every
``warm_resolve``-capable problem).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activities import SteadyStateSolution
from repro.core.scatter import solve_gather, solve_scatter
from repro.platform import generators
from repro.platform.serialization import platform_to_dict, solution_to_dict
from repro.problems import (
    AllToAllSpec,
    GatherSpec,
    MasterSlaveSpec,
    MultiportSpec,
    ProblemSpec,
    ScatterSpec,
    SpecError,
    describe,
    reconstructable_problems,
    register,
    registered_problems,
    resolve,
    solve,
    spec_from_wire,
)
from repro.problems.specs import DagSpec
from repro.service.incremental import IncrementalSolver
from repro.service.api import (
    handle_request,
    request_from_dict,
    request_to_dict,
)
from repro.service.broker import (
    Broker,
    BrokerError,
    SolveRequest,
    execute_request,
    solution_throughput,
)
from repro.service.wire import compact_json, solution_to_wire

#: the problems registered with an LP model (a WarmModel)
MODEL_PROBLEMS = ("master-slave", "scatter", "gather", "all-to-all",
                  "multiport", "send-or-receive")
ALL_PROBLEMS = frozenset({
    "master-slave", "scatter", "gather", "all-to-all", "broadcast",
    "reduce", "multicast", "dag", "multiport", "send-or-receive",
})


def _star2():
    return generators.star(2, bidirectional=True)


def _example(problem, platform=None):
    platform = platform if platform is not None else _star2()
    return resolve(problem).example(platform, "M", ("W1", "W2"))


# ----------------------------------------------------------------------
# registry contents + capabilities
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_ten_problems_registered(self):
        assert set(registered_problems()) == ALL_PROBLEMS
        # ... and every spec class of the package that declares a
        # problem is registered: none is declared and left unservable
        declared, stack = set(), [ProblemSpec]
        while stack:
            for sub in stack.pop().__subclasses__():
                stack.append(sub)
                if sub.__module__.startswith("repro.") and sub.problem:
                    declared.add(sub)
        assert declared == {resolve(p).spec_type for p in ALL_PROBLEMS}

    def test_register_refuses_a_spec_it_cannot_check(self):
        # a role field must name a field, and --check and the wire
        # round-trip tests reach a problem through its example
        @dataclass(frozen=True)
        class StraySpec(ProblemSpec):
            master: str

            problem = "stray"
            _TARGETS_FIELD = "nosuch"

        def solve_fn(spec, backend="exact"):
            return None

        with pytest.raises(ValueError, match=r"^StraySpec\._TARGETS_FIELD"
                                             r" = 'nosuch' names no field$"):
            register(StraySpec, solve_fn,
                     example=lambda platform, root, others: None)
        StraySpec._TARGETS_FIELD = None
        with pytest.raises(ValueError, match="^StraySpec registers no "
                                             "example factory$"):
            register(StraySpec, solve_fn)
        assert "stray" not in registered_problems()

    def test_unknown_problem_is_a_typed_error(self):
        with pytest.raises(SpecError, match="unknown problem"):
            resolve("nope")

    def test_declared_capabilities(self):
        # every non-tree-packing LP problem is warm-capable (6 of 10),
        # and a problem with a model registers no solve function
        for problem in MODEL_PROBLEMS:
            entry = resolve(problem)
            assert entry.capabilities.warm_resolve
            assert entry.warm_model is not None and entry.solve_fn is None
        for problem in ("broadcast", "reduce", "multicast", "dag"):
            entry = resolve(problem)
            assert not entry.capabilities.warm_resolve
            assert entry.warm_model is None and entry.solve_fn is not None
        assert reconstructable_problems() == {
            "master-slave", "scatter", "gather", "all-to-all"
        }
        for problem in ALL_PROBLEMS:
            assert resolve(problem).capabilities.lp_structure

    def test_every_problem_servable_end_to_end(self):
        # mirror of the CI consistency step (python -m repro problems --check)
        for problem in registered_problems():
            spec = _example(problem)
            solution = execute_request(SolveRequest.from_spec(spec))
            assert solution_throughput(solution) >= 0, problem

    def test_solve_rejects_mismatched_spec_type(self):
        spec = MasterSlaveSpec(platform=_star2(), master="M")
        with pytest.raises(SpecError, match="expects a ScatterSpec"):
            resolve("scatter").solve(spec)

    def test_describe_is_json_safe_and_complete(self):
        meta = describe()
        json.dumps(meta)  # must not raise
        assert set(meta) == ALL_PROBLEMS
        assert meta["gather"]["capabilities"]["reconstructs_schedule"]
        assert meta["scatter"]["capabilities"]["warm_resolve"]
        scatter_fields = {f["name"]: f for f in meta["scatter"]["fields"]}
        assert scatter_fields["targets"]["required"]
        assert scatter_fields["ports"]["default"] == 1
        assert meta["gather"]["fields"][0]["role"] == "source (the sink)"


# ----------------------------------------------------------------------
# JSON round-trips (satellite: spec <-> wire is exact, for every problem)
# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    def test_every_registered_problem_round_trips(self):
        platform = _star2()
        for problem in registered_problems():
            spec = _example(problem, platform)
            wire = spec.to_wire()
            json.dumps(wire)  # the envelope must be JSON-serialisable
            back = spec_from_wire(platform, wire)
            assert type(back) is type(spec), problem
            assert back.to_wire() == wire, problem

    def test_full_request_round_trip_preserves_fingerprint(self):
        for problem in registered_problems():
            req = SolveRequest.from_spec(_example(problem))
            back = request_from_dict(request_to_dict(req))
            assert back.fingerprint() == req.fingerprint(), problem
            again = request_from_dict(request_to_dict(back))
            assert request_to_dict(again) == request_to_dict(back), problem

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=4),
        ports=st.integers(min_value=1, max_value=3),
        port_model=st.sampled_from(["one-port", "send-or-receive",
                                    "multiport"]),
        data=st.data(),
    )
    def test_scatter_spec_wire_property(self, n, ports, port_model, data):
        platform = generators.star(n, bidirectional=True)
        workers = [f"W{k}" for k in range(1, n + 1)]
        targets = data.draw(st.lists(st.sampled_from(workers), min_size=1,
                                     unique=True))
        spec = ScatterSpec(platform=platform, source="M",
                           targets=tuple(targets),
                           port_model=port_model, ports=ports)
        wire = json.loads(json.dumps(spec.to_wire()))
        assert spec_from_wire(platform, wire).to_wire() == wire


# ----------------------------------------------------------------------
# typed validation (satellite: malformed specs never leak KeyError/etc.)
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_missing_required_fields(self):
        g = _star2()
        with pytest.raises(SpecError, match="scatter requests need targets"):
            ScatterSpec(platform=g, source="M", targets=())
        with pytest.raises(SpecError, match="need source/master"):
            MasterSlaveSpec(platform=g, master=None)
        with pytest.raises(SpecError, match=r"targets \(the sources\)"):
            GatherSpec(platform=g, sink="M", sources=())
        with pytest.raises(SpecError, match="need a task graph"):
            DagSpec(platform=g, master="M", dag=None)

    def test_unknown_options_are_typed_errors(self):
        g = _star2()
        with pytest.raises(SpecError, match="unknown spec field"):
            spec_from_wire(g, {"problem": "master-slave", "master": "M",
                               "ports": 2})
        with pytest.raises(SpecError, match="unknown spec field"):
            spec_from_wire(g, {"problem": "broadcast", "source": "M",
                               "typo_limit": 5})

    def test_ill_typed_options_are_typed_errors(self):
        g = _star2()
        with pytest.raises(SpecError, match="must be an integer"):
            SolveRequest(MultiportSpec(platform=g, master="M", ports="many"))
        with pytest.raises(SpecError, match="port model"):
            SolveRequest(ScatterSpec(
                platform=g, source="M", targets=("W1",),
                port_model="zero-port"))

    def test_fractional_int_options_are_rejected_not_truncated(self):
        g = _star2()
        with pytest.raises(SpecError, match="must be an integer"):
            SolveRequest(MultiportSpec(platform=g, master="M", ports=2.9))
        # integral floats (e.g. from a JSON producer emitting 2.0) are fine
        req = SolveRequest(MultiportSpec(platform=g, master="M", ports=2.0))
        assert req.spec.ports == 2

    def test_misdirected_fields_are_typed_errors(self):
        g = _star2()
        with pytest.raises(SpecError, match=r"all-to-all: \['source'\]"):
            spec_from_wire(g, {"problem": "all-to-all", "source": "M"})
        with pytest.raises(SpecError, match=r"master-slave: \['targets'\]"):
            spec_from_wire(g, {"problem": "master-slave", "master": "M",
                               "targets": ["W1"]})

    def test_broker_error_is_the_spec_error(self):
        # the broker's historical error type and the typed validation
        # error are one class: callers catching either see both layers
        assert BrokerError is SpecError

    def test_malformed_wire_specs_report_typed_errors(self):
        g = platform_to_dict(_star2())
        with Broker() as broker:
            cases = [
                {"spec": {"problem": "scatter", "source": "M"},
                 "platform": g},                                   # missing
                {"spec": {"problem": "scatter", "source": "M",
                          "targets": ["W1"], "bogus": 1},
                 "platform": g},                                   # unknown
                {"spec": {"problem": "gather", "sink": "M",
                          "sources": "W1"}, "platform": g},        # bare str
                {"spec": {"version": 99, "problem": "master-slave",
                          "master": "M"}, "platform": g},          # version
                {"spec": {"problem": "dag", "master": "M",
                          "dag": {"types": "oops"}}, "platform": g},
            ]
            for case in cases:
                out = handle_request(broker, {"op": "solve", "request": case})
                assert not out["ok"], case
                assert out["type"] == "SpecError", out


# ----------------------------------------------------------------------
# the versioned spec envelope on the wire
# ----------------------------------------------------------------------
class TestSpecEnvelope:
    def test_typed_envelope_solves(self):
        g = _star2()
        envelope = {"op": "solve", "request": {
            "spec": {"version": 1, "problem": "gather", "sink": "M",
                     "sources": ["W1", "W2"]},
            "platform": platform_to_dict(g),
        }}
        with Broker() as broker:
            out = handle_request(broker, envelope)
            assert out["ok"], out
            assert Fraction(out["throughput"]) == solve_gather(
                g, "M", ["W1", "W2"]
            ).throughput

    def test_envelope_and_legacy_fields_share_fingerprints(self):
        # a spec built in code and one decoded from the wire, with its
        # targets permuted and a default spelled out, are one request
        built = SolveRequest(ScatterSpec(
            platform=_star2(), source="M", targets=("W1", "W2")))
        decoded = request_from_dict({
            "spec": {"problem": "scatter", "source": "M",
                     "targets": ["W2", "W1"], "ports": "1"},
            "platform": platform_to_dict(_star2()),
        })
        assert built.fingerprint() == decoded.fingerprint()

    @pytest.mark.parametrize("model", ["one-port", "send-or-receive"])
    def test_scatter_ports_count_only_under_multiport(self, model):
        # a card count poses no other problem outside multiport: the
        # spec folds it to 1, so both share a fingerprint and an answer
        plain, carded = (SolveRequest(ScatterSpec(
            platform=_star2(), source="M", targets=("W1", "W2"),
            port_model=model, ports=ports)) for ports in (1, 3))
        assert carded.spec.ports == 1
        assert carded.fingerprint() == plain.fingerprint()
        answer = solve(carded.spec)
        assert (answer.port_model, answer.ports) == (model, 1)
        assert solution_to_dict(answer) == solution_to_dict(solve(plain.spec))

    def test_envelope_rejects_stray_legacy_fields_and_options(self):
        # nothing alongside a spec envelope may be silently ignored: a
        # half-migrated client must get an error, not a different solve
        g = platform_to_dict(_star2())
        with pytest.raises(BrokerError, match="legacy field"):
            request_from_dict({
                "spec": {"problem": "gather", "sink": "M",
                         "sources": ["W1"]},
                "platform": g, "source": "W2",
            })
        with pytest.raises(BrokerError, match="move .* into the spec"):
            request_from_dict({
                "spec": {"problem": "broadcast", "source": "M"},
                "platform": g, "options": {"tree_limit": 10},
            })
        # a served request names no solver: the wire still accepts what
        # earlier clients send beside every spec, and nothing else
        req = request_from_dict({
            "spec": {"problem": "broadcast", "source": "M"},
            "platform": g, "options": {"backend": "exact"},
        })
        assert "backend" not in req.spec.to_wire()
        with pytest.raises(BrokerError, match="'options'"):
            request_from_dict({
                "spec": {"problem": "broadcast", "source": "M"},
                "platform": g, "options": {"backend": "scipy"},
            })
        # ... and inside the spec it is an unknown field like any other
        with pytest.raises(SpecError, match="unknown spec field"):
            spec_from_wire(_star2(), {"problem": "broadcast", "source": "M",
                                      "backend": "exact"})

    def test_conflicting_problem_names_rejected(self):
        g = platform_to_dict(_star2())
        with pytest.raises(BrokerError, match="spec envelope says"):
            request_from_dict({
                "problem": "scatter",
                "spec": {"problem": "gather", "sink": "M",
                         "sources": ["W1"]},
                "platform": g,
            })

    def test_problems_op_lists_the_registry(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "problems"})
            assert out["ok"]
            assert set(out["problems"]) == ALL_PROBLEMS

    def test_registry_listing_is_pinned(self):
        """``describe()`` and the ``problems`` op (``GET /problems``) are
        pinned byte for byte; ``warm_resolve`` in them is derived from
        each entry's warm model, and a problem with a model names
        ``"model"`` as its solver."""
        for problem in registered_problems():
            entry = resolve(problem)
            assert entry.capabilities.warm_resolve == (
                entry.warm_model is not None) == (
                describe()[problem]["solver"] == "model")
        listing = json.dumps(describe(), sort_keys=True).encode()
        assert hashlib.sha256(listing).hexdigest() == (
            "267a36ea1bcec19134daf19e1f974ee9d3624435248d48ebe80a86114cdb6409")
        with Broker() as broker:
            reply = compact_json(handle_request(broker, {"op": "problems"}))
        assert hashlib.sha256(reply).hexdigest() == (
            "abeffe9c7f9ffdbe804513f0c18f44138a934ab228ae37a8f6d798dfc6c75389")


# ----------------------------------------------------------------------
# warm re-solve as a declared capability (scatter + gather join SSMS)
# ----------------------------------------------------------------------
class TestWarmCollectives:
    def test_scatter_warm_resolve_equals_cold(self):
        fig2 = generators.paper_figure2_multicast()
        mutated = fig2.scale(comm="2/3", compute=2)
        with Broker() as broker:
            # a structure's first build keeps no model: prime it twice
            broker.solve(SolveRequest(ScatterSpec(
                platform=fig2.scale(compute=3), source="P0",
                targets=("P5", "P6"))))
            first = broker.solve(SolveRequest(ScatterSpec(
                platform=fig2, source="P0", targets=("P5", "P6"))))
            second = broker.solve(SolveRequest(ScatterSpec(
                platform=mutated, source="P0", targets=("P5", "P6"))))
            assert not first.warm and second.warm and not second.cached
            cold = solve_scatter(mutated, "P0", ["P5", "P6"])
            assert second.solution.throughput == cold.throughput
            second.solution.verify()

    def test_gather_warm_resolve_equals_cold(self):
        g = generators.star(3, bidirectional=True)
        with Broker() as broker:
            # a structure's first build keeps no model: prime it twice
            for prime in (g, g.scale(compute=2)):
                broker.solve(SolveRequest(GatherSpec(
                    platform=prime, sink="M", sources=("W1", "W2", "W3"))))
            for factor in ("1/2", "3", "7/5"):
                mutated = g.scale(comm=factor)
                warm = broker.solve(SolveRequest(GatherSpec(
                    platform=mutated, sink="M", sources=("W1", "W2", "W3"))))
                assert warm.warm
                cold = solve_gather(mutated, "M", ["W1", "W2", "W3"])
                assert warm.solution.throughput == cold.throughput

    def test_incremental_solver_generic_spec_api(self):
        inc = IncrementalSolver()
        fig2 = generators.paper_figure2_multicast()
        spec = ScatterSpec(platform=fig2, source="P0", targets=("P5", "P6"))
        reweighted = ScatterSpec(platform=fig2.scale(compute=2),
                                 source="P0", targets=("P5", "P6"))
        # a re-weighting keeps the hot model
        for builds, prime in enumerate((spec, reweighted), 1):
            sol, warm = inc.solve_spec_ex(prime)
            assert not warm and inc.stats.full_rebuilds == builds
            assert inc.has_model_for(spec) == (builds == 2)
        mutated = ScatterSpec(platform=fig2.scale(comm="5/7"),
                              source="P0", targets=("P5", "P6"))
        sol2, warm2 = inc.solve_spec_ex(mutated)
        assert warm2 and inc.stats.warm_solves == 1
        assert sol2.throughput == solve_scatter(
            mutated.platform, "P0", ["P5", "P6"]
        ).throughput

    def test_distinct_structures_do_not_collide(self):
        # same topology, different target sets / port models => different
        # hot models (the spec key is structural)
        inc = IncrementalSolver()
        g = generators.star(3, bidirectional=True)
        # a re-weighting keeps the hot model
        for weights in (g, g.scale(comm=2)):
            inc.solve_spec(ScatterSpec(platform=weights, source="M",
                                       targets=("W1", "W2")))
            inc.solve_spec(ScatterSpec(platform=weights, source="M",
                                       targets=("W1", "W2", "W3")))
            inc.solve_spec(GatherSpec(platform=weights, sink="M",
                                      sources=("W1", "W2")))
        assert len(inc) == 3
        assert inc.stats.full_rebuilds == 6 and inc.stats.warm_solves == 0

    def test_topology_change_falls_back_for_scatter(self):
        inc = IncrementalSolver()
        inc.solve_spec(ScatterSpec(
            platform=generators.star(3, bidirectional=True),
            source="M", targets=("W1", "W2")))
        bigger = generators.star(4, bidirectional=True)
        sol = inc.solve_spec(ScatterSpec(platform=bigger, source="M",
                                         targets=("W1", "W2")))
        assert inc.stats.full_rebuilds == 2 and inc.stats.warm_solves == 0
        assert sol.throughput == solve_scatter(bigger, "M",
                                               ["W1", "W2"]).throughput

    def test_non_warm_capable_spec_is_a_typed_error(self):
        inc = IncrementalSolver()
        from repro.problems import BroadcastSpec

        with pytest.raises(SpecError, match="warm_resolve"):
            inc.solve_spec(BroadcastSpec(platform=_star2(), source="M"))

    def test_forget_drops_all_roots_of_a_topology(self):
        inc = IncrementalSolver()
        g = generators.star(3, bidirectional=True)
        # a re-weighting keeps the hot model
        for weights in (g, g.scale(comm=2)):
            inc.solve_spec(MasterSlaveSpec(platform=weights, master="M"))
            inc.solve_spec(GatherSpec(platform=weights, sink="M",
                                      sources=("W1", "W2")))
        assert inc.forget(g) == 2
        assert len(inc) == 0


# ----------------------------------------------------------------------
# gather through the full service path (schedule included)
# ----------------------------------------------------------------------
class TestGatherService:
    def test_gather_include_schedule_through_broker(self):
        g = generators.star(3, bidirectional=True)
        with Broker() as broker:
            res = broker.solve(SolveRequest(GatherSpec(
                platform=g, sink="M",
                sources=("W1", "W2", "W3")), include_schedule=True))
            assert res.schedule is not None
            assert res.schedule.throughput == res.solution.throughput
            delivered = sum(
                (rate for _, rate in res.schedule.routes["W1"]),
                start=Fraction(0),
            )
            assert delivered == res.solution.throughput * res.schedule.period

    def test_gather_schedule_over_the_wire(self):
        g = generators.star(2, bidirectional=True)
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "request": {
                "spec": {"problem": "gather", "sink": "M",
                         "sources": ["W1", "W2"]},
                "platform": platform_to_dict(g),
                "include_schedule": True,
            }})
            assert out["ok"], out
            assert "schedule" in out


# ----------------------------------------------------------------------
# a problem with an LP model is solved by that model
# ----------------------------------------------------------------------
def _random_model_spec(problem, seed):
    """A spec of ``problem`` on ``random_connected(6, seed)``, its root
    and targets drawn, and shuffled, by ``seed``."""
    rng = random.Random(seed)
    platform = generators.random_connected(6, seed=seed)
    nodes = list(platform.nodes())
    rng.shuffle(nodes)
    root, others = nodes[0], nodes[1:rng.randint(2, len(nodes) - 1)]
    if problem == "all-to-all":
        return AllToAllSpec(platform=platform, participants=(root, *others))
    if problem == "scatter":
        return ScatterSpec(platform=platform, source=root,
                           targets=tuple(others))
    if problem == "gather":
        return GatherSpec(platform=platform, sink=root,
                          sources=tuple(others))
    if problem == "multiport":
        return MultiportSpec(platform=platform, master=root,
                             ports=rng.randint(2, 3))
    return resolve(problem).spec_type(platform=platform, master=root)


class TestAModelIsTheOnlyRoad:
    @pytest.mark.parametrize("problem", MODEL_PROBLEMS)
    def test_registry_and_engine_give_the_same_bytes(self, problem):
        """The registry's cold road (``execute_request``) and a fresh
        engine's incremental solver run the same model: byte-identical
        answers on 40 random platforms."""
        for seed in range(40):
            spec = _random_model_spec(problem, seed)
            by_registry = execute_request(SolveRequest(spec))
            by_engine = IncrementalSolver().solve_spec(spec)
            assert compact_json(solution_to_wire(by_registry)) == \
                compact_json(solution_to_wire(by_engine)), (problem, seed)

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS)
    def test_the_float_road_runs_the_model_unverified(self, problem,
                                                      monkeypatch):
        """``solve(spec, backend="scipy")`` — the road a float
        cross-check takes — builds, solves under HiGHS and packages
        through the model; the packager verifies only exact answers."""
        spec = _example(problem)
        exact = solve(spec)
        verified = []
        monkeypatch.setattr(SteadyStateSolution, "verify",
                            lambda sol: verified.append(sol))
        approx = solve(spec, backend="scipy")
        assert verified == []
        assert abs(float(approx.throughput) - float(exact.throughput)) < 1e-7
        solve(spec)
        assert len(verified) == 1
