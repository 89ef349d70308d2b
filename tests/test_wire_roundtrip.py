"""Auto-generated wire round-trips for every registered problem.

The guard of the shard wire codec: for each entry in the solver
registry, the example spec is encoded/decoded through the spec codec
and its solved solution through ``repro.service.wire``, asserting (a)
exact (``Fraction``-identical) round-trips and (b) field-set equality
between each dataclass and its wire keys.  A renamed wire key, a kind
without its decoder branch or a field added to a spec or solution
dataclass without its codec counterpart fails here by construction —
no per-problem test needs writing.  What the registry itself must hold
(an example per problem, role fields that name fields) is checked by
``register()`` as each spec is declared.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.platform import generators
from repro.problems import registered_problems, resolve
from repro.service import wire
from repro.service.wire import solution_from_wire, solution_to_wire

#: Fields the decoder binds from the caller's spec: a reply never
#: echoes the request's platform, a DAG's task graph or the port model
#: a steady-state answer was solved under (``spec.port_setting()``).
SPEC_BOUND = {"platform", "dag", "port_model", "ports"}

ALL_PROBLEMS = registered_problems()


def example_spec(problem):
    entry = resolve(problem)
    platform = generators.star(2, bidirectional=True)
    return entry, entry.example(platform, "M", ("W1", "W2"))


@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_spec_roundtrip_and_field_sets(problem):
    entry, spec = example_spec(problem)
    payload = spec.to_wire()

    # wire keys == dataclass fields (platform travels out of band)
    field_names = {f.name for f in dataclasses.fields(spec)
                   if f.name != "platform"}
    wire_keys = set(payload) - {"version", "problem"}
    assert wire_keys == field_names, (
        f"{problem}: spec wire keys {sorted(wire_keys)} != dataclass "
        f"fields {sorted(field_names)}")

    decoded = entry.spec_type.from_wire(spec.platform, payload)
    assert type(decoded) is type(spec)
    assert decoded.to_wire() == payload  # exact, canonical
    for name in field_names:
        assert getattr(decoded, name) == getattr(spec, name)


@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_solution_roundtrip_is_exact(problem):
    entry, spec = example_spec(problem)
    solution = entry.solve(spec)
    payload = solution_to_wire(solution)
    assert not SPEC_BOUND & set(payload)
    decoded = solution_from_wire(payload, spec)
    assert type(decoded) is type(solution)
    assert decoded.platform is spec.platform
    # Fraction-identical: the canonical re-encoding must be equal,
    # including every "p/q" rational string
    assert solution_to_wire(decoded) == payload


@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_solution_wire_keys_match_dataclass(problem):
    entry, spec = example_spec(problem)
    solution = entry.solve(spec)
    payload = solution_to_wire(solution)
    field_names = {f.name for f in dataclasses.fields(solution)} - SPEC_BOUND
    wire_keys = set(payload) - {"kind"}
    # a field that is None on every served answer (dag affinity) is
    # not encoded, but a wire key with no dataclass field is always drift
    assert wire_keys <= field_names, (
        f"{problem}: wire keys with no dataclass field: "
        f"{sorted(wire_keys - field_names)}")
    missing = field_names - wire_keys
    for name in sorted(missing):
        assert getattr(solution, name) is None, (
            f"{problem}: dataclass field {name!r} never encoded")


def test_delegated_steady_state_fields_covered():
    # the steady-state branch delegates to solution_to_dict; assert the
    # delegation covers every dataclass field so drift cannot hide there
    entry, spec = example_spec("master-slave")
    solution = entry.solve(spec)
    payload = solution_to_wire(solution)
    field_names = {f.name for f in dataclasses.fields(solution)} - SPEC_BOUND
    wire_keys = set(payload) - {"kind"}
    missing = {name for name in field_names - wire_keys
               if getattr(solution, name) is not None}
    assert not missing, (
        f"steady-state fields never encoded: {sorted(missing)}")


def test_every_wire_branch_has_a_registered_producer():
    # each isinstance branch in solution_to_wire corresponds to at least
    # one registered problem's solution type
    produced = set()
    for problem in ALL_PROBLEMS:
        entry, spec = example_spec(problem)
        produced.add(type(entry.solve(spec)))
    for cls in (wire.SteadyStateSolution, wire.BroadcastSolution,
                wire.MulticastAnalysis, wire.DagSolution):
        assert cls in produced, (
            f"wire codec branch for {cls.__name__} has no registered "
            f"producer — dead codec branch or missing registration")


def test_a_dag_answer_with_an_affinity_is_refused_on_encode():
    # DagSpec has no affinity field, so no served answer carries one; an
    # answer that does is refused on the shard, not stripped on the wire
    entry, spec = example_spec("dag")
    solution = dataclasses.replace(entry.solve(spec),
                                   affinity={("W1", "T0"): 2})
    with pytest.raises(wire.WireCodecError, match="affinity"):
        solution_to_wire(solution)
