"""Hypothesis round-trip properties for serialisation."""

import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.platform import generators as gen
from repro.platform.serialization import (
    platform_from_json,
    platform_to_json,
    schedule_from_dict,
    schedule_to_dict,
)

SLOW = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def any_generated_platform(draw):
    kind = draw(st.sampled_from(["star", "chain", "tree", "grid", "random"]))
    seed = draw(st.integers(min_value=0, max_value=9999))
    if kind == "star":
        n = draw(st.integers(min_value=1, max_value=5))
        return gen.star(n)
    if kind == "chain":
        n = draw(st.integers(min_value=2, max_value=6))
        return gen.chain(n)
    if kind == "tree":
        return gen.binary_tree(draw(st.integers(min_value=1, max_value=3)),
                               seed=seed)
    if kind == "grid":
        return gen.grid2d(draw(st.integers(min_value=1, max_value=3)),
                          draw(st.integers(min_value=1, max_value=3)),
                          seed=seed)
    return gen.random_connected(draw(st.integers(min_value=2, max_value=7)),
                                seed=seed,
                                forwarder_prob=draw(
                                    st.sampled_from([0.0, 0.3])))


class TestRoundTripProperties:
    @settings(**SLOW)
    @given(any_generated_platform())
    def test_platform_round_trip_exact(self, platform):
        clone = platform_from_json(platform_to_json(platform))
        assert clone.nodes() == platform.nodes()
        for node in platform.nodes():
            assert clone.w(node) == platform.w(node)
        for spec in platform.edges():
            assert clone.c(spec.src, spec.dst) == spec.c
        assert clone.num_edges == platform.num_edges

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(any_generated_platform())
    def test_schedule_round_trip_executes_identically(self, platform):
        from repro.core.master_slave import solve_master_slave
        from repro.schedule.reconstruction import reconstruct_schedule
        from repro.simulator.periodic_runner import PeriodicRunner

        master = platform.nodes()[0]
        sched = reconstruct_schedule(solve_master_slave(platform, master))
        clone = schedule_from_dict(
            json.loads(json.dumps(schedule_to_dict(sched))), platform)
        a = PeriodicRunner(sched).run(7)
        b = PeriodicRunner(clone).run(7)
        assert a.total_completed == b.total_completed
        assert a.deficit == b.deficit


# ----------------------------------------------------------------------
# the one weight parser: a fast path in front of Fraction, never beside it
# ----------------------------------------------------------------------
def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 — the class is the answer
        return type(exc)


#: spellings the fast path takes, ones it must hand to Fraction, and
#: ones Fraction refuses — mixed freely by the strategy below
_SPELLINGS = st.one_of(
    st.builds("{}".format, st.integers(0, 10**30)),
    st.builds("{}/{}".format, st.integers(0, 10**12),
              st.integers(0, 10**12)),
    st.builds("{:0{}d}/{}".format, st.integers(0, 99), st.integers(1, 5),
              st.integers(1, 99)),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-9, 9)),
    st.sampled_from([
        "3", "6/8", "0/5", "-1/2", "+3", " 1/2", "1/2 ", "1 /2", "1e3",
        "1E-2", "0.25", ".5", "1_000", "1/0", "0/0", "1/00", "", "/", "/5",
        "3/", "1/2/3", "٣", "١/٢", "²", "１", "inf",
        "-inf", "nan", "0x10", "1/2\n",
    ]),
    st.text(alphabet="0123456789/ +-._e٣", max_size=8),
    st.integers(-5, 5), st.floats(allow_nan=False, allow_infinity=False),
    st.none(), st.booleans(), st.binary(max_size=3),
)


class TestWeightParser:
    @settings(max_examples=400, deadline=None)
    @given(_SPELLINGS)
    def test_same_value_or_same_error_as_fraction(self, text):
        from repro.platform.serialization import decode_weight

        if isinstance(text, str) and text == "inf":
            return  # the codec's own spelling for a forwarder
        assert _outcome(decode_weight, text) == _outcome(Fraction, text)

    def test_inf_is_the_forwarder_weight(self):
        from repro._rational import INF
        from repro.platform.serialization import decode_weight

        assert decode_weight("inf") == INF

    def test_the_service_codec_has_no_parser_of_its_own(self):
        from repro.platform import serialization
        from repro.service import wire

        assert wire._decode_weight is serialization.decode_weight
        assert serialization._decode_weight is serialization.decode_weight
