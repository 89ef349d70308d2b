"""Hermetic unit tests of the benchmark harness (no sockets, no servers)."""

from __future__ import annotations

import pytest

from repro.service.fingerprint import platform_signature, topology_signature

from bench import layers, runner, stats, workloads
from bench.stats import Span


def _wire(plan):
    ops = plan.prime + plan.warmup
    for rnd in plan.rounds:
        ops = ops + rnd.open_ops + rnd.closed_ops
    return [op.wire for op in ops], [rnd.open_due for rnd in plan.rounds]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    def build(seed):
        return workloads.build_plan(name, seed, rounds=2, open_seconds=0.5,
                                    scale=1 / 6)
    first, again, other = _wire(build(7)), _wire(build(7)), _wire(build(8))
    assert first == again
    assert first[0] != other[0]
    assert first[1] != other[1]


def test_rounds_are_disjoint_segments_of_one_stream():
    one = workloads.build_plan("cold_unique", 3, rounds=1, open_seconds=0.5)
    two = workloads.build_plan("cold_unique", 3, rounds=2, open_seconds=0.5)
    # the closed-loop list is split over the rounds; the stream is the same
    head = [op.wire for op in two.rounds[0].open_ops + two.rounds[0].closed_ops]
    assert _wire(one)[0][:len(one.warmup) + len(head)] == \
        [op.wire for op in two.warmup] + head
    assert len(two.rounds[0].closed_ops) == len(one.rounds[0].closed_ops) // 2
    assert not (set(head) & {op.wire for op in two.rounds[1].open_ops
                             + two.rounds[1].closed_ops})


def test_nearest_rank_percentile():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 5) == 15
    assert stats.percentile(values, 30) == 20
    assert stats.percentile(values, 40) == 20
    assert stats.percentile(values, 50) == 35
    assert stats.percentile(values, 90) == 50
    assert stats.percentile(values, 100) == 50
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_best_round():
    assert stats.best([3.0, 2.0, 5.0], "lower") == 2.0
    assert stats.best([3.0, 2.0, 5.0], "higher") == 5.0
    with pytest.raises(ValueError):
        stats.best([1.0], "sideways")


def test_backlog_check_counts_what_was_answered_by_the_deadline():
    class S:  # what in_time reads of a loadgen.Sample
        def __init__(self, due, latency):
            self.due, self.done = 100.0 + due, 100.0 + due + latency

    offsets = [0.0, 1.0, 1.9, 1.95]
    samples = [S(0.0, 0.01), S(1.0, 1.5), S(1.9, 0.2), S(1.95, 0.4)]
    # a 2 s schedule and a 250 ms limit: the 1.5 s reply and the one
    # that took 400 ms at the very end are late, the 200 ms one is not
    assert runner.in_time(samples, offsets, deadline=2.25) == 2
    assert runner.in_time(samples, offsets, deadline=10.0) == 4


def test_a_reply_without_throughput_is_a_wrong_answer():
    import json

    from bench.loadgen import Sample
    from bench.verify import Verdict, check_answers, check_replies

    op = workloads.ColdSource(workloads._rng(5, "test")).next_op()
    request = op.requests[0]
    body = json.dumps({"ok": True, "fingerprint": request.fingerprint()})
    sample = Sample(op, 0.0, 0.0, 0.0, 0.01, 200, body.encode("utf-8"))
    verdict, answers = Verdict(), {}
    check_replies([sample], 250.0, verdict, answers, timed=True)
    assert (verdict.failed, verdict.counts["wrong"]) == (1, 1)
    check_answers({request.fingerprint(): request}, answers, 1,
                  "cold_unique", verdict)  # nothing to re-solve, no raise
    assert verdict.exact_checked == 0


def test_a_slow_reply_is_over_the_limit_but_does_not_fail():
    import json

    from bench.loadgen import Sample
    from bench.verify import Verdict, check_replies

    op = workloads.ColdSource(workloads._rng(5, "test")).next_op()
    body = json.dumps({"ok": True, "throughput": "1/2",
                       "fingerprint": op.requests[0].fingerprint()})
    # answered 9 s after its due time: a host stall, not a wrong answer
    sample = Sample(op, 0.0, 0.0, 0.0, 9.0, 200, body.encode("utf-8"))
    verdict = Verdict()
    check_replies([sample], 250.0, verdict, {}, timed=True)
    assert (verdict.failed, verdict.counts["over_limit"]) == (0, 1)
    assert verdict.counts["ok"] == 1


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("request", 0.0, 10.0, span_id=0, parent=None, request=0),
        Span("decode", 1.0, 4.0, span_id=1, parent=0, request=0),
        Span("platform", 2.0, 3.0, span_id=2, parent=1, request=0),
        # two overlapping children: their union [5, 9] is counted once
        Span("engine", 5.0, 8.0, span_id=3, parent=0, request=0),
        Span("engine", 7.0, 9.0, span_id=4, parent=0, request=0),
        # a child that outlives its parent is clipped to it
        Span("late", 3.5, 6.0, span_id=5, parent=1, request=0),
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0 - 0.5)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    by_name = stats.self_time_by_name(spans)
    assert by_name["engine"] == pytest.approx(5.0)
    assert layers.coverage(spans, route_post_seconds=10.0, requests=1) == \
        pytest.approx(sum(own.values()) / 10.0 - own[0] / 10.0)


def test_drift_keeps_the_topology_and_changes_the_weights():
    source = workloads.DriftSource(workloads._rng(5, "test"))
    bases = {id(base): base for base, _ in source.members}
    topologies = {topology_signature(b) for b in bases.values()}
    weighted = {platform_signature(b) for b in bases.values()}
    seen = set()
    for _ in range(200):
        request = source.next_request()
        assert topology_signature(request.platform) in topologies
        assert platform_signature(request.platform) not in weighted
        assert request.fingerprint() not in seen
        seen.add(request.fingerprint())


def test_cold_never_repeats_a_fingerprint_or_a_topology():
    source = workloads.ColdSource(workloads._rng(5, "test"))
    requests = [source.next_request() for _ in range(400)]
    assert len({r.fingerprint() for r in requests}) == len(requests)
    assert len({(r.problem, topology_signature(r.platform))
                for r in requests}) == len(requests)


def test_zipf_ranks_are_skewed_and_in_range():
    draw = workloads.zipf_sampler(workloads._rng(1, "zipf"), 384, s=1.0)
    ranks = [draw() for _ in range(20000)]
    assert min(ranks) == 0 and max(ranks) < 384
    head = sum(1 for r in ranks if r < 64) / len(ranks)
    assert 0.70 < head < 0.75  # H(64) / H(384) = 0.726


def test_a_renamed_public_function_is_missing_not_fatal():
    paths = dict(layers.PATHS,
                 request_from_dict="repro.service.api:no_such_function",
                 HashRing="repro.service.no_such_module:HashRing")
    probes = layers.Probes(paths)
    assert probes.get("request_from_dict") is None
    assert probes.get("HashRing") is None
    assert not probes.patch("request_from_dict", lambda fn: fn)
    assert probes.get("encode_frame") is not None
    assert probes.missing == ["repro.service.api:no_such_function",
                              "repro.service.no_such_module:HashRing"]
    # the pipeline still walks the stages it can
    rec = layers.Recorder()
    plan = workloads.build_plan("cold_unique", 1, rounds=1, open_seconds=0.2)
    layers.Pipeline(probes, rec).run_op(plan.rounds[0].closed_ops[0], 0)
    names = {sp.name for sp in rec.spans}
    assert "broker.engine_run" in names
    assert "api.request_decode" not in names and "sharding.route" not in names
    metrics = layers.metrics_from_spans(rec.spans)
    assert metrics["api.request_decode_us"] is None
    assert metrics["broker.engine_cold_us"] > 0


def test_patches_are_undone():
    from repro.service.cache import SolutionCache
    original = SolutionCache.__dict__["get"]
    probes = layers.Probes()
    layers._install_wraps(probes, layers.Recorder())
    assert SolutionCache.__dict__["get"] is not original
    probes.restore()
    assert SolutionCache.__dict__["get"] is original


def test_benchmark_json_names_what_the_code_measures():
    import json
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        contract = json.load(handle)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.contract_why() for w in workloads.WORKLOADS.values()}
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert {m["name"]: (m["unit"], m["better"])
            for m in contract["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == \
        layers.UNITS
    from bench.__main__ import RUN_SECONDS
    assert contract["run_seconds"] == RUN_SECONDS
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "bench/run.py"]
