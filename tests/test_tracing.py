"""Tests for request tracing: span trees, the trace store, remote span
grafting, structured events, the Prometheus view, and the end-to-end
acceptance path — a solve routed over TCP whose returned trace contains
both broker-side routing spans and shard-side simplex spans."""

import json
import logging
import urllib.request

import pytest

from repro.platform import generators
from repro.problems import MasterSlaveSpec
from repro.service.api import AsyncServiceServer, handle_request
from repro.service.broker import Broker, SolveRequest
from repro.service.metrics import render_prometheus
from repro.service.sharding import ShardedBroker
from repro.service.transport import AsyncShardServer
from repro.service.tracing import (
    EventLog,
    Trace,
    TraceStore,
    annotate,
    current_span,
    graft_remote,
    render_waterfall,
    span,
    start_trace,
)


def _request() -> SolveRequest:
    return SolveRequest(MasterSlaveSpec(platform=generators.paper_figure1(),
                                        master="P1"))


# ----------------------------------------------------------------------
# Span / Trace basics
# ----------------------------------------------------------------------
class TestTraceBasics:
    def test_span_tree_shape_and_ordering(self):
        trace = Trace("unit")
        root = trace.root  # created by the constructor, named "unit"
        child = trace.new_span("child", root.span_id)
        child.annotate(pivots=7)
        child.finish()
        sibling = trace.new_span("sibling", root.span_id)
        sibling.finish()
        trace.finish()

        d = trace.as_dict()
        assert d["trace_id"] == trace.trace_id
        assert d["name"] == "unit"
        spans = d["spans"]
        assert [s["name"] for s in spans][0] == "unit"
        by_name = {s["name"]: s for s in spans}
        assert by_name["child"]["parent"] == by_name["unit"]["id"]
        assert by_name["child"]["annotations"]["pivots"] == 7
        assert all(s["duration_seconds"] >= 0 for s in spans)

    def test_no_active_trace_means_null_context(self):
        assert current_span() is None
        with span("orphan") as sp:
            assert sp is None          # no-op context: zero overhead path
        annotate(ignored=True)         # must not raise without a trace
        assert current_span() is None

    def test_start_trace_nests_spans_and_restores_state(self):
        with start_trace("outer", color="red") as tr:
            assert current_span().trace is tr
            with span("inner", step=1) as sp:
                assert sp is not None
                assert current_span() is sp
            assert current_span() is not None  # back to the root span
        assert current_span() is None
        names = [s["name"] for s in tr.as_dict()["spans"]]
        assert names == ["outer", "inner"]
        root = tr.as_dict()["spans"][0]
        assert root["annotations"]["color"] == "red"

    def test_span_records_error_annotation(self):
        with pytest.raises(ValueError):
            with start_trace("boom"):
                with span("failing"):
                    raise ValueError("nope")
        # The trace context exited; nothing should linger thread-locally.
        assert current_span() is None


# ----------------------------------------------------------------------
# Remote span grafting
# ----------------------------------------------------------------------
class TestGraftRemote:
    def test_graft_rebases_and_reparents(self):
        remote = Trace("shard.solve")
        r_child = remote.new_span("simplex.solve", remote.root.span_id)
        r_child.finish()
        remote.finish()
        wire = remote.span_wire()

        with start_trace("caller") as tr:
            with span("transport.async") as sp:
                sp.duration_seconds = 0.010
                n = graft_remote(sp, wire, round_trip_seconds=0.010)
        assert n == 2
        d = tr.as_dict()
        by_name = {s["name"]: s for s in d["spans"]}
        assert by_name["shard.solve"]["parent"] == by_name["transport.async"]["id"]
        assert by_name["simplex.solve"]["parent"] == by_name["shard.solve"]["id"]
        assert by_name["shard.solve"]["annotations"]["remote"] is True
        # Rebase: the remote root starts at or after the transport span.
        assert (by_name["shard.solve"]["start_seconds"]
                >= by_name["transport.async"]["start_seconds"])
        # Grafted ids must not collide with local ones.
        assert len({s["id"] for s in d["spans"]}) == len(d["spans"])

    def test_graft_empty_wire_is_noop(self):
        with start_trace("caller") as tr:
            with span("transport.async") as sp:
                assert graft_remote(sp, [], 0.001) == 0
        assert len(tr.as_dict()["spans"]) == 2


# ----------------------------------------------------------------------
# TraceStore: bounded recency ring + always-keep-slow ring
# ----------------------------------------------------------------------
class TestTraceStore:
    @staticmethod
    def _trace(name: str, duration: float) -> Trace:
        tr = Trace(name)
        tr.root.duration_seconds = duration
        tr.finish()
        return tr

    def test_recent_eviction_keeps_slow(self):
        store = TraceStore(capacity=4, slow_capacity=4, slow_threshold=0.5)
        slow = self._trace("slow-one", 1.0)
        store.add(slow)
        for i in range(10):
            store.add(self._trace(f"fast-{i}", 0.001))
        assert store.get(slow.trace_id) is not None
        snap = store.snapshot()
        assert snap["slow_captured"] == 1
        assert snap["captured"] == 11
        index = store.index()
        assert any(e["trace_id"] == slow.trace_id and e["slow"]
                   for e in index)

    def test_slow_ring_evicts_only_by_slow(self):
        store = TraceStore(capacity=2, slow_capacity=2, slow_threshold=0.5)
        first, second, third = (self._trace(f"s{i}", 1.0) for i in range(3))
        for tr in (first, second, third):
            store.add(tr)
        assert store.get(first.trace_id) is None      # bumped by third
        assert store.get(second.trace_id) is not None
        assert store.get(third.trace_id) is not None

    def test_index_limit_and_missing_get(self):
        store = TraceStore(capacity=8)
        for i in range(5):
            store.add(self._trace(f"t{i}", 0.001))
        assert len(store.index(limit=3)) == 3
        assert store.get("no-such-id") is None


# ----------------------------------------------------------------------
# Structured events
# ----------------------------------------------------------------------
class TestEventLog:
    def test_emit_is_json_logged_and_ring_bounded(self, caplog):
        log = EventLog(capacity=3)
        with caplog.at_level(logging.INFO, logger="repro.events"):
            for i in range(5):
                log.emit("shard.eject", shard=i)
        recent = log.recent()
        assert len(recent) == 3
        assert [e["shard"] for e in recent] == [2, 3, 4]
        assert all(e["event"] == "shard.eject" and "ts" in e
                   for e in recent)
        parsed = json.loads(caplog.records[-1].getMessage())
        assert parsed["event"] == "shard.eject" and parsed["shard"] == 4

    def test_recent_limit(self):
        log = EventLog()
        for i in range(4):
            log.emit("x", i=i)
        assert len(log.recent(limit=2)) == 2
        assert log.recent(limit=0) == [] and log.recent(limit=-1) == []


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRendering:
    def test_waterfall_lists_every_span_indented(self):
        with start_trace("request.solve", problem="demo") as tr:
            with span("engine.run"):
                with span("cache.lookup"):
                    pass
        text = render_waterfall(tr.as_dict())
        assert tr.trace_id in text
        lines = text.splitlines()
        assert any(line.lstrip().startswith("request.solve")
                   for line in lines)
        idx = {name: next(i for i, l in enumerate(lines) if name in l)
               for name in ("request.solve", "engine.run", "cache.lookup")}
        indent = {k: len(lines[v]) - len(lines[v].lstrip())
                  for k, v in idx.items()}
        assert indent["request.solve"] < indent["engine.run"] \
            < indent["cache.lookup"]
        assert "problem=demo" in text

    def test_prometheus_rendering_of_snapshot(self):
        with Broker() as broker:
            broker.solve(_request())
            response = handle_request(broker, {"op": "metrics"})
        text = render_prometheus(response)
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total" in text
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert ('repro_request_duration_seconds_bucket{endpoint="solve",'
                'le="+Inf"} 1') in text
        assert "repro_cache_hits_total" in text
        assert text.endswith("\n")

    def test_prometheus_includes_trace_counters(self):
        store = TraceStore()
        with Broker() as broker:
            handle_request(broker, {"op": "solve",
                                    "request": _solve_wire()},
                           trace_store=store)
            response = handle_request(broker, {"op": "metrics"},
                                      trace_store=store)
        text = render_prometheus(response)
        assert "repro_traces_captured_total 1" in text


def _solve_wire() -> dict:
    from repro.service.api import request_to_dict

    return request_to_dict(_request())


# ----------------------------------------------------------------------
# API surface: /traces, /trace/<id>, /events, inline traces
# ----------------------------------------------------------------------
class TestTraceApi:
    def test_solve_records_trace_and_trace_op_fetches_it(self):
        store = TraceStore()
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve",
                                          "request": _solve_wire()},
                                 trace_store=store)
            assert out["ok"] and "trace_id" in out
            assert "trace" not in out  # stored, not inlined

            listing = handle_request(broker, {"op": "traces"},
                                     trace_store=store)
            assert listing["ok"]
            assert any(e["trace_id"] == out["trace_id"]
                       for e in listing["traces"])

            got = handle_request(broker, {"op": "trace",
                                          "trace_id": out["trace_id"]},
                                 trace_store=store)
            assert got["ok"]
            names = {s["name"] for s in got["trace"]["spans"]}
            assert "engine.run" in names and "cache.lookup" in names

    def test_trace_op_missing_id_is_404(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "trace",
                                          "trace_id": "nope"},
                                 trace_store=TraceStore())
        assert not out["ok"] and out["status"] == 404

    def test_inline_trace_without_store(self):
        with Broker() as broker:
            out = handle_request(broker, {"op": "solve", "trace": True,
                                          "request": _solve_wire()})
        assert out["ok"]
        names = {s["name"] for s in out["trace"]["spans"]}
        assert "request.solve" in names and "simplex.solve" in names

    def test_events_op(self):
        from repro.service.tracing import log_event

        log_event("shard.eject", shard=9)
        with Broker() as broker:
            out = handle_request(broker, {"op": "events", "limit": 5})
        assert out["ok"]
        assert any(e["event"] == "shard.eject" for e in out["events"])

    def test_events_limit_zero_is_no_events(self):
        from repro.service.tracing import log_event

        for i in range(3):
            log_event("shard.eject", shard=i)
        with Broker() as broker:
            server = AsyncServiceServer(broker=broker).start_in_thread()
            try:
                url = f"http://127.0.0.1:{server.port}/events?limit="
                for limit, count in (("0", 0), ("2", 2)):
                    with urllib.request.urlopen(url + limit,
                                                timeout=30) as reply:
                        assert len(json.load(reply)["events"]) == count
            finally:
                server.shutdown()


# ----------------------------------------------------------------------
# Acceptance: one trace spanning broker → ring → TCP transport → simplex
# ----------------------------------------------------------------------
@pytest.fixture()
def shard_server():
    server = AsyncShardServer(("127.0.0.1", 0)).start_in_thread()
    yield server
    server.shutdown()


class TestEndToEnd:
    def test_tcp_routed_solve_returns_cross_boundary_trace(
            self, shard_server):
        store = TraceStore()
        with ShardedBroker(shards=0,
                           shard_addresses=[shard_server.address]) as sharded:
            out = handle_request(sharded, {"op": "solve",
                                           "request": _solve_wire()},
                                 trace_store=store)
            assert out["ok"]
            trace = store.get(out["trace_id"]).as_dict()

        names = {s["name"] for s in trace["spans"]}
        # Broker-side routing spans …
        assert "request.solve" in names
        assert any(n.startswith("transport.") for n in names)
        # … and shard-side spans crossed the wire and re-parented.
        assert "shard.solve" in names
        assert "engine.run" in names
        simplex = [s for s in trace["spans"]
                   if s["name"] == "simplex.solve"]
        assert simplex and "pivots" in simplex[0]["annotations"]
        phases = [s for s in trace["spans"]
                  if s["name"].startswith("simplex.cold.")]
        assert phases and all(p["annotations"]["pivots"] >= 0
                              for p in phases)

        by_id = {s["id"]: s for s in trace["spans"]}
        shard_root = next(s for s in trace["spans"]
                          if s["name"] == "shard.solve")
        assert by_id[shard_root["parent"]]["name"].startswith("transport.")
        # The whole tree is connected: every parent id resolves.
        for s in trace["spans"]:
            assert s["parent"] is None or s["parent"] in by_id

    def test_pipe_shard_trace_and_waterfall(self):
        with ShardedBroker(shards=1) as sharded:
            with start_trace("test") as tr:
                sharded.solve(_request())
        names = {s["name"] for s in tr.as_dict()["spans"]}
        assert "transport.async" in names and "simplex.solve" in names
        text = render_waterfall(tr.as_dict())
        assert "transport.async" in text

    def test_tracing_off_costs_nothing_and_changes_nothing(self):
        with ShardedBroker(shards=1) as sharded:
            result = sharded.solve(_request())
        assert result.solution.throughput is not None
        assert current_span() is None
