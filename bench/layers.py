"""The traced run: where one request's time goes, layer by layer.

Two sequential replays of a workload's first N requests:

* **in-process**, through the staged pipeline a request walks in the
  real deployment (front decode -> fingerprint -> near-cache -> ring ->
  frame -> shard decode -> ``SolveEngine.run`` -> result wire -> reply).
  The harness records its own spans around each public call; calls the
  engine makes internally (cache, warm model, simplex, schedule) are
  reached by wrapping the public callables for the length of the replay.
  Nothing in ``src/`` is edited and nothing stays patched.
* **live**, over one connection to a real stack, with ``GET /metrics``
  diffed before and after, so counts come from where the work happens
  and repeat exactly.

Every public name is resolved through :class:`Probes`: a name that no
longer exists (say, after the roadmap deletes a class) makes the metrics
that depend on it ``None`` and is listed under ``missing``; the run goes
on.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import importlib
import json
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from . import stats
from .loadgen import Connection, drive
from .runner import write_out
from .stack import HOST, SHARDS, Stack, optional_flags
from .stats import Span
from .verify import Verdict, check_replies
from .workloads import Op, Plan, build_plan

#: requests replayed per workload (the first N of the run's stream)
REPLAY = {"hit_zipf": 300, "warm_drift": 150, "cold_unique": 100,
          "churn_mixed": 200}

#: every public name the traced run touches, in one place
PATHS = {
    "request_from_dict": "repro.service.api:request_from_dict",
    "request_to_dict": "repro.service.api:request_to_dict",
    "response_to_dict": "repro.service.api:response_to_dict",
    "route_post": "repro.service.api:route_post",
    "platform_from_dict": "repro.service.api:platform_from_dict",
    "spec_from_wire": "repro.service.api:spec_from_wire",
    "Broker": "repro.service.broker:Broker",
    "SolveEngine": "repro.service.broker:SolveEngine",
    "execute_request": "repro.service.broker:execute_request",
    "SolutionCache": "repro.service.cache:SolutionCache",
    "SolutionCache.get": "repro.service.cache:SolutionCache.get",
    "SolutionCache.put": "repro.service.cache:SolutionCache.put",
    "cache.topology_signature": "repro.service.cache:topology_signature",
    "incremental.topology_signature":
        "repro.service.incremental:topology_signature",
    "IncrementalSolver": "repro.service.incremental:IncrementalSolver",
    "incremental.resolve": "repro.service.incremental:resolve",
    "HashRing": "repro.service.sharding:HashRing",
    "ShardedBroker": "repro.service.sharding:ShardedBroker",
    "encode_frame": "repro.service.transport:encode_frame",
    "AsyncTcpTransport": "repro.service.transport:AsyncTcpTransport",
    "AsyncBridgeTransport": "repro.service.transport:AsyncBridgeTransport",
    "result_to_wire": "repro.service.wire:result_to_wire",
    "result_from_wire": "repro.service.wire:result_from_wire",
    "SimplexInstance.solve": "repro.lp.simplex:SimplexInstance.solve",
    "reconstruct_schedule":
        "repro.schedule.reconstruction:reconstruct_schedule",
}

#: per-layer metric -> unit; the order is the layer table's
UNITS: Dict[str, str] = {
    "api.http_roundtrip_us": "us", "api.json_decode_us": "us",
    "api.request_decode_us": "us", "api.response_encode_us": "us",
    "api.request_bytes": "B", "api.reply_bytes": "B",
    "platform.decode_us": "us", "problems.spec_decode_us": "us",
    "fingerprint.request_us": "us", "fingerprint.topology_us": "us",
    "cache.get_hit_us": "us", "cache.get_miss_us": "us",
    "cache.put_us": "us", "cache.invalidate_platform_us": "us",
    "cache.near_hit_share": "share", "cache.shard_hit_share": "share",
    "cache.evictions_per_req": "1/req",
    "sharding.route_us": "us", "sharding.solve_hit_us": "us",
    "sharding.load_imbalance": "ratio",
    "sharding.replicated_puts_per_req": "1/req",
    "transport.frame_encode_us": "us", "transport.rtt_ping_us": "us",
    "transport.rtt_hit_us": "us", "transport.bridge_ping_us": "us",
    "wire.result_encode_us": "us", "wire.result_decode_us": "us",
    "broker.engine_hit_us": "us", "broker.engine_warm_us": "us",
    "broker.engine_cold_us": "us", "broker.route_post_us": "us",
    "incremental.patch_us": "us", "incremental.warm_share": "share",
    "incremental.fallback_share": "share",
    "incremental.model_evictions_per_req": "1/req",
    "core.lp_build_us": "us", "core.package_us": "us",
    "core.tree_solve_us": "us",
    "lp.simplex.cold_solve_us": "us", "lp.simplex.warm_solve_us": "us",
    "lp.simplex.standard_form_us": "us", "lp.simplex.phase1_us": "us",
    "lp.simplex.phase2_us": "us", "lp.simplex.repair_us": "us",
    "lp.simplex.pivots_per_solve": "count",
    "lp.simplex.warm_pivots_per_solve": "count",
    "lp.simplex.us_per_pivot": "us", "lp.simplex.rows_mean": "count",
    "lp.simplex.cols_mean": "count",
    "lp.factor.refactorisations_per_solve": "count",
    "lp.factor.ftran_ops_per_solve": "count",
    "lp.factor.btran_ops_per_solve": "count",
    "lp.factor.lu_fill_ratio": "ratio", "lp.factor.eta_len_max": "count",
    "schedule.reconstruct_us": "us", "schedule.reply_bytes": "B",
    "metrics.snapshot_us": "us", "tracing.span_overhead_share": "share",
    "layers.coverage_share": "share",
}

WARMUP_CAP = 100
NEAR_CACHE_SIZE = 64   # the CLI defaults of the deployment under test
SHARD_CACHE_SIZE = 256


# ----------------------------------------------------------------------
# probes and spans
# ----------------------------------------------------------------------
class Probes:
    """Late, forgiving lookup of the service's public names."""

    def __init__(self, paths: Optional[Dict[str, str]] = None) -> None:
        self.paths = dict(PATHS if paths is None else paths)
        self.missing: List[str] = []
        self._patched: List[Any] = []

    def _resolve(self, key: str):
        """``(owner, attribute name)`` of ``key``, or ``None`` (noted as
        missing) when the import or the attribute is gone."""
        module_name, _, dotted = self.paths[key].partition(":")
        *parents, attr = dotted.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            if self.paths[key] not in self.missing:
                self.missing.append(self.paths[key])
            return None
        return owner, attr

    def get(self, key: str) -> Any:
        """The object behind ``key``, or ``None`` (noted as missing)."""
        found = self._resolve(key)
        return None if found is None else getattr(*found)

    def patch(self, key: str, wrap: Callable[[Any], Any]) -> bool:
        """Replace ``key`` by ``wrap(original)`` until :meth:`restore`."""
        found = self._resolve(key)
        if found is None:
            return False
        owner, attr = found
        original = owner.__dict__.get(attr, getattr(owner, attr))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(getattr(owner, attr)))
        return True

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class Recorder:
    """Keeps spans in memory; a disabled recorder costs one branch."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.request = -1
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        sp = Span(name, time.perf_counter(), 0.0, len(self.spans),
                  self._stack[-1] if self._stack else None, self.request)
        self.spans.append(sp)
        self._stack.append(sp.span_id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, after: Optional[Callable] = None):
        """A decorator that times calls of a function as ``name`` spans;
        ``after(span, args, result)`` may attach counts."""
        def decorate(fn):
            def timed(*args, **kwargs):
                with self.span(name) as sp:
                    out = fn(*args, **kwargs)
                    if after is not None and sp is not None:
                        after(sp, args, out)
                    return out
            return timed
        return decorate


# ----------------------------------------------------------------------
# the in-process staged pipeline
# ----------------------------------------------------------------------
class Pipeline:
    """A front end and two shard engines, in this process, wired the way
    ``serve --shard a --shard b`` wires them — minus sockets."""

    def __init__(self, probes: Probes, rec: Recorder) -> None:
        self.rec = rec
        get = probes.get
        self.request_from_dict = get("request_from_dict")
        self.request_to_dict = get("request_to_dict")
        self.response_to_dict = get("response_to_dict")
        self.encode_frame = get("encode_frame")
        self.result_to_wire = get("result_to_wire")
        self.result_from_wire = get("result_from_wire")
        cache_cls, ring_cls = get("SolutionCache"), get("HashRing")
        engine_cls, inc_cls = get("SolveEngine"), get("IncrementalSolver")
        self.near = cache_cls(max_size=NEAR_CACHE_SIZE) if cache_cls else None
        self.ring = ring_cls(SHARDS) if ring_cls else None
        self.engines = None
        if engine_cls and cache_cls:
            self.engines = [
                engine_cls(cache=cache_cls(max_size=SHARD_CACHE_SIZE),
                           incremental=inc_cls() if inc_cls else None)
                for _ in range(SHARDS)]

    def invalidate(self, platform) -> None:
        if self.near is not None:
            self.near.invalidate_platform(platform)
        for engine in self.engines or ():
            with self.rec.span("cache.invalidate_platform"):
                engine.invalidate_platform(platform)

    def solve(self, request_dict: Dict[str, Any], fallback) -> None:
        """Walk one solve request through every stage.  ``fallback`` is
        the generator's own request object, used when a decode probe is
        missing so the later stages still run."""
        span = self.rec.span
        request = fallback
        if self.request_from_dict is not None:
            with span("api.request_decode"):
                request = self.request_from_dict(request_dict)
        with span("fingerprint.request"):
            # a decoded request is fresh, so this is the uncached hash
            fp = request.fingerprint()
        if self.near is not None:
            self.near.get(fp)
        shard = 0
        if self.ring is not None:
            with span("sharding.route"):
                shard = self.ring.route(fp)
        message = {"op": "solve", "fp": fp, "request": request_dict}
        if self.request_to_dict is not None:
            with span("api.request_encode"):
                message["request"] = self.request_to_dict(request)
        if self.encode_frame is not None:
            with span("transport.frame_encode"):
                frame = self.encode_frame(message)
            with span("transport.frame_decode"):
                message = json.loads(frame[4:])
        if self.request_from_dict is not None:
            with span("api.request_decode"):
                request = self.request_from_dict(message["request"])
        if self.engines is None:
            return
        with span("broker.engine_run") as sp:
            result = self.engines[shard].run(request, fp)
            if sp is not None:
                sp.counts["cached"] = int(result.cached)
                sp.counts["warm"] = int(result.warm)
        if self.result_to_wire is not None:
            with span("wire.result_encode"):
                blob = json.dumps(self.result_to_wire(result))
            if self.result_from_wire is not None:
                with span("wire.result_decode"):
                    result = self.result_from_wire(json.loads(blob))
        if self.response_to_dict is not None:
            with span("api.response_encode"):
                json.dumps(self.response_to_dict(result))

    def run_op(self, op: Op, index: int) -> None:
        self.rec.request = index
        with self.rec.span("request"):
            with self.rec.span("api.json_decode"):
                envelope = json.loads(op.body)
            if op.form == "invalidate":
                self.invalidate(op.platform)
            elif op.form == "batch":
                for raw, request in zip(envelope["requests"], op.requests):
                    self.solve(raw, request)
            else:
                self.solve(envelope["request"], op.requests[0])


def _install_wraps(probes: Probes, rec: Recorder) -> None:
    """Time the calls the engine makes internally."""
    def cache_get(sp, args, out):
        sp.counts["hit"] = int(out is not None)

    def simplex(sp, args, out):
        inst = args[0]
        sp.counts["warm"] = int(inst.last_restarted)
        sp.counts["pivots"] = out.pivots
        for phase in inst.last_phases:
            key = phase["phase"].split(".")[-1] + "_s"
            sp.counts[key] = sp.counts.get(key, 0.0) \
                + phase["duration_seconds"]
        sizes = inst.lp.stats()
        sp.counts["rows"] = sizes["constraints"]
        sp.counts["cols"] = sizes["variables"]

    probes.patch("platform_from_dict", rec.wrap("platform.decode"))
    probes.patch("spec_from_wire", rec.wrap("problems.spec_decode"))
    probes.patch("SolutionCache.get", rec.wrap("cache.get", cache_get))
    probes.patch("SolutionCache.put", rec.wrap("cache.put"))
    probes.patch("cache.topology_signature",
                 rec.wrap("fingerprint.topology"))
    probes.patch("incremental.topology_signature",
                 rec.wrap("fingerprint.topology"))
    probes.patch("SimplexInstance.solve",
                 rec.wrap("lp.simplex.solve", simplex))
    probes.patch("reconstruct_schedule", rec.wrap("schedule.reconstruct"))
    probes.patch("execute_request", rec.wrap("core.tree_solve"))

    def timed_resolve(resolve):
        # the warm model is a frozen record of callables: hand the
        # incremental solver a copy whose callables are timed
        cache: Dict[str, Any] = {}

        def resolved(problem):
            entry = resolve(problem)
            if entry.warm_model is None:
                return entry
            if problem not in cache:
                model = entry.warm_model
                cache[problem] = dataclasses.replace(
                    entry, warm_model=dataclasses.replace(
                        model,
                        build=rec.wrap("core.lp_build")(model.build),
                        patch=rec.wrap("incremental.patch")(model.patch),
                        package=rec.wrap("core.package")(model.package)))
            return cache[problem]
        return resolved

    probes.patch("incremental.resolve", timed_resolve)


def _ops_for_replay(plan: Plan, count: int) -> List[Op]:
    ops = [op for rnd in plan.rounds for op in rnd.open_ops + rnd.closed_ops]
    if len(ops) < count:
        raise ValueError(f"plan holds {len(ops)} ops, replay needs {count}")
    return ops[:count]


def _replay_in_process(plan: Plan, ops: Sequence[Op], traced: bool,
                       probes: Probes) -> "tuple[Recorder, float]":
    rec = Recorder(enabled=False)
    if traced:
        _install_wraps(probes, rec)
    try:
        pipeline = Pipeline(probes, rec)
        for op in plan.prime + plan.warmup:  # not recorded, not timed
            pipeline.run_op(op, -1)
        rec.enabled = traced
        started = time.perf_counter()
        for index, op in enumerate(ops):
            pipeline.run_op(op, index)
        return rec, time.perf_counter() - started
    finally:
        probes.restore()


def _replay_route_post(plan: Plan, ops: Sequence[Op],
                       probes: Probes) -> Optional[float]:
    """Mean seconds of the in-process ``route_post`` on a sync broker."""
    route_post, broker_cls = probes.get("route_post"), probes.get("Broker")
    cache_cls = probes.get("SolutionCache")
    if route_post is None or broker_cls is None or cache_cls is None:
        return None
    # one cache as large as the ring's shard caches together, so that it
    # holds what the staged pipeline's two engines hold
    broker = broker_cls(cache=cache_cls(max_size=SHARDS * SHARD_CACHE_SIZE),
                        executor="sync")
    try:
        for op in plan.prime + plan.warmup:
            route_post(broker, "/api", op.body)
        bodies = [op.body for op in ops]
        started = time.perf_counter()
        for body in bodies:
            route_post(broker, "/api", body)
        return (time.perf_counter() - started) / len(bodies)
    finally:
        broker.close()


# ----------------------------------------------------------------------
# fixed micro-probes
# ----------------------------------------------------------------------
def _time_calls(fn: Callable[[int], Any], count: int) -> float:
    started = time.perf_counter()
    for index in range(count):
        fn(index)
    return (time.perf_counter() - started) / count


def _cache_probe(probes: Probes, requests: Sequence) -> Dict[str, Any]:
    """get/put/invalidate on a cache holding 256 of the run's requests."""
    cache_cls = probes.get("SolutionCache")
    if cache_cls is None or not requests:
        return {}
    resident = [requests[i % len(requests)] for i in range(SHARD_CACHE_SIZE)]
    keys = [f"{i:064x}" for i in range(SHARD_CACHE_SIZE)]
    cache = cache_cls(max_size=SHARD_CACHE_SIZE)
    put = _time_calls(lambda i: cache.put(keys[i], None,
                                          resident[i].platform),
                      SHARD_CACHE_SIZE)
    hit = _time_calls(lambda i: cache.get(keys[i % SHARD_CACHE_SIZE]), 2000)
    miss = _time_calls(lambda i: cache.get("absent"), 2000)

    def invalidate(i: int) -> None:
        # one victim per call: the scan is over 256 resident entries
        cache.invalidate_platform(resident[i].platform)
        cache.put(keys[i], None, resident[i].platform)

    scan = _time_calls(invalidate, 32)
    return {"cache.put_us": put * 1e6, "cache.get_hit_us": hit * 1e6,
            "cache.get_miss_us": miss * 1e6,
            "cache.invalidate_platform_us": scan * 1e6}


# ----------------------------------------------------------------------
# the live replay
# ----------------------------------------------------------------------
def _numbers(tree: Any, prefix: str = "") -> Dict[str, float]:
    out: Dict[str, float] = {}
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            out.update(_numbers(value, f"{prefix}{key}."))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        out[prefix[:-1]] = tree
    return out


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or not den:
        return None
    return num / den


async def _live(stack: Stack, plan: Plan, ops: Sequence[Op],
                probes: Probes) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    conn = await Connection.open(HOST, stack.port)
    try:
        for op in plan.prime + plan.warmup:
            await conn.call(op.wire)
        before = _numbers(stack.metrics())
        samples = await drive([conn], ops)  # one connection: sequential
        after = _numbers(stack.metrics())
        out["samples"] = samples
        sizes = [(s.op, len(s.op.wire), len(s.body)) for s in samples]

        def delta(key: str) -> Optional[float]:
            if key not in after:
                return None
            return after[key] - before.get(key, 0)

        solves = sum(max(1, len(op.requests)) if op.form != "invalidate"
                     else 0 for op in ops)
        out["api.request_bytes"] = statistics.mean([s[1] for s in sizes])
        out["api.reply_bytes"] = statistics.mean([s[2] for s in sizes])
        scheduled = [s[2] for s in sizes if s[0].form == "solve"
                     and s[0].requests[0].include_schedule]
        out["schedule.reply_bytes"] = statistics.mean(scheduled) \
            if scheduled else None
        out["cache.near_hit_share"] = _ratio(
            delta("replication.near_cache.hits"), solves)
        out["cache.shard_hit_share"] = _ratio(delta("cache.hits"), solves)
        out["cache.evictions_per_req"] = _ratio(delta("cache.evictions"),
                                                len(ops))
        out["sharding.replicated_puts_per_req"] = _ratio(
            delta("replication.replicated_puts"), len(ops))
        per_shard = [delta(f"per_shard.{i}.requests")
                     for i in range(SHARDS)
                     if f"per_shard.{i}.requests" in after]
        out["sharding.load_imbalance"] = _ratio(
            max(per_shard, default=None),
            sum(per_shard) / len(per_shard) if per_shard else None)
        inc = "incremental."
        warm, built = delta(inc + "warm_solves"), delta(inc + "full_rebuilds")
        lp_solves = (warm or 0) + (built or 0)
        out["incremental.warm_share"] = _ratio(warm, lp_solves)
        out["incremental.fallback_share"] = _ratio(
            delta(inc + "basis_fallbacks"), warm)
        out["incremental.model_evictions_per_req"] = _ratio(
            delta(inc + "evictions"), len(ops))
        out["lp.simplex.pivots_per_solve"] = _ratio(
            delta(inc + "cold_pivots"), built)
        out["lp.simplex.warm_pivots_per_solve"] = _ratio(
            delta(inc + "warm_pivots"), warm)
        for name in ("refactorisations", "ftran_ops", "btran_ops"):
            out[f"lp.factor.{name}_per_solve"] = _ratio(delta(inc + name),
                                                        lp_solves)
        out["lp.factor.lu_fill_ratio"] = _ratio(delta(inc + "lu_fill_nnz"),
                                                delta(inc + "lu_basis_nnz"))
        out["lp.factor.eta_len_max"] = after.get(inc + "eta_len_max")

        # ---- timed live probes (one in flight) -----------------------
        get = (f"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
               ).encode("latin-1")
        started = time.perf_counter()
        for _ in range(100):
            await conn.call(get)
        out["api.http_roundtrip_us"] = (time.perf_counter() - started) * 1e4
        get = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"
        started = time.perf_counter()
        for _ in range(10):
            await conn.call(get)
        out["metrics.snapshot_us"] = (time.perf_counter() - started) * 1e5
    finally:
        await conn.close()
    out.update(await _transport_probes(stack, plan, ops, probes))
    return out


def _cached_solve_message(ops: Sequence[Op], probes: Probes):
    """A shard-protocol solve message for a request the live replay has
    just solved (so the shard serves it from its cache)."""
    request_to_dict = probes.get("request_to_dict")
    for op in reversed(ops):
        if op.form == "solve" and request_to_dict is not None:
            request = op.requests[0]
            return request, {"op": "solve", "fp": request.fingerprint(),
                             "request": request_to_dict(request)}
    return None, None


async def _transport_probes(stack: Stack, plan: Plan, ops: Sequence[Op],
                            probes: Probes) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    request, message = _cached_solve_message(ops, probes)
    ring_cls = probes.get("HashRing")
    shard = 0
    if request is not None and ring_cls is not None:
        shard = ring_cls(SHARDS).route(request.fingerprint())
    port = stack.shard_ports[shard]
    transport_cls = probes.get("AsyncTcpTransport")
    if transport_cls is not None:
        transport = transport_cls(HOST, port)
        try:
            await transport.request({"op": "ping"})
            started = time.perf_counter()
            for _ in range(200):
                await transport.request({"op": "ping"})
            out["transport.rtt_ping_us"] = \
                (time.perf_counter() - started) / 200 * 1e6
            if message is not None:
                await transport.request(message)
                started = time.perf_counter()
                for _ in range(200):
                    await transport.request(message)
                out["transport.rtt_hit_us"] = \
                    (time.perf_counter() - started) / 200 * 1e6
        finally:
            await transport.close()
    # the bridge and the sharded broker are synchronous: off the loop
    loop = asyncio.get_running_loop()
    out.update(await loop.run_in_executor(
        None, _sync_probes, stack, request, port, probes))
    return out


def _sync_probes(stack: Stack, request, port: int,
                 probes: Probes) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    bridge_cls = probes.get("AsyncBridgeTransport")
    if bridge_cls is not None:
        bridge = bridge_cls(HOST, port)
        try:
            bridge.request({"op": "ping"})
            out["transport.bridge_ping_us"] = _time_calls(
                lambda i: bridge.request({"op": "ping"}), 200) * 1e6
        finally:
            bridge.close()
    broker_cls = probes.get("ShardedBroker")
    if broker_cls is not None and request is not None:
        broker = broker_cls(
            shards=0, async_transport=True, near_cache_size=0,
            shard_addresses=[f"{HOST}:{p}" for p in stack.shard_ports])
        try:
            broker.solve(request)
            out["sharding.solve_hit_us"] = _time_calls(
                lambda i: broker.solve(request), 200) * 1e6
        finally:
            broker.close()
    return out


# ----------------------------------------------------------------------
# spans -> metrics
# ----------------------------------------------------------------------
def _mean_us(spans: Sequence[Span]) -> Optional[float]:
    if not spans:
        return None
    return statistics.mean([sp.duration for sp in spans]) * 1e6


def metrics_from_spans(spans: Sequence[Span]) -> Dict[str, Optional[float]]:
    by_name: Dict[str, List[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def named(name: str, **where: int) -> List[Span]:
        return [sp for sp in by_name.get(name, ())
                if all(sp.counts.get(k) == v for k, v in where.items())]

    out = {
        "api.json_decode_us": _mean_us(named("api.json_decode")),
        "api.request_decode_us": _mean_us(named("api.request_decode")),
        "api.response_encode_us": _mean_us(named("api.response_encode")),
        "platform.decode_us": _mean_us(named("platform.decode")),
        "problems.spec_decode_us": _mean_us(named("problems.spec_decode")),
        "fingerprint.request_us": _mean_us(named("fingerprint.request")),
        "fingerprint.topology_us": _mean_us(named("fingerprint.topology")),
        "sharding.route_us": _mean_us(named("sharding.route")),
        "transport.frame_encode_us": _mean_us(
            named("transport.frame_encode")),
        "wire.result_encode_us": _mean_us(named("wire.result_encode")),
        "wire.result_decode_us": _mean_us(named("wire.result_decode")),
        "broker.engine_hit_us": _mean_us(named("broker.engine_run",
                                               cached=1)),
        "broker.engine_warm_us": _mean_us(named("broker.engine_run",
                                                cached=0, warm=1)),
        "broker.engine_cold_us": _mean_us(named("broker.engine_run",
                                                cached=0, warm=0)),
        "incremental.patch_us": _mean_us(named("incremental.patch")),
        "core.lp_build_us": _mean_us(named("core.lp_build")),
        "core.package_us": _mean_us(named("core.package")),
        "core.tree_solve_us": _mean_us(named("core.tree_solve")),
        "schedule.reconstruct_us": _mean_us(named("schedule.reconstruct")),
        "lp.simplex.cold_solve_us": _mean_us(named("lp.simplex.solve",
                                                   warm=0)),
        "lp.simplex.warm_solve_us": _mean_us(named("lp.simplex.solve",
                                                   warm=1)),
    }
    solves = named("lp.simplex.solve")
    if solves:
        def phase(key: str) -> float:
            return statistics.mean([sp.counts.get(key, 0.0) for sp in solves])
        in_phases = [sum(v for k, v in sp.counts.items() if k.endswith("_s"))
                     for sp in solves]
        pivots = sum(sp.counts["pivots"] for sp in solves)
        out.update({
            "lp.simplex.phase1_us": phase("phase1_s") * 1e6,
            "lp.simplex.phase2_us": phase("phase2_s") * 1e6,
            "lp.simplex.repair_us": phase("dual_repair_s") * 1e6,
            "lp.simplex.standard_form_us": statistics.mean(
                [sp.duration - inside
                 for sp, inside in zip(solves, in_phases)]) * 1e6,
            "lp.simplex.us_per_pivot": (sum(in_phases) / pivots * 1e6
                                        if pivots else None),
            "lp.simplex.rows_mean": statistics.mean(
                [sp.counts["rows"] for sp in solves]),
            "lp.simplex.cols_mean": statistics.mean(
                [sp.counts["cols"] for sp in solves]),
        })
    return out


def coverage(spans: Sequence[Span], route_post_seconds: Optional[float],
             requests: int) -> Optional[float]:
    """Self time the staged spans account for, over what the service's
    own ``route_post`` takes for the same requests."""
    if not route_post_seconds or not spans:
        return None
    own = stats.self_times(spans)
    attributed = sum(own[sp.span_id] for sp in spans if sp.name != "request")
    return attributed / (route_post_seconds * requests)


# ----------------------------------------------------------------------
def run_layers(name: str, seed: int,
               probes: Optional[Probes] = None) -> Dict[str, Any]:
    """The traced run of one workload; returns (and writes) its record."""
    probes = probes if probes is not None else Probes()
    count = REPLAY[name]
    plan = build_plan(name, seed, rounds=1, open_seconds=1.0)
    while sum(len(r.open_ops) + len(r.closed_ops)
              for r in plan.rounds) < count:
        plan = build_plan(name, seed, rounds=len(plan.rounds) + 1,
                          open_seconds=1.0)
    # each replay drains the warm-up first; timing is per call, so a
    # short one serves
    plan.warmup = plan.warmup[:WARMUP_CAP]
    ops = _ops_for_replay(plan, count)

    rec, traced_s = _replay_in_process(plan, ops, True, probes)
    _, plain_s = _replay_in_process(plan, ops, False, probes)
    route_post_s = _replay_route_post(plan, ops, probes)

    metrics: Dict[str, Optional[float]] = dict.fromkeys(UNITS)
    metrics.update(metrics_from_spans(rec.spans))
    metrics.update(_cache_probe(
        probes, [r for op in ops for r in op.requests]))
    metrics["broker.route_post_us"] = (route_post_s * 1e6
                                       if route_post_s else None)
    metrics["tracing.span_overhead_share"] = (traced_s - plain_s) / plain_s
    metrics["layers.coverage_share"] = coverage(rec.spans, route_post_s,
                                                len(ops))

    stack = Stack(optional_flags()).start()
    try:
        live = asyncio.run(_live(stack, plan, ops, probes))
    finally:
        stack.stop()
    verdict = Verdict()
    check_replies(live.pop("samples"), plan.workload.limit_ms, verdict, {},
                  timed=False)
    metrics.update(live)
    if (metrics.get("sharding.solve_hit_us") is not None
            and metrics.get("transport.rtt_hit_us") is not None):
        metrics["sharding.solve_hit_self_us"] = (
            metrics["sharding.solve_hit_us"]
            - metrics["transport.rtt_hit_us"])

    write_out(f"spans-{name}.json", {
        "workload": name, "seed": seed,
        "fields": ["name", "start", "end", "id", "parent", "request",
                   "counts"],
        "spans": [[sp.name, sp.start, sp.end, sp.span_id, sp.parent,
                   sp.request, sp.counts] for sp in rec.spans],
    })
    self_by_name = stats.self_time_by_name(rec.spans)
    record = {
        "workload": name, "seed": seed, "replayed": len(ops),
        "metrics": {k: metrics.get(k) for k in UNITS},
        "extra": {k: v for k, v in metrics.items() if k not in UNITS},
        "units": UNITS,
        "missing": list(probes.missing),
        "self_us_per_request": {
            k: v / len(ops) * 1e6 for k, v in sorted(self_by_name.items())},
        "traced_s": traced_s, "untraced_s": plain_s,
        "problems": verdict.problems, "correct": verdict.failed == 0,
        "attempted": len(ops), "failed": verdict.failed,
    }
    write_out(f"layers-{name}.json", record)
    return record
