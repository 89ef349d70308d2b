"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``      solve SSMS on a platform (JSON file or built-in generator)
               and print the activities, schedule and simulated execution;
``scatter``    solve the pipelined scatter LP and print the schedule;
``broadcast``  broadcast bound + achieving tree packing;
``multicast``  the sum/packing/max bracket for a target set;
``figures``    regenerate the paper's Figures 1-3 artefacts;
``problems``   list the solver registry (specs, capabilities; --check
               solves every registered problem end-to-end);
``export``     write a generator-built platform as JSON for editing;
``lint``       run the AST-based invariant checkers (exactness, locks,
               wire/registry drift, tracing discipline) over the tree;
``serve``      run the scheduling service (HTTP JSON API, or --stdio);
``shard-serve`` run one standalone TCP solve shard for a remote broker;
``submit``     send one solve request to a server (or solve locally).

Examples
--------
::

    python -m repro solve --generator star --args 4 --master M
    python -m repro figures
    python -m repro export --generator grid2d --args 3 3 -o grid.json
    python -m repro solve --platform grid.json --master G0_0
    python -m repro serve --port 8585
    python -m repro submit --url http://127.0.0.1:8585 \\
        --problem master-slave --generator star --args 4 --master M
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from .analysis.reporting import render_edge_flows, render_table
from .platform import generators
from .platform.graph import Platform
from .platform.serialization import platform_from_json, platform_to_json


def _parse_generator_arg(text: str):
    """``int`` -> ``Fraction`` -> ``str`` fallback.

    ``str.isdigit`` silently mis-parsed negative integers and non-integer
    rationals ("-1", "1.5", "3/2" all stayed strings); exact rationals are
    first-class platform weights, so parse them properly.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text


def _load_platform(args) -> Platform:
    if args.platform:
        with open(args.platform, "r", encoding="utf-8") as handle:
            return platform_from_json(handle.read())
    if args.generator:
        factory = getattr(generators, args.generator, None)
        if factory is None or not callable(factory):
            raise SystemExit(f"unknown generator {args.generator!r}")
        gen_args = [_parse_generator_arg(a) for a in args.args]
        return factory(*gen_args, **({"seed": args.seed}
                                     if args.seed is not None else {}))
    raise SystemExit("provide --platform FILE or --generator NAME")


def cmd_solve(args) -> int:
    from .problems import MasterSlaveSpec, solve as solve_problem
    from .schedule.reconstruction import reconstruct_schedule
    from .simulator.periodic_runner import PeriodicRunner

    platform = _load_platform(args)
    print(platform.describe())
    sol = solve_problem(MasterSlaveSpec(platform=platform, master=args.master))
    print()
    print(sol.summary())
    sched = reconstruct_schedule(sol)
    print()
    print(sched.describe())
    res = PeriodicRunner(sched).run(args.periods)
    print()
    print(f"simulated {args.periods} periods: {res.total_completed} tasks, "
          f"deficit {res.deficit} (constant), rate "
          f"{float(res.achieved_rate):.4f} vs LP "
          f"{float(sol.throughput):.4f}")
    return 0


def cmd_scatter(args) -> int:
    from .problems import ScatterSpec, solve as solve_problem
    from .schedule.reconstruction import reconstruct_schedule

    platform = _load_platform(args)
    sol = solve_problem(ScatterSpec(platform=platform, source=args.source,
                                    targets=tuple(args.targets)))
    print(f"scatter throughput TP = {sol.throughput}")
    sched = reconstruct_schedule(sol)
    print(sched.describe())
    for k, routes in sched.routes.items():
        print(f"  commodity {k}:")
        for path, units in routes:
            print(f"    {' -> '.join(path)} x {units}")
    return 0


def cmd_broadcast(args) -> int:
    from .problems import BroadcastSpec, solve as solve_problem

    platform = _load_platform(args)
    sol = solve_problem(BroadcastSpec(platform=platform, source=args.source))
    print(f"broadcast LP bound = {sol.lp_bound}")
    print(f"tree packing       = {sol.achieved}  [optimal]")
    for tree, rate in sorted(sol.packing.items(), key=lambda tr: -tr[1]):
        edges = ", ".join(f"{u}->{v}" for u, v in sorted(tree))
        print(f"  rate {rate}: {edges}")
    return 0


def cmd_multicast(args) -> int:
    from .problems import MulticastSpec, solve as solve_problem

    platform = _load_platform(args)
    analysis = solve_problem(MulticastSpec(platform=platform,
                                           source=args.source,
                                           targets=tuple(args.targets)))
    rows = [
        ["sum-rule LP (pessimistic)", analysis.sum_lp],
        ["tree packing"
         + (" (exact)" if analysis.exhaustive else " (heuristic)"),
         analysis.tree_optimal],
        ["max-rule LP (optimistic)", analysis.max_lp],
    ]
    print(render_table(["bound", "throughput"], rows))
    if analysis.exhaustive and not analysis.max_lp_achievable:
        print("\nthe optimistic bound is NOT achievable on this platform "
              "(cf. section 4.3).")
    return 0


def cmd_figures(_args) -> int:
    from .core.master_slave import solve_master_slave
    from .core.multicast import analyze_figure2
    from .schedule.reconstruction import reconstruct_schedule

    fig1 = generators.paper_figure1()
    sol = solve_master_slave(fig1, "P1")
    print("== Figure 1 ==")
    print(fig1.describe())
    print(f"ntask(G) = {sol.throughput}")
    print(reconstruct_schedule(sol).describe())
    print()
    rep = analyze_figure2()
    print("== Figure 2 ==")
    print(rep.platform.describe())
    print()
    print(render_edge_flows(rep.flows_p5, "== Figure 3(a): towards P5 =="))
    print(render_edge_flows(rep.flows_p6, "== Figure 3(b): towards P6 =="))
    print(render_edge_flows(rep.total_flows, "== Figure 3(c): totals =="))
    print("== Figure 3(d): conflicts ==")
    for (u, v), occ in rep.conflicts.items():
        print(f"  {u} -> {v}: occupation {occ} > 1")
    print(f"\nbracket: sum-LP {rep.sum_lp} <= achievable {rep.achievable} "
          f"< max-LP {rep.max_lp}")
    return 0


def cmd_problems(args) -> int:
    """List registered problems; ``--check`` proves each servable."""
    import json as _json

    from .problems import describe

    if args.check:
        return _run_registry_check()
    meta = describe()
    if args.json:
        print(_json.dumps(meta, indent=2))
        return 0
    rows = []
    for name, info in meta.items():
        fields = ", ".join(
            f["name"] + ("" if f["required"] else f"={f['default']!r}")
            for f in info["fields"]
        )
        caps = info["capabilities"]
        flags = [f"lp={caps['lp_structure']}"]
        if caps["warm_resolve"]:
            flags.append("warm-resolve")
        if caps["reconstructs_schedule"]:
            flags.append("reconstructs-schedule")
        rows.append([name, info["spec"], fields, ", ".join(flags)])
    print(render_table(["problem", "spec", "fields", "capabilities"], rows))
    print(f"\n{len(meta)} problems registered "
          f"(python -m repro problems --check solves each end-to-end)")
    return 0


def _run_registry_check() -> int:
    """Solve every registered problem end-to-end on a 2-worker star.

    The CI consistency step: each registered entry's example spec is
    routed through the broker's generic ``execute_request`` dispatch, so
    registration drift (a spec/solver mismatch, a problem no longer
    servable) fails loudly.  Every problem declaring ``warm_resolve``
    additionally gets one warm re-solve exercised: the example platform
    is re-weighted, the hot model is patched and basis-restarted, and the
    result must be ``Fraction``-identical to a cold solve of the mutation.
    """
    import dataclasses

    from .platform import generators
    from .problems import registered_problems, resolve
    from .service.broker import SolveRequest, execute_request, solution_throughput
    from .service.incremental import IncrementalSolver

    platform = generators.star(2, bidirectional=True)
    failures = []
    warm_checked = 0
    for problem in registered_problems():
        entry = resolve(problem)
        if entry.example is None:
            failures.append((problem, "no example factory registered"))
            continue
        try:
            spec = entry.example(platform.copy(), "M", ("W1", "W2"))
            solution = execute_request(SolveRequest(spec))
            throughput = solution_throughput(solution)
            if throughput < 0:
                raise ValueError(f"negative throughput {throughput}")
            note = ""
            if entry.capabilities.warm_resolve:
                inc = IncrementalSolver()
                for _ in range(2):  # the second build keeps the hot model
                    inc.solve_spec(spec)
                mutated = dataclasses.replace(
                    spec,
                    platform=spec.platform.scale(compute=Fraction(3, 2),
                                                 comm=Fraction(2, 3)),
                )
                warm_sol, warm = inc.solve_spec_ex(mutated)
                if not warm:
                    raise ValueError("warm re-solve did not take the warm path")
                warm_tp = solution_throughput(warm_sol)
                cold_tp = solution_throughput(
                    execute_request(SolveRequest(mutated))
                )
                if warm_tp != cold_tp:
                    raise ValueError(
                        f"warm re-solve {warm_tp} != cold solve {cold_tp}"
                    )
                warm_checked += 1
                note = f"  warm-resolve = {warm_tp}"
            print(f"  {problem:16s} OK  throughput = {throughput}{note}")
        except Exception as exc:  # noqa: BLE001 — report all drift at once
            failures.append((problem, f"{type(exc).__name__}: {exc}"))
    if failures:
        for problem, reason in failures:
            print(f"  {problem:16s} FAIL  {reason}")
        print(f"\nregistry check FAILED for {len(failures)} problem(s)")
        return 1
    print(f"\nregistry check OK: {len(registered_problems())} problems "
          f"servable end-to-end, {warm_checked} warm re-solves exact")
    return 0


def cmd_export(args) -> int:
    platform = _load_platform(args)
    text = platform_to_json(platform)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_lint(args) -> int:
    from .lint import cli as lint_cli

    return lint_cli.run(args)


def _build_broker(args):
    """The served broker: always the ring, one local shard by default."""
    from .service.sharding import ShardedBroker

    if args.shards < 1 and not args.shard:
        raise SystemExit("--shards 0 needs at least one --shard host:port")
    return ShardedBroker(
        shards=args.shards,
        cache_size=args.cache_size,
        shard_addresses=args.shard,
        request_timeout=args.shard_timeout,  # 0 waits indefinitely
        near_cache_size=args.near_cache_size,
    )


def _run_until_stopped(amain) -> None:
    """Run a server coroutine until Ctrl-C or SIGTERM; either unwinds
    it, so the caller's ``finally`` (closing brokers, stopping shard
    workers) runs under ``kill`` as it does at a terminal."""
    import asyncio
    import signal

    async def _main() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        await amain()

    try:
        asyncio.run(_main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


def cmd_serve(args) -> int:
    from .service.api import AsyncServiceServer, serve_stdio
    from .service.tracing import TraceStore

    broker = _build_broker(args)
    store = None
    if not args.no_tracing:
        store = TraceStore(capacity=args.trace_capacity,
                          slow_threshold=args.slow_trace)
    if args.stdio:
        try:
            return serve_stdio(broker, sys.stdin, sys.stdout,
                               trace_store=store)
        finally:
            broker.close()
    plural = "" if args.shards == 1 else "s"
    layout = (f"ring of {args.shards} local shard{plural} x "
              f"{args.cache_size} entries")
    if args.shard:
        layout += f" + {len(args.shard)} remote " + " ".join(args.shard)
    if args.near_cache_size > 0:
        layout += f", near-cache {args.near_cache_size}"
    server = AsyncServiceServer(
        (args.host, args.port), broker=broker, trace_store=store,
        tracing=not args.no_tracing)

    async def _amain() -> None:
        await server.start()
        print(f"repro service listening on "
              f"http://{args.host}:{server.port} ({layout})", flush=True)
        await server.serve_forever()

    try:
        _run_until_stopped(_amain)
    finally:
        broker.close()
    return 0


def cmd_shard_serve(args) -> int:
    """Run one standalone TCP shard (a SolveEngine behind framed JSON).

    Point any ``python -m repro serve`` at it with ``--shard host:port``
    to place it on that broker's hash ring; several brokers may share
    one shard.  One event loop multiplexes id-tagged requests from many
    brokers over however many connections arrive, misses run one at a
    time on a single engine thread, pings and cache hits are answered
    on the loop even while that thread is busy, and ``--op-deadline``
    answers overdue ops with a typed ``ShardTimeoutError`` reply.
    """
    from .service.transport import AsyncShardServer

    deadline = args.op_deadline if args.op_deadline > 0 else None
    server = AsyncShardServer(
        (args.host, args.port),
        cache_size=args.cache_size,
        op_deadline=deadline,
    )

    async def _amain() -> None:
        await server.start()
        print(f"repro shard listening on {server.address} (op deadline "
              f"{'none' if deadline is None else f'{deadline}s'}, "
              f"cache {args.cache_size} entries)", flush=True)
        await server.serve_forever()

    _run_until_stopped(_amain)
    return 0


def cmd_submit(args) -> int:
    import json as _json

    from .problems import SpecError, resolve, spec_from_wire
    from .service.api import handle_request, request_to_dict
    from .service.broker import Broker, SolveRequest

    if args.request:
        with open(args.request, "r", encoding="utf-8") as handle:
            envelope = _json.load(handle)
        if "op" not in envelope:
            envelope = {"op": "solve", "request": envelope}
    else:
        if not args.problem:
            raise SystemExit("provide --request FILE or --problem NAME")
        platform = _load_platform(args)
        try:
            # a role the problem lacks stays under its generic name, so
            # the spec codec refuses it as an unknown field
            spec_type = resolve(args.problem).spec_type
            payload = {"problem": args.problem}
            if args.source is not None:
                payload[spec_type._SOURCE_FIELD or "source"] = args.source
            if args.targets:
                payload[spec_type._TARGETS_FIELD or "targets"] = args.targets
            request = SolveRequest(spec_from_wire(platform, payload),
                                   include_schedule=args.include_schedule)
        except SpecError as exc:
            raise SystemExit(str(exc))
        envelope = {"op": "solve", "request": request_to_dict(request)}

    if args.trace:
        envelope["trace"] = True

    if args.url:
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            args.url.rstrip("/") + "/api",
            data=_json.dumps(envelope).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=args.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:  # 422 still carries JSON
            body = exc.read()
        except urllib.error.URLError as exc:
            raise SystemExit(f"cannot reach {args.url}: {exc.reason}")
        try:
            response = _json.loads(body)
        except _json.JSONDecodeError:
            raise SystemExit(
                f"non-JSON response from {args.url} "
                f"(is this a repro server?): {body[:200]!r}"
            )
    else:
        with Broker() as broker:
            response = handle_request(broker, envelope)

    trace = response.pop("trace", None) if args.trace else None
    print(_json.dumps(response, indent=2))
    if trace is not None:
        from .service.tracing import render_waterfall

        print()
        print(render_waterfall(trace))
    return 0 if response.get("ok") else 1


def _add_platform_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", help="platform JSON file")
    parser.add_argument("--generator",
                        help="generator name from repro.platform.generators")
    parser.add_argument("--args", nargs="*", default=[],
                        help="positional generator arguments")
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="steady-state scheduling on heterogeneous clusters "
                    "(Beaumont/Legrand/Marchal/Robert, IPDPS 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="master-slave steady state")
    _add_platform_options(p)
    p.add_argument("--master", required=True)
    p.add_argument("--periods", type=int, default=12)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scatter", help="pipelined scatter")
    _add_platform_options(p)
    p.add_argument("--source", required=True)
    p.add_argument("--targets", nargs="+", required=True)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("broadcast", help="pipelined broadcast")
    _add_platform_options(p)
    p.add_argument("--source", required=True)
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("multicast", help="multicast bound bracket")
    _add_platform_options(p)
    p.add_argument("--source", required=True)
    p.add_argument("--targets", nargs="+", required=True)
    p.set_defaults(func=cmd_multicast)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("problems",
                       help="list registered problems and capabilities")
    p.add_argument("--json", action="store_true",
                   help="machine-readable registry metadata")
    p.add_argument("--check", action="store_true",
                   help="solve every registered problem end-to-end on a "
                        "2-worker star (the CI consistency check)")
    p.set_defaults(func=cmd_problems)

    p = sub.add_parser("export", help="write a platform as JSON")
    _add_platform_options(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("lint",
                       help="run the repro invariant checkers "
                            "(exactness, locks, drift, tracing)")
    from .lint import cli as _lint_cli
    _lint_cli.add_arguments(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("serve", help="run the scheduling service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8585,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--stdio", action="store_true",
                   help="JSON-lines over stdin/stdout instead of HTTP")
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--shards", type=int, default=1,
                   help="local shards — worker processes, each on a "
                        "private socketpair — routed by consistent hash "
                        "of the request fingerprint (default 1: one "
                        "supervised worker; --cache-size is per shard; "
                        "0 is allowed when --shard supplies the whole "
                        "ring)")
    p.add_argument("--shard", action="append", metavar="HOST:PORT",
                   help="remote shard-serve address to place on the hash "
                        "ring (repeatable; unreachable shards are "
                        "ejected and rejoin automatically)")
    p.add_argument("--shard-timeout", type=float, default=0,
                   help="per-request shard budget in seconds (0 = wait "
                        "indefinitely); the shard enforces it itself and "
                        "answers a miss promptly, and only a shard that "
                        "does not answer at all is restarted (local) or "
                        "ejected (remote)")
    p.add_argument("--near-cache-size", type=int, default=64,
                   help="broker-side near-cache entries for the hottest "
                        "fingerprints (0 disables)")
    p.add_argument("--slow-trace", type=float, default=0.25,
                   help="traces at least this slow (seconds) are always "
                        "kept in the slow-trace ring")
    p.add_argument("--trace-capacity", type=int, default=256,
                   help="recent traces retained for GET /traces")
    p.add_argument("--no-tracing", action="store_true",
                   help="disable request tracing and the trace store")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("shard-serve",
                       help="run one standalone TCP solve shard")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8590,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--op-deadline", type=float, default=0,
                   help="default per-op server-side deadline in seconds "
                        "(0 = none); overdue ops are answered with a "
                        "typed ShardTimeoutError reply while the "
                        "connection keeps serving other ids")
    p.set_defaults(func=cmd_shard_serve)

    p = sub.add_parser("submit", help="submit one solve request")
    _add_platform_options(p)
    p.add_argument("--url", help="server base URL (omit to solve locally)")
    p.add_argument("--request", help="JSON request/envelope file")
    p.add_argument("--problem",
                   help="problem kind (master-slave, scatter, broadcast, ...)")
    p.add_argument("--source", "--master", dest="source",
                   help="the distinguished node (master, source, sink, root)")
    p.add_argument("--targets", nargs="*", default=[])
    p.add_argument("--include-schedule", action="store_true")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--trace", action="store_true",
                   help="capture a span tree for this request and print "
                        "it as a waterfall after the JSON response")
    p.set_defaults(func=cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
