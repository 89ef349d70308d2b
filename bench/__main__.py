"""Commands for people: ``PYTHONPATH=src python -m bench run|layers|sweep``.

The driver's contract runs go through ``bench/run.py`` instead.
"""

from __future__ import annotations

import argparse
import sys

from .stack import SRC

if SRC not in sys.path:
    sys.path.insert(0, SRC)

from . import layers, runner  # noqa: E402 — needs src on the path
from .workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 20.0  # what BENCHMARK.json fixes for the contract runs
# shares of the seed commit's capacity (the frozen rate / 0.4)
LADDER = (0.25, 0.50, 0.75, 0.90, 1.10)
RUNG_SECONDS = 8.0
SMOKE_SCALE = 1 / 6  # a 64-request corpus


def _picked(args) -> list:
    return args.workload or list(WORKLOADS)


def cmd_run(args) -> int:
    """Every end-to-end metric of every workload, with all checks."""
    status = 0
    for name in _picked(args):
        if args.smoke:  # one round, a 2 s open-loop phase
            record = runner.run_workload(
                name, args.seed, rounds=1, scale=SMOKE_SCALE,
                seconds=2.0 + runner.CLOSED_SECONDS * SMOKE_SCALE)
        else:
            record = runner.run_workload(name, args.seed, RUN_SECONDS)
        print(f"== {name}  seed {args.seed}  {record['attempted']} "
              f"requests, {record['failed']} failed "
              f"(share {record['failed_share']:.4f})")
        for metric, (unit, better) in {**runner.END_TO_END,
                                       **runner.UNGATED}.items():
            print(f"  {metric:<18}{record['metrics'][metric]:>12.4f} "
                  f"{unit:<4} ({better} is better"
                  f"{', not gated' if metric in runner.UNGATED else ''})")
        print(f"  {'failed_share':<18}{record['failed_share']:>12.4f} share")
        print(f"  {'gen_lag_p95_ms':<18}{record['gen_lag_p95_ms']:>12.4f} ms")
        print(f"  {'achieved/offered':<18}"
              f"{record['achieved_over_offered']:>12.4f}")
        print(f"  gate: {record['gate']['text']}; exact checks "
              f"{record['exact_checked']}, HiGHS checks "
              f"{record['float_checked']}")
        for problem in record["problems"]:
            print("  problem:", problem)
        for reason in record["invalid"]:
            print("  INVALID RUN:", reason)
        if record["invalid"] or not record["correct"]:
            status = 1
    return status


def cmd_layers(args) -> int:
    """The per-layer table of every workload (the traced run)."""
    records = {name: layers.run_layers(name, args.seed)
               for name in _picked(args)}
    names = list(records)
    print(f"{'metric':<40}" + "".join(f"{n:>14}" for n in names) + "  unit")
    for metric, unit in layers.UNITS.items():
        cells = []
        for name in names:
            value = records[name]["metrics"][metric]
            cells.append(f"{'n/a':>14}" if value is None
                         else f"{value:>14.3f}")
        print(f"{metric:<40}" + "".join(cells) + f"  {unit}")
    status = 0
    for name, record in records.items():
        if record["missing"]:
            print(f"{name}: missing probes: {', '.join(record['missing'])}")
        if not record["correct"]:
            print(f"{name}: live replay answered wrongly")
            status = 1
    return status


def cmd_sweep(args) -> int:
    """Latency against offered load, and the saturation knee."""
    status = 0
    for name in _picked(args):
        workload = WORKLOADS[name]
        capacity = workload.rate / 0.4
        rates = [share * capacity for share in LADDER]
        record = runner.run_workload(
            name, args.seed, rounds=len(rates), scale=SMOKE_SCALE,
            open_rates=rates, seconds=len(rates) * RUNG_SECONDS
            + runner.CLOSED_SECONDS * SMOKE_SCALE)
        print(f"== {name}: frozen rate {workload.rate:g}/s, p90 to meet "
              f"{workload.limit_ms:g} ms")
        print(f"  {'offered/s':>10}{'achieved':>10}{'p50 ms':>10}"
              f"{'p90 ms':>10}{'p99 ms':>10}")
        knee = None
        for rate, rung in zip(rates, record["per_round"]):
            ok = (rung["lat_p90_ms"] <= workload.limit_ms
                  and rung["achieved_over_offered"] >= runner.MIN_ACHIEVED)
            if ok:
                knee = rate
            print(f"  {rate:>10.1f}{rung['achieved_over_offered']:>10.3f}"
                  f"{rung['lat_p50_ms']:>10.2f}{rung['lat_p90_ms']:>10.2f}"
                  f"{rung['lat_p99_ms']:>10.2f}{'' if ok else '  over'}")
        print("  knee: " + ("below the lowest rung" if knee is None
                            else f"{knee:.1f} req/s"))
        if not record["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("layers", cmd_layers),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workload", action="append",
                       choices=sorted(WORKLOADS),
                       help="repeatable; default: all four")
        p.set_defaults(fn=fn)
        if name == "run":
            p.add_argument("--smoke", action="store_true",
                           help="one short round on a 64-request corpus")
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
