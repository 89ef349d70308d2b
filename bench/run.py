"""The benchmark's contract entry: one workload per call.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with the harness's tracing
off; ``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the service is run from source: there is no build step and no install
sys.path[:0] = [p for p in (_REPO, os.path.join(_REPO, "src"))
                if p not in sys.path]


def _terminated(signum, frame):
    # unwind through the finally blocks, so the servers are reaped
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isdir(os.path.join(_REPO, "src", "repro")):
        sys.exit("bench: src/repro is missing; the benchmark runs the "
                 "service from source and cannot run without it")
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        from bench.layers import run_layers
        record = run_layers(args.workload, args.seed)
        units = record["units"]
    else:
        from bench.runner import END_TO_END, run_workload
        record = run_workload(args.workload, args.seed, args.seconds)
        if not record["gate"]["ok"] and record["server"]["shard_failures"]:
            # the host kept a shard off the CPU past the front end's 2 s
            # health ping: it was ejected and rejoined with an empty cache,
            # so the requests took another path.  That is the host's
            # doing, not the program's: measure once more, and only once
            print("problem: a shard was ejected and the path gate failed; "
                  "measuring again", file=sys.stderr)
            record = run_workload(args.workload, args.seed, args.seconds)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        # the ungated metrics stay in bench/out/latest.json
        record["metrics"] = {name: record["metrics"][name] for name in units}
        # a run that skipped its path did not do the work: not correct.
        # A late generator or a backlog (the other two invalid-run
        # conditions) spoil the wall-clock metrics only, none of which is
        # on this line; `python -m bench run` exits non-zero on them
        record["correct"] = record["correct"] and record["gate"]["ok"]
        record["problems"] = record["problems"] + record["invalid"]
    for problem in record["problems"]:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        # a layer metric this workload does not exercise, or whose probe
        # is gone, is None in the record and -1 on this line
        "metrics": {name: {"value": -1.0 if value is None else value,
                           "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
