"""Replay the benchmark's solves in process: same answers by the same path.

Drives ``bench.workloads``' ``Corpus`` / ``ColdSource`` / ``DriftSource``
(seed 7; imported only — ``bench/`` is frozen) through one in-process
:class:`~repro.service.broker.SolveEngine` and logs, for every
``SimplexInstance.solve`` that runs underneath (tree packings' LPs
included), ``(pivots, iterations, objective, values, last_restarted,
ladder counters)``.  The SHA-256 of that log is what a change to the LP
layer that means to replay the same pivots must leave unchanged::

    PYTHONPATH=src python benchmarks/replay_solves.py [--smoke]
    PYTHONPATH=src python benchmarks/replay_solves.py --smoke \
        --check tests/data/solve_replay.sha256

``--check FILE`` compares with the digest FILE records for this size
(lines of ``<size> <sha256>``) and exits 1 on a difference, or if a
warm re-solve of this weight-only traffic lowered its model in full;
``--log FILE`` writes the log itself, to diff two commits line by line.

The second output is a wall-clock split of the same run, per engine
request in microseconds: ``build`` / ``patch`` / ``package`` are the
warm model's callables, ``lower`` the full and the in-place lowering,
``factor`` the basis installs, ``phases`` the simplex phases, ``decode``
the hand-out (``LOWER`` / ``FACTOR`` / ``DECODE`` below name the
functions inside :mod:`repro.lp.simplex`; a commit that renames one
renames it here).  Indicative only: the wrappers cost a few
microseconds a call, the same on both sides of a comparison.  Beside it,
the mean rows and columns (slacks included) of a full lowering: the
size every FTRAN, BTRAN and refactorisation of that solve works on.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))          # bench/ lives beside src/

from bench import workloads  # noqa: E402 — needs the path above

from repro.lp import simplex  # noqa: E402
from repro.service import incremental  # noqa: E402
from repro.service.broker import SolveEngine  # noqa: E402

SEED = 7
#: requests per stream: (corpus, cold, drift after its 8-per-member prime)
SIZES = {"smoke": (64, 24, 32), "full": (384, 100, 160)}
LADDER = ("basis_restarts", "phase1_skips", "dual_repairs",
          "primal_repairs", "fallbacks")
LOWER = ("_Form.__init__", "_Form.refresh")
FACTOR = ("_RevisedCore.install_cold", "_RevisedCore.install_warm")
DECODE = ("_RevisedCore.multipliers", "_RevisedCore.retained_basis",
          "_Form.values")


class Split:
    """Seconds by bucket; :meth:`timed` wraps a callable into one."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def add(self, bucket: str, seconds: float) -> None:
        self.seconds[bucket] = self.seconds.get(bucket, 0.0) + seconds

    def timed(self, bucket: str, fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(bucket, time.perf_counter() - started)
        return wrapper


def _patch(dotted: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``repro.lp.simplex.<dotted>`` by ``wrap`` of itself."""
    owner: Any = simplex
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, leaf, wrap(getattr(owner, leaf)))


def _instrument(split: Split, log: List[str],
                shapes: List[Tuple[int, int]]) -> None:
    for bucket, names in (("lower", LOWER), ("factor", FACTOR),
                          ("decode", DECODE)):
        for name in names:
            _patch(name, lambda fn, b=bucket: split.timed(b, fn))

    def shaped(init: Callable) -> Callable:
        def wrapper(form: Any, lp: Any) -> None:
            init(form, lp)
            shapes.append((len(form.rows), form.num_cols))
        return wrapper

    _patch("_Form.__init__", shaped)

    def logged(solve: Callable) -> Callable:
        def wrapper(inst: Any, warm: bool = False) -> Any:
            started = time.perf_counter()
            sol = solve(inst, warm=warm)
            split.add("solve", time.perf_counter() - started)
            split.add("phases", sum(p["duration_seconds"]
                                    for p in inst.last_phases))
            log.append(" ".join([
                str(sol.pivots), str(sol.iterations), str(sol.objective),
                ",".join(str(sol.values[v]) for v in inst.lp.variables),
                str(int(inst.last_restarted)),
                ",".join(str(getattr(inst, k)) for k in LADDER),
            ]))
            return sol
        return wrapper

    _patch("SimplexInstance.solve", logged)

    resolve = incremental.resolve
    cache: Dict[str, Any] = {}

    def resolved(problem: str) -> Any:
        entry = resolve(problem)
        if entry.warm_model is None:
            return entry
        if problem not in cache:
            model = entry.warm_model
            cache[problem] = dataclasses.replace(
                entry, warm_model=dataclasses.replace(
                    model,
                    build=split.timed("build", model.build),
                    patch=split.timed("patch", model.patch),
                    package=split.timed("package", model.package)))
        return cache[problem]

    incremental.resolve = resolved


def _streams(size: str) -> Dict[str, List[Any]]:
    corpus, cold, drift = SIZES[size]
    # the tags are the workload names, so each stream is the one
    # ``build_plan(name, 7, ...)`` deals
    cold_source = workloads.ColdSource(workloads._rng(SEED, "cold_unique"))
    drift_source = workloads.DriftSource(workloads._rng(SEED, "warm_drift"))
    return {
        "corpus": workloads.Corpus(workloads._rng(SEED, "hit_zipf"),
                                   corpus).requests,
        "cold": [cold_source.next_request() for _ in range(cold)],
        "drift": [drift_source.next_request()
                  for _ in range(8 * len(drift_source.members) + drift)],
    }


def replay(size: str) -> Dict[str, Any]:
    split = Split()
    log: List[str] = []
    shapes: List[Tuple[int, int]] = []
    _instrument(split, log, shapes)
    inc = incremental.IncrementalSolver()
    engine = SolveEngine(incremental=inc)
    requests = 0
    started = time.perf_counter()
    for name, stream in _streams(size).items():
        log.append(f"# {name}")
        for request in stream:
            engine.run(request, request.fingerprint())
            requests += 1
    split.add("engine", time.perf_counter() - started)
    digest = hashlib.sha256("\n".join(log).encode("utf-8")).hexdigest()
    return {"log": log, "sha256": digest, "requests": requests,
            "solves": sum(not line.startswith("#") for line in log),
            "split": split.seconds, "shapes": shapes,
            "stats": inc.stats.as_dict()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="64 + 24 + (128 + 32) requests, a few seconds")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digest FILE records")
    parser.add_argument("--log", metavar="FILE", help="write the solve log")
    args = parser.parse_args()
    size = "smoke" if args.smoke else "full"
    out = replay(size)
    if args.log:
        Path(args.log).write_text("\n".join(out["log"]) + "\n")
    print(f"replay {size}: {out['requests']} requests, {out['solves']} "
          f"SimplexInstance.solve calls, seed {SEED}")
    print(f"sha256 {out['sha256']}")
    stats = out["stats"]
    print("incremental: " + " ".join(
        f"{key}={stats[key]}" for key in sorted(stats)
        if not key.startswith(("lu_", "ftran", "btran", "eta", "int_"))))
    seconds = out["split"]
    inside = sum(seconds.get(k, 0.0)
                 for k in ("lower", "factor", "phases", "decode"))
    seconds["solve.other"] = seconds.get("solve", 0.0) - inside
    print("wall-clock split, microseconds per engine request:")
    for bucket in ("engine", "build", "patch", "solve", "lower", "factor",
                   "phases", "decode", "solve.other", "package"):
        per_request = seconds.get(bucket, 0.0) / out["requests"] * 1e6
        print(f"  {bucket:<12}{per_request:10.0f}")
    shapes = out["shapes"]
    print(f"full lowerings: {len(shapes)}, "
          f"{sum(r for r, _ in shapes) / len(shapes):.1f} rows and "
          f"{sum(c for _, c in shapes) / len(shapes):.1f} columns each "
          f"(slacks included)")
    if args.check:
        recorded = dict(line.split() for line in
                        Path(args.check).read_text().splitlines() if line)
        if recorded.get(size) != out["sha256"]:
            print(f"MISMATCH: {args.check} records {recorded.get(size)} "
                  f"for {size}", file=sys.stderr)
            return 1
        if stats["form_builds"] != stats["full_rebuilds"]:
            # weight-only traffic: one lowering per model built, ever
            print("a warm re-solve lowered its model in full",
                  file=sys.stderr)
            return 1
        print(f"matches {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
