"""Correctness of what the service answered, checked after the clocks
stop: every reply is well-formed and carries the fingerprint the
generator computed; the distinct requests (all of ``hit_zipf``'s, a
seeded sample of the others') are re-solved in-process through
``repro.problems.solve``, bypassing the service, and must give the
``Fraction``-identical throughput; a sub-sample is also checked against
the scipy/HiGHS backend.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence

from repro.problems import solve
from repro.service.broker import SolveRequest, solution_throughput

from .loadgen import Sample

EXACT_SHARE = 5     # workloads that solve: re-solve 1 in 5 distinct ...
EXACT_CAP = 40      # ... but at most this many: a run has 35 s in all
FLOAT_SHARE = 20    # 1 in 20 of the distinct with scipy/HiGHS too
FLOAT_TOLERANCE = 1e-7


@dataclass
class Verdict:
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    failed: int = 0          # requests that failed (each counted once)
    exact_checked: int = 0
    float_checked: int = 0

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _check_solve_reply(verdict: Verdict, request: SolveRequest, reply,
                       answers: Dict[str, str]) -> bool:
    if not isinstance(reply, dict) or not reply.get("ok"):
        verdict.note(f"reply not ok: {str(reply)[:200]}")
        return False
    fp = request.fingerprint()
    if reply.get("fingerprint") != fp:
        verdict.note(f"fingerprint {reply.get('fingerprint')!r} != {fp!r}")
        return False
    verdict.bump("replies")
    for flag in ("cached", "warm", "coalesced"):
        if reply.get(flag):
            verdict.bump(flag)
    throughput = reply.get("throughput")
    if not isinstance(throughput, str):
        verdict.note(f"{fp[:12]} carries no throughput")
        return False
    if answers.setdefault(fp, throughput) != throughput:
        verdict.note(f"{fp[:12]} answered {throughput} and {answers[fp]}")
        return False
    return True


def check_replies(samples: Sequence[Sample], limit_ms: float,
                  verdict: Verdict, answers: Dict[str, str],
                  timed: bool) -> None:
    """Parse and check every reply of one phase.  ``timed`` phases (open
    loop) also count the requests over ``limit_ms``, the workload's
    latency limit.  A slow reply does not fail: how long it took depends
    on the host as much as on the program, and a request fails only by
    what the program answered, so that two runs of one seed on the same
    code count the same failures."""
    for sample in samples:
        op = sample.op
        verdict.bump("sent")
        good = sample.status == 200
        if not good:
            verdict.bump("transport_errors" if sample.status == 0
                         else "non_200")
            verdict.note(f"{op.kind}: status {sample.status} "
                         f"{sample.body[:120]!r}")
        else:
            try:
                reply = json.loads(sample.body)
            except ValueError:
                reply = None
            if op.form == "invalidate":
                good = (isinstance(reply, dict) and reply.get("ok") is True
                        and isinstance(reply.get("invalidated"), int))
            elif op.form == "batch":
                results = reply.get("results") if isinstance(reply, dict) \
                    else None
                good = (isinstance(results, list)
                        and len(results) == len(op.requests))
                if good:
                    for request, item in zip(op.requests, results):
                        good &= _check_solve_reply(verdict, request, item,
                                                   answers)
            else:
                good = _check_solve_reply(verdict, op.requests[0], reply,
                                          answers)
            if not good:
                verdict.bump("wrong")
        if good and timed and sample.latency * 1e3 > limit_ms:
            verdict.bump("over_limit")
        if good:
            verdict.bump("kind." + op.kind)
            verdict.bump("ok")
        else:
            verdict.failed += 1


def check_answers(requests: Dict[str, SolveRequest], answers: Dict[str, str],
                  seed: int, name: str, verdict: Verdict) -> None:
    """Re-solve the distinct requests in-process: every one of
    ``hit_zipf`` (its corpus, small platforms), and of the workloads whose
    requests each cost a cold solve a seeded 1 in ``EXACT_SHARE``, at
    most ``EXACT_CAP``."""
    fps = sorted(fp for fp in answers if fp in requests)
    if name == "hit_zipf":
        picked, float_every = fps, FLOAT_SHARE
    else:
        rng = random.Random(f"{seed}:{name}:verify")
        picked = rng.sample(fps, min(EXACT_CAP,
                                     math.ceil(len(fps) / EXACT_SHARE)))
        float_every = FLOAT_SHARE // EXACT_SHARE
    for index, fp in enumerate(picked):
        spec = requests[fp].spec
        try:
            served = Fraction(answers[fp])
        except ValueError:
            verdict.bump("wrong")
            verdict.failed += 1
            verdict.note(f"{fp[:12]}: throughput {answers[fp]!r}")
            continue
        exact = solution_throughput(solve(spec))
        verdict.exact_checked += 1
        if exact != served:
            verdict.bump("wrong")
            verdict.failed += 1
            verdict.note(f"{fp[:12]} {spec.problem}: served {served}, "
                         f"exact solve gives {exact}")
        if index % float_every == 0:
            approx = float(solution_throughput(solve(spec, backend="scipy")))
            verdict.float_checked += 1
            if abs(approx - float(served)) > FLOAT_TOLERANCE * max(
                    1.0, abs(approx)):
                verdict.bump("wrong")
                verdict.failed += 1
                verdict.note(f"{fp[:12]} {spec.problem}: served {served}, "
                             f"HiGHS gives {approx}")
