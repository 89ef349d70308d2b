"""Divisible load scheduling on star platforms (section 5.2, ref [8]).

A *divisible* load of ``W`` units can be split arbitrarily.  The master
distributes chunks to workers over a one-port star; sending ``n`` units to
worker ``k`` costs ``C_k + c_k * n`` (affine: ``C_k`` is the start-up of
section 5.2) and computing them costs ``w_k * n``.

Implemented strategies:

* :func:`one_round_schedule` — the classical single-installment DLT
  solution: serve workers in a chosen order, sized so everyone finishes
  simultaneously (the known optimality condition for one round).
* :func:`multi_round_makespan` — the paper's periodic strategy: steady-state
  rates from the star LP, periods grouped by ``m`` to amortise start-ups,
  initialisation and clean-up phases, asymptotically optimal (§5.2 walks
  through the same four steps).
* :func:`makespan_lower_bound` — ``W / ntask(G)``: no schedule (with or
  without start-ups) beats the steady-state rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .._rational import RationalLike, as_fraction
from .master_slave import bandwidth_centric


@dataclass(frozen=True)
class StarWorker:
    """One worker of a divisible-load star."""

    w: Fraction      # compute time per load unit
    c: Fraction      # communication time per load unit
    startup: Fraction = Fraction(0)  # per-message start-up C_k


def _coerce_workers(workers: Sequence[StarWorker]) -> List[StarWorker]:
    out = []
    for wk in workers:
        out.append(
            StarWorker(
                as_fraction(wk.w), as_fraction(wk.c), as_fraction(wk.startup)
            )
        )
    return out


def one_round_schedule(
    total_load: RationalLike,
    workers: Sequence[StarWorker],
    order: Optional[Sequence[int]] = None,
    master_w: Optional[RationalLike] = None,
) -> Tuple[Fraction, List[Fraction]]:
    """Single-installment divisible load: chunk sizes + makespan.

    The master serves workers sequentially in ``order`` (default: by
    increasing ``c``, the bandwidth-centric order, optimal for one-port
    stars).  Chunks are sized so that all workers finish at the same
    instant — the classical DLT optimality condition.  If the master also
    computes (``master_w``), it processes the remainder concurrently and
    the returned makespan accounts for it.

    Returns ``(makespan, alphas)`` with ``alphas[k]`` the load given to
    worker ``k`` (input order).  All-exact rational arithmetic.
    """
    W = as_fraction(total_load)
    if W < 0:
        raise ValueError("total load must be non-negative")
    wk = _coerce_workers(workers)
    n = len(wk)
    if order is None:
        order = sorted(range(n), key=lambda k: (wk[k].c, k))
    else:
        order = list(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the workers")

    # With all workers finishing at makespan M:
    #   finish_k = sum_{j before k, incl. k}(C_j + c_j a_j) + w_k a_k = M
    # Subtracting consecutive equations gives a triangular system:
    #   w_{k} a_{k} = w_{k-1} a_{k-1} - C_k - c_k a_k  (k in send order)
    # => a_k = (w_prev a_prev - C_k) / (c_k + w_k), a_0 from M unknown —
    # instead parametrise by a_0 and scale: a_k = p_k * a_0 + q_k.
    p: List[Fraction] = []
    q: List[Fraction] = []
    for idx, k in enumerate(order):
        ck, wkk, Ck = wk[k].c, wk[k].w, wk[k].startup
        if idx == 0:
            p.append(Fraction(1))
            q.append(Fraction(0))
        else:
            prev = order[idx - 1]
            wp = wk[prev].w
            p.append(wp * p[-1] / (ck + wkk))
            q.append((wp * q[-1] - Ck) / (ck + wkk))

    if master_w is not None:
        mw = as_fraction(master_w)
        # master computes from t=0 until M: load W - sum(a_k);
        # M = mw * (W - sum a) and M = sum_{j}(C_j + c_j a_j) + w_last a_last
        # Solve for a_0 using a_k = p_k a_0 + q_k.
        sum_p = sum(p, start=Fraction(0))
        sum_q = sum(q, start=Fraction(0))
        # expr1: M as seen by last worker:
        lhs_coeff = Fraction(0)
        lhs_const = Fraction(0)
        for idx, k in enumerate(order):
            lhs_coeff += wk[k].c * p[idx]
            lhs_const += wk[k].startup + wk[k].c * q[idx]
        last = order[-1]
        lhs_coeff += wk[last].w * p[-1]
        lhs_const += wk[last].w * q[-1]
        # expr2: M = mw (W - sum_p a0 - sum_q)
        denom = lhs_coeff + mw * sum_p
        if denom <= 0:
            raise ValueError("degenerate one-round system")
        a0 = (mw * (W - sum_q) - lhs_const) / denom
    else:
        sum_p = sum(p, start=Fraction(0))
        sum_q = sum(q, start=Fraction(0))
        if sum_p <= 0:
            raise ValueError("degenerate one-round system")
        a0 = (W - sum_q) / sum_p

    alphas_ordered = [p[idx] * a0 + q[idx] for idx in range(n)]
    if any(a < 0 for a in alphas_ordered):
        # start-ups too large for the small load: drop the last worker and
        # retry (standard resource-selection step in DLT with latencies).
        if n == 1:
            raise ValueError("load too small to use any worker")
        keep = order[:-1]
        sub_workers = [workers[k] for k in keep]
        mk, sub_alpha = one_round_schedule(
            W, sub_workers, order=None, master_w=master_w
        )
        alphas = [Fraction(0)] * n
        for pos, k in enumerate(keep):
            alphas[k] = sub_alpha[pos]
        return mk, alphas

    # makespan from the last worker's finish time
    M = Fraction(0)
    for idx, k in enumerate(order):
        M += wk[k].startup + wk[k].c * alphas_ordered[idx]
    M += wk[order[-1]].w * alphas_ordered[-1]
    if master_w is not None:
        M = max(M, as_fraction(master_w) * (W - sum(alphas_ordered, start=Fraction(0))))

    alphas = [Fraction(0)] * n
    for idx, k in enumerate(order):
        alphas[k] = alphas_ordered[idx]
    return M, alphas


def _bandwidth_centric(
    wk: Sequence[StarWorker], master_w: Optional[RationalLike]
) -> Tuple[Fraction, List[Fraction]]:
    """The star's steady-state rate and per-worker rates (no start-ups)."""
    own = Fraction(0) if master_w is None else 1 / as_fraction(master_w)
    return bandwidth_centric(own, [(x.c, 1 / x.w) for x in wk])


def steady_state_rate(
    workers: Sequence[StarWorker], master_w: Optional[RationalLike] = None
) -> Fraction:
    """Load units processed per time-unit in steady state (no start-ups)."""
    return _bandwidth_centric(_coerce_workers(workers), master_w)[0]


def multi_round_makespan(
    total_load: RationalLike,
    workers: Sequence[StarWorker],
    master_w: Optional[RationalLike] = None,
    rounds_scale: Optional[int] = None,
) -> Fraction:
    """Periodic multi-round schedule with start-up amortisation (§5.2).

    Steps mirror the paper exactly:

    1. the lower bound is ``W / rate`` where ``rate`` is the steady-state
       throughput without start-ups;
    2. group ``m`` elementary periods into one round so each worker pays
       one start-up per round; round length ``m*T + sum_k C_k``;
    3. initialisation ships each worker its first-round chunk serially
       (``A1 * m``); clean-up lets workers drain (``A2 * m``);
    4. with ``m ≈ sqrt(W / rate)`` the total time is
       ``W/rate + O(sqrt(W))`` — asymptotically optimal.

    Returns the exact makespan of the constructed schedule.
    """
    W = as_fraction(total_load)
    wk = _coerce_workers(workers)
    rate, rates = _bandwidth_centric(wk, master_w)
    if rate <= 0:
        raise ValueError("platform cannot process any load")
    T = Fraction(1)  # elementary period of the fluid steady state

    if rounds_scale is None:
        # exact integer arithmetic; it only sizes the round count
        m = max(1, math.isqrt(int(W / rate)) or 1)
    else:
        m = max(1, rounds_scale)

    startups = sum((x.startup for x in wk), start=Fraction(0))
    round_len = m * T + startups
    per_round = m * T * rate
    if per_round <= 0:
        raise ValueError("empty rounds")

    # initialisation: serially ship round-1 chunks (one message per worker)
    A1 = sum(
        (x.startup + x.c * (r * m * T) for x, r in zip(wk, rates)),
        start=Fraction(0),
    )
    full_rounds = int(W / per_round)
    remainder = W - per_round * full_rounds
    # steady phase: workers always busy; master overlaps its own share.
    steady = full_rounds * round_len
    # clean-up: the final partial round processed at the steady rate, plus
    # the slowest worker draining its last chunk.
    drain = max(
        (x.w * (r * m * T) for x, r in zip(wk, rates)),
        default=Fraction(0),
    )
    tail = (remainder / rate) if remainder > 0 else Fraction(0)
    return A1 + steady + tail + drain


def makespan_lower_bound(
    total_load: RationalLike,
    workers: Sequence[StarWorker],
    master_w: Optional[RationalLike] = None,
) -> Fraction:
    """``W / rate``: valid even with start-ups (they only slow things)."""
    W = as_fraction(total_load)
    return W / steady_state_rate(workers, master_w)
