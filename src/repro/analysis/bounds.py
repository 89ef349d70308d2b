"""Bounds and asymptotics used across tests and benchmarks (§4.2).

The paper's strongest claim: the number of tasks processed within ``K``
time-units by the reconstructed schedule is *optimal up to a constant that
does not depend on K*.  These helpers turn that into checkable numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from ..simulator.periodic_runner import PeriodicRunResult


def deficit_is_constant(results: Sequence[PeriodicRunResult]) -> bool:
    """True when runs of increasing horizon share one deficit constant."""
    deficits = {r.deficit for r in results}
    return len(deficits) == 1


def efficiency_series(
    results: Sequence[PeriodicRunResult],
) -> List[Tuple[int, Fraction]]:
    """``(periods, achieved/bound)`` — must approach 1 from below."""
    out = []
    for r in results:
        if r.steady_state_bound == 0:
            out.append((r.periods, Fraction(0)))
        else:
            out.append((r.periods, r.total_completed / r.steady_state_bound))
    return out


def fit_sqrt_constant(
    ratios: Sequence[Tuple[int, Fraction]]
) -> float:
    """Smallest ``C`` with ``ratio(n) <= 1 + C / sqrt(n)`` on the data.

    Section 5.2 promises such a constant exists; benchmarks verify the fit
    does not blow up as ``n`` grows.
    """
    best = 0.0
    for n, ratio in ratios:
        if n <= 0:
            continue
        excess = float(ratio) - 1.0
        if excess > 0:
            best = max(best, excess * math.sqrt(n))
    return best
