"""Floating-point LP backend on top of :func:`scipy.optimize.linprog` (HiGHS).

Used for (a) cross-checking the exact simplex on every LP family in the
test-suite and (b) large parameter sweeps in benchmarks where exactness is
not needed.  Outputs — values, objective and HiGHS's marginals as
``duals``, in the exact backend's sign convention — are rationalised
(``limit_denominator``) so the calling code sees the same Fraction-based
interface; callers that feed a solution into schedule reconstruction
should use the exact backend, as documented in
:meth:`repro.lp.model.LinearProgram.solve`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

import numpy as np
from scipy.optimize import linprog

from .model import (
    InfeasibleError,
    LinearProgram,
    LPError,
    LPSolution,
    UnboundedError,
    Variable,
)


#: the largest denominator HiGHS's floats are rationalised to
MAX_DENOMINATOR = 10**9


def solve_scipy(lp: LinearProgram) -> LPSolution:
    """Solve with HiGHS; rationalise outputs with ``limit_denominator``."""
    assert lp.objective is not None
    nvars = len(lp.variables)
    col_of: Dict[Variable, int] = {v: i for i, v in enumerate(lp.variables)}

    sign = -1.0 if lp.sense == "max" else 1.0
    c = np.zeros(nvars)
    for var, coef in lp.objective.terms.items():
        c[col_of[var]] = sign * float(coef)

    a_ub: List[np.ndarray] = []
    b_ub: List[float] = []
    a_eq: List[np.ndarray] = []
    b_eq: List[float] = []
    for cons in lp.constraints:
        terms, sense, rhs = cons.normalized()
        row = np.zeros(nvars)
        for var, coef in terms.items():
            row[col_of[var]] = float(coef)
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        elif sense == ">=":
            a_ub.append(-row)
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))

    bounds = []
    for var in lp.variables:
        lo = None if var.lo is None else float(var.lo)
        hi = None if var.hi is None else float(var.hi)
        bounds.append((lo, hi))

    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleError(f"{lp.name!r} infeasible (HiGHS)")
    if res.status == 3:
        raise UnboundedError(f"{lp.name!r} unbounded (HiGHS)")
    if not res.success:
        raise LPError(f"HiGHS failed on {lp.name!r}: {res.message}")

    values: Dict[Variable, Fraction] = {}
    for var in lp.variables:
        x = float(res.x[col_of[var]])
        frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
        # Clamp tiny negatives produced by float noise to the bound.
        if var.lo is not None and frac < var.lo:
            frac = var.lo
        if var.hi is not None and frac > var.hi:
            frac = var.hi
        values[var] = frac

    objective_float = sign * float(res.fun)
    objective = Fraction(objective_float).limit_denominator(MAX_DENOMINATOR)
    # HiGHS's marginals are d(min c.x)/d(b); the model's shadow price is
    # d(objective)/d(rhs), so undo the max->min and the >= -> <= flips
    ub, eq = iter(res.ineqlin.marginals), iter(res.eqlin.marginals)
    duals: Dict[int, Fraction] = {}
    for k, cons in enumerate(lp.constraints):
        flip = -1 if cons.sense == ">=" else 1
        marginal = float(next(eq if cons.sense == "==" else ub))
        y = Fraction(sign * flip * marginal).limit_denominator(MAX_DENOMINATOR)
        if y:
            duals[k] = y
    return LPSolution(
        objective=objective,
        values=values,
        backend="scipy",
        iterations=int(res.nit) if hasattr(res, "nit") else 0,
        duals=duals,
    )
