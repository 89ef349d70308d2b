"""Duality certificates, checked on the original ``LinearProgram``.

The paper's optimality argument is a duality certificate: the LP value
"is an upper bound of what can be achieved in steady-state mode", and
the reconstructed schedule attains it.  The exact backend hands the same
kind of proof out with every answer, and this module checks it — with
``Fraction`` arithmetic on the model the caller built, importing nothing
from the solver, so a slip anywhere between the model and the answer
(standard form, bound substitutions, pivoting, decoding) cannot hide
behind a sibling that shares it.

Multipliers are keyed by a constraint's index in ``lp.constraints``; a
constraint reads ``expr (<=|>=|==) 0``.  Three proofs:

* **optimal** (:func:`certify`) — shadow prices ``y``: for a ``max``
  model ``y_k >= 0`` on ``<=`` rows and ``y_k <= 0`` on ``>=`` rows (the
  reverse for ``min``), so the Lagrangian ``objective - y.expr`` bounds
  the objective on every feasible point; its extremum over the variable
  box alone must equal the objective at the (feasible) solution.
* **infeasible** (:func:`certify_infeasible`) — a Farkas combination:
  ``y_k >= 0`` on ``<=`` rows and ``y_k <= 0`` on ``>=`` rows make
  ``y.expr <= 0`` on every feasible point, yet its minimum over the box
  is positive.
* **unbounded** (:func:`certify_unbounded`) — a feasible point and a ray
  that leaves no bound, keeps every constraint and improves the
  objective.

Every check is an explicit ``raise``: ``python -O`` strips ``assert``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .model import (
    InfeasibleError,
    LinearProgram,
    LPSolution,
    UnboundedError,
    Variable,
)

ZERO = Fraction(0)


class CertificateError(Exception):
    """A certificate does not prove what it claims.  Deliberately not an
    :class:`~repro.lp.model.LPError`: no solver error handler may
    swallow it."""


def _holds(sense: str, lhs: Fraction) -> bool:
    """``lhs sense 0``."""
    if sense == "<=":
        return lhs <= 0
    if sense == ">=":
        return lhs >= 0
    return lhs == 0


def _check_point(lp: LinearProgram, values: Mapping[Variable, Fraction]) -> None:
    for var in lp.variables:
        x = values.get(var, ZERO)
        if var.lo is not None and x < var.lo:
            raise CertificateError(f"{var.name} = {x} below its bound {var.lo}")
        if var.hi is not None and x > var.hi:
            raise CertificateError(f"{var.name} = {x} above its bound {var.hi}")
    for k, cons in enumerate(lp.constraints):
        if not _holds(cons.sense, cons.expr.value(values)):
            raise CertificateError(
                f"constraint {cons.name or k} is violated by the point")


def _combine(lp: LinearProgram, multipliers: Mapping[int, Fraction],
             sign: int = 1) -> Tuple[Dict[Variable, Fraction], Fraction]:
    """``sign * y.expr`` as (coefficients, constant), after checking that
    every ``sign * y_k`` has the sign that makes the combination ``<= 0``
    on each feasible point."""
    coefs: Dict[Variable, Fraction] = {}
    constant = ZERO
    for k, y in multipliers.items():
        if not 0 <= k < len(lp.constraints):
            raise CertificateError(f"multiplier for unknown constraint {k}")
        cons = lp.constraints[k]
        y *= sign
        if (cons.sense == "<=" and y < 0) or (cons.sense == ">=" and y > 0):
            raise CertificateError(
                f"multiplier {sign * y} of constraint {cons.name or k} has "
                f"the wrong sign for a {cons.sense!r} row")
        constant += y * cons.expr.constant
        for var, a in cons.expr.terms.items():
            coefs[var] = coefs.get(var, ZERO) + y * a
    return coefs, constant


def _box_minimum(coefs: Mapping[Variable, Fraction],
                 constant: Fraction) -> Fraction:
    """The minimum of ``constant + coefs.x`` over the variable box: a
    positive coefficient takes ``lo``, a negative one ``hi``, and one
    that points at a missing bound proves nothing."""
    total = constant
    for var, c in coefs.items():
        if c == 0:
            continue
        bound = var.lo if c > 0 else var.hi
        if bound is None:
            raise CertificateError(
                f"the coefficient {c} of {var.name} points at a missing bound")
        total += c * bound
    return total


def certify(lp: LinearProgram, solution: LPSolution) -> Fraction:
    """Prove ``solution`` optimal for ``lp``; returns the dual bound
    (equal to ``solution.objective``) or raises :class:`CertificateError`."""
    if lp.objective is None or solution.duals is None:
        raise CertificateError("no objective or no duals to check")
    _check_point(lp, solution.values)
    if lp.objective.value(solution.values) != solution.objective:
        raise CertificateError(
            f"objective {solution.objective} is not the objective's value "
            f"at the solution")
    sign = 1 if lp.sense == "max" else -1
    # sign * y.expr <= 0 on every feasible point, so the box minimum of
    # sign * (y.expr - objective) is a lower bound of -sign * objective
    coefs, constant = _combine(lp, solution.duals, sign)
    for var, c in lp.objective.terms.items():
        coefs[var] = coefs.get(var, ZERO) - sign * c
    bound = -sign * _box_minimum(
        coefs, constant - sign * lp.objective.constant)
    if bound != solution.objective:
        raise CertificateError(
            f"the duals bound the objective by {bound}, the solution "
            f"reaches {solution.objective}")
    return bound


def certify_infeasible(lp: LinearProgram, error: InfeasibleError) -> None:
    """Prove ``lp`` infeasible from ``error.farkas``."""
    if error.farkas is None:
        raise CertificateError("no Farkas multipliers to check")
    slack = _box_minimum(*_combine(lp, error.farkas))
    if slack <= 0:
        raise CertificateError(
            f"the Farkas combination reaches {slack} <= 0 inside the box")


def certify_unbounded(lp: LinearProgram, error: UnboundedError) -> None:
    """Prove ``lp`` unbounded from ``error.point`` and ``error.ray``."""
    if lp.objective is None or error.point is None or error.ray is None:
        raise CertificateError("no objective, point or ray to check")
    _check_point(lp, error.point)
    ray = error.ray
    for var in lp.variables:
        d = ray.get(var, ZERO)
        if (d > 0 and var.hi is not None) or (d < 0 and var.lo is not None):
            raise CertificateError(f"the ray leaves a bound of {var.name}")
    for k, cons in enumerate(lp.constraints):
        if not _holds(cons.sense, cons.expr.value(ray) - cons.expr.constant):
            raise CertificateError(
                f"the ray leaves constraint {cons.name or k}")
    gain = lp.objective.value(ray) - lp.objective.constant
    if (gain if lp.sense == "max" else -gain) <= 0:
        raise CertificateError("the ray does not improve the objective")
