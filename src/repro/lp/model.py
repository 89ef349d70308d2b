"""A small linear-programming modelling layer.

The steady-state LPs of the paper (SSMS, SSPS, broadcast/multicast bounds,
DAG collections) are assembled with this mini-language and handed to one of
the backends in :mod:`repro.lp.simplex` (exact rational) or
:mod:`repro.lp.scipy_backend` (floating point, HiGHS).

Only what the library needs is implemented: real variables with bounds,
linear expressions with exact :class:`~fractions.Fraction` coefficients,
``<= / >= / ==`` constraints and a linear objective.  A builder that
knows its rows adds them whole with :meth:`LinearProgram.add_row`.

Coefficient rebuild (warm re-solve hook)
----------------------------------------
An assembled model can have its numeric coefficients *rewritten in place*
without touching its structure: :meth:`LinearProgram.constraint_by_name`
finds a named constraint, :meth:`LinearProgram.set_constraint_coefficient`
and :meth:`LinearProgram.set_objective_coefficient` replace individual
``coef * var`` terms (a zero coefficient removes the term).  This is the
hook :mod:`repro.service.incremental` uses for warm re-solves: when only
platform weights change, the steady-state LPs keep their exact variable /
constraint structure and only the ``1/w`` and ``1/c`` coefficients move,
so the model is patched and re-solved without re-assembly.  Any change to
the platform *topology* changes the structure itself and requires a fresh
build.

Example
-------
>>> lp = LinearProgram()
>>> x = lp.variable("x", lo=0)
>>> y = lp.variable("y", lo=0)
>>> lp.add_constraint(x + y <= 4)
>>> lp.add_constraint(x + 3 * y <= 6)
>>> lp.maximize(x + 2 * y)
>>> sol = lp.solve()
>>> sol.objective
Fraction(5, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .._rational import RationalLike, as_fraction

Number = Union[int, float, str, Fraction]


class LPError(Exception):
    """Base class for modelling/solving errors."""


class InfeasibleError(LPError):
    """The LP admits no feasible point.

    ``farkas`` (exact backend) is the proof: one multiplier per model
    constraint, keyed by its index in ``LinearProgram.constraints``
    (zeros omitted) — see :func:`repro.lp.certify.certify_infeasible`.
    """

    def __init__(self, message: str,
                 farkas: Optional[Dict[int, Fraction]] = None) -> None:
        super().__init__(message)
        self.farkas = farkas


class UnboundedError(LPError):
    """The LP objective is unbounded in its optimisation direction.

    ``point`` and ``ray`` (exact backend) are the proof: a feasible
    assignment and a direction that stays feasible forever while the
    objective improves — see
    :func:`repro.lp.certify.certify_unbounded`.
    """

    def __init__(self, message: str,
                 point: Optional[Dict["Variable", Fraction]] = None,
                 ray: Optional[Dict["Variable", Fraction]] = None) -> None:
        super().__init__(message)
        self.point = point
        self.ray = ray


class Variable:
    """A real decision variable with optional bounds.

    Create through :meth:`LinearProgram.variable`; arithmetic with numbers
    and other variables builds :class:`LinExpr` objects.
    """

    __slots__ = ("name", "index", "lo", "hi")

    def __init__(self, name: str, index: int,
                 lo: Optional[Fraction], hi: Optional[Fraction]) -> None:
        self.name = name
        self.index = index
        self.lo = lo
        self.hi = hi

    # -- expression building ------------------------------------------
    def _expr(self) -> "LinExpr":
        return LinExpr({self: Fraction(1)}, Fraction(0))

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-self._expr()) + other

    def __mul__(self, other: Number) -> "LinExpr":
        return self._expr() * other

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "LinExpr":
        return self._expr() / other

    def __neg__(self) -> "LinExpr":
        return self._expr() * -1

    def __le__(self, other) -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other) -> "Constraint":
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float, str, Fraction)):
            return self._expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """An affine expression ``sum(coef * var) + constant`` over Fractions."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Optional[Dict[Variable, Fraction]] = None,
                 constant: RationalLike = 0) -> None:
        self.terms: Dict[Variable, Fraction] = dict(terms or {})
        self.constant = as_fraction(constant)

    @staticmethod
    def _coerce(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        return LinExpr({}, as_fraction(value))

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        return self.copy()._accumulate(other)

    def _accumulate(self, other) -> "LinExpr":
        """``self += other`` in place (``self`` must not be shared);
        terms that cancel are dropped.  Returns ``self``."""
        other = LinExpr._coerce(other)
        terms = self.terms
        for var, coef in other.terms.items():
            cur = terms.get(var)
            total = coef if cur is None else cur + coef
            if total == 0:
                terms.pop(var, None)
            else:
                terms[var] = total
        self.constant += other.constant
        return self

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (LinExpr._coerce(other) * -1)

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr._coerce(other) + (self * -1)

    def __mul__(self, factor: Number) -> "LinExpr":
        f = as_fraction(factor)
        if f == 0:
            return LinExpr({}, 0)
        return LinExpr({v: c * f for v, c in self.terms.items()},
                       self.constant * f)

    __rmul__ = __mul__

    def __truediv__(self, factor: Number) -> "LinExpr":
        f = as_fraction(factor)
        if f == 0:
            raise ZeroDivisionError("division of LinExpr by zero")
        return self * (Fraction(1) / f)

    def __neg__(self) -> "LinExpr":
        return self * -1

    # -- relations -----------------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint(self - LinExpr._coerce(other), "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - LinExpr._coerce(other), ">=")

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float, str, Fraction)):
            return Constraint(self - LinExpr._coerce(other), "==")
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def value(self, assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Evaluate under a variable assignment (missing vars count as 0)."""
        total = self.constant
        for var, coef in self.terms.items():
            total += coef * assignment.get(var, Fraction(0))
        return total

    def __repr__(self) -> str:
        parts = [f"{coef}*{var.name}" for var, coef in self.terms.items()]
        parts.append(str(self.constant))
        return " + ".join(parts)


def lp_sum(items: Iterable) -> LinExpr:
    """Sum of variables/expressions/numbers (like ``sum`` but LP-aware)."""
    total = LinExpr({}, 0)  # fresh: accumulating in place aliases nothing
    for item in items:
        total._accumulate(item)
    return total


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` — built by comparing expressions."""

    expr: LinExpr
    sense: str  # "<=", ">=", "=="
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise LPError(f"bad constraint sense {self.sense!r}")

    def normalized(self) -> Tuple[Dict[Variable, Fraction], str, Fraction]:
        """Return (terms, sense, rhs) with the constant moved to the rhs."""
        return dict(self.expr.terms), self.sense, -self.expr.constant

    def violation(self, assignment: Mapping[Variable, Fraction]) -> Fraction:
        """How far the assignment is from satisfying this constraint (>= 0)."""
        lhs = self.expr.value(assignment)
        if self.sense == "<=":
            return max(Fraction(0), lhs)
        if self.sense == ">=":
            return max(Fraction(0), -lhs)
        return abs(lhs)


@dataclass
class LPSolution:
    """Result of an LP solve.

    ``values`` maps every model variable to an exact Fraction (backends that
    work in floats rationalise their output — see the backend docs for the
    guarantees).  ``objective`` is the objective value at ``values``.
    ``pivots`` counts the simplex pivots the exact backend performed (zero
    for other backends); a warm basis-restart re-solve shows up here as a
    much smaller count than the cold solve it replaces.

    ``duals`` is the exact backend's optimality proof: one multiplier
    (shadow price: the objective's rate of change per unit of the
    constraint's right-hand side) per model constraint, keyed by its
    index in ``LinearProgram.constraints``, zeros omitted —
    :func:`repro.lp.certify.certify` checks it against the model alone.
    The scipy backend rationalises HiGHS's marginals into the same
    convention (no proof: they are float).
    """

    objective: Fraction
    values: Dict[Variable, Fraction]
    backend: str
    iterations: int = 0
    pivots: int = 0
    duals: Optional[Dict[int, Fraction]] = None

    def __getitem__(self, var: Variable) -> Fraction:
        return self.values.get(var, Fraction(0))

    @property
    def exact(self) -> bool:
        """True when the exact simplex produced this solution: only then
        is it the LP's rational optimum, which a packager verifies."""
        return self.backend == "exact"


class LinearProgram:
    """Container for variables, constraints and one linear objective."""

    #: sentinel marking a constraint name used more than once
    _AMBIGUOUS = object()

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: Optional[LinExpr] = None
        self.sense: str = "max"
        self._names: Dict[str, Variable] = {}
        self._constraint_names: Dict[str, object] = {}

    def variable(
        self,
        name: str,
        lo: Optional[RationalLike] = None,
        hi: Optional[RationalLike] = None,
    ) -> Variable:
        """Create a variable; ``lo``/``hi`` are optional exact bounds."""
        if name in self._names:
            raise LPError(f"duplicate variable name {name!r}")
        lof = None if lo is None else as_fraction(lo)
        hif = None if hi is None else as_fraction(hi)
        if lof is not None and hif is not None and lof > hif:
            raise LPError(f"empty bound interval for {name!r}: [{lof}, {hif}]")
        var = Variable(name, len(self.variables), lof, hif)
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise LPError(
                "add_constraint expects a Constraint (did a comparison "
                "evaluate to bool? use explicit LinExpr operands)"
            )
        if name:
            constraint.name = name
        if constraint.name:
            if constraint.name in self._constraint_names:
                self._constraint_names[constraint.name] = self._AMBIGUOUS
            else:
                self._constraint_names[constraint.name] = constraint
        self.constraints.append(constraint)
        return constraint

    def add_row(self, pairs: Iterable[Tuple[Variable, RationalLike]],
                sense: str, rhs: RationalLike = 0,
                name: str = "") -> Constraint:
        """Add ``sum(coef * var) <sense> rhs`` from ``(var, coef)`` pairs:
        what ``add_constraint(lp_sum(...) <= rhs)`` stores, for one
        ``Fraction`` per coefficient instead of one ``LinExpr`` per term.
        A repeated variable's coefficients add up where it first stood;
        a zero total drops the term."""
        terms: Dict[Variable, Fraction] = {}
        for var, coef in pairs:
            cur, total = terms.get(var), as_fraction(coef)
            if cur is not None:
                total = cur + total
            if total:
                terms[var] = total
            else:
                terms.pop(var, None)
        return self.add_constraint(
            Constraint(LinExpr(terms, -as_fraction(rhs)), sense), name)

    # ------------------------------------------------------------------
    # coefficient rebuild (warm re-solve hook — see the module docstring)
    # ------------------------------------------------------------------
    def constraint_by_name(self, name: str) -> Constraint:
        """Look up a named constraint (errors on unknown/ambiguous names)."""
        found = self._constraint_names.get(name)
        if found is None:
            raise LPError(f"unknown constraint name {name!r}")
        if found is self._AMBIGUOUS:
            raise LPError(f"constraint name {name!r} is not unique")
        return found  # type: ignore[return-value]

    def set_constraint_coefficient(
        self, name: str, var: Variable, coef: RationalLike
    ) -> None:
        """Replace the coefficient of ``var`` in the named constraint.

        A zero coefficient removes the term.  Only coefficients move; the
        constraint's sense and membership are untouched.
        """
        cons = self.constraint_by_name(name)
        cf = as_fraction(coef)
        if cf == 0:
            cons.expr.terms.pop(var, None)
        else:
            cons.expr.terms[var] = cf

    def set_objective_coefficient(self, var: Variable, coef: RationalLike) -> None:
        """Replace the coefficient of ``var`` in the objective."""
        if self.objective is None:
            raise LPError("no objective set")
        cf = as_fraction(coef)
        if cf == 0:
            self.objective.terms.pop(var, None)
        else:
            self.objective.terms[var] = cf

    def maximize(self, expr) -> None:
        self.objective = LinExpr._coerce(expr)
        self.sense = "max"

    def minimize(self, expr) -> None:
        self.objective = LinExpr._coerce(expr)
        self.sense = "min"

    # ------------------------------------------------------------------
    def solve(self, backend: str = "exact", **kwargs) -> LPSolution:
        """Solve with the chosen backend (``"exact"`` or ``"scipy"``).

        The exact backend returns the true rational optimum (required for
        period extraction); the scipy backend is faster on large models and
        is used for cross-checking and big sweeps.
        """
        if self.objective is None:
            raise LPError("no objective set")
        if backend == "exact":
            from .simplex import solve_exact

            return solve_exact(self, **kwargs)
        if backend == "scipy":
            try:
                from .scipy_backend import solve_scipy
            except ImportError as exc:
                raise LPError(
                    "backend 'scipy' needs numpy and scipy installed "
                    "(pip install repro[float])"
                ) from exc
            return solve_scipy(self, **kwargs)
        raise LPError(f"unknown backend {backend!r}")

    def check(self, solution: LPSolution) -> None:
        """Assert that ``solution`` satisfies all constraints and bounds
        exactly.  Raises :class:`LPError` on failure.
        """
        for var in self.variables:
            x = solution[var]
            if var.lo is not None and x < var.lo:
                raise LPError(f"{var.name} = {x} below lower bound {var.lo}")
            if var.hi is not None and x > var.hi:
                raise LPError(f"{var.name} = {x} above upper bound {var.hi}")
        for i, cons in enumerate(self.constraints):
            v = cons.violation(solution.values)
            if v > 0:
                label = cons.name or f"#{i}"
                raise LPError(f"constraint {label} violated by {v}")

    def stats(self) -> Dict[str, int]:
        return {
            "variables": len(self.variables),
            "constraints": len(self.constraints),
        }

    def __repr__(self) -> str:
        return (
            f"LinearProgram({self.name!r}, vars={len(self.variables)}, "
            f"cons={len(self.constraints)})"
        )
