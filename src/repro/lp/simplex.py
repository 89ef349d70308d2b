"""Exact simplex over rational numbers, with basis-reusing warm re-solves.

Why from scratch: the steady-state methodology needs the *rational* optimal
basic solution (section 4.1 derives the period ``T`` as the lcm of the
denominators of the activity variables), and no rational LP solver is
available offline.

One engine, a **sparse revised simplex**: the basis is held as a
Markowitz-ordered sparse LU (:mod:`repro.lp.factor`) with product-form
eta updates per pivot.  Each iteration prices reduced costs through one
BTRAN and updates the basis through one FTRAN plus one appended eta
vector — O(nnz) work — with periodic refactorisation when the eta file
grows past its length or fill thresholds.  A warm restart is **one
sparse LU of the retained basis** against the patched coefficients.
The pivot loop runs on **integers over common denominators**,
not on ``Fraction`` objects (see "Integer pivoting" below); entering
columns follow Dantzig's rule with a Bland anti-cycling degradation.

Every outcome carries its proof (see "Certificates" below), so no second
engine is kept to compare against: :mod:`repro.lp.certify` checks an
answer on the original :class:`~repro.lp.model.LinearProgram` without
importing anything from this module.

The solve is split into three phases behind :class:`SimplexInstance`:

1. **assemble** — the caller builds (or patches) a
   :class:`~repro.lp.model.LinearProgram`;
2. **lower** — :class:`_Form` lowers it in one pass to ``min c·u,
   A u = b, u >= 0`` *in integers*, plus the column-decoding recipe.
   The instance keeps the form: a warm solve rewrites only the rows the
   patch moved (see "The retained form" below);
3. **pivot** — a cold solve runs the two-phase primal simplex, while a
   *warm* solve restarts from the basis retained by the previous solve
   of the same instance (the ladder in :class:`SimplexInstance`), and
   any structural surprise falls back to the cold two-phase solve.
   Either way the result is the exact rational optimum.

``solve_exact`` remains the stateless entry point (one cold solve);
:mod:`repro.service.incremental` holds a :class:`SimplexInstance` per hot
model so weight-only re-solves reuse the assembled LP, its lowered form
*and* the optimal basis.

Integer pivoting
----------------
The answer must be rational; the arithmetic that finds it need not
normalise one fraction at a time (by Cramer's rule the entries of
``B^{-1} a``, ``B^{-1} b``, ``e_r^T B^{-1}`` and ``c - c_B B^{-1} A``
share the denominator ``det B`` once the rows are integral).
:class:`_Form` holds the rows as integers and :class:`_RevisedCore`
works, from there to the hand-out, on Python ints only:

* **who owns a denominator** — every vector is ``(numerators, one
  positive denominator)``: the basic solution ``x / x_den`` and the
  reduced costs ``d / d_den`` belong to the core, an FTRAN/BTRAN result
  to the :class:`~repro.lp.factor.BasisFactor` call that returned it.
  Signs, zero tests and Dantzig/Bland selection therefore read
  numerators alone, and both ratio tests compare by
  cross-multiplication;
* **when a vector is normalised** — once, by a single ``gcd(D, *X)``,
  where it is produced or updated (end of FTRAN/BTRAN, after a pivot's
  eta is applied to ``x``, after the reduced-cost sweep), never per
  element;
* **why the pivot sequence is unchanged** — row ``i`` and its rhs are
  multiplied by ``scale[i]``, the lcm of their denominators.  With
  ``S = diag(scale)`` the basis becomes ``S B``, so ``x_B``, every
  ``B^{-1} a_j``, reduced cost and ratio are the unscaled ones — given
  that *every* basis column is scaled by ``S``, the artificial of row
  ``i`` included: it is ``scale[i] * e_i``.  A bare ``e_i`` would make
  phase 1 minimise a differently weighted sum of infeasibilities and
  walk another (equally optimal) path.  The objective is scaled by one
  positive factor, which moves no comparison.

``Fraction`` reappears exactly once, where :meth:`SimplexInstance._run`
hands the vertex out to decoding and :class:`LPSolution`.

Certificates
------------
The same hand-out reads the proof off the final basis by one BTRAN:

* **optimal** — ``y = c_B B^{-1}``, mapped back through each row's scale
  and sign flip to one multiplier per *model* constraint
  (:attr:`LPSolution.duals`).  The ``u <= hi - lo`` bound rows need
  none, and neither do the bounds lowered as no row at all (a fixed
  variable, an implied span): the checker minimises the Lagrangian over
  the variable box itself;
* **infeasible** — the same read-out of the phase-1 objective (cold
  phase 1 or the warm restricted phase 1) is a Farkas combination
  (:attr:`InfeasibleError.farkas`); a constant constraint ``0 <= -1``
  is its own one-entry combination;
* **unbounded** — the current vertex and the ray ``u_enter = 1,
  u_B = -B^{-1} a_enter``, decoded to model variables (the ray without
  the substitution offsets).

The retained form
-----------------
* ``x`` with ``lo == hi``: no column and no row, ``x = lo`` is a
  substitution offset (its terms move to the rhs).
* ``x`` with lower bound ``lo``: substitute ``x = lo + u`` (``u >= 0``);
  an upper bound adds the row ``u <= hi - lo`` unless a model row
  already implies it: a row whose every entry is positive, slack
  included, caps each of its columns at ``rhs / a``, and a span no
  tighter than such a cap needs no row.  Only boxes no such row
  implies (an SSMS ``alpha``, a multi-port ``s``) are lowered as rows.
* ``x`` with only an upper bound: substitute ``x = hi - u``.
* free ``x``: substitute ``x = u - v``.
* ``<=`` rows get a slack, ``>=`` rows a surplus; rows are sign-normalised
  so the rhs is non-negative; artificial variables complete the phase-1
  basis where no slack is usable.

A :class:`SimplexInstance` keeps what this gives — integer rows, rhs,
scales and cost, the decoding recipe, the structure key — and, per
row, what the row was *read from*.  Staleness is detected from the
model, not trusted to the patch hooks: ``solve(warm=True)`` compares
every constraint's terms, constant and sense (and the objective's) with
that reading and re-lowers, in place, only the rows whose numbers moved,
so an untouched row costs pointer compares.  Anything else — a
variable, a bound, a constraint added, a term appearing, vanishing or
changing place, a number moving in a row that is or was all-positive
(which boxes need rows is part of the shape) — takes a full lowering,
after which the structure key
decides between basis restart and cold fallback as it always did.
``solve(warm=False)`` always lowers in full.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, lcm
from operator import is_
from typing import Any, Dict, List, Optional, Tuple

from .factor import BasisFactor, IntVector, SparseLU, apply_eta, normalised
from .model import (
    InfeasibleError,
    LinearProgram,
    LinExpr,
    LPError,
    LPSolution,
    UnboundedError,
    Variable,
)

ZERO = Fraction(0)
ONE = Fraction(1)

#: default pivot safety cap — far above anything the platform-sized LPs
#: need, low enough that a degenerate spin fails in seconds, not hours
DEFAULT_MAX_PIVOTS = 200_000

#: consecutive degenerate (no-progress) pivots tolerated under the
#: Dantzig rule before switching to Bland's rule for good — the standard
#: cycling safeguard (Bland guarantees termination from any basis;
#: Dantzig is simply much faster when progress is being made).
STALL_LIMIT = 32

#: the telemetry keys of :attr:`SimplexInstance.last_factor_stats`
FACTOR_STAT_KEYS = ("refactorisations", "eta_len_max", "ftran_ops",
                    "btran_ops", "lu_nnz", "lu_basis_nnz", "int_bits_max")


_Reading = Tuple[List[Variable], List[Any]]


def _reading(expr: LinExpr, sense: str) -> _Reading:
    """What a lowered row is read from: the variables in term order, and
    everything compared by value (coefficients, constant, sense)."""
    return list(expr.terms), [*expr.terms.values(), expr.constant, sense]


def _same(now: _Reading, then: _Reading) -> bool:
    """Variables by identity (``Variable.__eq__`` builds a constraint),
    values by ``==``, which tries identity first: pointer compares only
    for a row nobody touched."""
    return (len(now[0]) == len(then[0]) and all(map(is_, now[0], then[0]))
            and now[1] == then[1])


class _Form:
    """``min c·u  s.t.  A u = b (b >= 0), u >= 0`` **in integers**, the
    decoding recipe, and the readings of the model it was lowered from.

    Row ``i`` is the model row and its rhs times ``scale[i]``, the lcm
    of their denominators: ``rows[i]`` (``{col: int}``, slack last) and
    ``rhs[i]``.  ``origin[i]`` is the index of the model constraint it
    came from (None for a ``u <= hi - lo`` bound row, emitted only for a
    box no all-positive model row implies; a fixed variable has neither
    a column nor a row) and ``flips[i]``
    -1 if it was negated to make its rhs non-negative, else +1.  ``cost``
    is the minimised objective times ``cost_scale``.  Lowering reads
    numerators and denominators; it makes a ``Fraction`` only where a
    substitution offset is nonzero."""

    def __init__(self, lp: LinearProgram) -> None:
        # 1. substitute ``x = offset + sign * u_col``: var -> (col, sign,
        # offset); sign 0 is the free variable's ``x = u_col - u_(col+1)``
        # and col None the fixed variable's ``x = offset``
        self.variables = (list(lp.variables),
                          [b for v in lp.variables for b in (v.lo, v.hi)])
        self.decode: Dict[Variable,
                          Tuple[Optional[int], int, Fraction]] = {}
        boxed: Dict[int, Fraction] = {}  # col -> span ``hi - lo``
        n = 0
        for var in lp.variables:
            lo, hi = var.lo, var.hi
            if lo is not None and lo == hi:
                self.decode[var] = None, 0, lo
                continue
            if lo is not None:
                self.decode[var] = n, 1, lo
                if hi is not None:
                    boxed[n] = hi - lo if lo else hi
            elif hi is not None:
                self.decode[var] = n, -1, hi
            else:
                self.decode[var] = n, 0, ZERO
                n += 1
            n += 1
        self.first_slack = self.num_cols = n
        # 2. rows: the model constraints, then the ``u <= hi - lo`` rows
        self.rows: List[Dict[int, int]] = []
        self.rhs: List[int] = []
        self.scale: List[int] = []
        self.origin: List[Optional[int]] = []
        self.flips: List[int] = []
        #: per model constraint: what it read when lowered, and its row
        #: (None for a constant constraint, which has none)
        self.readings: List[_Reading] = []
        self.row_of: List[Optional[int]] = []
        for k, cons in enumerate(lp.constraints):
            self.readings.append(_reading(cons.expr, cons.sense))
            entries = self._collect(cons.expr)
            cols, num, den = entries[0], entries[3], entries[4]
            self.row_of.append(len(self.rows) if cols else None)
            if cols:
                self._append(k, entries, cons.sense)
            elif (num < 0 if cons.sense == "<=" else
                  num > 0 if cons.sense == ">=" else num != 0):
                # ``0 <sense> rhs`` refutes itself: the constraint's
                # expression is the constant -rhs
                raise InfeasibleError(
                    f"constant constraint 0 {cons.sense} "
                    f"{Fraction(num, den)} is unsatisfiable",
                    farkas={k: ONE if num < 0 else -ONE})
        # a row of positive entries, slack included, caps each of its
        # columns at ``rhs / a`` (every u >= 0): a span no tighter than
        # one such cap is implied and gets no row
        implied = set()
        for row, b in zip(self.rows, self.rhs):
            if min(row.values()) > 0:
                for col, a in row.items():
                    span = boxed.get(col)
                    if span is not None and (span.numerator * a
                                             >= b * span.denominator):
                        implied.add(col)
        for col, span in boxed.items():
            if col not in implied:
                self._append(None, ([col], [1], [1], span.numerator,
                                    span.denominator), "<=")
        # 3. objective (always minimise internally)
        self.cost_reading = _reading(lp.objective, lp.sense)
        self.cost, self.cost_scale = self._int_cost(lp)
        #: hashable *shape*: column count, per-row column support and
        #: objective support — everything a retained basis depends on,
        #: none of the coefficient values; a :meth:`refresh` keeps it
        self.key = (self.num_cols,
                    tuple(tuple(sorted(row)) for row in self.rows),
                    tuple(sorted(self.cost)))

    def _collect(self, expr: LinExpr) -> Tuple:
        """``expr`` over the columns: column, signed numerator and
        denominator of each nonzero term (parallel lists), then the rhs
        ``-(constant + sum coef * offset)`` as numerator, denominator."""
        cols, nums, dens = [], [], []  # parallel, one entry per column
        moved = expr.constant
        for var, coef in expr.terms.items():
            num = coef.numerator
            if num:
                col, sign, offset = self.decode[var]
                if offset:
                    moved = moved + coef * offset
                if col is None:
                    continue
                for col, sign in (((col, sign),) if sign
                                  else ((col, 1), (col + 1, -1))):
                    cols.append(col)
                    nums.append(sign * num)
                    dens.append(coef.denominator)
        return cols, nums, dens, -moved.numerator, moved.denominator

    @staticmethod
    def _int_row(cols: List[int], nums: List[int], dens: List[int],
                 b_num: int, b_den: int, sense: str,
                 slack: Optional[int]) -> Tuple[Dict[int, int], int, int, int]:
        """One row in integers, with its slack (``<=``) or surplus
        (``>=``) and a non-negative rhs: ``(row, rhs, scale, flip)``."""
        s = lcm(b_den, *dens)
        flip = -1 if b_num < 0 else 1
        row = {c: flip * v * (s // d) for c, v, d in zip(cols, nums, dens)}
        if sense != "==":
            row[slack] = flip * s if sense == "<=" else -flip * s
        return row, flip * b_num * (s // b_den), s, flip

    def _append(self, k: Optional[int], entries: Tuple, sense: str) -> None:
        row, b, s, flip = self._int_row(*entries, sense, self.num_cols)
        self.num_cols += sense != "=="
        self.rows.append(row)
        self.rhs.append(b)
        self.scale.append(s)
        self.origin.append(k)
        self.flips.append(flip)

    def _int_cost(self, lp: LinearProgram) -> Tuple[Dict[int, int], int]:
        cols, nums, dens, _, _ = self._collect(lp.objective)
        s = lcm(*dens)
        sign = -1 if lp.sense == "max" else 1
        return {c: sign * v * (s // d)
                for c, v, d in zip(cols, nums, dens)}, s

    def refresh(self, lp: LinearProgram) -> Optional[int]:
        """Re-lower, **in place**, the constraint rows (and the cost
        row) that no longer read what they read when lowered; returns
        how many, or None when more than a number inside a row moved
        (module docstring) and only a full lowering will do.  Columns,
        row order and within-row order stay what a fresh lowering of the
        patched model gives, so every pivot does too."""
        bounds = [b for v in lp.variables for b in (v.lo, v.hi)]
        if (len(lp.constraints) != len(self.readings)
                or not _same((lp.variables, bounds), self.variables)):
            return None
        count = 0
        for k, cons in enumerate(lp.constraints):
            reading = _reading(cons.expr, cons.sense)
            if _same(reading, self.readings[k]):
                continue
            i = self.row_of[k]
            if i is None:
                return None
            old = self.rows[i]
            slack = next(reversed(old))
            row, b, s, flip = self._int_row(
                *self._collect(cons.expr), cons.sense,
                slack if slack >= self.first_slack else None)
            if (list(row) != list(old) or min(old.values()) > 0
                    or min(row.values()) > 0):
                return None  # new columns, or the implied bounds may move
            self.rows[i], self.rhs[i], self.scale[i] = row, b, s
            self.flips[i] = flip
            self.readings[k] = reading
            count += 1
        reading = _reading(lp.objective, lp.sense)
        if not _same(reading, self.cost_reading):
            cost, scale = self._int_cost(lp)
            if list(cost) != list(self.cost):
                return None
            self.cost, self.cost_scale = cost, scale
            self.cost_reading = reading
            count += 1
        return count

    def values(self, u: List[Fraction],
               offsets: bool = True) -> Dict[Variable, Fraction]:
        """Model-variable values of the standard-form vector ``u``;
        ``offsets=False`` decodes a direction (a ray), not a point."""
        out: Dict[Variable, Fraction] = {}
        for var, (col, sign, offset) in self.decode.items():
            x = offset if offsets else ZERO
            if col is not None:
                step = (u[col] if sign > 0 else -u[col] if sign
                        else u[col] - u[col + 1])
                x = (x + step if x else step) if step else x
            out[var] = x
        return out


class _AbandonWarm(Exception):
    """Internal: a warm attempt blew its pivot budget; fall back to cold."""


class _RevisedCore:
    """Revised-simplex working state: basis column list, sparse LU +
    eta-file factorisation, and the current basic solution.

    Pricing walks the row-major form (O(nnz) per iteration); the ratio
    test walks the FTRAN'd direction.

    **All state is integral** (module docstring, "Integer pivoting"):
    the rows, rhs and objective are the :class:`_Form`'s, read only,
    and up to the hand-out no ``Fraction`` exists.
    The basic solution is ``x[s] / x_den``, the maintained reduced costs
    ``d[j] / d_den`` (absent ``j`` price to 0).

    Column-id convention: ``j < n`` structural, ``n <= j < n + m`` the
    artificial ``scale[j-n] * e_{j-n}``, ``j >= n + m`` an auxiliary
    column minted by the warm restricted phase 1 (the negated column it
    replaced — see :meth:`make_aux`).  ``pivots`` counts genuine simplex
    pivots against the safety cap; basis exchanges performed while
    installing or repairing a basis (artificial drive-outs, aux minting)
    are ``refactor_ops`` and never trip the cap.
    """

    STALL_LIMIT = STALL_LIMIT

    def __init__(self, form: _Form, lp: LinearProgram,
                 max_pivots: int, eta_limit: Optional[int] = None) -> None:
        self.form = form
        self.lp = lp
        self.m = len(form.rows)
        self.n = form.num_cols
        # the form's integral rows, rhs and objective, read only
        self.rows, self.rhs = form.rows, form.rhs
        self.scale, self.cost = form.scale, form.cost
        #: the rows by column: an index, not kept (a third of a form)
        self.cols: List[Dict[int, int]] = [{} for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for col, v in row.items():
                self.cols[col][i] = v
        self.max_pivots = max_pivots
        self.abandon_after: Optional[int] = None
        #: refactorise once the eta file reaches this many etas (the
        #: fill trigger in :meth:`_maybe_refactor` can fire earlier)
        self.eta_limit = eta_limit if eta_limit is not None \
            else max(16, self.m // 2)
        self.basis: List[int] = []
        self._basic: set = set()
        self.x: List[int] = []
        self.x_den = 1
        #: reduced-cost numerators of the phase being run, zeros absent
        self.d: Dict[int, int] = {}
        self.d_den = 1
        self.factor: Optional[BasisFactor] = None
        #: columns minted by this core: cold-phase-1 artificials, or the
        #: warm repair's auxiliaries (ids >= n + m, vectors in aux_cols)
        self.minted: List[int] = []
        self.aux_cols: Dict[int, Dict[int, int]] = {}
        self.pivots = 0
        self.iterations = 0
        self.refactor_ops = 0
        # factorisation telemetry (SimplexInstance.last_factor_stats)
        self.refactorisations = 0
        self.eta_len_max = 0
        self.ftran_ops = 0
        self.btran_ops = 0
        self.lu_nnz = 0
        self.lu_basis_nnz = 0
        self.int_bits_max = 0

    # ------------------------------------------------------------------
    # columns and factorisation
    # ------------------------------------------------------------------
    def column(self, col: int) -> Dict[int, int]:
        """The sparse (row-scaled) standard-form column for any id."""
        if col < self.n:
            return self.cols[col]
        if col < self.n + self.m:
            # scaled like its row, so phase 1 minimises the same sum of
            # artificial *values* the unscaled problem does
            return {col - self.n: self.scale[col - self.n]}
        return self.aux_cols[col]

    def _refactor(self) -> bool:
        """Fresh sparse LU of the current basis; False when singular."""
        lu = SparseLU.factor(self.m, [self.column(c) for c in self.basis])
        if lu is None:
            return False
        self._roll_factor_counters()
        self.factor = BasisFactor(lu)
        self.refactorisations += 1
        self.lu_nnz += lu.nnz
        self.lu_basis_nnz += lu.basis_nnz
        return True

    def _roll_factor_counters(self) -> None:
        if self.factor is not None:
            self.ftran_ops += self.factor.ftran_ops
            self.btran_ops += self.factor.btran_ops
            self.int_bits_max = max(self.int_bits_max,
                                    self.factor.int_bits_max)

    def _maybe_refactor(self) -> None:
        """The periodic-refactorisation policy: rebuild the LU when the
        eta file is long, or when its accumulated fill outweighs the
        factorisation it patches (applying every eta on every solve has
        become more expensive than one fresh elimination)."""
        f = self.factor
        assert f is not None
        if (f.eta_len >= self.eta_limit
                or f.eta_nnz > 2 * (f.lu.nnz + self.m) + 64):
            if not self._refactor():
                raise LPError(
                    f"internal: refactorisation of a pivoted basis of "
                    f"{self.lp.name!r} went singular"
                )

    def ftran(self, dense: List[int]) -> IntVector:
        assert self.factor is not None
        return self.factor.ftran(dense)

    def btran(self, dense: List[int]) -> IntVector:
        assert self.factor is not None
        return self.factor.btran(dense)

    def ftran_column(self, col: int) -> IntVector:
        """FTRAN of a standard-form column: the update direction
        ``B^{-1} a_col``."""
        dense = [0] * self.m
        for i, v in self.column(col).items():
            dense[i] = v
        return self.ftran(dense)

    def btran_unit(self, slot: int) -> List[int]:
        """BTRAN of ``e_slot``: the numerators of row ``slot`` of
        ``B^{-1}`` (every use is a sign, a zero test or one side of a
        ratio, so the positive denominator is dropped)."""
        dense = [0] * self.m
        dense[slot] = 1
        return self.btran(dense)[0]

    def _tableau_row(self, rho: List[int]) -> Dict[int, int]:
        """``rho . a_j`` over the structural columns, sparse: scatter
        each nonzero multiplier's row into a column-keyed accumulator —
        O(nnz of the rows with nonzero ``rho``), not O(n).  Zero sums
        may remain as explicit entries."""
        alpha: Dict[int, int] = {}
        rows = self.rows
        for i, ri in enumerate(rho):
            if ri:
                for j, v in rows[i].items():
                    alpha[j] = alpha.get(j, 0) + ri * v
        return alpha

    # ------------------------------------------------------------------
    # basis installation
    # ------------------------------------------------------------------
    def install_cold(self) -> None:
        """Choose the textbook initial basis (reusing a slack column —
        coefficient +1 before row scaling, sole entry in its column, not
        in the objective — where possible, else the row's artificial)
        and factor it."""
        for i, row in enumerate(self.rows):
            chosen = -1
            for col, val in row.items():
                if val == self.scale[i] and len(self.cols[col]) == 1 \
                        and col not in self.cost:
                    chosen = col
                    break
            if chosen < 0:
                chosen = self.n + i
                self.minted.append(chosen)
            self.basis.append(chosen)
        self._basic = set(self.basis)
        if not self._refactor():
            raise LPError(
                f"internal: the initial unit basis of {self.lp.name!r} "
                f"failed to factor"
            )
        self.x, self.x_den = self.ftran(self.rhs)

    def install_warm(self, basis_cols: List[int]) -> bool:
        """One sparse LU of a retained basis against the (patched)
        current coefficients — the whole point of the revised warm
        restart.  False when the columns have gone singular (the caller
        falls back to a cold solve)."""
        self.basis = list(basis_cols)
        self._basic = set(self.basis)
        if len(self._basic) != len(self.basis):
            return False
        if not self._refactor():
            return False
        self.x, self.x_den = self.ftran(self.rhs)
        return True

    # ------------------------------------------------------------------
    # pivoting
    # ------------------------------------------------------------------
    def _count_pivot(self) -> None:
        self.pivots += 1
        if self.abandon_after is not None and self.pivots > self.abandon_after:
            raise _AbandonWarm()
        if self.pivots > self.max_pivots:
            raise LPError(
                f"simplex exceeded the {self.max_pivots}-pivot safety cap "
                f"on {self.lp.name!r} (m={self.m} rows, n={self.n} columns, "
                f"{len(self.lp.variables)} model variables) — degenerate "
                f"cycling, or raise max_pivots for an LP this size"
            )

    def exchange(self, slot: int, col: int, w: IntVector) -> None:
        """Swap ``col`` into basis position ``slot`` along the FTRAN'd
        direction ``w``: appends one eta vector, applies that same eta
        to the basic solution (the entering value is
        ``x[slot] / w[slot]``) and refactorises if the file passed its
        thresholds."""
        self._basic.discard(self.basis[slot])
        self.basis[slot] = col
        self._basic.add(col)
        assert self.factor is not None
        eta = self.factor.push_eta(slot, *w)
        self.x, self.x_den = normalised(
            *apply_eta(self.x, self.x_den, eta))
        self.int_bits_max = max(self.int_bits_max, self.x_den.bit_length())
        self.eta_len_max = max(self.eta_len_max, self.factor.eta_len)
        self._maybe_refactor()

    def _price_structural(self, cost: Dict[int, int],
                          y: IntVector) -> Dict[int, int]:
        """Reduced-cost numerators ``c_j*D_y - Y.a_j`` (over ``D_y``) of
        the structural columns: the sparse row scatter of
        :meth:`_tableau_row`, then the objective support overlaid.
        Columns absent from the result (and explicit zeros) have
        ``d_j = 0`` — never candidates to enter."""
        d = {j: -v for j, v in self._tableau_row(y[0]).items()}
        for j, c in cost.items():
            if j < self.n:
                d[j] = d.get(j, 0) + c * y[1]
        return d

    def _set_prices(self, d: Dict[int, int], den: int) -> None:
        """Install reduced costs ``d / den``: zeros dropped, one gcd."""
        g = gcd(den, *d.values())
        self.d = {j: v // g for j, v in d.items() if v}
        self.d_den = den // g
        self.int_bits_max = max(self.int_bits_max, self.d_den.bit_length())

    def _price_all(self, cost: Dict[int, int],
                   include_artificials: bool) -> None:
        """Full pricing pass: one BTRAN of ``c_B``, then the sparse
        structural sweep plus the minted artificials (phase 1 only —
        columns ``scale_r * e_r``, ``d_a = c_a - scale_r * y_r``).  Runs
        once per phase; pivots keep the result current through
        :meth:`_update_prices`.  Exact arithmetic guarantees basic
        columns price to exactly 0 and therefore never appear in
        ``self.d``."""
        y = self.btran([cost.get(col, 0) for col in self.basis])
        d = self._price_structural(cost, y)
        if include_artificials:
            for a in self.minted:
                if a < self.n + self.m:
                    r = a - self.n
                    d[a] = cost.get(a, 0) * y[1] - y[0][r] * self.scale[r]
        self._set_prices(d, y[1])

    @staticmethod
    def _select_entering(d: Dict[int, int], bland: bool) -> int:
        """The entering column from the maintained reduced-cost
        numerators: Dantzig (most negative, smallest column id of ties —
        minted ids sit above the structural range, preserving
        structural-first order) or Bland (smallest id with a negative
        reduced cost).  Returns -1 at optimality."""
        enter = -1
        if bland:
            for j, dj in d.items():
                if dj < 0 and (enter < 0 or j < enter):
                    enter = j
            return enter
        best = 0
        for j, dj in d.items():
            if dj < 0 and (dj < best or (dj == best and j < enter)):
                best = dj
                enter = j
        return enter

    def _update_prices(self, rho: List[int], enter: int,
                       include_artificials: bool) -> None:
        """The product-form reduced-cost sweep: with ``rho`` the
        pre-pivot BTRAN of the leaving slot's unit vector and
        ``A_j = rho . a_j`` (``A_enter > 0``: it is the ratio test's
        pivot), every column moves as ``d_j -= d_enter * A_j / A_enter``
        — in integers ``D_j <- D_j*A_e - D_e*A_j`` over ``D_d*A_e`` —
        the same single-row update a dense tableau applies to its
        z-row, at the cost of one sparse scatter instead of a
        whole-tableau elimination.  Exactness makes the maintained
        values identical to a fresh pricing pass, so the pivot sequence
        is unchanged."""
        alpha = self._tableau_row(rho)
        if include_artificials:
            for a in self.minted:
                if a < self.n + self.m and rho[a - self.n]:
                    alpha[a] = rho[a - self.n] * self.scale[a - self.n]
        d = self.d
        a_e, d_e = alpha[enter], d[enter]
        if a_e != 1:
            d = {j: v * a_e for j, v in d.items()}
        for j, aj in alpha.items():
            if aj:
                d[j] = d.get(j, 0) - d_e * aj
        self._set_prices(d, self.d_den * a_e)

    def run_primal(self, cost: Dict[int, int],
                   include_artificials: bool = False) -> None:
        """Pivot to optimality from the current (primal feasible) basis.
        Dantzig entering with the Bland degradation after
        :data:`STALL_LIMIT` degenerate pivots, ratio-test ties broken on
        smallest basis column.  Reduced costs are priced in full once,
        then maintained per pivot through :meth:`_update_prices` (priced
        values stay identical under exact arithmetic)."""
        bland = False
        stall = 0
        self._price_all(cost, include_artificials)
        while True:
            self.iterations += 1
            enter = self._select_entering(self.d, bland)
            if enter < 0:
                return
            w = self.ftran_column(enter)
            # ratio test x_i / w_i over w_i > 0, by cross-multiplication
            # (the two denominators are common to every row)
            x, basis = self.x, self.basis
            leave = -1
            best_x = best_w = 0
            for i, wi in enumerate(w[0]):
                if wi > 0:
                    if leave >= 0:
                        lhs, rhs = x[i] * best_w, best_x * wi
                        if lhs > rhs or (lhs == rhs
                                         and basis[i] > basis[leave]):
                            continue
                    leave, best_x, best_w = i, x[i], wi
            if leave < 0:
                raise self.unbounded(enter, w)
            self._count_pivot()
            rho = self.btran_unit(leave)
            self.exchange(leave, enter, w)
            self._update_prices(rho, enter, include_artificials)
            if not bland:
                if best_x == 0:  # degenerate: the objective did not move
                    stall += 1
                    if stall >= self.STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

    def run_dual(self, cost: Dict[int, int], limit: int) -> bool:
        """Dual-simplex pivots toward primal feasibility.

        Requires the current basis dual feasible for ``cost``; maintains
        that invariant through the standard dual ratio test.  Each step
        prices the leaving row through one BTRAN of ``e_slot`` and the
        reduced costs through one BTRAN of ``c_B``.  Returns True once
        every basic value is non-negative, False to request a fallback
        (step budget exhausted, or a dual ray)."""
        steps = 0
        while True:
            leave = -1
            worst = 0
            for s, xs in enumerate(self.x):
                if xs < worst:
                    worst = xs
                    leave = s
            if leave < 0:
                return True
            if steps >= limit:
                return False
            rho = self.btran_unit(leave)
            y = self.btran([cost.get(col, 0) for col in self.basis])
            priced = self._price_structural(cost, y)
            # ratio d_j / -alpha_j over the leaving row's negative
            # entries, by cross-multiplication
            enter = -1
            best_d = best_a = 0
            basic = self._basic
            for j, a in self._tableau_row(rho).items():
                if a >= 0 or j in basic:
                    continue
                dj = priced.get(j, 0)
                if enter >= 0:
                    lhs, rhs = dj * best_a, best_d * -a
                    if lhs > rhs or (lhs == rhs and j > enter):
                        continue
                enter, best_d, best_a = j, dj, -a
            if enter < 0:
                return False
            w = self.ftran_column(enter)
            self._count_pivot()
            self.exchange(leave, enter, w)
            steps += 1

    # ------------------------------------------------------------------
    # artificial handling
    # ------------------------------------------------------------------
    def drive_out_artificials(self) -> bool:
        """Exchange each basic artificial (or warm-repair auxiliary) for
        the first structural column with a nonzero entry in its tableau
        row; a slot without one marks a redundant row and keeps its
        artificial harmlessly at 0 (it can never re-enter: phase 2
        prices structural columns only).  False, at once, if such a slot
        is *not* at 0 — ``0·u = nonzero`` after elimination, which only
        a retained basis installed against patched coefficients shows."""
        for s in range(self.m):
            if self.basis[s] < self.n:
                continue
            alpha = self._tableau_row(self.btran_unit(s))
            enter = next((j for j in sorted(alpha)
                          if alpha[j] and j not in self._basic), -1)
            if enter >= 0:
                self.refactor_ops += 1
                self.exchange(s, enter, self.ftran_column(enter))
            elif self.x[s] != 0:
                return False
        return True

    def make_aux(self, slot: int) -> int:
        """Mint the warm restricted-phase-1 auxiliary for an infeasible
        ``slot``: the *negated* column currently basic there.  The swap
        is the eta ``-e_slot`` (pivot value -1), so the basic value
        flips sign — a row flip plus fresh artificial, expressed in
        product form."""
        aux = self.n + self.m + slot
        self.aux_cols[aux] = {
            i: -v for i, v in self.column(self.basis[slot]).items()}
        self.minted.append(aux)
        w = [0] * self.m
        w[slot] = -1
        self.refactor_ops += 1
        self.exchange(slot, aux, (w, 1))
        return aux

    # ------------------------------------------------------------------
    # the hand-out: the only place Fractions are made
    # ------------------------------------------------------------------
    def vertex(self) -> List[Fraction]:
        """The current basic solution over the structural columns."""
        u = [ZERO] * self.n
        for s, col in enumerate(self.basis):
            if col < self.n and self.x[s]:
                u[col] = Fraction(self.x[s], self.x_den)
        return u

    def multipliers(self, cost: Dict[int, int], cost_scale: int,
                    sign: int) -> Dict[int, Fraction]:
        """``sign * cost_B B^{-1}`` (one BTRAN) mapped back to the model
        constraints: a scaled row's multiplier times its scale is the
        multiplier of the standard-form row, the recorded flip that of
        the constraint it came from.  Bound rows are skipped — the
        certificate needs none, as it needs none for the bounds that
        were never rows — and zeros omitted."""
        y, den = self.btran([cost.get(col, 0) for col in self.basis])
        den *= cost_scale
        out: Dict[int, Fraction] = {}
        form = self.form
        for yi, scale, k, flip in zip(y, self.scale, form.origin, form.flips):
            if yi and k is not None:
                out[k] = Fraction(sign * flip * scale * yi, den)
        return out

    def unbounded(self, enter: int, w: IntVector) -> UnboundedError:
        """The proof that ``enter`` improves the objective forever: the
        current vertex and the ray ``u_enter = 1, u_B = -w`` (``w <= 0``;
        a basic artificial sits on a row without structural support, so
        its ``w`` entry is 0 and it stays at 0 along the ray)."""
        ray = [ZERO] * self.n
        ray[enter] = ONE
        for s, col in enumerate(self.basis):
            if col < self.n and w[0][s]:
                ray[col] = Fraction(-w[0][s], w[1])
        return UnboundedError(
            f"objective of {self.lp.name!r} is unbounded "
            f"(column {enter} has no positive entries)",
            point=self.form.values(self.vertex()),
            ray=self.form.values(ray, offsets=False),
        )

    def infeasible(self, cost1: Dict[int, int], what: str) -> InfeasibleError:
        """The proof that a positive phase-1 optimum cannot be lowered:
        its multipliers price every structural column non-negative, so
        they are a Farkas combination of the model constraints."""
        value = Fraction(self.objective_of(cost1), self.x_den)
        return InfeasibleError(
            f"{self.lp.name!r} is infeasible ({what} optimum {value})",
            farkas=self.multipliers(cost1, 1, -1),
        )

    def objective_of(self, cost: Dict[int, int]) -> int:
        """``cost`` at the current basic solution, over ``x_den``."""
        return sum(cost.get(col, 0) * self.x[s]
                   for s, col in enumerate(self.basis))

    def dual_feasible(self, cost: Dict[int, int]) -> bool:
        """True when no structural column has a negative reduced cost."""
        y = self.btran([cost.get(col, 0) for col in self.basis])
        basic = self._basic
        return all(d >= 0 or j in basic
                   for j, d in self._price_structural(cost, y).items())

    def retained_basis(self) -> List[int]:
        """The canonical basis to retain: structural and artificial
        columns keep their ids; an auxiliary still basic (its row went
        redundant mid-repair) is rewritten as the artificial of a row
        its tableau row actually covers (``rho_r != 0``), so the next
        warm install can pin it — or go singular and fall back cold,
        which is always safe."""
        out = list(self.basis)
        used = {col - self.n for col in out
                if self.n <= col < self.n + self.m}
        for s, col in enumerate(out):
            if col < self.n + self.m:
                continue
            covered = [r for r, v in enumerate(self.btran_unit(s)) if v]
            pick = next((r for r in covered if r not in used), covered[0])
            used.add(pick)
            out[s] = self.n + pick
        return out

    def factor_stats(self) -> Dict[str, int]:
        """The telemetry of a finished core (read once: it rolls the
        live factor's counters in)."""
        self._roll_factor_counters()
        return {key: getattr(self, key) for key in FACTOR_STAT_KEYS}


class SimplexInstance:
    """Persistent exact-simplex state for repeated solves of one LP.

    The instance keeps the lowered integer :class:`_Form` of its LP, the
    *final basis* and the structure key both belong to.  ``solve(
    warm=True)`` after the bound :class:`~repro.lp.model.LinearProgram`
    was patched in place re-lowers only the rows whose numbers moved
    (found by comparing the model with what was lowered; anything else
    that moved invalidates the form — module docstring, "The retained
    form") and restarts pivoting from that basis instead of re-running
    the two-phase method from scratch:

    * still primal feasible → phase 1 skipped entirely, straight to the
      primal phase 2 (often zero pivots);
    * primal infeasible but dual feasible → bounded dual-simplex repair;
    * otherwise → restricted phase 1 (artificials only on the infeasible
      rows), then phase 2;
    * structure changed / basis gone singular / repair budget exhausted
      → guaranteed fallback to the cold two-phase solve.

    Results are exact :class:`~fractions.Fraction` optima on every
    path, each with its duality certificate (:attr:`LPSolution.duals`;
    an infeasible or unbounded LP raises with its Farkas combination or
    ray attached).

    Counters (:meth:`stats`: ``form_builds`` counts full lowerings,
    ``rows_relowered`` rows rewritten in place, then the ladder's rungs
    and the pivots; ``last_factor_stats``: refactorisations, eta-file
    high-water mark, FTRAN/BTRAN calls, LU fill, widest integer carried)
    feed the service metrics and the warm-path benchmarks.
    """

    def __init__(self, lp: LinearProgram,
                 max_pivots: int = DEFAULT_MAX_PIVOTS,
                 eta_limit: Optional[int] = None) -> None:
        self.lp = lp
        self.max_pivots = max_pivots
        self.eta_limit = eta_limit
        self._form: Optional[_Form] = None
        self._basis: Optional[List[int]] = None
        self._structure: Optional[Tuple] = None
        self.solves = 0
        self.form_builds = 0
        self.rows_relowered = 0
        self.basis_restarts = 0
        self.phase1_skips = 0
        self.dual_repairs = 0
        self.primal_repairs = 0
        self.fallbacks = 0
        self.last_pivots = 0
        self.total_pivots = 0
        # how the most recent solve went (read by the incremental layer)
        self.last_restarted = False
        self.last_phase1_skipped = False
        #: factorisation telemetry of the most recent solve;
        #: ``factor_totals`` accumulates across the instance's lifetime
        #: except the ``*_max`` high-water marks
        self.last_factor_stats = dict.fromkeys(FACTOR_STAT_KEYS, 0)
        self.factor_totals = dict.fromkeys(FACTOR_STAT_KEYS, 0)
        #: per-phase timing records of the most recent solve — raw dicts
        #: ``{phase, start_seconds, duration_seconds, pivots}``, offsets
        #: from the start of :meth:`solve`; the service turns them into
        #: spans, this module stays free of any service import
        self.last_phases: List[Dict[str, Any]] = []
        # phase timing metadata (perf_counter floats) — never touches
        # the exact pivot arithmetic
        self._phase_clock = 0.0  # repro-lint: allow(exactness)

    # ------------------------------------------------------------------
    def solve(self, warm: bool = False) -> LPSolution:
        """Solve the bound LP exactly; ``warm=True`` restarts from the
        retained basis when the structure still matches (with a cold
        fallback), ``warm=False`` always runs the cold two-phase method."""
        if self.lp.objective is None:
            raise LPError("no objective set")
        form = self._form
        moved = form.refresh(self.lp) if warm and form is not None else None
        if moved is None:
            # cold, never lowered, or more than a number in a row moved
            form = self._form = _Form(self.lp)
            self.form_builds += 1
        else:
            self.rows_relowered += moved
        key = form.key
        self.last_restarted = False
        self.last_phase1_skipped = False
        self.last_phases = []
        self.last_factor_stats = dict.fromkeys(FACTOR_STAT_KEYS, 0)
        self._phase_clock = time.perf_counter()
        solution: Optional[LPSolution] = None
        if warm:
            if self._basis is not None and key == self._structure:
                solution = self._run(form, self._basis)
            if solution is None:
                # never solved / structure changed / singular basis /
                # repair abandoned: a warm request that did not restart
                self.fallbacks += 1
        if solution is None:
            solution = self._run(form, None)
        self._structure = key
        self.solves += 1
        self.last_pivots = solution.pivots
        self.total_pivots += solution.pivots
        return solution

    # ------------------------------------------------------------------
    def _run(self, form: _Form,
             basis: Optional[List[int]]) -> Optional[LPSolution]:
        """One core's life: the cold two-phase method, or with ``basis``
        the warm ladder (None requests the cold fallback), then the
        hand-out — the vertex, by one more BTRAN of ``c_B`` the
        multipliers that prove it optimal (negated for a ``max`` model:
        the core minimises ``-objective``), and the basis to retain."""
        core = _RevisedCore(form, self.lp, self.max_pivots, self.eta_limit)
        try:
            if basis is None:
                self._cold(core)
            else:
                core.abandon_after = core.m // 2 + 16
                rung = self._warm(core, basis)
                if rung is None:
                    return None
                self.basis_restarts += 1
                setattr(self, rung, getattr(self, rung) + 1)
                self.last_restarted = True
                self.last_phase1_skipped = rung == "phase1_skips"
            duals = core.multipliers(core.cost, form.cost_scale,
                                     -1 if self.lp.sense == "max" else 1)
            values = form.values(core.vertex())
            self._basis = core.retained_basis()
            return LPSolution(
                objective=self.lp.objective.value(values), values=values,
                backend="exact", iterations=core.iterations,
                pivots=core.pivots, duals=duals)
        except _AbandonWarm:
            return None
        finally:
            for key, value in core.factor_stats().items():
                # high-water marks merge by max, counters add up
                merge = max if key.endswith("_max") else int.__add__
                for stats in (self.last_factor_stats, self.factor_totals):
                    stats[key] = merge(stats[key], value)

    def _cold(self, core: _RevisedCore) -> None:
        core.install_cold()
        if core.minted:
            started, before = time.perf_counter(), core.pivots
            cost1 = {a: 1 for a in core.minted}
            core.run_primal(cost1, include_artificials=True)
            if core.objective_of(cost1) > 0:
                raise core.infeasible(cost1, "phase-1")
            core.drive_out_artificials()
            self._record_phase("cold.phase1", started, before, core)
        started, before = time.perf_counter(), core.pivots
        core.run_primal(core.cost)
        self._record_phase("cold.phase2", started, before, core)

    def _warm(self, core: _RevisedCore, basis: List[int]) -> Optional[str]:
        """The basis restart: one sparse LU of the retained basis, then
        the repair ladder.  Returns the counter of the rung that reached
        the optimum — ``phase1_skips``, ``dual_repairs`` or
        ``primal_repairs`` — or None to request the cold fallback."""
        # Retained artificials mark rows that were redundant last solve:
        # against the patched coefficients each is exchanged out at once
        # or still sits at 0 — else the cold method must diagnose the
        # (in)feasibility — so no phase below carries a nonzero artificial
        if not (core.install_warm(basis) and core.drive_out_artificials()):
            return None
        cost2 = core.cost
        if all(v >= 0 for v in core.x):
            # old basis still primal feasible: no phase 1, no repair
            started, before = time.perf_counter(), core.pivots
            core.run_primal(cost2)
            self._record_phase("warm.phase2", started, before, core)
            return "phase1_skips"
        if core.dual_feasible(cost2):
            # dual feasible: dual-simplex repair.  The budget is tight on
            # purpose — a drifted-but-close basis repairs in a handful of
            # pivots, and a repair that wanders past ~m/2 pivots is
            # losing to the cold solve it is supposed to undercut
            started, before = time.perf_counter(), core.pivots
            if not core.run_dual(cost2, limit=core.m // 2 + 8):
                return None
            self._record_phase("warm.dual_repair", started, before, core)
            rung = "dual_repairs"
        else:
            # neither feasible: restricted phase 1 — every infeasible
            # slot gets an auxiliary (its negated basic column, a
            # product-form eta) and phase 1 minimises their sum
            aux = [core.make_aux(s) for s in range(core.m)
                   if core.x[s] < 0]
            cost1 = {a: 1 for a in aux}
            started, before = time.perf_counter(), core.pivots
            core.run_primal(cost1)
            if core.objective_of(cost1) > 0:
                raise core.infeasible(cost1, "restricted phase-1")
            core.drive_out_artificials()
            self._record_phase("warm.phase1", started, before, core)
            rung = "primal_repairs"
        started, before = time.perf_counter(), core.pivots
        core.run_primal(cost2)
        self._record_phase("warm.phase2", started, before, core)
        return rung

    def _record_phase(self, name: str, started: float,
                      pivots_before: int, core: _RevisedCore) -> None:
        self.last_phases.append({
            "phase": name,
            "start_seconds": started - self._phase_clock,
            "duration_seconds": time.perf_counter() - started,
            "pivots": core.pivots - pivots_before,
        })

    def stats(self) -> Dict[str, int]:
        counters = ("solves", "form_builds", "rows_relowered",
                    "basis_restarts", "phase1_skips", "dual_repairs",
                    "primal_repairs", "fallbacks", "last_pivots",
                    "total_pivots")
        return {**{name: getattr(self, name) for name in counters},
                **self.factor_totals}


def solve_exact(lp: LinearProgram,
                max_iterations: int = DEFAULT_MAX_PIVOTS) -> LPSolution:
    """Solve ``lp`` exactly (one cold two-phase solve); raises
    Infeasible/Unbounded errors, each carrying its proof, as needed.
    ``max_iterations`` is the pivot safety cap."""
    return SimplexInstance(lp, max_pivots=max_iterations).solve()
