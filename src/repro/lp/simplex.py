"""Exact simplex over rational numbers, with basis-reusing warm re-solves.

Why from scratch: the steady-state methodology needs the *rational* optimal
basic solution (section 4.1 derives the period ``T`` as the lcm of the
denominators of the activity variables), and no rational LP solver is
available offline.

Two engines share one standard-form front end and one decode path:

* ``"revised"`` (the default) — a **sparse revised simplex**: the basis is
  held as a Markowitz-ordered sparse LU (:mod:`repro.lp.factor`) with
  product-form eta updates per pivot.  Each iteration prices reduced
  costs through one BTRAN and updates the basis through one FTRAN plus
  one appended eta vector — O(nnz) work where the dense tableau paid
  O(m·n) Fraction operations — with periodic refactorisation when the
  eta file grows past its length or fill thresholds.  A warm restart is
  **one sparse LU of the retained basis** against the patched
  coefficients, not a Gauss-Jordan sweep.  Its pivot loop runs on
  **integers over common denominators**, not on ``Fraction`` objects
  (see "Integer pivoting" below).
* ``"tableau"`` — the original dense tableau, kept behind this flag as
  the differential-testing baseline.  Both engines follow the same
  pivot rules (Dantzig entering with a Bland anti-cycling degradation,
  identical ratio-test tie-breaks), so a *cold* solve produces the
  identical pivot sequence — and therefore the identical optimal
  vertex — on both engines; warm repairs may walk different (equally
  optimal) paths but always land on the same exact objective.

The solve is split into three phases behind :class:`SimplexInstance`:

1. **assemble** — the caller builds (or patches) a
   :class:`~repro.lp.model.LinearProgram`;
2. **standard form** — :func:`_build_standard_form` lowers it to
   ``min c·u, A u = b, u >= 0`` plus the column-decoding recipe;
3. **pivot** — a cold solve runs the two-phase primal simplex, while a
   *warm* solve restarts from the basis retained by the previous solve
   of the same instance: the basis is re-factorised against the patched
   coefficients, primal/dual feasibility is repaired as needed (phase 1
   is skipped entirely when the old basis is still primal feasible),
   and any structural surprise falls back to the cold two-phase solve.
   Either way the result is the exact rational optimum.

``solve_exact`` remains the stateless entry point (one cold solve);
:mod:`repro.service.incremental` holds a :class:`SimplexInstance` per hot
model so weight-only re-solves reuse both the assembled LP *and* the
optimal basis.

Integer pivoting
----------------
The answer must be rational; the arithmetic that finds it need not
normalise one fraction at a time (by Cramer's rule the entries of
``B^{-1} a``, ``B^{-1} b``, ``e_r^T B^{-1}`` and ``c - c_B B^{-1} A``
share the denominator ``det B`` once the rows are integral).
:class:`_RevisedCore` scales the standard form in once per solve and
from there to the hand-out works on Python ints only:

* **who owns a denominator** — every vector is ``(numerators, one
  positive denominator)``: the basic solution ``x / x_den`` and the
  reduced costs ``d / d_den`` belong to the core, an FTRAN/BTRAN result
  to the :class:`~repro.lp.factor.BasisFactor` call that returned it.
  Signs, zero tests and Dantzig/Bland selection therefore read
  numerators alone, and both ratio tests compare by
  cross-multiplication with the tableau's tie-breaks;
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

``Fraction`` reappears exactly once, where
:meth:`SimplexInstance._outcome_from_core` hands the vertex out;
decoding, :class:`LPSolution` and every caller see what they always
saw.  The dense tableau stays on ``Fraction`` arithmetic: a
differential baseline should share little with the engine it checks.

Standard-form conversion
------------------------
* ``x`` with lower bound ``lo``: substitute ``x = lo + u`` (``u >= 0``);
  an upper bound adds the row ``u <= hi - lo``.
* ``x`` with only an upper bound: substitute ``x = hi - u``.
* free ``x``: substitute ``x = u - v``.
* ``<=`` rows get a slack, ``>=`` rows a surplus; rows are sign-normalised
  so the rhs is non-negative; artificial variables complete the phase-1
  basis where no slack is usable.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Dict, List, Optional, Tuple

from .factor import BasisFactor, IntVector, SparseLU, apply_eta, normalised
from .model import (
    InfeasibleError,
    LinearProgram,
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

#: the engine :class:`SimplexInstance` uses when none is requested —
#: the sparse revised simplex; ``"tableau"`` keeps the dense baseline
#: available for differential tests
DEFAULT_ENGINE = "revised"

#: consecutive degenerate (no-progress) pivots tolerated under the
#: Dantzig rule before switching to Bland's rule for good — the standard
#: cycling safeguard (Bland guarantees termination from any basis;
#: Dantzig is simply much faster when progress is being made).  Shared
#: by both engines so their pivot sequences stay comparable.
STALL_LIMIT = 32

#: the factorisation telemetry keys a solve reports (see
#: :attr:`SimplexInstance.last_factor_stats`)
FACTOR_STAT_KEYS = (
    "refactorisations",
    "eta_len_max",
    "ftran_ops",
    "btran_ops",
    "lu_nnz",
    "lu_basis_nnz",
    "int_bits_max",
)


class _StandardForm:
    """min c·u  s.t.  A u = b (b >= 0), u >= 0, plus the decoding recipe."""

    def __init__(self) -> None:
        self.rows: List[Dict[int, Fraction]] = []  # sparse rows
        self.rhs: List[Fraction] = []
        self.cost: Dict[int, Fraction] = {}
        self.cost_offset: Fraction = ZERO
        self.num_cols = 0
        # var -> list of (col, sign); plus constant offset per var
        self.decode: Dict[Variable, Tuple[List[Tuple[int, Fraction]], Fraction]] = {}
        self._key: Optional[Tuple] = None

    def new_col(self) -> int:
        col = self.num_cols
        self.num_cols += 1
        return col

    def structure_key(self) -> Tuple:
        """Hashable *shape* of the standard form: column count, per-row
        column support and objective support — everything a retained basis
        depends on, none of the coefficient values.  Two standard forms
        with equal keys differ only in coefficients, which is exactly the
        situation a warm basis restart can handle.

        Computed once and cached: the tuple-of-tuples row-support walk is
        O(nnz) and the key is asked for on every warm solve of the same
        instance.
        """
        if self._key is None:
            self._key = (
                self.num_cols,
                tuple(tuple(sorted(row)) for row in self.rows),
                tuple(sorted(self.cost)),
            )
        return self._key


def _build_standard_form(lp: LinearProgram) -> _StandardForm:
    sf = _StandardForm()
    # 1. substitute variables.
    subs: Dict[Variable, Tuple[List[Tuple[int, Fraction]], Fraction]] = {}
    extra_rows: List[Tuple[Dict[int, Fraction], str, Fraction]] = []
    for var in lp.variables:
        if var.lo is not None:
            u = sf.new_col()
            subs[var] = ([(u, ONE)], var.lo)
            if var.hi is not None:
                extra_rows.append(({u: ONE}, "<=", var.hi - var.lo))
        elif var.hi is not None:
            u = sf.new_col()
            subs[var] = ([(u, Fraction(-1))], var.hi)
        else:
            u = sf.new_col()
            v = sf.new_col()
            subs[var] = ([(u, ONE), (v, Fraction(-1))], ZERO)
    sf.decode = subs

    # 2. objective (always minimise internally).
    assert lp.objective is not None
    sign = Fraction(-1) if lp.sense == "max" else ONE
    sf.cost_offset = sign * lp.objective.constant
    for var, coef in lp.objective.terms.items():
        cols, offset = subs[var]
        sf.cost_offset += sign * coef * offset
        for col, s in cols:
            sf.cost[col] = sf.cost.get(col, ZERO) + sign * coef * s

    # 3. constraint rows.
    all_rows: List[Tuple[Dict[int, Fraction], str, Fraction]] = []
    for cons in lp.constraints:
        terms, sense, rhs = cons.normalized()
        row: Dict[int, Fraction] = {}
        shift = ZERO
        for var, coef in terms.items():
            cols, offset = subs[var]
            shift += coef * offset
            for col, s in cols:
                row[col] = row.get(col, ZERO) + coef * s
        row = {c: v for c, v in row.items() if v != 0}
        all_rows.append((row, sense, rhs - shift))
    all_rows.extend(extra_rows)

    for row, sense, rhs in all_rows:
        if not row:
            # constant constraint: check satisfiability directly.
            ok = (
                (sense == "<=" and ZERO <= rhs)
                or (sense == ">=" and ZERO >= rhs)
                or (sense == "==" and rhs == 0)
            )
            if not ok:
                raise InfeasibleError(
                    f"constant constraint 0 {sense} {rhs} is unsatisfiable"
                )
            continue
        r = dict(row)
        if sense == "<=":
            slack = sf.new_col()
            r[slack] = ONE
        elif sense == ">=":
            slack = sf.new_col()
            r[slack] = Fraction(-1)
        if rhs < 0:
            r = {c: -v for c, v in r.items()}
            rhs = -rhs
        sf.rows.append(r)
        sf.rhs.append(rhs)
    return sf


class _AbandonWarm(Exception):
    """Internal: a warm attempt blew its pivot budget; fall back to cold."""


class _Outcome:
    """What either engine hands back: the standard-form solution vector,
    the canonical basis to retain for the next warm restart, and the
    pivot bookkeeping."""

    __slots__ = ("u", "retained", "pivots", "iterations")

    def __init__(self, u: List[Fraction], retained: List[int],
                 pivots: int, iterations: int) -> None:
        self.u = u
        self.retained = retained
        self.pivots = pivots
        self.iterations = iterations


class _Tableau:
    """Dense simplex working state: ``m`` rows x (``n`` + m artificials + 1
    rhs), a basis assignment per row, and the pivot bookkeeping.

    Kept as the ``engine="tableau"`` baseline for differential tests —
    the revised engine replays the same pivot rules through the sparse
    factorisation instead of whole-tableau elimination.

    Column ``n + i`` is reserved as the artificial of row ``i`` (cold
    phase 1 and the warm restricted phase-1 repair both use it); the rhs
    lives in the last cell of each row.  ``pivots`` counts genuine simplex
    pivots against the safety cap; basis re-factorisation row operations
    are the same O(m·width) work but bounded by ``m``, so they are counted
    separately (``refactor_ops``) and never trip the cap.
    """

    STALL_LIMIT = STALL_LIMIT

    def __init__(self, sf: _StandardForm, lp: LinearProgram,
                 max_pivots: int, extra_artificials: bool = False) -> None:
        self.sf = sf
        self.lp = lp
        self.m = len(sf.rows)
        self.n = sf.num_cols
        # A warm restart reserves a SECOND artificial region
        # [n + m, n + 2m): the first region's columns may be left dirty by
        # driving a retained artificial out of the basis, so the
        # feasibility repair mints its fresh artificials from untouched
        # columns instead.
        self.width = self.n + (2 if extra_artificials else 1) * self.m + 1
        self.max_pivots = max_pivots
        #: soft budget for warm attempts: when set, exceeding it raises
        #: :class:`_AbandonWarm` (caught by the warm solver, which falls
        #: back to cold) instead of the hard :class:`LPError` of the
        #: safety cap — a restart that pivots more than the cold solve it
        #: is meant to undercut has already lost
        self.abandon_after: Optional[int] = None
        self.pivots = 0
        self.refactor_ops = 0
        self.iterations = 0
        self.rows: List[List[Fraction]] = []
        for i, row in enumerate(sf.rows):
            dense = [ZERO] * self.width
            for col, val in row.items():
                dense[col] = val
            dense[-1] = sf.rhs[i]
            self.rows.append(dense)
        self.basis: List[int] = []

    # ------------------------------------------------------------------
    def _apply_pivot(self, row_i: int, col_j: int) -> None:
        piv_row = self.rows[row_i]
        piv = piv_row[col_j]
        inv = ONE / piv
        # one O(width) scan for the pivot row's support, then every row
        # update touches only those columns — the steady-state LPs are
        # sparse, so this is the difference between O(m·width) and
        # O(m·nnz) Fraction work per pivot
        nonzero = [j for j in range(self.width) if piv_row[j] != 0]
        if piv != 1:
            for j in nonzero:
                piv_row[j] *= inv
        for r in range(self.m):
            if r == row_i:
                continue
            factor = self.rows[r][col_j]
            if factor == 0:
                continue
            target = self.rows[r]
            for j in nonzero:
                target[j] -= factor * piv_row[j]
        self.basis[row_i] = col_j

    def pivot(self, row_i: int, col_j: int) -> None:
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
        self._apply_pivot(row_i, col_j)

    # ------------------------------------------------------------------
    def install_basis(self, basis_cols: List[int]) -> bool:
        """Re-factorise: pivot each retained basis column back into the
        basis by Gauss-Jordan elimination against the *patched*
        coefficients.  Returns False when the columns have gone singular
        (the caller falls back to a cold solve).

        Artificial columns (``col >= n``, retained when the previous solve
        ended with a redundant row's artificial still basic) are pinned
        first: the artificial of row ``i`` is the unit column ``e_i``, so
        assigning it to its own row is free and keeps every *other*
        artificial column untouched — which the warm repair relies on when
        it mints fresh artificials for rows the old basis leaves
        infeasible."""
        self.basis = [-1] * self.m
        assigned = [False] * self.m
        for col in basis_cols:
            if col >= self.n:
                i = col - self.n
                if assigned[i]:
                    return False
                self.rows[i][col] = ONE
                self.basis[i] = col
                assigned[i] = True
        # Markowitz-flavoured ordering: eliminate the sparsest columns
        # first (slacks and bound rows are near-unit and pivot for free),
        # so the fill-in of the dense conservation block lands late and
        # stays small — this is what keeps a re-factorisation cheaper
        # than the pivot sequence it replaces.
        col_nnz: Dict[int, int] = {}
        for row in self.sf.rows:
            for col in row:
                col_nnz[col] = col_nnz.get(col, 0) + 1
        structural = sorted(
            (col for col in basis_cols if col < self.n),
            key=lambda col: col_nnz.get(col, 0),
        )
        for col in structural:
            chosen = -1
            for r in range(self.m):
                if not assigned[r] and self.rows[r][col] != 0:
                    chosen = r
                    break
            if chosen < 0:
                return False
            self.refactor_ops += 1
            self._apply_pivot(chosen, col)
            assigned[chosen] = True
        return True

    def price_out(self, cost: List[Fraction]) -> List[Fraction]:
        """The reduced-cost row of ``cost`` under the current basis
        (length ``width``; the rhs cell holds minus the objective)."""
        z = [ZERO] * self.width
        for j, c in enumerate(cost):
            z[j] = c
        for i in range(self.m):
            cb = cost[self.basis[i]] if self.basis[i] < len(cost) else ZERO
            if cb == 0:
                continue
            row = self.rows[i]
            for j in range(self.width):
                v = row[j]
                if v != 0:
                    z[j] -= cb * v
        return z

    def _sweep_z(self, z: List[Fraction], piv_row_i: int, enter: int) -> None:
        factor = z[enter]
        if factor == 0:
            return
        piv_row = self.rows[piv_row_i]
        for j in range(self.width):
            v = piv_row[j]
            if v != 0:
                z[j] -= factor * v

    def run_primal(self, cost: List[Fraction], allowed_cols: int,
                   z: Optional[List[Fraction]] = None) -> List[Fraction]:
        """Pivot to optimality from the current basis; returns the final
        reduced-cost row.  Entering column by Dantzig's rule (most
        negative reduced cost), degrading permanently to Bland's rule
        after :data:`STALL_LIMIT` consecutive degenerate pivots so
        termination stays guaranteed.  ``z`` may carry a reduced-cost
        row the caller already maintains for ``cost`` (the dual repair
        does), saving the O(m·width) re-pricing pass."""
        if z is None:
            z = self.price_out(cost)
        bland = False
        stall = 0
        while True:
            self.iterations += 1
            enter = -1
            if bland:
                # Bland: smallest-index column with negative reduced cost
                for j in range(allowed_cols):
                    if z[j] < 0:
                        enter = j
                        break
            else:
                most: Optional[Fraction] = None
                for j in range(allowed_cols):
                    v = z[j]
                    if v < 0 and (most is None or v < most):
                        most = v
                        enter = j
            if enter < 0:
                return z
            # ratio test; tie-break on smallest basis column index.
            leave = -1
            best: Optional[Fraction] = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise UnboundedError(
                    f"objective of {self.lp.name!r} is unbounded "
                    f"(column {enter} has no positive entries)"
                )
            self.pivot(leave, enter)
            self._sweep_z(z, leave, enter)
            if not bland:
                if best == 0:  # degenerate: the objective did not move
                    stall += 1
                    if stall >= self.STALL_LIMIT:
                        bland = True
                else:
                    stall = 0

    def run_dual(self, z: List[Fraction], limit: int) -> bool:
        """Dual-simplex pivots toward primal feasibility.

        Requires ``z`` dual feasible (no negative reduced cost among the
        structural columns); maintains that invariant.  Returns True once
        every rhs is non-negative, False to request a fallback (step
        budget exhausted, or a fully non-negative pivot row — the dual
        ray case, which the cold two-phase solve diagnoses properly).
        """
        steps = 0
        while True:
            # leaving row: most negative rhs (the textbook dual rule —
            # converges far faster than Bland order; the step budget, not
            # an anti-cycling rule, bounds the loop)
            leave = -1
            worst: Optional[Fraction] = None
            for i in range(self.m):
                rhs = self.rows[i][-1]
                if rhs < 0 and (worst is None or rhs < worst):
                    worst = rhs
                    leave = i
            if leave < 0:
                return True
            if steps >= limit:
                return False
            row = self.rows[leave]
            enter = -1
            best: Optional[Fraction] = None
            for j in range(self.n):
                a = row[j]
                if a < 0:
                    ratio = z[j] / -a
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
            if enter < 0:
                return False
            self.pivot(leave, enter)
            self._sweep_z(z, leave, enter)
            steps += 1

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials onto structural columns
        where possible; a row that stays artificial is redundant and the
        artificial sits harmlessly at 0 (it can never re-enter: phase 2
        restricts entering columns to the structural ones)."""
        for i in range(self.m):
            if self.basis[i] >= self.n:
                row = self.rows[i]
                for j in range(self.n):
                    if row[j] != 0:
                        self.refactor_ops += 1
                        self._apply_pivot(i, j)
                        break


class _RevisedCore:
    """Revised-simplex working state: basis column list, sparse LU +
    eta-file factorisation, and the current basic solution.

    The basis matrix is never formed densely: :class:`BasisFactor`
    answers FTRAN/BTRAN, each pivot appends one eta vector, and the LU
    is rebuilt (``_maybe_refactor``) only when the eta file passes its
    length or fill thresholds.  Pricing walks the row-major standard
    form (O(nnz) per iteration); the ratio test walks the FTRAN'd
    direction.

    **All state is integral** (module docstring, "Integer pivoting"):
    the constructor scales the standard form in, and from there to
    :meth:`SimplexInstance._outcome_from_core` no ``Fraction`` exists.
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

    def __init__(self, sf: _StandardForm, lp: LinearProgram,
                 max_pivots: int, eta_limit: Optional[int] = None) -> None:
        self.sf = sf
        self.lp = lp
        self.m = len(sf.rows)
        self.n = sf.num_cols
        #: integral rows: row ``i`` and its rhs times ``scale[i]``, the
        #: lcm of their denominators
        self.scale: List[int] = []
        self.rows: List[Dict[int, int]] = []
        self.rhs: List[int] = []
        cols: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (row, b) in enumerate(zip(sf.rows, sf.rhs)):
            s = lcm(b.denominator, *(v.denominator for v in row.values()))
            irow = {j: v.numerator * (s // v.denominator)
                    for j, v in row.items()}
            for j, v in irow.items():
                cols[j].append((i, v))
            self.scale.append(s)
            self.rows.append(irow)
            self.rhs.append(b.numerator * (s // b.denominator))
        self.cols = cols
        #: the phase-2 objective times the lcm of its denominators
        s = lcm(*(c.denominator for c in sf.cost.values()))
        self.cost: Dict[int, int] = {
            j: c.numerator * (s // c.denominator)
            for j, c in sf.cost.items()}
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
        self.aux_cols: Dict[int, List[Tuple[int, int]]] = {}
        self.pivots = 0
        self.iterations = 0
        self.refactor_ops = 0
        # factorisation telemetry (absorbed into
        # SimplexInstance.last_factor_stats)
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
    def column(self, col: int) -> List[Tuple[int, int]]:
        """The sparse (row-scaled) standard-form column for any id."""
        if col < self.n:
            return self.cols[col]
        if col < self.n + self.m:
            # scaled like its row, so phase 1 minimises the same sum of
            # artificial *values* the unscaled problem does
            return [(col - self.n, self.scale[col - self.n])]
        return self.aux_cols[col]

    def _refactor(self) -> bool:
        """Fresh sparse LU of the current basis; False when singular."""
        lu = SparseLU.factor(self.m, [dict(self.column(c))
                                      for c in self.basis])
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
        for i, v in self.column(col):
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
        the same single-row update the dense tableau applies to its
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
        Same entering/leaving rules as the tableau engine — Dantzig with
        the Bland degradation after :data:`STALL_LIMIT` degenerate
        pivots, ratio-test ties broken on smallest basis column — so
        cold solves replay the identical pivot sequence.  Reduced costs
        are priced in full once, then maintained per pivot through
        :meth:`_update_prices` (priced values stay identical under
        exact arithmetic)."""
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
                raise UnboundedError(
                    f"objective of {self.lp.name!r} is unbounded "
                    f"(column {enter} has no positive entries)"
                )
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
    def find_structural_exchange(
        self, slot: int
    ) -> Tuple[int, Optional[IntVector]]:
        """The first structural column that can replace the basic
        column at ``slot`` (nonzero entry in row ``slot`` of the current
        tableau), with its FTRAN'd direction — or ``(-1, None)`` when
        the row has no structural support (a redundant row)."""
        alpha = self._tableau_row(self.btran_unit(slot))
        for j in sorted(alpha):
            if alpha[j] and j not in self._basic:
                return j, self.ftran_column(j)
        return -1, None

    def drive_out_artificials(self) -> None:
        """Exchange zero-valued basic artificials (and warm-repair
        auxiliaries) for structural columns where possible; a slot that
        keeps its artificial marks a redundant row and sits harmlessly
        at 0 (it can never re-enter: phase 2 prices structural columns
        only)."""
        for s in range(self.m):
            if self.basis[s] < self.n:
                continue
            enter, w = self.find_structural_exchange(s)
            if w is not None:
                self.refactor_ops += 1
                self.exchange(s, enter, w)

    def make_aux(self, slot: int) -> int:
        """Mint the warm restricted-phase-1 auxiliary for an infeasible
        ``slot``: the *negated* column currently basic there.  The swap
        is the eta ``-e_slot`` (pivot value -1), so the basic value
        flips sign — exactly the dense engine's row flip plus fresh
        artificial, expressed in product form."""
        aux = self.n + self.m + slot
        self.aux_cols[aux] = [(i, -v) for i, v in self.column(self.basis[slot])]
        self.minted.append(aux)
        w = [0] * self.m
        w[slot] = -1
        self.refactor_ops += 1
        self.exchange(slot, aux, (w, 1))
        return aux

    # ------------------------------------------------------------------
    def objective_of(self, cost: Dict[int, int]) -> int:
        """The numerator (over ``x_den``) of ``cost`` evaluated at the
        current basic solution."""
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
        self._roll_factor_counters()
        if self.factor is not None:
            # counters were just rolled up; zero the live ones so a
            # second read does not double-count
            self.factor.ftran_ops = 0
            self.factor.btran_ops = 0
        return {key: getattr(self, key) for key in FACTOR_STAT_KEYS}


class SimplexInstance:
    """Persistent exact-simplex state for repeated solves of one LP.

    The instance keeps the *final basis* (and the standard-form structure
    key it belongs to) across solves.  ``solve(warm=True)`` after the
    bound :class:`~repro.lp.model.LinearProgram` was patched in place
    (coefficients only — see the rebuild hook) restarts pivoting from
    that basis instead of re-running the two-phase method from scratch:

    * still primal feasible → phase 1 skipped entirely, straight to the
      primal phase 2 (often zero pivots);
    * primal infeasible but dual feasible → bounded dual-simplex repair;
    * otherwise → restricted phase 1 (artificials only on the infeasible
      rows), then phase 2;
    * structure changed / basis gone singular / repair budget exhausted
      → guaranteed fallback to the cold two-phase solve.

    ``engine`` selects the pivot machinery: ``"revised"`` (default) runs
    the sparse revised simplex of :class:`_RevisedCore` — warm restart =
    one sparse LU of the retained basis, each pivot one FTRAN + one eta —
    while ``"tableau"`` keeps the dense Gauss-Jordan baseline for
    differential tests.  Results are exact :class:`~fractions.Fraction`
    optima on every path and engine.

    Counters (``basis_restarts``, ``phase1_skips``, ``dual_repairs``,
    ``primal_repairs``, ``fallbacks``, ``last_pivots``/``total_pivots``,
    and the revised engine's ``last_factor_stats`` — refactorisations,
    eta-file high-water mark, FTRAN/BTRAN calls, LU fill, widest integer
    carried) feed the service metrics and the warm-path benchmarks.
    """

    def __init__(self, lp: LinearProgram,
                 max_pivots: int = DEFAULT_MAX_PIVOTS,
                 engine: Optional[str] = None,
                 eta_limit: Optional[int] = None) -> None:
        self.lp = lp
        self.max_pivots = max_pivots
        self.engine = engine if engine is not None else DEFAULT_ENGINE
        if self.engine not in ("revised", "tableau"):
            raise LPError(
                f"unknown simplex engine {self.engine!r} "
                f"(expected 'revised' or 'tableau')"
            )
        self.eta_limit = eta_limit
        self._basis: Optional[List[int]] = None
        self._structure: Optional[Tuple] = None
        self.solves = 0
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
        #: factorisation telemetry of the most recent solve (zeros under
        #: the tableau engine); ``factor_totals`` accumulates across the
        #: instance's lifetime except the ``*_max`` high-water marks
        self.last_factor_stats: Dict[str, int] = dict.fromkeys(
            FACTOR_STAT_KEYS, 0)
        self.factor_totals: Dict[str, int] = dict.fromkeys(
            FACTOR_STAT_KEYS, 0)
        #: per-phase timing records of the most recent solve — raw dicts
        #: ``{phase, start_seconds, duration_seconds, pivots}`` with
        #: offsets relative to the start of :meth:`solve`.  The service
        #: tracing layer turns these into spans; this module stays free
        #: of any service import.
        self.last_phases: List[Dict[str, Any]] = []
        # phase timing metadata (perf_counter floats) — never touches
        # the exact pivot arithmetic
        self._phase_clock = 0.0  # repro-lint: allow(exactness)

    # ------------------------------------------------------------------
    def solve(self, warm: bool = False) -> LPSolution:
        """Solve the bound LP exactly; ``warm=True`` restarts from the
        retained basis when the structure still matches (with a cold
        fallback), ``warm=False`` always runs the cold two-phase method.
        """
        if self.lp.objective is None:
            raise LPError("no objective set")
        sf = _build_standard_form(self.lp)
        key = sf.structure_key()
        self.last_restarted = False
        self.last_phase1_skipped = False
        self.last_phases = []
        self.last_factor_stats = dict.fromkeys(FACTOR_STAT_KEYS, 0)
        self._phase_clock = time.perf_counter()
        revised = self.engine == "revised"
        outcome: Optional[_Outcome] = None
        if warm:
            if self._basis is not None and key == self._structure:
                try:
                    outcome = (self._warm_revised(sf) if revised
                               else self._warm_tableau(sf))
                except _AbandonWarm:
                    outcome = None
            if outcome is None:
                # never-solved / structure changed / singular basis /
                # repair abandoned: every warm request that could not
                # restart is a fallback
                self.fallbacks += 1
        if outcome is None:
            outcome = (self._cold_revised(sf) if revised
                       else self._cold_tableau(sf))
        self._basis = outcome.retained
        self._structure = key
        self.solves += 1
        self.last_pivots = outcome.pivots
        self.total_pivots += outcome.pivots
        return self._decode(sf, outcome)

    # ------------------------------------------------------------------
    # revised engine
    # ------------------------------------------------------------------
    def _absorb_core(self, core: _RevisedCore) -> None:
        for key, value in core.factor_stats().items():
            # high-water marks merge by max, counters add up
            merge = max if key.endswith("_max") else int.__add__
            for stats in (self.last_factor_stats, self.factor_totals):
                stats[key] = merge(stats[key], value)

    def _outcome_from_core(self, sf: _StandardForm,
                           core: _RevisedCore) -> _Outcome:
        u = [ZERO] * sf.num_cols
        for s, col in enumerate(core.basis):
            if col < sf.num_cols and core.x[s]:
                u[col] = Fraction(core.x[s], core.x_den)
        return _Outcome(u, core.retained_basis(), core.pivots,
                        core.iterations)

    def _cold_revised(self, sf: _StandardForm) -> _Outcome:
        core = _RevisedCore(sf, self.lp, self.max_pivots, self.eta_limit)
        try:
            core.install_cold()
            if core.minted:
                started, before = time.perf_counter(), core.pivots
                cost1 = {a: 1 for a in core.minted}
                core.run_primal(cost1, include_artificials=True)
                phase1_value = core.objective_of(cost1)
                if phase1_value > 0:
                    raise InfeasibleError(
                        f"{self.lp.name!r} is infeasible (phase-1 optimum "
                        f"{Fraction(phase1_value, core.x_den)})"
                    )
                core.drive_out_artificials()
                self._record_phase("cold.phase1", started, before, core)
            started, before = time.perf_counter(), core.pivots
            core.run_primal(core.cost)
            self._record_phase("cold.phase2", started, before, core)
            return self._outcome_from_core(sf, core)
        finally:
            self._absorb_core(core)

    def _warm_revised(self, sf: _StandardForm) -> Optional[_Outcome]:
        """Basis-restart solve on the revised engine; None requests the
        cold fallback.  One sparse LU of the retained basis replaces the
        tableau engine's whole-matrix Gauss-Jordan sweep; the repair
        ladder (phase-1 skip → dual repair → restricted phase 1 → cold)
        is unchanged."""
        assert self._basis is not None
        n = sf.num_cols
        core = _RevisedCore(sf, self.lp, self.max_pivots, self.eta_limit)
        core.abandon_after = core.m // 2 + 16
        try:
            if not core.install_warm(self._basis):
                return None
            # Retained artificials mark rows that were redundant last
            # solve.  Against the patched coefficients each such row
            # either (a) still has no structural support — a harmless
            # invariant row provided its residual is 0 — or (b) regained
            # structural entries, in which case the artificial is
            # exchanged out immediately so no phase below ever carries a
            # nonzero artificial.
            for s in range(core.m):
                if core.basis[s] < n:
                    continue
                enter, w = core.find_structural_exchange(s)
                if w is not None:
                    core.refactor_ops += 1
                    core.exchange(s, enter, w)
                elif core.x[s] != 0:
                    # 0·u = nonzero after elimination: let the cold
                    # two-phase method diagnose the (in)feasibility
                    return None
            cost2 = core.cost
            if all(v >= 0 for v in core.x):
                # old basis still primal feasible: no phase 1, no repair
                started, before = time.perf_counter(), core.pivots
                core.run_primal(cost2)
                self._record_phase("warm.phase2", started, before, core)
                self.basis_restarts += 1
                self.phase1_skips += 1
                self.last_restarted = True
                self.last_phase1_skipped = True
                return self._outcome_from_core(sf, core)
            if core.dual_feasible(cost2):
                # dual feasible: dual-simplex repair.  The budget is
                # tight on purpose — a drifted-but-close basis repairs in
                # a handful of pivots, and a repair that wanders past
                # ~m/2 pivots is losing to the cold solve it is supposed
                # to undercut, so fall back.
                started, before = time.perf_counter(), core.pivots
                if not core.run_dual(cost2, limit=core.m // 2 + 8):
                    return None
                self._record_phase("warm.dual_repair", started, before, core)
                started, before = time.perf_counter(), core.pivots
                core.run_primal(cost2)
                self._record_phase("warm.phase2", started, before, core)
                self.basis_restarts += 1
                self.dual_repairs += 1
                self.last_restarted = True
                return self._outcome_from_core(sf, core)
            # neither feasible: restricted phase 1 — every infeasible
            # slot gets an auxiliary (its negated basic column, a
            # product-form eta) and phase 1 minimises their sum
            aux = [core.make_aux(s) for s in range(core.m)
                   if core.x[s] < 0]
            cost1 = {a: 1 for a in aux}
            started, before = time.perf_counter(), core.pivots
            core.run_primal(cost1)
            phase1_value = core.objective_of(cost1)
            if phase1_value > 0:
                raise InfeasibleError(
                    f"{self.lp.name!r} is infeasible (restricted phase-1 "
                    f"optimum {Fraction(phase1_value, core.x_den)})"
                )
            core.drive_out_artificials()
            self._record_phase("warm.phase1", started, before, core)
            started, before = time.perf_counter(), core.pivots
            core.run_primal(cost2)
            self._record_phase("warm.phase2", started, before, core)
            self.basis_restarts += 1
            self.primal_repairs += 1
            self.last_restarted = True
            return self._outcome_from_core(sf, core)
        finally:
            self._absorb_core(core)

    # ------------------------------------------------------------------
    # tableau engine (differential-testing baseline)
    # ------------------------------------------------------------------
    def _outcome_from_tableau(self, sf: _StandardForm,
                              tab: _Tableau) -> _Outcome:
        n = sf.num_cols
        u = [ZERO] * n
        for i in range(tab.m):
            if tab.basis[i] < n:
                u[tab.basis[i]] = tab.rows[i][-1]
        # canonicalise before retaining: any basic artificial is recorded
        # as ``n + row`` — the next restart only needs to know WHICH rows
        # were artificial-basic (redundant), not which artificial column
        # happened to serve them
        retained = [col if col < n else n + i
                    for i, col in enumerate(tab.basis)]
        return _Outcome(u, retained, tab.pivots, tab.iterations)

    def _cold_tableau(self, sf: _StandardForm) -> _Outcome:
        tab = _Tableau(sf, self.lp, self.max_pivots)
        m, n = tab.m, tab.n
        # Choose initial basis: reuse a slack column (+1 coefficient, sole
        # entry in its row among *potential* basis columns) when possible,
        # else an artificial.
        col_rows: Dict[int, List[int]] = {}
        for i, row in enumerate(sf.rows):
            for col in row:
                col_rows.setdefault(col, []).append(i)
        artificial_cols: List[int] = []
        for i, row in enumerate(sf.rows):
            chosen = -1
            for col, val in row.items():
                if val == 1 and len(col_rows[col]) == 1 and col not in sf.cost:
                    chosen = col
                    break
            if chosen >= 0:
                tab.basis.append(chosen)
            else:
                art = n + i
                tab.rows[i][art] = ONE
                tab.basis.append(art)
                artificial_cols.append(art)

        # ---------------- phase 1 ----------------
        if artificial_cols:
            started, before = time.perf_counter(), tab.pivots
            cost1 = [ZERO] * tab.width
            for col in artificial_cols:
                cost1[col] = ONE
            z1 = tab.run_primal(cost1, tab.width - 1)
            phase1_value = -z1[-1]
            if phase1_value > 0:
                raise InfeasibleError(
                    f"{self.lp.name!r} is infeasible "
                    f"(phase-1 optimum {phase1_value})"
                )
            tab.drive_out_artificials()
            self._record_phase("cold.phase1", started, before, tab)

        # ---------------- phase 2 ----------------
        started, before = time.perf_counter(), tab.pivots
        tab.run_primal(self._phase2_cost(tab), n)
        self._record_phase("cold.phase2", started, before, tab)
        return self._outcome_from_tableau(sf, tab)

    def _phase2_cost(self, tab: _Tableau) -> List[Fraction]:
        cost2 = [ZERO] * tab.width
        for col, c in tab.sf.cost.items():
            cost2[col] = c
        return cost2

    def _record_phase(self, name: str, started: float,
                      pivots_before: int, engine_state: Any) -> None:
        self.last_phases.append({
            "phase": name,
            "start_seconds": started - self._phase_clock,
            "duration_seconds": time.perf_counter() - started,
            "pivots": engine_state.pivots - pivots_before,
        })

    def _warm_tableau(self, sf: _StandardForm) -> Optional[_Outcome]:
        """Basis-restart solve on the dense engine; None requests the
        cold fallback.

        Entering columns are restricted to the *structural* region
        (``j < n``) in every warm phase — a driven-out artificial's column
        is no longer a valid unit column, and the standard
        no-artificial-re-entry rule keeps phase 1 correct without it.
        """
        assert self._basis is not None
        n = sf.num_cols
        tab = _Tableau(sf, self.lp, self.max_pivots, extra_artificials=True)
        tab.abandon_after = tab.m // 2 + 16
        if not tab.install_basis(self._basis):
            return None
        # Retained artificials mark rows that were redundant last solve.
        # Against the patched coefficients each such row either (a) is
        # still all-zero over the structural columns — a harmless
        # invariant row provided its rhs is 0 — or (b) regained structural
        # entries, in which case the artificial is driven out immediately
        # so no phase below ever carries a nonzero artificial.
        for i in range(tab.m):
            if tab.basis[i] < n:
                continue
            row = tab.rows[i]
            enter = -1
            for j in range(n):
                if row[j] != 0:
                    enter = j
                    break
            if enter >= 0:
                tab.refactor_ops += 1
                tab._apply_pivot(i, enter)
            elif row[-1] != 0:
                # 0·u = nonzero after elimination: let the cold two-phase
                # method diagnose the (in)feasibility from scratch
                return None
        cost2 = self._phase2_cost(tab)
        if all(row[-1] >= 0 for row in tab.rows):
            # old basis still primal feasible: no phase 1, no repair
            started, before = time.perf_counter(), tab.pivots
            tab.run_primal(cost2, n)
            self._record_phase("warm.phase2", started, before, tab)
            self.basis_restarts += 1
            self.phase1_skips += 1
            self.last_restarted = True
            self.last_phase1_skipped = True
            return self._outcome_from_tableau(sf, tab)
        z = tab.price_out(cost2)
        if all(z[j] >= 0 for j in range(n)):
            # dual feasible: dual-simplex repair.  The budget is tight on
            # purpose — a drifted-but-close basis repairs in a handful of
            # pivots, and a repair that wanders past ~m/2 pivots is losing
            # to the cold solve it is supposed to undercut, so fall back.
            started, before = time.perf_counter(), tab.pivots
            if not tab.run_dual(z, limit=tab.m // 2 + 8):
                return None
            self._record_phase("warm.dual_repair", started, before, tab)
            # z was maintained through every dual pivot: still the exact
            # reduced-cost row of cost2, so phase 2 needs no re-pricing
            started, before = time.perf_counter(), tab.pivots
            tab.run_primal(cost2, n, z=z)
            self._record_phase("warm.phase2", started, before, tab)
            self.basis_restarts += 1
            self.dual_repairs += 1
            self.last_restarted = True
            return self._outcome_from_tableau(sf, tab)
        # neither feasible: restricted phase 1 — each negative row is
        # sign-flipped and given a FRESH artificial from the second
        # region (guaranteed untouched; see _Tableau.__init__)
        artificial_cols: List[int] = []
        for i in range(tab.m):
            row = tab.rows[i]
            if row[-1] < 0:
                for j in range(tab.width):
                    if row[j] != 0:
                        row[j] = -row[j]
                art = n + tab.m + i
                row[art] = ONE
                tab.basis[i] = art
                artificial_cols.append(art)
        cost1 = [ZERO] * tab.width
        for col in artificial_cols:
            cost1[col] = ONE
        started, before = time.perf_counter(), tab.pivots
        z1 = tab.run_primal(cost1, n)
        if -z1[-1] > 0:
            raise InfeasibleError(
                f"{self.lp.name!r} is infeasible "
                f"(restricted phase-1 optimum {-z1[-1]})"
            )
        tab.drive_out_artificials()
        self._record_phase("warm.phase1", started, before, tab)
        started, before = time.perf_counter(), tab.pivots
        tab.run_primal(cost2, n)
        self._record_phase("warm.phase2", started, before, tab)
        self.basis_restarts += 1
        self.primal_repairs += 1
        self.last_restarted = True
        return self._outcome_from_tableau(sf, tab)

    # ------------------------------------------------------------------
    def _decode(self, sf: _StandardForm, outcome: _Outcome) -> LPSolution:
        u = outcome.u
        min_value = sf.cost_offset
        for col, c in sf.cost.items():
            uc = u[col]
            if uc != 0:
                min_value += c * uc
        values: Dict[Variable, Fraction] = {}
        for var, (cols, offset) in sf.decode.items():
            x = offset
            for col, s in cols:
                x += s * u[col]
            values[var] = x
        objective = -min_value if self.lp.sense == "max" else min_value
        return LPSolution(
            objective=objective,
            values=values,
            backend="exact",
            iterations=outcome.iterations,
            pivots=outcome.pivots,
        )

    def stats(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "basis_restarts": self.basis_restarts,
            "phase1_skips": self.phase1_skips,
            "dual_repairs": self.dual_repairs,
            "primal_repairs": self.primal_repairs,
            "fallbacks": self.fallbacks,
            "last_pivots": self.last_pivots,
            "total_pivots": self.total_pivots,
            **self.factor_totals,
        }


def solve_exact(lp: LinearProgram,
                max_iterations: int = DEFAULT_MAX_PIVOTS,
                engine: Optional[str] = None) -> LPSolution:
    """Solve ``lp`` exactly (one cold two-phase solve); raises
    Infeasible/Unbounded errors as needed.  ``max_iterations`` is the
    pivot safety cap and ``engine`` the pivot machinery (revised sparse
    LU by default) — see :class:`SimplexInstance`."""
    return SimplexInstance(lp, max_pivots=max_iterations,
                           engine=engine).solve()
