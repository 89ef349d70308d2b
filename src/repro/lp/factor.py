"""Exact sparse LU factorisation of a simplex basis, with eta-file updates.

This module is the linear-algebra core of the revised simplex in
:mod:`repro.lp.simplex`.  It answers exactly two questions about the
current basis matrix ``B`` (an ``m x m`` selection of standard-form
columns, whose rows the simplex layer has scaled to integers):

* **FTRAN** — solve ``B x = a`` (the update direction of an entering
  column, and the basic solution ``x_B = B^{-1} b``);
* **BTRAN** — solve ``y^T B = c`` (the simplex multipliers used to price
  reduced costs).

**Every number in this file is a Python ``int``.**  A rational vector is
carried as ``(X, D)``: integer numerators over ONE common positive
denominator, ``x_i = X[i] / D`` — by Cramer's rule every entry of
``B^{-1} a`` is an integer over ``det B``, so normalising the entries
one rational at a time is pure overhead.  The invariants:

* inputs (``rhs`` / ``cost``) are integer vectors; the solves are
  linear, so a caller holding a denominator of its own multiplies it in;
* a solve owns its running denominator: always positive, it grows only
  where an LU or eta pivot does not divide exactly;
* :class:`BasisFactor` normalises each result by **one**
  ``gcd(D, *X)`` call on the way out — never per element — so ``D``
  divides ``det B``;
* the only divisions are ``//`` and ``divmod`` on values known to
  divide (``repro lint`` flags a true ``/`` here: ``int / int`` is a
  silent float).

:class:`SparseLU` performs one **fraction-free** Gaussian elimination of
``B`` with **Markowitz pivot selection**: at each step the pivot
``(i, j)`` minimising ``(r_i - 1) * (c_j - 1)`` (row nonzeros times
column nonzeros) among the sparsest candidate columns, so fill-in stays
small on the near-triangular bases the steady-state LPs produce.  A row
is eliminated as ``row_i <- a*row_i - b*row_p`` with
``(a, b) = (pivot, below) / gcd`` and ``a > 0`` — a positive multiple
of the rational elimination's row, so the nonzero structure, and with
it the Markowitz order and the fill, are those of the rational LU.
Exact arithmetic means *any* nonzero pivot is numerically perfect — the
ordering is purely a fill-in (and therefore speed) decision, never a
stability one.  Without Bareiss-style exact division the entries can
grow on adversarial bases; ``int_bits_max`` (the widest pivot or
denominator seen) makes that visible in the service metrics.

:class:`BasisFactor` wraps one :class:`SparseLU` with a **product-form
eta file**: each simplex pivot appends one eta vector (the FTRAN'd
entering column and its pivot slot) instead of re-eliminating anything,
so a pivot costs O(nnz) where a dense tableau pays O(m*n).  FTRAN
applies the etas forward after the LU solves; BTRAN applies them in
reverse before.  The simplex layer refactorises (a fresh
:class:`SparseLU` of the current basis) when the eta file grows past its
length or fill thresholds — see ``_RevisedCore._maybe_refactor``.

No floats anywhere: this file is on the ``repro lint`` exactness
allowlist and in its all-integer kernel list.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Tuple

#: A sparse integer column: ``{row: value}`` with no explicit zeros.
SparseColumn = Dict[int, int]

#: A rational vector: integer numerators over one positive denominator.
IntVector = Tuple[List[int], int]

#: An eta ``(slot, W_s, rest, D_w)``: the direction ``w = W / D_w``
#: entered at ``slot``, sign-normalised so ``W_s > 0`` (``D_w`` carries
#: the sign), ``rest`` the other nonzero numerators ``(i, W_i)``.
Eta = Tuple[int, int, List[Tuple[int, int]], int]


class SingularBasisError(Exception):
    """The proposed basis columns are linearly dependent.

    Raised only by :meth:`BasisFactor.push_eta` when a basis that *must*
    be nonsingular (it was reached by valid pivots) would go singular —
    which would be a bug, not an input condition.  Callers testing a
    *candidate* basis (warm restarts) use :meth:`SparseLU.factor`, which
    returns ``None`` instead of raising.
    """


def normalised(X: List[int], D: int) -> IntVector:
    """``(X, D)`` in lowest common terms, by one ``gcd`` call."""
    g = gcd(D, *X)
    if g != 1:
        return [v // g for v in X], D // g
    return X, D


def apply_eta(X: List[int], D: int, eta: Eta) -> IntVector:
    """``E^{-1} x`` for one eta: ``X_i <- X_i*W_s - W_i*X_s``,
    ``X_s <- X_s*D_w``, ``D <- D*W_s``.  ``X`` may be updated in place;
    use the returned pair.  This is both the forward eta step of FTRAN
    and the basic-solution update of a simplex pivot."""
    slot, ws, rest, dw = eta
    xs = X[slot]
    if xs:
        if ws != 1:
            X = [v * ws for v in X]
            D *= ws
        for i, wi in rest:
            X[i] -= wi * xs
        X[slot] = xs * dw
    return X, D


class SparseLU:
    """One Markowitz-ordered, fraction-free sparse LU of an ``m x m``
    integer basis matrix.

    Construction is through :meth:`factor`, which returns ``None`` for a
    singular matrix.  The factorisation is stored as the elimination
    sequence itself:

    * ``_perm[k] = (p_k, q_k, piv_k)`` — the pivot row, pivot column
      (basis *slot*) and integer pivot value of elimination step ``k``;
    * ``_lsteps`` — for each step that eliminated anything, in order,
      ``(p_k, ops)`` with the row operations ``(row, a, b)`` meaning
      ``row <- a*row - b*row_{p_k}`` (the L factor);
    * ``_urows[k]`` — the pivot row's surviving entries ``(slot, value)``
      over columns eliminated *later* (strict upper-triangular U).

    ``nnz`` (L + U + diagonal) over ``basis_nnz`` (the input columns) is
    the fill ratio the service metrics report; ``pivot_bits`` is the
    widest pivot's ``bit_length()``.
    """

    __slots__ = ("m", "_perm", "_lsteps", "_urows",
                 "nnz", "basis_nnz", "pivot_bits")

    def __init__(self, m: int) -> None:
        self.m = m
        self._perm: List[Tuple[int, int, int]] = []
        self._lsteps: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        self._urows: List[List[Tuple[int, int]]] = []
        self.nnz = 0
        self.basis_nnz = 0
        self.pivot_bits = 0

    # ------------------------------------------------------------------
    @classmethod
    def factor(cls, m: int,
               columns: List[SparseColumn]) -> Optional["SparseLU"]:
        """Factor the matrix whose ``j``-th column is ``columns[j]``.

        Returns ``None`` when the columns are singular (structurally —
        an empty active column — or numerically, which with exact
        arithmetic means genuinely dependent columns).
        """
        if len(columns) != m:
            return None
        self = cls(m)
        self.basis_nnz = sum(len(col) for col in columns)
        # Active submatrix, mirrored row-wise and column-wise so both the
        # Markowitz scan and the elimination updates stay O(touched).
        colmap: List[SparseColumn] = [dict(col) for col in columns]
        rowmap: List[Dict[int, int]] = [dict() for _ in range(m)]
        for j, col in enumerate(colmap):
            if not col:
                return None
            for i, v in col.items():
                if v == 0:
                    return None  # explicit zeros are a caller bug
                rowmap[i][j] = v
        # Column-nnz buckets drive the candidate scan: examining columns
        # sparsest-first lets the search stop as soon as no later bucket
        # can beat the best Markowitz cost found so far.
        buckets: Dict[int, set] = {}
        for j in range(m):
            buckets.setdefault(len(colmap[j]), set()).add(j)

        def move_bucket(j: int, old: int, new: int) -> None:
            buckets[old].discard(j)
            if new:
                buckets.setdefault(new, set()).add(j)

        for _step in range(m):
            pi, pj = self._select_pivot(colmap, rowmap, buckets)
            if pj < 0:
                return None
            piv = colmap[pj][pi]
            # Pivot row entries over still-active columns (minus pivot).
            urow = [(j, v) for j, v in rowmap[pi].items() if j != pj]
            lops: List[Tuple[int, int, int]] = []
            for i, below in list(colmap[pj].items()):
                if i == pi:
                    continue
                g = gcd(piv, below)
                a, b = piv // g, below // g
                if a < 0:
                    a, b = -a, -b
                lops.append((i, a, b))
                target = rowmap[i]
                del target[pj]
                if a != 1:
                    # the whole row scales, not only the pivot row's
                    # support (values change, dict order does not)
                    for j, v in target.items():
                        target[j] = colmap[j][i] = a * v
                for j, v in urow:
                    old_len = len(colmap[j])
                    cur = target.get(j)
                    if cur is None:
                        target[j] = colmap[j][i] = -b * v
                        move_bucket(j, old_len, old_len + 1)
                    else:
                        nv = cur - b * v
                        if nv == 0:
                            del target[j]
                            del colmap[j][i]
                            move_bucket(j, old_len, old_len - 1)
                        else:
                            target[j] = colmap[j][i] = nv
            # Retire the pivot row and column from the active submatrix.
            for j, _v in urow:
                old_len = len(colmap[j])
                del colmap[j][pi]
                move_bucket(j, old_len, old_len - 1)
            move_bucket(pj, len(colmap[pj]), 0)
            colmap[pj].clear()
            rowmap[pi].clear()
            self._perm.append((pi, pj, piv))
            if lops:
                self._lsteps.append((pi, lops))
            self._urows.append(urow)
            self.nnz += len(lops) + len(urow) + 1
            self.pivot_bits = max(self.pivot_bits, piv.bit_length())
        return self

    @staticmethod
    def _select_pivot(colmap: List[SparseColumn],
                      rowmap: List[Dict[int, int]],
                      buckets: Dict[int, set]) -> Tuple[int, int]:
        """Markowitz selection: minimise ``(row_nnz-1)*(col_nnz-1)``.

        Scans column buckets sparsest-first; a bucket of column-nnz
        ``c`` cannot yield a cost below ``c - 1`` (every active row has
        nnz >= 1), so the scan stops once the best found cost is that
        low.  Returns ``(-1, -1)`` when no active entry exists.
        """
        best_cost = -1
        best = (-1, -1)
        for c in sorted(k for k, b in buckets.items() if k and b):
            if best_cost >= 0 and best_cost <= c - 1:
                break
            for j in buckets[c]:
                for i in colmap[j]:
                    cost = (len(rowmap[i]) - 1) * (c - 1)
                    if best_cost < 0 or cost < best_cost:
                        best_cost = cost
                        best = (i, j)
                        if cost == 0:
                            return best
        return best

    # ------------------------------------------------------------------
    def ftran(self, rhs: List[int]) -> IntVector:
        """Solve ``B x = rhs``: ``x = X / D`` indexed by basis *slot*
        (``D > 0``, not necessarily in lowest terms)."""
        work = list(rhs)
        # replay the row operations on the rhs; a row scales by ``a``
        # even when the pivot row's rhs is 0
        for p_k, lops in self._lsteps:
            val = work[p_k]
            for i, a, b in lops:
                work[i] = a * work[i] - b * val
        X = [0] * self.m
        D = 1
        urows = self._urows
        for k in range(self.m - 1, -1, -1):
            p_k, q_k, piv = self._perm[k]
            acc = work[p_k] * D
            for j, v in urows[k]:
                xj = X[j]
                if xj:
                    acc -= v * xj
            if acc:
                quo, rem = divmod(acc, piv)
                if rem:
                    # the pivot does not divide: rescale the running
                    # denominator by the missing factor
                    f = abs(piv) // gcd(rem, piv)
                    X = [v * f for v in X]
                    D *= f
                    quo = acc * f // piv
                X[q_k] = quo
        return X, D

    def btran(self, cost: List[int]) -> IntVector:
        """Solve ``y^T B = cost`` (``cost`` indexed by basis slot):
        ``y = Y / D`` indexed by row.  With ``R B = U`` (``R`` the row
        operations) this is ``z^T U = cost`` then ``y^T = z^T R``."""
        m = self.m
        Z = [0] * m          # by row
        contrib = [0] * m    # scattered U^T partial sums, by slot
        D = 1
        for k, (p_k, q_k, piv) in enumerate(self._perm):
            acc = cost[q_k] * D - contrib[q_k]
            if acc:
                quo, rem = divmod(acc, piv)
                if rem:
                    f = abs(piv) // gcd(rem, piv)
                    Z = [v * f for v in Z]
                    contrib = [v * f for v in contrib]
                    D *= f
                    quo = acc * f // piv
                Z[p_k] = quo
                for j, u in self._urows[k]:
                    contrib[j] += u * quo
        # the row operations transposed, in reverse
        for p_k, lops in reversed(self._lsteps):
            acc = Z[p_k]
            for i, a, b in lops:
                zi = Z[i]
                if zi:
                    acc -= b * zi
                    Z[i] = a * zi
            Z[p_k] = acc
        return Z, D


class BasisFactor:
    """A basis representation ``B = B0 * E1 * ... * Ek``: one
    :class:`SparseLU` of ``B0`` plus the product-form eta file.

    Each :meth:`push_eta` records a simplex pivot: the entering column's
    FTRAN'd direction ``w = W / D_w`` and the basis slot ``r`` it
    replaced.  The file is applied forward after the LU solves in
    :meth:`ftran` and in reverse before them in :meth:`btran` — the
    textbook product-form update over integers: an eta whose pivot
    ``W_s`` is 1 (most are) leaves the running denominator alone, any
    other multiplies it in, and the result is normalised once.

    ``ftran_ops`` / ``btran_ops`` count solver calls (the revised
    simplex's unit of linear-algebra work); ``eta_nnz`` tracks the
    file's total fill for the refactorisation trigger; ``int_bits_max``
    is the widest LU pivot or returned denominator so far.
    """

    __slots__ = ("lu", "etas", "eta_nnz", "ftran_ops", "btran_ops",
                 "int_bits_max")

    def __init__(self, lu: SparseLU) -> None:
        self.lu = lu
        self.etas: List[Eta] = []
        self.eta_nnz = 0
        self.ftran_ops = 0
        self.btran_ops = 0
        self.int_bits_max = lu.pivot_bits

    @property
    def eta_len(self) -> int:
        return len(self.etas)

    def push_eta(self, slot: int, direction: List[int], den: int) -> Eta:
        """Record a pivot: ``direction / den`` is the entering column's
        FTRAN image (``B^{-1} a_q``), ``slot`` the basis position it
        enters.  Returns the eta, for the caller's own vectors."""
        piv = direction[slot]
        if piv == 0:
            raise SingularBasisError(
                f"eta pivot at slot {slot} is zero — the exchange would "
                f"make the basis singular"
            )
        sign = -1 if piv < 0 else 1
        rest = [(i, sign * v) for i, v in enumerate(direction)
                if v and i != slot]
        eta = (slot, sign * piv, rest, sign * den)
        self.etas.append(eta)
        self.eta_nnz += len(rest) + 1
        return eta

    def _out(self, X: List[int], D: int) -> IntVector:
        X, D = normalised(X, D)
        self.int_bits_max = max(self.int_bits_max, D.bit_length())
        return X, D

    # ------------------------------------------------------------------
    def ftran(self, rhs: List[int]) -> IntVector:
        """Solve ``B x = rhs`` through the LU and the eta file."""
        self.ftran_ops += 1
        X, D = self.lu.ftran(rhs)
        for eta in self.etas:
            X, D = apply_eta(X, D, eta)
        return self._out(X, D)

    def btran(self, cost: List[int]) -> IntVector:
        """Solve ``y^T B = cost`` through the eta file and the LU."""
        self.btran_ops += 1
        V = list(cost)
        D = 1
        for slot, ws, rest, dw in reversed(self.etas):
            acc = V[slot] * dw
            for i, wi in rest:
                vi = V[i]
                if vi:
                    acc -= vi * wi
            if ws != 1:
                quo, rem = divmod(acc, ws)
                if rem:
                    f = ws // gcd(rem, ws)
                    V = [v * f for v in V]
                    D *= f
                    quo = acc * f // ws
                acc = quo
            V[slot] = acc
        Y, D_lu = self.lu.btran(V)
        return self._out(Y, D * D_lu)
