"""The sparse revised simplex: LU/eta unit tests, a hypothesis suite
that certifies every outcome on random LPs, the pinned pivot path,
warm-restart edge cases under the factorisation, and the counter
plumbing into the service metrics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro.lp
from repro._rational import is_infinite
from repro.core.dag import TaskGraph, solve_dag_collection
from repro.core.master_slave import build_ssms_lp, patch_ssms_coefficients
from repro.core.activities import commodity_endpoints
from repro.core.scatter import build_commodity_lp
from repro.lp import LinearProgram, lp_sum
from repro.lp.certify import certify, certify_infeasible, certify_unbounded
from repro.lp.factor import BasisFactor, SingularBasisError, SparseLU
from repro.lp.model import InfeasibleError, LPError, UnboundedError
from repro.lp.simplex import SimplexInstance, solve_exact
from repro.platform import generators
from repro.platform.graph import Platform
from repro.problems import MasterSlaveSpec

F = Fraction
coef = st.integers(min_value=-5, max_value=5)
small_int = st.integers(min_value=-6, max_value=6)


def _ms(platform: Platform, master) -> MasterSlaveSpec:
    """The master-slave spec an :class:`IncrementalSolver` is handed."""
    return MasterSlaveSpec(platform=platform, master=master)


def dense_of(m, columns):
    rows = [[0] * m for _ in range(m)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def mat_vec(rows, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in rows]


def vec_mat(y, rows):
    m = len(rows)
    return [sum(y[i] * rows[i][j] for i in range(m)) for j in range(m)]


def rational(vector):
    """An ``(int numerators, common denominator)`` pair as Fractions."""
    numerators, denominator = vector
    assert denominator > 0
    assert all(type(v) is int for v in numerators + [denominator])
    return [F(v, denominator) for v in numerators]


def rational_solve(rows, rhs):
    """``rows . x = rhs`` by dense Gauss-Jordan over Fractions (the
    from-scratch reference; ``rows`` must be nonsingular)."""
    m = len(rows)
    aug = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    for j in range(m):
        piv = next(i for i in range(j, m) if aug[i][j] != 0)
        aug[j], aug[piv] = aug[piv], aug[j]
        aug[j] = [v / aug[j][j] for v in aug[j]]
        for i in range(m):
            if i != j and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[j])]
    return [row[-1] for row in aug]


# ----------------------------------------------------------------------
# SparseLU / BasisFactor unit behaviour (integer API: vectors are
# (numerators, one positive common denominator) pairs)
# ----------------------------------------------------------------------
class TestSparseLU:
    def test_identity(self):
        lu = SparseLU.factor(3, [{0: 1}, {1: 1}, {2: 1}])
        assert lu is not None
        assert lu.ftran([3, 5, 7]) == ([3, 5, 7], 1)
        assert lu.btran([2, 4, 6]) == ([2, 4, 6], 1)
        assert lu.nnz == 3 and lu.basis_nnz == 3

    def test_permutation(self):
        # columns e2, e0, e1: x solves B x = rhs with x by basis slot
        lu = SparseLU.factor(3, [{2: 1}, {0: 1}, {1: 1}])
        assert lu is not None
        assert lu.ftran([10, 20, 30]) == ([30, 10, 20], 1)

    def test_structurally_singular_is_none(self):
        assert SparseLU.factor(2, [{0: 1}, {}]) is None

    def test_numerically_singular_is_none(self):
        cols = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        assert SparseLU.factor(2, cols) is None

    def test_wrong_column_count_is_none(self):
        assert SparseLU.factor(2, [{0: 1}]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_matrix_solves_exactly(self, data):
        m = data.draw(st.integers(min_value=1, max_value=5))
        entries = data.draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                      small_int),
            min_size=m, max_size=3 * m))
        columns = [dict() for _ in range(m)]
        for i, j, v in entries:
            if v != 0:
                columns[j][i] = v
        rows = dense_of(m, columns)
        lu = SparseLU.factor(m, [dict(c) for c in columns])
        if lu is None:
            # must actually be singular: exact Gaussian elimination on
            # the dense copy finds rank < m
            assert _dense_rank(rows) < m
            return
        rhs = [data.draw(small_int) for _ in range(m)]
        x, den = lu.ftran(list(rhs))
        assert den > 0
        assert mat_vec(rows, x) == [den * b for b in rhs]
        cost = [data.draw(small_int) for _ in range(m)]
        y, den = lu.btran(list(cost))
        assert den > 0
        assert vec_mat(y, rows) == [den * c for c in cost]


def _dense_rank(rows):
    rows = [[F(v) for v in r] for r in rows]
    m = len(rows)
    rank = 0
    for j in range(m):
        piv = next((i for i in range(rank, m) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestBasisFactor:
    def _factor(self):
        columns = [{0: 2, 1: 1}, {1: 3}]
        lu = SparseLU.factor(2, [dict(c) for c in columns])
        assert lu is not None
        return BasisFactor(lu), columns

    def test_eta_update_matches_refactorisation(self):
        bf, columns = self._factor()
        entering = {0: 1, 1: 5}
        w, w_den = bf.ftran([entering.get(0, 0), entering.get(1, 0)])
        assert w[1] != 0
        bf.push_eta(1, w, w_den)
        columns[1] = entering
        fresh = SparseLU.factor(2, [dict(c) for c in columns])
        assert fresh is not None
        for rhs in ([1, 0], [0, 1], [7, -3]):
            assert rational(bf.ftran(list(rhs))) == \
                rational(fresh.ftran(list(rhs)))
            assert rational(bf.btran(list(rhs))) == \
                rational(fresh.btran(list(rhs)))

    def test_zero_pivot_eta_raises(self):
        bf, _ = self._factor()
        with pytest.raises(SingularBasisError):
            bf.push_eta(0, [0, 4], 1)

    def test_op_counters(self):
        bf, _ = self._factor()
        bf.ftran([1, 1])
        bf.btran([1, 1])
        bf.btran([2, 0])
        assert bf.ftran_ops == 1 and bf.btran_ops == 2

    def test_dense_basis_denominators_stay_under_hadamard_bound(self):
        """Growth guard: 20 forced eta updates on a dense 10 x 10 basis
        with entries in +-9.  Every returned vector is normalised, so
        its denominator divides det(B) and cannot pass the Hadamard
        bound prod ||column|| of the *current* basis; and the eta file
        keeps answering exactly what a from-scratch rational solve of
        that basis does."""
        rng = random.Random(17)
        m = 10

        def dense_column():
            return {i: rng.choice([v for v in range(-9, 10) if v])
                    for i in range(m)}

        while True:
            columns = [dense_column() for _ in range(m)]
            lu = SparseLU.factor(m, [dict(c) for c in columns])
            if lu is not None:
                break
        bf = BasisFactor(lu)
        updates = 0
        while updates < 20:
            slot = updates % m
            entering = dense_column()
            w, w_den = bf.ftran([entering[i] for i in range(m)])
            if w[slot] == 0:
                continue  # would go singular: draw another column
            bf.push_eta(slot, w, w_den)
            columns[slot] = entering
            updates += 1
            rows = dense_of(m, columns)
            hadamard_sq = 1
            for col in columns:
                hadamard_sq *= sum(v * v for v in col.values())
            rhs = [rng.randint(-9, 9) for _ in range(m)]
            x, den = bf.ftran(list(rhs))
            assert 0 < den and den * den <= hadamard_sq
            assert rational((x, den)) == rational_solve(rows, rhs)
            y, den = bf.btran(list(rhs))
            assert 0 < den and den * den <= hadamard_sq
            transposed = [list(r) for r in zip(*rows)]
            assert rational((y, den)) == rational_solve(transposed, rhs)
        assert bf.eta_len == 20
        # the telemetry covers the LU pivots and every denominator seen
        assert bf.int_bits_max >= max(lu.pivot_bits, den.bit_length())


# ----------------------------------------------------------------------
# every outcome on random LPs proves itself (repro.lp.certify)
# ----------------------------------------------------------------------
def _fractions(numerators, denominators=st.integers(2, 12)):
    return st.builds(F, numerators, denominators)


@st.composite
def random_lp(draw):
    """Random LP with mixed bound kinds, senses and degenerate ties.

    Small coefficients and zero-heavy rhs keep ties (degenerate
    vertices) common; every bound kind and constraint sense is drawn.
    Half the draws are all-integer; the other half mix in fractional
    coefficients, rhs, bounds and objective (denominators 2..12), so the
    core's row and objective scale factors differ from 1 —
    which integer data can never exercise.  A fixed variable (``lo ==
    hi``) has no column, and half the draws keep every row non-negative,
    so a row of positive entries often implies a box the lowering then
    drops (and a patch may break the implication).
    """
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        number = st.one_of(coef, _fractions(st.integers(-12, 12)))
        right = st.one_of(st.integers(0, 4), _fractions(st.integers(0, 24)))
        lows = st.one_of(st.just(0), _fractions(st.integers(-6, 6)))
        spans = st.one_of(st.just(3), _fractions(st.integers(1, 36)))
    else:
        number, right = coef, st.integers(min_value=0, max_value=4)
        lows, spans = st.just(0), st.just(3)
    bounds = []
    for _ in range(n):
        kind = draw(st.sampled_from(["lo", "box", "hi", "free", "fixed"]))
        lo = draw(lows)
        bounds.append((kind, lo, lo + draw(spans)))
    entry = number.map(abs) if draw(st.booleans()) else number
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    rhs = [draw(right) for _ in range(m)]
    obj = [draw(number) for _ in range(n)]
    maximize = draw(st.booleans())
    return n, bounds, rows, senses, rhs, obj, maximize


def build_lp(data):
    n, bounds, rows, senses, rhs, obj, maximize = data
    lp = LinearProgram(name="diff")
    xs = []
    for i, (kind, lo, hi) in enumerate(bounds):
        if kind == "lo":
            xs.append(lp.variable(f"x{i}", lo=lo))
        elif kind == "box":
            xs.append(lp.variable(f"x{i}", lo=lo, hi=hi))
        elif kind == "hi":
            xs.append(lp.variable(f"x{i}", hi=hi))
        elif kind == "fixed":
            xs.append(lp.variable(f"x{i}", lo=lo, hi=lo))
        else:
            xs.append(lp.variable(f"x{i}"))
    for k, (row, sense, b) in enumerate(zip(rows, senses, rhs)):
        expr = lp_sum(c * x for c, x in zip(row, xs))
        if sense == "<=":
            lp.add_constraint(expr <= b, name=f"c{k}")
        elif sense == ">=":
            lp.add_constraint(expr >= b, name=f"c{k}")
        else:
            lp.add_constraint(expr == b, name=f"c{k}")
    objective = lp_sum(c * x for c, x in zip(obj, xs))
    if maximize:
        lp.maximize(objective)
    else:
        lp.minimize(objective)
    return lp, xs


def certified(lp, solve):
    """Run ``solve()`` and prove its outcome on ``lp`` itself: returns
    ``("optimal", solution)``, ``("infeasible", None)`` or
    ``("unbounded", None)`` — or raises ``CertificateError``."""
    try:
        solution = solve()
    except InfeasibleError as error:
        certify_infeasible(lp, error)
        return "infeasible", None
    except UnboundedError as error:
        certify_unbounded(lp, error)
        return "unbounded", None
    assert certify(lp, solution) == solution.objective
    return "optimal", solution


class TestDifferential:
    """The reference is a proof, not a sibling engine: each outcome is
    checked by ``repro.lp.certify`` on the ``LinearProgram`` alone."""

    @settings(max_examples=240, deadline=None)
    @given(random_lp())
    def test_cold_solves_agree_exactly(self, data):
        """A cold solve agrees with its certificate — optimal,
        infeasible or unbounded — and an optimum is a basic solution of
        the model it was asked about."""
        lp, _ = build_lp(data)
        kind, sol = certified(lp, lambda: solve_exact(lp))
        if kind == "optimal":
            assert sol.backend == "exact" and sol.pivots >= 0
            lp.check(sol)

    @settings(max_examples=120, deadline=None)
    @given(random_lp(), st.data())
    def test_warm_resolves_agree_on_objective(self, data, dyn):
        """Patch one coefficient and warm-solve: the outcome certifies
        on the patched LP, and equals (classification and exact
        objective — the vertex may differ) a fresh cold solve of it."""
        lp, xs = build_lp(data)
        inst = SimplexInstance(lp)
        kind, _ = certified(lp, inst.solve)
        if kind != "optimal":
            return
        ci = dyn.draw(st.integers(0, len(lp.constraints) - 1))
        vi = dyn.draw(st.integers(0, len(xs) - 1))
        delta = dyn.draw(st.sampled_from(
            [F(1), F(-1), F(1, 2), F(2), F(1, 3), F(-3, 7), F(5, 12)]))
        cons = lp.constraints[ci]
        old = cons.expr.terms.get(xs[vi], F(0))
        # a patch to 0 removes the term (structure change): the warm
        # request then falls back cold, which must also certify
        lp.set_constraint_coefficient(cons.name, xs[vi], old + delta)
        warm_kind, warm = certified(lp, lambda: inst.solve(warm=True))
        cold_kind, cold = certified(lp, lambda: solve_exact(lp))
        assert warm_kind == cold_kind
        if warm_kind == "optimal":
            assert warm.objective == cold.objective


# ----------------------------------------------------------------------
# the pinned pivot path: a certificate proves where the solve ended, not
# how it got there — a mis-scaled artificial column (a bare ``e_i``
# instead of ``scale[i] * e_i``) still reaches the optimum, by another
# pivot sequence.  These literals were recorded before the dense engine
# that used to be compared pivot for pivot was deleted; the DAG path and
# ``ssms/random10-s5/warm`` were re-pinned (same objectives) when fixed
# variables and implied bounds stopped being lowered as rows.
# ----------------------------------------------------------------------
PINNED_PATHS = {
    # name: (pivots, iterations, objective)
    'ssms/fig1': (10, 12, '2'),
    'scatter/fig2': (22, 24, '1/2'),
    'a2a/random4': (44, 46, '1/23'),
    'dag/fork_join2@fig1': (29, 31, '43/48'),
    'ssms/random5-s0/cold': (9, 11, '35/36'),
    'ssms/random5-s0/warm': (0, 1, '367/315'),
    'ssms/random6-s1/cold': (8, 10, '3/2'),
    'ssms/random6-s1/warm': (0, 1, '38/21'),
    'ssms/random7-s2/cold': (12, 14, '3/2'),
    'ssms/random7-s2/warm': (3, 1, '8311/3528'),
    'ssms/random8-s3/cold': (13, 15, '63/50'),
    'ssms/random8-s3/warm': (10, 12, '8/7'),
    'ssms/random9-s4/cold': (12, 14, '5/4'),
    'ssms/random9-s4/warm': (5, 6, '404/315'),
    'ssms/random10-s5/cold': (15, 17, '67/60'),
    'ssms/random10-s5/warm': (18, 1, '608/715'),
    'ssms/random5-s6/cold': (6, 8, '8/15'),
    'ssms/random5-s6/warm': (0, 1, '23/30'),
    'ssms/random6-s7/cold': (9, 11, '13/12'),
    'ssms/random6-s7/warm': (1, 2, '35/27'),
    'ssms/random7-s8/cold': (8, 10, '3/4'),
    'ssms/random7-s8/warm': (3, 4, '34/35'),
    'ssms/random8-s9/cold': (16, 18, '5/4'),
    'ssms/random8-s9/warm': (13, 15, '54/55'),
    'ssms/random9-s10/cold': (18, 20, '119/120'),
    'ssms/random9-s10/warm': (4, 5, '29119/34320'),
    'ssms/random10-s11/cold': (18, 20, '11/10'),
    'ssms/random10-s11/warm': (12, 13, '54/55'),
    'ssms/random5-s12/cold': (6, 8, '9/20'),
    'ssms/random5-s12/warm': (1, 1, '178/495'),
    'ssms/random6-s13/cold': (11, 13, '1'),
    'ssms/random6-s13/warm': (1, 2, '70/81'),
    'ssms/random7-s14/cold': (8, 10, '2'),
    'ssms/random7-s14/warm': (11, 13, '674396/269425'),
    'ssms/random8-s15/cold': (9, 11, '5/6'),
    'ssms/random8-s15/warm': (3, 1, '379/315'),
    'ssms/random9-s16/cold': (10, 12, '7/12'),
    'ssms/random9-s16/warm': (0, 1, '43/54'),
    'ssms/random10-s17/cold': (12, 14, '7/10'),
    'ssms/random10-s17/warm': (16, 17, '293/300'),
    'ssms/random5-s18/cold': (6, 8, '3/4'),
    'ssms/random5-s18/warm': (0, 1, '20/21'),
    'ssms/random6-s19/cold': (11, 13, '7/6'),
    'ssms/random6-s19/warm': (0, 1, '23/21'),
}


def _drift(platform, rng):
    """Same topology, every weight moved by its own factor in [1/2, 2]."""
    out = Platform(platform.name)
    for spec in platform._nodes.values():  # noqa: SLF001 — test helper
        out.add_node(spec.name, spec.w if is_infinite(spec.w)
                     else spec.w * F(rng.randint(4, 16), 8))
    for spec in platform.edges():
        out.add_edge(spec.src, spec.dst, spec.c * F(rng.randint(4, 16), 8))
    return out


def _path(sol):
    return sol.pivots, sol.iterations, str(sol.objective)


def test_pivot_paths_are_pinned(monkeypatch):
    paths = {}
    fig1 = generators.paper_figure1()
    paths["ssms/fig1"] = _path(solve_exact(build_ssms_lp(fig1, "P1")[0]))
    paths["scatter/fig2"] = _path(solve_exact(build_commodity_lp(
        generators.paper_figure2_multicast(),
        commodity_endpoints("scatter", "P0", ["P5", "P6"]))[0]))
    random4 = generators.random_connected(4, seed=11)
    paths["a2a/random4"] = _path(solve_exact(build_commodity_lp(
        random4, commodity_endpoints("all-to-all", None,
                                     random4.nodes()))[0]))
    # the DAG collection LP is assembled inside its solver
    seen = []
    solve = SimplexInstance.solve

    def spy(self, warm=False):
        seen.append(solve(self, warm))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(SimplexInstance, "solve", spy)
        solve_dag_collection(fig1, TaskGraph.fork_join(2, size=F(1, 2)), "P1")
    (dag_solution,) = seen
    paths["dag/fork_join2@fig1"] = _path(dag_solution)
    for seed in range(20):
        n = 5 + seed % 6
        platform = generators.random_connected(n, seed=seed)
        lp, handles = build_ssms_lp(platform, "R0")
        inst = SimplexInstance(lp)
        paths[f"ssms/random{n}-s{seed}/cold"] = _path(inst.solve())
        patch_ssms_coefficients(
            lp, handles, _drift(platform, random.Random(seed)), "R0")
        paths[f"ssms/random{n}-s{seed}/warm"] = _path(inst.solve(warm=True))
    assert paths == PINNED_PATHS


# ----------------------------------------------------------------------
# warm-restart edge cases under the factorisation
# ----------------------------------------------------------------------
class TestWarmEdgeCases:
    @staticmethod
    def _two_var_model():
        """max 3x + 2y with the optimum at the constraint intersection
        (x = y = 4/3), so both structural columns end up basic."""
        lp = LinearProgram(name="edge")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + 2 * y <= 4, name="c1")
        lp.add_constraint(2 * x + y <= 4, name="c2")
        lp.maximize(3 * x + 2 * y)
        return lp, x, y

    def test_singular_retained_basis_falls_back_cold(self):
        lp, x, y = self._two_var_model()
        inst = SimplexInstance(lp)
        sol = inst.solve()
        # optimum sits on both constraints: x and y are basic
        assert sol[x] == F(4, 3) and sol[y] == F(4, 3)
        # patch c1 to duplicate c2: the retained x/y basis columns
        # become (2,2) and (1,1) — linearly dependent — so the warm LU
        # is singular and the solve must fall back cold, still
        # returning the exact optimum of the patched LP
        lp.set_constraint_coefficient("c1", x, 2)
        lp.set_constraint_coefficient("c1", y, 1)
        sol = inst.solve(warm=True)
        assert inst.fallbacks == 1
        assert not inst.last_restarted
        assert sol.objective == 8  # 2x + y <= 4 twice: best is (0, 4)

    def test_eta_overflow_refactorises_mid_solve(self):
        lp = LinearProgram(name="overflow")
        xs = [lp.variable(f"x{i}", lo=0, hi=i + 1) for i in range(6)]
        for i in range(5):
            lp.add_constraint(xs[i] + xs[i + 1] <= 3)
        lp.maximize(lp_sum((i + 1) * x for i, x in enumerate(xs)))
        # eta_limit=1: every pivot overflows the eta file and triggers
        # an immediate refactorisation
        tight = SimplexInstance(lp, eta_limit=1)
        sol_tight = tight.solve()
        assert tight.last_pivots > 1
        fs = tight.last_factor_stats
        assert fs["refactorisations"] >= tight.last_pivots
        assert fs["eta_len_max"] == 1
        # a roomy eta file never refactorises mid-solve ...
        roomy = SimplexInstance(lp, eta_limit=10_000)
        sol_roomy = roomy.solve()
        assert roomy.last_factor_stats["refactorisations"] == 1
        # ... and the mid-solve refactorisations change nothing
        assert sol_tight.objective == sol_roomy.objective
        assert sol_tight.values == sol_roomy.values

    def test_pivot_cap_excludes_refactorisation_ops(self):
        # equality rows force artificials, whose drive-out exchanges are
        # basis operations, not simplex pivots: a cap of exactly the
        # pivot count must therefore not trip
        lp = LinearProgram(name="cap")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        z = lp.variable("z", lo=0)
        lp.add_constraint(x + y + z == 3)
        lp.add_constraint(x - y == 1)
        lp.add_constraint(x + 2 * z <= 4)
        lp.maximize(x + 2 * y + 3 * z)
        reference = SimplexInstance(lp)
        expected = reference.solve()
        pivots = reference.last_pivots
        assert pivots > 0
        capped = SimplexInstance(lp, max_pivots=pivots)
        sol = capped.solve()
        assert sol.objective == expected.objective
        # one fewer must trip, proving the cap is measured in pivots
        with pytest.raises(LPError, match="pivot safety cap"):
            SimplexInstance(lp, max_pivots=pivots - 1).solve()

    def test_warm_pivot_cap_excludes_warm_install(self):
        lp, x, y = self._two_var_model()
        probe = SimplexInstance(lp)
        probe.solve()
        lp.set_constraint_coefficient("c1", y, 3)
        expected = probe.solve(warm=True)
        assert probe.last_restarted
        warm_pivots = probe.last_pivots
        # replay with the cap set to exactly the warm pivot count: the
        # warm install's LU + any exchange bookkeeping must not count
        lp2, x2, y2 = self._two_var_model()
        inst = SimplexInstance(lp2)
        inst.solve()
        lp2.set_constraint_coefficient("c1", y2, 3)
        inst.max_pivots = warm_pivots
        sol = inst.solve(warm=True)
        assert inst.last_restarted
        assert sol.objective == expected.objective
        assert inst.last_pivots == warm_pivots

    def test_engine_keyword_is_gone(self):
        """One engine, no knob: the parameter that chose between the
        revised core and the dense tableau is gone at every level."""
        lp, _, _ = self._two_var_model()
        with pytest.raises(TypeError):
            SimplexInstance(lp, engine="revised")
        with pytest.raises(TypeError):
            solve_exact(lp, engine="revised")
        with pytest.raises(TypeError):
            lp.solve(engine="revised")
        assert not hasattr(repro.lp, "DEFAULT_ENGINE")
        inst = SimplexInstance(lp)
        inst.solve()
        assert inst.last_factor_stats["refactorisations"] >= 1
        assert inst.last_factor_stats["ftran_ops"] > 0
        assert inst.last_factor_stats["btran_ops"] > 0

    def test_stats_carry_factor_totals(self):
        lp, x, y = self._two_var_model()
        inst = SimplexInstance(lp)
        inst.solve()
        lp.set_constraint_coefficient("c1", y, 3)
        inst.solve(warm=True)
        stats = inst.stats()
        assert stats["refactorisations"] >= 2  # one LU per solve minimum
        assert stats["ftran_ops"] > 0 and stats["btran_ops"] > 0
        assert stats["lu_basis_nnz"] > 0
        assert stats["lu_nnz"] >= stats["refactorisations"]
        assert stats["int_bits_max"] >= 1

    def test_pivot_loop_state_is_integers(self, monkeypatch):
        """Structural guard: between lowering the model to integers and
        handing the outcome out, the basic solution and the maintained
        reduced costs are ints over positive int denominators — a
        Fraction (or a float from a stray ``/``) creeping back into the
        loop fails here, not in a benchmark."""
        from repro.core.master_slave import build_ssms_lp
        from repro.platform import generators

        from repro.lp.simplex import _RevisedCore

        cores = []
        vertex = _RevisedCore.vertex  # the hand-out: Fractions from here

        def spy(core):
            cores.append(core)
            return vertex(core)

        monkeypatch.setattr(_RevisedCore, "vertex", spy)
        lp, _ = build_ssms_lp(generators.paper_figure1(), "P1")
        inst = SimplexInstance(lp)
        sol = inst.solve()
        (core,) = cores
        assert inst.last_pivots > 0 and core.d  # prices were maintained
        for number in [*core.x, core.x_den, *core.d.values(), core.d_den,
                       *core.rhs, *core.scale, *core.cost.values()]:
            assert type(number) is int
        assert core.x_den > 0 and core.d_den > 0
        assert all(type(v) is Fraction for v in sol.values.values())
        assert inst.last_factor_stats["int_bits_max"] >= \
            core.x_den.bit_length()


# ----------------------------------------------------------------------
# counters through the service layer
# ----------------------------------------------------------------------
class TestServiceCounters:
    def test_incremental_accumulates_factor_stats(self):
        from repro.platform import generators
        from repro.service.incremental import IncrementalSolver

        inc = IncrementalSolver()
        g = generators.star(4)
        inc.solve_spec(_ms(g, "M"))
        # a re-weighting keeps the hot model
        inc.solve_spec(_ms(g.scale(comm=3), "M"))
        cold = inc.stats
        assert cold.refactorisations >= 1
        assert cold.ftran_ops > 0 and cold.btran_ops > 0
        assert cold.lu_basis_nnz > 0
        inc.solve_spec(_ms(g.scale(compute=2), "M"))
        assert inc.stats.warm_solves == 1
        assert inc.stats.basis_fallbacks == 0

    def test_prometheus_exposes_factor_metrics(self):
        from repro.service.metrics import render_prometheus

        snapshot = {
            "incremental": {
                "hot_models": 2,
                "warm_solves": 5,
                "refactorisations": 7,
                "eta_len_max": 3,
                "ftran_ops": 40,
                "btran_ops": 21,
                "lu_fill_nnz": 90,
                "lu_basis_nnz": 60,
                "int_bits_max": 11,
            },
        }
        text = render_prometheus(snapshot)
        assert "repro_warm_refactorisations_total 7" in text
        assert "repro_warm_ftran_ops_total 40" in text
        assert "repro_warm_btran_ops_total 21" in text
        # high-water marks are gauges, not counters
        assert "repro_warm_eta_len_max 3" in text
        assert "repro_warm_eta_len_max_total" not in text
        assert "repro_warm_int_bits_max 11" in text
        assert "repro_warm_int_bits_max_total" not in text
        assert "repro_warm_lu_fill_ratio 1.5" in text

    def test_warm_stats_declare_factor_fields(self):
        from repro.service.incremental import WarmSolveStats

        stats = WarmSolveStats()
        snap = stats.as_dict()
        for key in ("refactorisations", "eta_len_max", "ftran_ops",
                    "btran_ops", "lu_fill_nnz", "lu_basis_nnz",
                    "int_bits_max"):
            assert key in snap
            assert snap[key] == 0

    def test_merged_snapshot_takes_the_max_of_int_bits(self):
        """``int_bits_max`` is a high-water mark: two shards that each
        saw some width merge to the wider one, not to the sum."""
        from repro.platform import generators
        from repro.service.broker import SolveRequest
        from repro.service.sharding import ShardedBroker

        with ShardedBroker(shards=2) as sharded:
            for workers in range(3, 15):
                sharded.solve(SolveRequest(MasterSlaveSpec(
                    platform=generators.star(
                        workers, master_w=3,
                        worker_w=[Fraction(k + 2, 3) for k in range(workers)],
                        link_c=[Fraction(k + 1, 5) for k in range(workers)]),
                    master="M")))
                snap = sharded.snapshot()
                widths = [s["incremental"]["int_bits_max"]
                          for s in snap["per_shard"]]
                if all(widths):
                    break
        assert len(widths) == 2 and all(widths), widths
        assert snap["incremental"]["int_bits_max"] == max(widths)
        assert snap["incremental"]["eta_len_max"] == max(
            s["incremental"]["eta_len_max"] for s in snap["per_shard"])
