"""Exact simplex: unit cases, pathological cases, and a property test
cross-checking against scipy's HiGHS on random feasible LPs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import LinearProgram, lp_sum
from repro.lp.model import InfeasibleError, UnboundedError

coef = st.integers(min_value=-5, max_value=5)


class TestBasic:
    def test_textbook_max(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y <= 4)
        lp.add_constraint(x + 3 * y <= 6)
        lp.maximize(x + 2 * y)
        sol = lp.solve()
        assert sol.objective == 5
        assert sol[x] == 3 and sol[y] == 1

    def test_min_with_free_variable(self):
        lp = LinearProgram()
        x = lp.variable("x")  # free
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y >= 2)
        lp.minimize(x + 2 * y)
        sol = lp.solve()
        assert sol.objective == 2

    def test_upper_bound_only_variable(self):
        lp = LinearProgram()
        x = lp.variable("x", hi=3)
        lp.maximize(x)
        sol = lp.solve()
        assert sol.objective == 3

    def test_equality_constraints(self):
        lp = LinearProgram()
        a = lp.variable("a", lo=0, hi=1)
        b = lp.variable("b", lo=0, hi=1)
        c = lp.variable("c", lo=0)
        lp.add_constraint(a + b + c == Fraction(3, 2))
        lp.add_constraint(c <= Fraction(1, 3))
        lp.maximize(2 * a + b + 3 * c)
        sol = lp.solve()
        assert sol.objective == Fraction(19, 6)
        lp.check(sol)

    def test_exact_fractions_in_data(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        lp.add_constraint(x * Fraction(1, 3) <= Fraction(1, 7))
        lp.maximize(x)
        assert lp.solve().objective == Fraction(3, 7)

    def test_objective_constant_offset(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        lp.maximize(x + 10)
        assert lp.solve().objective == 11

    def test_degenerate_redundant_equalities(self):
        """Redundant rows leave an artificial basic at zero — must not crash."""
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y == 2)
        lp.add_constraint(2 * x + 2 * y == 4)  # redundant
        lp.maximize(x)
        sol = lp.solve()
        assert sol.objective == 2

    def test_zero_objective(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        lp.add_constraint(x >= Fraction(1, 2))
        lp.maximize(x * 0)
        assert lp.solve().objective == 0


class TestInfeasibleUnbounded:
    def test_infeasible_bounds_vs_constraints(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        lp.add_constraint(x >= 2)
        lp.maximize(x)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_infeasible_equalities(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y == 1)
        lp.add_constraint(x + y == 2)
        lp.maximize(x)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_constant_infeasible_row(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        lp.add_constraint((x - x) >= 1)  # 0 >= 1
        lp.maximize(x)
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        lp.maximize(x)
        with pytest.raises(UnboundedError):
            lp.solve()

    def test_unbounded_direction_in_plane(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x - y <= 1)
        lp.maximize(x)
        with pytest.raises(UnboundedError):
            lp.solve()

    def test_scipy_infeasible_matches(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        lp.add_constraint(x >= 2)
        lp.maximize(x)
        with pytest.raises(InfeasibleError):
            lp.solve(backend="scipy")


@st.composite
def random_feasible_lp(draw):
    """A bounded LP feasible at the origin: Ax <= b with b >= 0, x in
    [0, 10]^n, random objective."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    rows = [
        [draw(coef) for _ in range(n)]
        for _ in range(m)
    ]
    rhs = [draw(st.integers(min_value=0, max_value=20)) for _ in range(m)]
    obj = [draw(coef) for _ in range(n)]
    return n, rows, rhs, obj


class TestAgainstScipy:
    @settings(max_examples=40, deadline=None)
    @given(random_feasible_lp())
    def test_exact_matches_highs(self, data):
        n, rows, rhs, obj = data

        def build():
            lp = LinearProgram()
            xs = [lp.variable(f"x{i}", lo=0, hi=10) for i in range(n)]
            for row, b in zip(rows, rhs):
                lp.add_constraint(
                    lp_sum(c * x for c, x in zip(row, xs)) <= b
                )
            lp.maximize(lp_sum(c * x for c, x in zip(obj, xs)))
            return lp

        exact = build().solve(backend="exact")
        approx = build().solve(backend="scipy")
        assert abs(float(exact.objective) - float(approx.objective)) < 1e-6
        # the exact solution must satisfy its own model exactly
        build().check(exact)

    @settings(max_examples=25, deadline=None)
    @given(random_feasible_lp())
    def test_solution_is_feasible_and_extreme(self, data):
        n, rows, rhs, obj = data
        lp = LinearProgram()
        xs = [lp.variable(f"x{i}", lo=0, hi=10) for i in range(n)]
        for row, b in zip(rows, rhs):
            lp.add_constraint(lp_sum(c * x for c, x in zip(row, xs)) <= b)
        lp.maximize(lp_sum(c * x for c, x in zip(obj, xs)))
        sol = lp.solve()
        lp.check(sol)
        # optimality spot-check: no +/- unit move improves the objective
        for i, x in enumerate(xs):
            for delta in (Fraction(1, 7), Fraction(-1, 7)):
                trial = dict(sol.values)
                trial[x] = trial[x] + delta
                if trial[x] < 0 or trial[x] > 10:
                    continue
                ok = all(
                    cons.violation(trial) == 0 for cons in lp.constraints
                )
                if ok:
                    trial_obj = lp.objective.value(trial)
                    assert trial_obj <= sol.objective


# ----------------------------------------------------------------------
# SimplexInstance: basis-reusing warm re-solves
# ----------------------------------------------------------------------
class TestSimplexInstance:
    @staticmethod
    def _model():
        """max x + 2y + z with named, patchable constraints."""
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        z = lp.variable("z", lo=0)
        lp.add_constraint(x + y + z <= 4, name="c1")
        lp.add_constraint(x + 3 * y <= 6, name="c2")
        lp.add_constraint(y + 2 * z <= 5, name="c3")
        lp.maximize(x + 2 * y + z)
        return lp, (x, y, z)

    @staticmethod
    def _fresh_objective(lp):
        from repro.lp.simplex import SimplexInstance

        return SimplexInstance(lp).solve().objective

    def test_cold_matches_solve_exact(self):
        from repro.lp.simplex import SimplexInstance, solve_exact

        lp, _ = self._model()
        inst = SimplexInstance(lp)
        assert inst.solve().objective == solve_exact(lp).objective
        assert inst.solves == 1 and inst.basis_restarts == 0

    def test_warm_after_coefficient_patch_is_exact(self):
        from repro.lp.simplex import SimplexInstance

        lp, (x, y, z) = self._model()
        inst = SimplexInstance(lp)
        inst.solve()
        for coef in (Fraction(1, 2), Fraction(5, 3), Fraction(7, 2)):
            lp.set_constraint_coefficient("c2", y, coef)
            lp.set_objective_coefficient(y, coef + 1)
            warm = inst.solve(warm=True)
            assert warm.objective == self._fresh_objective(lp)
            lp.check(warm)
        assert inst.basis_restarts + inst.fallbacks == 3

    def test_phase1_skipped_when_basis_stays_feasible(self):
        from repro.lp.simplex import SimplexInstance

        lp, (x, y, z) = self._model()
        inst = SimplexInstance(lp)
        inst.solve()
        # objective-only change keeps the basic point primal feasible
        lp.set_objective_coefficient(x, Fraction(3))
        warm = inst.solve(warm=True)
        assert inst.last_restarted and inst.last_phase1_skipped
        assert inst.phase1_skips == 1
        assert warm.objective == self._fresh_objective(lp)

    def test_rhs_mutation_repairs_feasibility(self):
        from repro.lp.simplex import SimplexInstance

        lp, (x, y, z) = self._model()
        inst = SimplexInstance(lp)
        first = inst.solve()
        # shrink c1's rhs: expr <= 4 became expr - 4 <= 0; moving the
        # constant mutates the rhs in place, making the old basis primal
        # infeasible (repaired by the dual or restricted-phase-1 path)
        cons = lp.constraint_by_name("c1")
        cons.expr.constant += 2  # now expr <= 2
        warm = inst.solve(warm=True)
        assert warm.objective < first.objective
        assert warm.objective == self._fresh_objective(lp)
        lp.check(warm)
        assert inst.last_restarted
        assert inst.dual_repairs + inst.primal_repairs == 1

    def test_structure_change_falls_back_to_cold(self):
        from repro.lp.simplex import SimplexInstance

        lp, (x, y, z) = self._model()
        inst = SimplexInstance(lp)
        inst.solve()
        lp.add_constraint(x + z <= 3, name="c4")  # new row: new structure
        warm = inst.solve(warm=True)
        assert inst.fallbacks == 1 and not inst.last_restarted
        assert warm.objective == self._fresh_objective(lp)

    def test_warm_flag_off_never_restarts(self):
        from repro.lp.simplex import SimplexInstance

        lp, (x, y, z) = self._model()
        inst = SimplexInstance(lp)
        inst.solve()
        inst.solve(warm=False)
        assert inst.basis_restarts == 0 and inst.fallbacks == 0

    def test_ssms_warm_restart_on_platform_drift(self):
        from repro.core.master_slave import (
            build_ssms_lp,
            patch_ssms_coefficients,
        )
        from repro.lp.simplex import SimplexInstance
        from repro.platform import generators

        g = generators.paper_figure1()
        lp, handles = build_ssms_lp(g, "P1")
        inst = SimplexInstance(lp)
        cold = inst.solve()
        mutated = g.scale(compute=Fraction(5, 4), comm=Fraction(4, 5))
        patch_ssms_coefficients(lp, handles, mutated, "P1")
        warm = inst.solve(warm=True)
        lp2, _ = build_ssms_lp(mutated, "P1")
        ref = SimplexInstance(lp2).solve()
        assert warm.objective == ref.objective
        assert inst.last_restarted
        assert warm.pivots < ref.pivots or warm.pivots == 0


class TestPivotSafetyCap:
    def test_cap_raises_a_clear_error_naming_the_lp_size(self):
        from repro.lp.model import LPError

        lp = LinearProgram("capped-lp")
        xs = [lp.variable(f"x{i}", lo=0) for i in range(6)]
        for i in range(5):
            lp.add_constraint(xs[i] + xs[i + 1] <= i + 1)
        lp.maximize(lp_sum(xs))
        with pytest.raises(LPError, match=r"pivot safety cap.*'capped-lp'"):
            lp.solve(max_iterations=1)
        with pytest.raises(LPError, match=r"m=\d+ rows, n=\d+ columns"):
            lp.solve(max_iterations=1)

    def test_degenerate_lp_terminates_under_the_default_cap(self):
        # Beale's classic cycling example: highly degenerate (every basic
        # feasible solution of phase 2 ties at zero); the stall safeguard
        # must degrade to Bland's rule and still reach the optimum (1/20)
        lp = LinearProgram("beale")
        x1 = lp.variable("x1", lo=0)
        x2 = lp.variable("x2", lo=0)
        x3 = lp.variable("x3", lo=0)
        x4 = lp.variable("x4", lo=0)
        lp.add_constraint(
            Fraction(1, 4) * x1 - 60 * x2 - Fraction(1, 25) * x3 + 9 * x4 <= 0
        )
        lp.add_constraint(
            Fraction(1, 2) * x1 - 90 * x2 - Fraction(1, 50) * x3 + 3 * x4 <= 0
        )
        lp.add_constraint(x3 <= 1)
        lp.maximize(
            Fraction(3, 4) * x1 - 150 * x2 + Fraction(1, 50) * x3 - 6 * x4
        )
        sol = lp.solve()
        assert sol.objective == Fraction(1, 20)
        assert sol.pivots <= 100  # terminated without spinning to the cap

    def test_warm_solves_share_the_cap(self):
        from repro.lp.model import LPError
        from repro.lp.simplex import SimplexInstance

        lp = LinearProgram("warm-capped")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y <= 4, name="c1")
        lp.add_constraint(x + 3 * y <= 6, name="c2")
        lp.maximize(x + 2 * y)
        inst = SimplexInstance(lp, max_pivots=1)
        with pytest.raises(LPError, match="pivot safety cap"):
            inst.solve()
