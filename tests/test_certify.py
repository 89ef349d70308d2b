"""The checker checked: hand-built certificates that ``repro.lp.certify``
must refuse, each next to the sound one it was bent from.  Runs under
``python -O`` in CI — every refusal is an explicit ``raise``."""

from fractions import Fraction

import pytest

from repro.lp import (
    CertificateError,
    InfeasibleError,
    LinearProgram,
    LPSolution,
    UnboundedError,
    certify,
    certify_infeasible,
    certify_unbounded,
)

F = Fraction
ULP = F(1, 10**9)


def two_rows(y_lo=0, x_hi=None):
    """max x + 2y, x + y <= 4, x + 3y <= 6: optimum 5 at (3, 1) with
    shadow prices (1/2, 1/2), also when ``y`` is free (``y_lo=None``)."""
    lp = LinearProgram("two-rows")
    x = lp.variable("x", lo=0, hi=x_hi)
    y = lp.variable("y", lo=y_lo)
    lp.add_constraint(x + y <= 4, name="c0")
    lp.add_constraint(x + 3 * y <= 6, name="c1")
    lp.maximize(x + 2 * y)
    return lp, x, y


def claim(objective, values, duals):
    return LPSolution(objective=F(objective), values=values, backend="hand",
                      duals=duals)


class TestOptimal:
    def test_sound_certificate_passes(self):
        lp, x, y = two_rows()
        sol = claim(5, {x: F(3), y: F(1)}, {0: F(1, 2), 1: F(1, 2)})
        assert certify(lp, sol) == 5
        # and it is what the solver hands out
        solved = lp.solve()
        assert solved.duals == sol.duals and certify(lp, solved) == 5

    def test_min_model_flips_the_multiplier_signs(self):
        lp = LinearProgram("diet")
        x = lp.variable("x", lo=0)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x + y >= 2)
        lp.add_constraint(x <= 5)
        lp.minimize(3 * x + 2 * y)
        assert certify(lp, claim(4, {x: F(0), y: F(2)}, {0: F(2)})) == 4
        with pytest.raises(CertificateError, match="wrong sign"):
            certify(lp, claim(4, {x: F(0), y: F(2)},
                              {0: F(2), 1: ULP}))

    def test_wrong_sign_for_the_row_sense(self):
        """max x, x >= 1, 0 <= x <= 2 has optimum 2.  With a *positive*
        price on the ``>=`` row the Lagrangian is the constant 1, which
        would 'prove' the feasible point x = 1 optimal: only the sign
        rule stands in the way."""
        lp = LinearProgram("sign")
        x = lp.variable("x", lo=0, hi=2)
        lp.add_constraint(x >= 1)
        lp.maximize(x)
        assert certify(lp, claim(2, {x: F(2)}, {})) == 2
        with pytest.raises(CertificateError, match="wrong sign"):
            certify(lp, claim(1, {x: F(1)}, {0: F(1)}))

    def test_bound_gap_of_one_unit_in_the_last_place(self):
        lp, x, y = two_rows()
        sol = claim(5, {x: F(3), y: F(1)}, {0: F(1, 2), 1: F(1, 2) + ULP})
        with pytest.raises(CertificateError, match="bound the objective"):
            certify(lp, sol)

    def test_reduced_cost_pointing_at_a_missing_bound(self):
        lp, x, y = two_rows(y_lo=None)
        assert certify(lp, claim(5, {x: F(3), y: F(1)},
                                 {0: F(1, 2), 1: F(1, 2)})) == 5
        # c0 alone leaves y the reduced cost +1, and y has no upper bound
        with pytest.raises(CertificateError, match="missing bound"):
            certify(lp, claim(5, {x: F(3), y: F(1)}, {0: F(1)}))

    def test_point_outside_a_bound_by_a_billionth(self):
        lp, x, y = two_rows(x_hi=3)
        duals = {0: F(1, 2), 1: F(1, 2)}
        assert certify(lp, claim(5, {x: F(3), y: F(1)}, duals)) == 5
        # both rows still hold at the shifted point; only x <= 3 breaks
        shifted = {x: 3 + ULP, y: 1 - ULP}
        with pytest.raises(CertificateError, match="above its bound"):
            certify(lp, claim(5 - ULP, shifted, duals))

    def test_point_violating_a_constraint(self):
        lp, x, y = two_rows()
        with pytest.raises(CertificateError, match="c1 is violated"):
            certify(lp, claim(5 + ULP, {x: 3 - ULP, y: 1 + ULP},
                              {0: F(1, 2), 1: F(1, 2)}))

    def test_objective_disagreeing_with_its_values(self):
        lp, x, y = two_rows()
        sol = claim(5 + ULP, {x: F(3), y: F(1)}, {0: F(1, 2), 1: F(1, 2)})
        with pytest.raises(CertificateError, match="not the objective"):
            certify(lp, sol)

    def test_feasible_but_not_optimal_point(self):
        lp, x, y = two_rows()
        with pytest.raises(CertificateError, match="bound the objective"):
            certify(lp, claim(4, {x: F(4), y: F(0)}, {0: F(1, 2), 1: F(1, 2)}))

    def test_missing_duals_and_unknown_rows(self):
        lp, x, y = two_rows()
        with pytest.raises(CertificateError, match="no duals"):
            certify(lp, claim(5, {x: F(3), y: F(1)}, None))
        with pytest.raises(CertificateError, match="unknown constraint"):
            certify(lp, claim(5, {x: F(3), y: F(1)}, {2: F(1)}))

    def test_scipy_duals_are_the_exact_ones(self):
        """HiGHS's marginals in the exact backend's sign convention: a
        max model's ``<=`` rows and a min model's ``>=`` rows."""
        pytest.importorskip("scipy")
        lp, _, _ = two_rows()
        assert lp.solve(backend="scipy").duals == lp.solve().duals
        diet = LinearProgram("diet")
        x = diet.variable("x", lo=0)
        y = diet.variable("y", lo=0)
        diet.add_constraint(x + y >= 2)
        diet.add_constraint(x <= 5)
        diet.minimize(3 * x + 2 * y)
        assert diet.solve(backend="scipy").duals == diet.solve().duals == {
            0: F(2)}


class TestInfeasible:
    @staticmethod
    def _at_least(k):
        lp = LinearProgram("farkas")
        x = lp.variable("x", lo=0, hi=1)
        lp.add_constraint(x >= k)
        lp.maximize(x)
        return lp

    def test_sound_combination_passes(self):
        certify_infeasible(self._at_least(2),
                           InfeasibleError("hand", farkas={0: F(-1)}))

    def test_box_minimum_of_exactly_zero(self):
        """x >= 1 on [0, 1] is feasible at x = 1, where 1 - x reaches 0:
        a combination that is merely non-negative proves nothing."""
        with pytest.raises(CertificateError, match="<= 0 inside the box"):
            certify_infeasible(self._at_least(1),
                               InfeasibleError("hand", farkas={0: F(-1)}))

    def test_wrong_sign_or_no_combination(self):
        lp = self._at_least(2)
        with pytest.raises(CertificateError, match="wrong sign"):
            certify_infeasible(lp, InfeasibleError("hand", farkas={0: F(1)}))
        with pytest.raises(CertificateError, match="no Farkas"):
            certify_infeasible(lp, InfeasibleError("scipy-style"))

    def test_solver_combinations(self):
        lp = self._at_least(2)
        with pytest.raises(InfeasibleError) as caught:
            lp.solve()
        certify_infeasible(lp, caught.value)
        # a constant constraint refutes itself before any pivot
        lp = LinearProgram("constant")
        x = lp.variable("x", lo=0)
        lp.add_constraint(x <= 3)
        lp.add_constraint(0 * x == 2)
        lp.maximize(x)
        with pytest.raises(InfeasibleError, match="constant") as caught:
            lp.solve()
        assert set(caught.value.farkas) == {1}
        certify_infeasible(lp, caught.value)


class TestUnbounded:
    @staticmethod
    def _open_wedge():
        """max x + y, x - y <= 1, 0 <= x <= 5, y >= 0: y runs off."""
        lp = LinearProgram("wedge")
        x = lp.variable("x", lo=0, hi=5)
        y = lp.variable("y", lo=0)
        lp.add_constraint(x - y <= 1)
        lp.maximize(x + y)
        return lp, x, y

    @staticmethod
    def _claim(point, ray):
        return UnboundedError("hand", point=point, ray=ray)

    def test_sound_ray_passes(self):
        lp, x, y = self._open_wedge()
        origin = {x: F(0), y: F(0)}
        certify_unbounded(lp, self._claim(origin, {x: F(0), y: F(1)}))
        with pytest.raises(UnboundedError) as caught:
            lp.solve()
        certify_unbounded(lp, caught.value)

    def test_ray_that_leaves_a_hi_bound(self):
        lp, x, y = self._open_wedge()
        origin = {x: F(0), y: F(0)}
        with pytest.raises(CertificateError, match="leaves a bound of x"):
            certify_unbounded(lp, self._claim(origin, {x: F(1), y: F(1)}))

    def test_ray_that_leaves_a_constraint_or_gains_nothing(self):
        lp, x, y = self._open_wedge()
        origin = {x: F(0), y: F(0)}
        with pytest.raises(CertificateError, match="leaves a bound of y"):
            certify_unbounded(lp, self._claim(origin, {x: F(0), y: F(-1)}))
        with pytest.raises(CertificateError, match="does not improve"):
            certify_unbounded(lp, self._claim(origin, {x: F(0), y: F(0)}))
        with pytest.raises(CertificateError, match="violated by the point"):
            certify_unbounded(lp, self._claim({x: F(2), y: F(0)},
                                              {x: F(0), y: F(1)}))
        lp.variables[0].hi = None  # x may now grow: the row must stop it
        with pytest.raises(CertificateError, match="leaves constraint"):
            certify_unbounded(lp, self._claim(origin, {x: F(1), y: F(0)}))
        with pytest.raises(CertificateError, match="no objective, point"):
            certify_unbounded(lp, UnboundedError("scipy-style"))
