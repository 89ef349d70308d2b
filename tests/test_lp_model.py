"""Tests for the LP modelling layer."""

from fractions import Fraction

import pytest

from repro.lp import (
    Constraint,
    LinearProgram,
    LinExpr,
    LPError,
    lp_sum,
)


class TestExpressions:
    def test_variable_arithmetic(self):
        lp = LinearProgram()
        x = lp.variable("x")
        y = lp.variable("y")
        e = 2 * x + y - 3
        assert e.terms[x] == 2
        assert e.terms[y] == 1
        assert e.constant == -3

    def test_subtraction_cancels(self):
        lp = LinearProgram()
        x = lp.variable("x")
        e = (x + 1) - x
        assert x not in e.terms
        assert e.constant == 1

    def test_division(self):
        lp = LinearProgram()
        x = lp.variable("x")
        e = x / 4
        assert e.terms[x] == Fraction(1, 4)

    def test_division_by_zero(self):
        lp = LinearProgram()
        x = lp.variable("x")
        with pytest.raises(ZeroDivisionError):
            _ = (x + 0) / 0

    def test_negation(self):
        lp = LinearProgram()
        x = lp.variable("x")
        e = -(x + 2)
        assert e.terms[x] == -1
        assert e.constant == -2

    def test_rsub(self):
        lp = LinearProgram()
        x = lp.variable("x")
        e = 5 - x
        assert e.terms[x] == -1
        assert e.constant == 5

    def test_value_evaluation(self):
        lp = LinearProgram()
        x = lp.variable("x")
        y = lp.variable("y")
        e = 2 * x + 3 * y + 1
        assert e.value({x: Fraction(1), y: Fraction(2)}) == 9

    def test_lp_sum(self):
        lp = LinearProgram()
        xs = [lp.variable(f"x{i}") for i in range(3)]
        e = lp_sum(xs)
        assert all(e.terms[x] == 1 for x in xs)

    def test_lp_sum_empty(self):
        e = lp_sum([])
        assert isinstance(e, LinExpr)
        assert not e.terms

    def test_lp_sum_is_linear_fresh_and_equal_to_plus(self, monkeypatch):
        lp = LinearProgram()
        xs = [lp.variable(f"x{i}") for i in range(2000)]
        items = [(i % 7 - 3) * x + i for i, x in enumerate(xs)]
        # a repeat, a cancelling pair, a bare variable and a number
        items += [items[5], -1 * items[6], xs[8], Fraction(1, 3)]

        built = []
        init = LinExpr.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def constructions(count):
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(LinExpr, "__init__", counted)
                lp_sum(items[:count])
            return len(built)

        # accumulating in place builds one expression whatever the item
        # count (the quadratic copy-per-item version builds one per item)
        assert constructions(2000) == constructions(1000)
        before = [(dict(e.terms), e.constant) for e in items[:-2]]
        total = lp_sum(items)
        by_plus = sum(items[1:], items[0])
        assert list(total.terms.items()) == list(by_plus.terms.items())
        assert total.constant == by_plus.constant
        assert xs[6] not in total.terms  # cancelled terms are dropped
        total.terms.clear()
        total.constant += 1
        assert [(e.terms, e.constant) for e in items[:-2]] == before

    def test_fraction_coefficients_survive(self):
        lp = LinearProgram()
        x = lp.variable("x")
        e = x * Fraction(1, 3)
        assert e.terms[x] == Fraction(1, 3)


class TestConstraints:
    def test_le(self):
        lp = LinearProgram()
        x = lp.variable("x")
        c = x + 1 <= 3
        assert isinstance(c, Constraint)
        terms, sense, rhs = c.normalized()
        assert sense == "<=" and rhs == 2

    def test_ge(self):
        lp = LinearProgram()
        x = lp.variable("x")
        terms, sense, rhs = (x >= 5).normalized()
        assert sense == ">=" and rhs == 5

    def test_eq(self):
        lp = LinearProgram()
        x = lp.variable("x")
        y = lp.variable("y")
        c = x + y == 2
        terms, sense, rhs = c.normalized()
        assert sense == "==" and rhs == 2
        assert set(terms) == {x, y}

    def test_violation(self):
        lp = LinearProgram()
        x = lp.variable("x")
        c = x <= 3
        assert c.violation({x: Fraction(5)}) == 2
        assert c.violation({x: Fraction(2)}) == 0


class TestProgram:
    def test_duplicate_variable_name(self):
        lp = LinearProgram()
        lp.variable("x")
        with pytest.raises(LPError):
            lp.variable("x")

    def test_bad_bounds(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.variable("x", lo=2, hi=1)

    def test_get_variable(self):
        lp = LinearProgram()
        x = lp.variable("x")
        assert lp.get_variable("x") is x
        with pytest.raises(LPError):
            lp.get_variable("nope")

    def test_add_non_constraint(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_constraint(True)  # comparison collapsed to a bool

    def test_solve_without_objective(self):
        lp = LinearProgram()
        lp.variable("x", lo=0)
        with pytest.raises(LPError):
            lp.solve()

    def test_unknown_backend(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        lp.maximize(x)
        with pytest.raises(LPError):
            lp.solve(backend="cplex")

    def test_check_catches_violations(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=1)
        lp.add_constraint(x <= Fraction(1, 2), name="cap")
        lp.maximize(x)
        sol = lp.solve()
        lp.check(sol)  # must pass
        sol.values[x] = Fraction(2)
        with pytest.raises(LPError):
            lp.check(sol)

    def test_stats(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0)
        lp.add_constraint(x <= 1)
        assert lp.stats() == {"variables": 1, "constraints": 1}

    def test_solution_by_name(self):
        lp = LinearProgram()
        x = lp.variable("x", lo=0, hi=2)
        lp.maximize(x)
        sol = lp.solve()
        assert sol.value_by_name() == {"x": Fraction(2)}
