"""Tests for the analysis helpers (bounds + reporting)."""

from fractions import Fraction

import pytest

from repro.analysis.bounds import (
    deficit_is_constant,
    efficiency_series,
    fit_sqrt_constant,
)
from repro.analysis.reporting import (
    render_edge_flows,
    render_series,
    render_table,
)
from repro.core.master_slave import solve_master_slave
from repro.schedule.reconstruction import reconstruct_schedule
from repro.simulator.periodic_runner import PeriodicRunner


class TestBounds:
    def test_deficit_constant_detection(self, star4):
        sol = solve_master_slave(star4, "M")
        sched = reconstruct_schedule(sol)
        runs = [PeriodicRunner(sched).run(k) for k in (5, 12, 30)]
        assert deficit_is_constant(runs)

    def test_efficiency_series_monotone(self, star4):
        sol = solve_master_slave(star4, "M")
        sched = reconstruct_schedule(sol)
        runs = [PeriodicRunner(sched).run(k) for k in (2, 8, 32)]
        series = efficiency_series(runs)
        effs = [e for _, e in series]
        assert effs == sorted(effs)
        assert all(e <= 1 for e in effs)

    def test_fit_sqrt_constant(self):
        data = [(100, Fraction(11, 10)), (400, Fraction(21, 20))]
        c = fit_sqrt_constant(data)
        assert c == pytest.approx(1.0, rel=1e-6)

    def test_fit_ignores_sub_one_ratios(self):
        assert fit_sqrt_constant([(100, Fraction(9, 10))]) == 0


class TestReporting:
    def test_table(self):
        text = render_table(
            ["name", "value"],
            [["alpha", Fraction(1, 3)], ["beta", 0.5]],
            title="demo",
        )
        assert "demo" in text
        assert "1/3" in text
        assert "0.5000" in text

    def test_edge_flows(self):
        text = render_edge_flows(
            {("P0", "P1"): Fraction(1, 2)}, title="fig3a"
        )
        assert "P0 -> P1: 1/2" in text

    def test_series(self):
        text = render_series(
            [(10, Fraction(1, 2)), (20, Fraction(3, 4))],
            x_label="n", y_label="ratio", title="conv",
        )
        assert "conv" in text
        assert "#" in text

    def test_series_constant_values(self):
        text = render_series(
            [(1, Fraction(1)), (2, Fraction(1))], "x", "y"
        )
        assert "1" in text
