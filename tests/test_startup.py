"""Start-up cost tests (section 5.2): grouping, phases, asymptotics."""

from fractions import Fraction

import pytest

from repro.core.master_slave import solve_master_slave
from repro.platform import generators as gen
from repro.schedule.reconstruction import reconstruct_schedule
from repro.schedule.batch import build_batch_schedule, default_group_count


@pytest.fixture(scope="module")
def star_schedule():
    g = gen.star(3, master_w=2, worker_w=[1, 2, 4], link_c=[1, 2, 3])
    sol = solve_master_slave(g, "M")
    return reconstruct_schedule(sol)


def unit_startups(schedule, value=1):
    return {e: Fraction(value) for e in schedule.messages}


class TestGroupCount:
    def test_paper_formula(self):
        # m = ceil(sqrt(n / ntask)), the smallest m with m*m*ntask >= n
        for n, ntask, m in ((50, 1, 8), (1000, 4, 16), (100, 1, 10),
                            (2, 1, 2), (0, 1, 1), (1, 100, 1)):
            assert default_group_count(n, Fraction(ntask)) == m

    def test_minimum_one(self):
        assert default_group_count(0, Fraction(1)) == 1
        assert default_group_count(1, Fraction(100)) == 1

    def test_smallest_square_cover(self):
        for ntask in (Fraction(1), Fraction(3, 2), Fraction(7, 3)):
            for n in range(1, 200):
                m = default_group_count(n, ntask)
                assert (m - 1) ** 2 * ntask < n <= m * m * ntask


class TestGroupedMakespan:
    def test_structure(self, star_schedule):
        analysis = build_batch_schedule(
            star_schedule, 500, unit_startups(star_schedule)
        )
        assert analysis.makespan >= analysis.lower_bound
        assert analysis.tasks_per_group == (
            analysis.m * star_schedule.period * star_schedule.throughput
        )
        assert analysis.group_length > analysis.m * star_schedule.period

    def test_ratio_decreases_with_n(self, star_schedule):
        startups = unit_startups(star_schedule)
        ratios = [
            build_batch_schedule(star_schedule, n, startups).ratio
            for n in (100, 1000, 10000, 100000)
        ]
        assert all(r >= 1 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)
        assert float(ratios[-1]) < 1.05

    def test_sqrt_convergence_bound(self, star_schedule):
        """ratio - 1 <= C / sqrt(n) with one platform constant C."""
        import math

        startups = unit_startups(star_schedule)
        cs = []
        for n in (400, 3600, 40000, 360000):
            ratio = build_batch_schedule(star_schedule, n, startups).ratio
            cs.append((float(ratio) - 1) * math.sqrt(n))
        # the implied constant stays bounded (within 3x of its smallest)
        assert max(cs) <= 3 * max(min(cs), 1e-9) + 50

    def test_closed_form_bound_dominates(self, star_schedule):
        """The paper's closed-form bound must upper-bound the ratio for
        the default m and for any other."""
        startups = unit_startups(star_schedule)
        for n in (1, 7, 100, 1000, 10000, 100000):
            for m in (None, 1, 3):
                batch = build_batch_schedule(star_schedule, n, startups, m)
                assert batch.ratio <= batch.ratio_bound

    def test_zero_startups_recover_plain_schedule(self, star_schedule):
        analysis = build_batch_schedule(star_schedule, 10000, {}, m=1)
        # still pays init/cleanup phases, but no per-group overhead
        assert analysis.group_length == star_schedule.period
        assert analysis == build_batch_schedule(star_schedule, 10000)

    def test_explicit_m(self, star_schedule):
        a1 = build_batch_schedule(
            star_schedule, 10000, unit_startups(star_schedule), m=1
        )
        a_default = build_batch_schedule(
            star_schedule, 10000, unit_startups(star_schedule)
        )
        # the paper's sqrt choice beats no grouping
        assert a_default.makespan < a1.makespan

    def test_bigger_startups_bigger_makespan(self, star_schedule):
        small = build_batch_schedule(
            star_schedule, 5000, unit_startups(star_schedule, 1)
        )
        large = build_batch_schedule(
            star_schedule, 5000, unit_startups(star_schedule, 50)
        )
        assert large.makespan > small.makespan

    def test_validation(self, star_schedule):
        with pytest.raises(ValueError):
            build_batch_schedule(star_schedule, -1, {})
        with pytest.raises(ValueError):
            build_batch_schedule(star_schedule, 10, {}, m=0)
