"""Dynamic steady-state tests (section 5.5)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.master_slave import solve_master_slave
from repro.dynamic.adaptive import realized_rate, run_adaptive
from repro.dynamic.autonomous import autonomous_throughput, subtree_capacity
from repro.platform import generators as gen
from repro.platform.graph import Platform, PlatformError
from repro.platform.monitoring import SlidingWindowPredictor, TimeVaryingPlatform


class TestAutonomous:
    def test_equals_lp_on_stars(self):
        g = gen.star(5, master_w=3, worker_w=[1, 1, 2, 5, 9],
                     link_c=[2, 1, 1, 3, 1])
        assert autonomous_throughput(g, "M") == (
            solve_master_slave(g, "M").throughput
        )

    def test_equals_lp_on_binary_trees(self):
        for seed in (1, 2, 3, 4, 5):
            g = gen.binary_tree(3, seed=seed)
            assert autonomous_throughput(g, "T0") == (
                solve_master_slave(g, "T0").throughput
            ), f"seed {seed}"

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            min_size=1, max_size=6,
        )
    )
    def test_equals_lp_on_random_stars(self, workers):
        ws = [w for w, _ in workers]
        cs = [c for _, c in workers]
        g = gen.star(len(workers), master_w=2, worker_w=ws, link_c=cs)
        assert autonomous_throughput(g, "M") == (
            solve_master_slave(g, "M").throughput
        )

    def test_reports_are_consistent(self):
        g = gen.binary_tree(2, seed=7)
        reports = subtree_capacity(g, "T0")
        for node, rep in reports.items():
            total = rep.own_rate + sum(
                rep.child_rates.values(), start=Fraction(0)
            )
            assert total == rep.capacity
            busy = sum(
                (rate * g.c(node, ch)
                 for ch, rate in rep.child_rates.items()),
                start=Fraction(0),
            )
            assert busy <= 1

    def test_non_tree_rejected(self, grid33):
        with pytest.raises(PlatformError):
            subtree_capacity(grid33, "G0_0")


class TestRealizedRate:
    def test_perfect_estimate_realizes_plan(self, star4):
        plan = solve_master_slave(star4, "M")
        achieved = realized_rate(plan, star4)
        assert achieved == plan.throughput

    def test_slower_truth_reduces_rate(self, star4):
        plan = solve_master_slave(star4, "M")
        slower = star4.scale(compute=2, comm=2)
        achieved = realized_rate(plan, slower)
        assert achieved < plan.throughput

    def test_faster_truth_never_exceeds_plan(self, star4):
        """Extra capacity is wasted without replanning — the motivation
        for the adaptive protocol."""
        plan = solve_master_slave(star4, "M")
        faster = star4.scale(compute=Fraction(1, 2), comm=Fraction(1, 2))
        achieved = realized_rate(plan, faster)
        assert achieved <= solve_master_slave(faster, "M").throughput


    @pytest.mark.parametrize("seed", range(8))
    def test_exact_plan_realizes_itself(self, seed):
        g = gen.random_connected(4 + seed % 5, seed=seed)
        plan = solve_master_slave(g, "R0")
        assert realized_rate(plan, plan.platform) == plan.throughput

    @pytest.mark.parametrize("seed", range(8))
    def test_runner_reading_is_primed(self, seed):
        """The rate read after ``n + 1`` periods is final: one more
        period (an isolated node added to the truth) moves nothing."""
        base = gen.random_connected(4 + seed % 5, seed=seed)
        tv = TimeVaryingPlatform(base, drift=0.5, seed=seed)
        plan = solve_master_slave(tv.snapshot(), "R0")
        truth = tv.advance()
        longer = truth.scale()
        longer.add_node("idle", 1)
        assert realized_rate(plan, longer) == realized_rate(plan, truth)


class TestAdaptiveProtocol:
    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_oracle_dominates_all(self, seed):
        base = gen.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                        link_c=[1, 1, 2, 3])
        results = {}
        for strategy in ("static", "adaptive", "oracle"):
            tv = TimeVaryingPlatform(base, drift=0.3, seed=seed)
            results[strategy] = run_adaptive(tv, "M", epochs=6,
                                             strategy=strategy)
        assert results["oracle"].mean_efficiency == 1
        assert results["adaptive"].total_achieved <= (
            results["oracle"].total_achieved
        )
        assert results["static"].total_achieved <= (
            results["oracle"].total_achieved
        )

    def test_adaptive_beats_static_under_drift(self):
        """Averaged over seeds, replanning wins (§5.5's whole point)."""
        base = gen.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                        link_c=[1, 1, 2, 3])
        adaptive_total = static_total = Fraction(0)
        for seed in (3, 7, 21, 42, 99):
            tv_a = TimeVaryingPlatform(base, drift=0.35, seed=seed)
            adaptive_total += run_adaptive(
                tv_a, "M", epochs=6, strategy="adaptive"
            ).total_achieved
            tv_s = TimeVaryingPlatform(base, drift=0.35, seed=seed)
            static_total += run_adaptive(
                tv_s, "M", epochs=6, strategy="static"
            ).total_achieved
        assert adaptive_total > static_total

    def test_with_predictor(self):
        base = gen.star(3, worker_w=[1, 2, 3], link_c=[1, 1, 2])
        tv = TimeVaryingPlatform(base, drift=0.25, seed=11)
        res = run_adaptive(
            tv, "M", epochs=5, strategy="adaptive",
            predictor=SlidingWindowPredictor(window=2),
        )
        assert 0 < res.mean_efficiency <= 1

    def test_predictor_sees_each_epoch_once(self):
        """The window holds one observation per epoch: epoch 0's
        snapshot is the initial platform, observed before the loop."""
        tv = TimeVaryingPlatform(gen.star(2), seed=1)
        predictor = SlidingWindowPredictor(window=3)
        run_adaptive(tv, "M", epochs=2, predictor=predictor)
        assert predictor._node_obs["W1"] == [1, Fraction(377, 331)]
        assert predictor._node_obs["W1"] == \
            [snap.w("W1") for snap in tv.history()]

    @pytest.mark.parametrize("seed", range(10))
    def test_warm_replan_is_exact(self, seed):
        """Every epoch's optimum equals a cold solve of its snapshot; a
        run builds at most two models (the first build is single-use),
        and without a predictor it solves each epoch once.  With one,
        the forecasts of epochs 0 and 1 are the initial platform, which
        epoch 0 solves: the run reuses that answer instead of solving
        the same LP again."""
        base = gen.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                        link_c=[1, 1, 2, 3])
        runs = [(strategy, None) for strategy in
                ("static", "adaptive", "oracle")]
        runs.append(("adaptive", SlidingWindowPredictor(window=2)))
        for strategy, predictor in runs:
            tv = TimeVaryingPlatform(base, drift=0.35, seed=seed)
            res = run_adaptive(tv, "M", epochs=5, strategy=strategy,
                               predictor=predictor)
            for outcome, snap in zip(res.epochs, tv.history()):
                assert outcome.optimal_rate == (
                    solve_master_slave(snap, "M").throughput)
            assert res.stats.full_rebuilds <= 2
            solves = res.stats.full_rebuilds + res.stats.warm_solves
            assert solves == (5 if predictor is None else 10 - 2)

    def test_epoch_count_validated(self, star4):
        tv = TimeVaryingPlatform(star4, seed=1)
        with pytest.raises(ValueError):
            run_adaptive(tv, "M", epochs=0)


class TestTimeVaryingPlatform:
    def test_multipliers_bounded(self, star4):
        tv = TimeVaryingPlatform(star4, drift=0.5, seed=2,
                                 bounds=(0.5, 2.0))
        for _ in range(30):
            snap = tv.advance()
            for node in snap.compute_nodes():
                ratio = snap.w(node) / star4.w(node)
                assert Fraction(1, 2) <= ratio <= 2

    def test_snapshot_preserves_topology(self, grid33):
        tv = TimeVaryingPlatform(grid33, seed=3)
        snap = tv.advance()
        assert snap.num_nodes == grid33.num_nodes
        assert snap.num_edges == grid33.num_edges

    def test_deterministic_under_seed(self, star4):
        a = TimeVaryingPlatform(star4, seed=5)
        b = TimeVaryingPlatform(star4, seed=5)
        for _ in range(4):
            assert a.advance().describe() == b.advance().describe()

    def test_history_grows(self, star4):
        tv = TimeVaryingPlatform(star4, seed=1)
        tv.advance()
        tv.advance()
        assert len(tv.history()) == 3  # epoch 0 + two advances

    def test_drift_validation(self, star4):
        with pytest.raises(ValueError):
            TimeVaryingPlatform(star4, drift=1.5)


class TestPredictor:
    def test_mean_of_window(self, star4):
        pred = SlidingWindowPredictor(window=2)
        pred.observe(star4)
        pred.observe(star4.scale(compute=3))
        forecast = pred.predict(star4)
        # mean of w and 3w = 2w
        assert forecast.w("W1") == star4.w("W1") * 2

    def test_unobserved_defaults_to_template(self, star4):
        pred = SlidingWindowPredictor()
        forecast = pred.predict(star4)
        assert forecast.w("W1") == star4.w("W1")
