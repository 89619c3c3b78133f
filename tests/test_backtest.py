"""Tests for violation backtests, the multi-quantile ES backtest, PIT tests,
and the coherence counterexample searches."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailrisk import (
    CounterexampleNotFoundError,
    DiscreteDistribution,
    EmptyScenarioSetError,
    InsufficientDataError,
    Level,
    PitSeries,
    ShapeMismatchError,
    ViolationSeries,
    comonotone_sum,
    enumerate_joint_panels,
    es_quantile_approximation,
    es_quantile_backtest,
    expectile,
    expected_shortfall,
    find_expectile_comonotone_counterexample,
    find_var_superadditivity_example,
    independence_test,
    pit_independence_test,
    pit_series,
    pit_transform,
    pit_uniformity_test,
    supporting_levels,
    unconditional_coverage_test,
    value_at_risk,
    violation_process,
)
from tailrisk.backtest import _binomial_tails, _chi2_sf

import oracles


class TestViolationProcess:
    def test_no_violations_when_forecasts_high(self):
        v = violation_process([100.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0], 0.95)
        assert v.count == 0
        assert np.array_equal(v.indicators, [0, 0, 0, 0, 0])

    def test_all_violations_when_forecasts_low(self):
        v = violation_process([-1e9] * 4, [0.0, 1.0, 2.0, 3.0], 0.95)
        assert v.count == 4

    def test_constant_95_on_1_to_100(self):
        v = violation_process([95.0] * 100, list(range(1, 101)), 0.95)
        assert v.count == 5  # 96..100; the comparison is strict

    def test_exact_hit_is_not_a_violation(self):
        v = violation_process([2.0], [2.0], 0.9)
        assert v.count == 0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            violation_process([1.0, 2.0], [1.0], 0.95)

    @pytest.mark.parametrize(
        "forecasts, losses, name",
        [
            ([math.nan, 1.0, math.inf], [5.0, 1.0, 2.0], "var_forecasts"),
            ([5.0, 1.0, 2.0], [5.0, math.nan, 2.0], "realizations"),
            ([5.0], [-math.inf], "realizations"),
        ],
    )
    def test_non_finite_input_is_refused(self, forecasts, losses, name):
        # a NaN compares false, so unchecked it would count as no violation
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            violation_process(forecasts, losses, 0.95)

    def test_correct_forecast_violation_rate(self):
        # under the true constant quantile forecast the indicators are iid
        # Bernoulli(1 - alpha): the observed rate stays within 3 standard
        # errors at T = 10000
        rng = np.random.default_rng(29)
        t, alpha = 10000, 0.95
        losses = rng.uniform(0.0, 1.0, t)
        v = violation_process(np.full(t, alpha), losses, alpha)
        rate = v.count / t
        se = np.sqrt(alpha * (1 - alpha) / t)
        assert abs(rate - (1 - alpha)) <= 3 * se


# the input checks of the series and backtests, with their errors' types and messages
INPUT_CHECKS = [
    (lambda: ViolationSeries(np.array([], dtype=np.int8), Level.quantile(0.9)),
     InsufficientDataError, "a violation series needs at least one period"),
    (lambda: ViolationSeries(np.array([0, 2, 1]), Level.quantile(0.9)),
     ValueError, "indicators must be 0 or 1"),
    (lambda: ViolationSeries(np.array([0.0, 0.5]), Level.quantile(0.9)),
     ValueError, "indicators must be 0 or 1"),
    (lambda: es_quantile_backtest([1.0], [[1.0, 2.0], [1.0, 2.0]], [1.0, 2.0], 0.9),
     ShapeMismatchError, "1 es forecasts but 2 realizations"),
    (lambda: PitSeries(np.array([]), randomized=False, rng_seed=None),
     InsufficientDataError, "a PIT series needs at least one value"),
    (lambda: pit_independence_test(
        PitSeries(np.linspace(0.0, 1.0, 50), randomized=False, rng_seed=None), powers=()),
     ValueError, "need at least one power"),
]


@pytest.mark.parametrize(
    "call, error, message", INPUT_CHECKS,
    ids=["no-periods", "indicator-2", "indicator-half", "es-length", "empty-pit", "no-powers"],
)
def test_an_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


class TestUnconditionalCoverage:
    def test_expected_count_has_high_p_value(self):
        ind = np.zeros(250, dtype=np.int8)
        ind[:2] = 1
        v = ViolationSeries(ind, Level.quantile(0.99))
        res = unconditional_coverage_test(v)
        assert res.p_value > 0.5
        assert not res.reject_at[0.05]

    def test_fifteen_violations_rejects_hard(self):
        ind = np.zeros(250, dtype=np.int8)
        ind[:15] = 1
        v = ViolationSeries(ind, Level.quantile(0.99))
        res = unconditional_coverage_test(v)
        assert res.p_value < 0.001
        assert all(res.reject_at.values())

    def test_mode_count_not_rejected(self):
        t, alpha = 500, 0.95
        k = round(t * (1 - alpha))
        ind = np.zeros(t, dtype=np.int8)
        ind[:k] = 1
        v = ViolationSeries(ind, Level.quantile(alpha))
        assert not unconditional_coverage_test(v).reject_at[0.05]

    def test_reject_map_is_consistent(self):
        ind = np.zeros(100, dtype=np.int8)
        ind[:9] = 1
        v = ViolationSeries(ind, Level.quantile(0.99))
        res = unconditional_coverage_test(v)
        for level, flag in res.reject_at.items():
            assert flag == (res.p_value < level)

    def test_exact_binomial_beyond_a_million(self):
        t = 1_200_000
        ind = np.zeros(t, dtype=np.int8)
        k = int(t * 0.01)
        ind[:k] = 1
        v = ViolationSeries(ind, Level.quantile(0.99))
        res = unconditional_coverage_test(v)
        assert res.method == "coverage-binomial-exact"
        assert res.notes == ()
        assert res.p_value > 0.5


class TestIndependence:
    def test_alternating_rejects(self):
        ind = np.array([0, 1] * 100, dtype=np.int8)
        v = ViolationSeries(ind, Level.quantile(0.95))
        res = independence_test(v)
        assert res.reject_at[0.01]

    def test_all_zeros_degenerate(self):
        v = ViolationSeries(np.zeros(50, dtype=np.int8), Level.quantile(0.95))
        res = independence_test(v)
        assert res.p_value == 1.0
        assert "degenerate" in res.notes

    def test_single_violation_at_end(self):
        ind = np.zeros(50, dtype=np.int8)
        ind[-1] = 1
        v = ViolationSeries(ind, Level.quantile(0.95))
        res = independence_test(v)  # no transition out of state 1; must not crash
        assert 0.0 <= res.p_value <= 1.0

    def test_clustered_violations_reject(self):
        rng = np.random.default_rng(5)
        state, ind = 0, []
        for _ in range(5000):
            state = int(rng.uniform() < (0.02 if state == 0 else 0.5))
            ind.append(state)
        ind = np.array(ind, dtype=np.int8)
        v = ViolationSeries(ind, Level.quantile(0.96))
        assert independence_test(v).reject_at[0.01]

    def test_calibration_at_five_percent_rate(self):
        # iid indicators dense enough for the chi-square asymptotics: the
        # rejection rate at significance 0.05 lands in 5% +/- 2%
        rng = np.random.default_rng(42)
        rejections = 0
        for _ in range(1000):
            ind = (rng.uniform(size=10000) < 0.05).astype(np.int8)
            v = ViolationSeries(ind, Level.quantile(0.95))
            rejections += independence_test(v).p_value < 0.05
        assert 0.03 <= rejections / 1000 <= 0.07

    def test_conservative_at_one_percent_rate(self):
        # with ~100 violations in 10000 periods the 1-1 transition count is
        # near zero and the LR test is conservative; verified by simulation
        # (rejection around 2%), so only the upper bound is asserted
        rng = np.random.default_rng(42)
        rejections = 0
        for _ in range(1000):
            ind = (rng.uniform(size=10000) < 0.01).astype(np.int8)
            v = ViolationSeries(ind, Level.quantile(0.99))
            rejections += independence_test(v).p_value < 0.05
        assert rejections / 1000 <= 0.07

    @pytest.mark.parametrize("indicator", [0, 1])
    def test_one_period_is_degenerate(self, indicator):
        # one period has 0 or T violations, so the degenerate rule decides it
        v = ViolationSeries(np.array([indicator], dtype=np.int8), Level.quantile(0.9))
        res = independence_test(v)
        assert (res.method, res.statistic, res.p_value, res.notes) == (
            "independence-markov-lr", 0.0, 1.0, ("degenerate",)
        )
        assert not any(res.reject_at.values())

    def test_count_is_the_indicator_sum(self):
        ind = np.array([0, 1, 1, 0, 1], dtype=np.int8)
        assert ViolationSeries(ind, Level.quantile(0.9)).count == 3
        with pytest.raises(TypeError):
            ViolationSeries(ind, Level.quantile(0.9), 3)


class TestEsQuantileBacktest:
    def test_levels_for_99(self):
        t = 50
        rng = np.random.default_rng(0)
        losses = rng.normal(size=t)
        result = es_quantile_backtest(
            np.full(t, 3.0), [np.full(t, 2.0)] * 4, losses, 0.99
        )
        assert result.levels == pytest.approx((0.99, 0.9925, 0.995, 0.9975), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.9, 0.975, 0.99])
    def test_levels_are_the_supporting_levels(self, alpha):
        t = 10
        for k in (2, 4, 16):
            result = es_quantile_backtest(np.zeros(t), [np.zeros(t)] * k, np.zeros(t), alpha)
            assert result.levels == supporting_levels(alpha, k)

    def test_uniform_population_approximation_gap(self):
        d = DiscreteDistribution.from_sample(range(1, 101))
        approx = es_quantile_approximation(d, 0.95, points=4)
        exact = expected_shortfall(d, 0.95)
        assert approx == pytest.approx(97.25, abs=1e-12)
        assert exact == pytest.approx(98.0, abs=1e-12)
        assert approx <= exact

    def test_good_forecasts_pass_bad_forecasts_fail(self):
        rng = np.random.default_rng(31415)
        t = 2000
        losses = rng.uniform(0.0, 1.0, t)
        alpha = 0.9
        levels = [alpha + k * (1 - alpha) / 4 for k in range(4)]
        good = [np.full(t, lv) for lv in levels]  # true quantiles of U(0,1)
        es_fc = np.full(t, 0.95)
        good_result = es_quantile_backtest(es_fc, good, losses, alpha)
        assert good_result.passed
        bad = [np.full(t, lv - 0.15) for lv in levels]
        bad_result = es_quantile_backtest(es_fc, bad, losses, alpha)
        assert not bad_result.passed

    def test_reports_approximation_and_gap(self):
        t = 10
        qs = [np.full(t, v) for v in (1.0, 2.0, 3.0, 4.0)]
        result = es_quantile_backtest(np.full(t, 3.0), qs, np.zeros(t), 0.95)
        assert np.allclose(result.approximation, 2.5)
        assert result.mean_gap == pytest.approx(0.5)

    def test_top_tail_observations_surface(self):
        t = 100
        losses = np.arange(1.0, 101.0)
        qs = [np.full(t, v) for v in (95.0, 96.0, 97.0, 98.0)]
        result = es_quantile_backtest(np.full(t, 99.0), qs, losses, 0.95)
        # upper (1-alpha)/4 tail of 100 observations: top 2 losses
        assert result.top_tail_observations == (100.0, 99.0)

    def test_supporting_point_count_bounds(self):
        t = 10
        with pytest.raises(ValueError):
            es_quantile_backtest(np.zeros(t), [np.zeros(t)], np.zeros(t), 0.95)
        with pytest.raises(ValueError):
            es_quantile_backtest(np.zeros(t), [np.zeros(t)] * 17, np.zeros(t), 0.95)

    @pytest.mark.parametrize("loss", [0.0, 5.0])
    def test_one_period_takes_the_independence_test(self, loss):
        # every level's independence entry is the test itself: degenerate at T = 1
        qs = [np.array([v]) for v in (1.0, 2.0, 3.0, 4.0)]
        result = es_quantile_backtest([4.5], qs, [loss], 0.95)
        for level, qf, res in zip(result.levels, qs, result.independence):
            assert res == independence_test(violation_process(qf, [loss], level))
            assert (res.statistic, res.p_value, res.notes) == (0.0, 1.0, ("degenerate",))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            es_quantile_backtest(
                np.zeros(5), [np.zeros(4)] * 4, np.zeros(5), 0.95
            )

    @pytest.mark.parametrize("position, name", [(0, "es_forecasts"), (1, "quantile_forecasts"),
                                                (2, "realizations")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_refused(self, position, name, bad):
        # unchecked, a NaN ES forecast would give a NaN mean_gap
        args = [np.zeros(10), [np.zeros(10)] * 4, np.zeros(10)]
        series = np.zeros(10)
        series[3] = bad
        args[position] = [series] * 4 if position == 1 else series
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            es_quantile_backtest(*args, 0.95)


class TestPitTransform:
    def test_below_all_scenarios(self):
        assert pit_transform([1.0, 2.0, 3.0], 0.0, 0.7) == 0.0

    def test_above_all_scenarios(self):
        assert pit_transform([1.0, 2.0, 3.0], 9.0, 0.3) == 1.0

    def test_interior_atom_with_fixed_draw(self):
        assert pit_transform([1.0, 2.0, 3.0, 4.0], 2.0, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_between_atoms_ignores_draw(self):
        z0 = pit_transform([1.0, 2.0], 1.5, 0.0)
        z1 = pit_transform([1.0, 2.0], 1.5, 1.0)
        assert z0 == z1 == 0.5

    def test_empty_scenarios(self):
        from tailrisk import EmptyScenarioSetError

        with pytest.raises(EmptyScenarioSetError):
            pit_transform([], 1.0, 0.5)

    def test_self_draws_are_uniform(self):
        # smaller version of the acceptance check: draws from the scenario
        # distribution itself give exactly uniform randomized PIT values
        rng = np.random.default_rng(123)
        scenarios = rng.normal(size=100)
        draws = rng.choice(scenarios, size=20000, replace=True)
        series = pit_series([scenarios] * draws.size, draws, rng_seed=7)
        zs = np.sort(series.z)
        grid = np.arange(1, zs.size + 1) / zs.size
        ks = max(np.max(np.abs(grid - zs)), np.max(np.abs(grid - 1 / zs.size - zs)))
        assert ks < 0.02

    def test_series_reproducible_for_seed(self):
        rng = np.random.default_rng(9)
        scenarios = [rng.normal(size=30) for _ in range(50)]
        losses = rng.normal(size=50)
        a = pit_series(scenarios, losses, rng_seed=321)
        b = pit_series(scenarios, losses, rng_seed=321)
        assert np.array_equal(a.z, b.z)
        assert a.rng_seed == 321

    def test_series_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            pit_series([[1.0]], [1.0, 2.0], rng_seed=0)

    def test_a_nan_realization_is_refused(self):
        # unchecked, searchsorted placed NaN above every scenario: z = 1
        with pytest.raises(ValueError, match="^realizations must not be NaN$"):
            pit_series([[1.0, 2.0]], [math.nan], rng_seed=0)
        with pytest.raises(ValueError, match="^realizations must not be NaN$"):
            pit_transform([1.0, 2.0], math.nan, 0.5)
        # an infinite realization lies below or above every scenario
        series = pit_series([[1.0, 2.0]] * 2, [-math.inf, math.inf], 0, randomized=False)
        assert series.z.tolist() == [0.0, 1.0]

    SETS = [[1.0, 2.0, 3.0], [10.0, 20.0, 30.0], [100.0, 200.0, 300.0], [0.0, 0.5, 0.7]]
    LOSSES = [2.5, 5.0, 250.0, 0.6]

    def _row_by_row(self):
        return [pit_transform(s, x, 1.0) for s, x in zip(self.SETS, self.LOSSES)]

    def test_rows_of_a_2d_array_each_use_their_own_law(self):
        # each row is a fresh view; a freed row's id must not find its law
        series = pit_series(np.array(self.SETS), self.LOSSES, 7, randomized=False)
        assert series.z.tolist() == self._row_by_row()

    def test_lists_made_per_row_each_use_their_own_law(self):
        class FreshLists:
            """A sequence that builds a new list at every access."""

            def __len__(self):
                return len(TestPitTransform.SETS)

            def __getitem__(self, i):
                return [float(v) for v in TestPitTransform.SETS[i]]

        series = pit_series(FreshLists(), self.LOSSES, 7, randomized=False)
        assert series.z.tolist() == self._row_by_row()

    def test_a_shared_set_is_converted_and_sorted_once(self, monkeypatch):
        class Counted:
            """A scenario set that counts its conversions to an array."""

            def __init__(self, values):
                self.values, self.conversions = values, 0

            def __len__(self):
                return len(self.values)

            def __array__(self, dtype=None, copy=None):
                self.conversions += 1
                return np.array(self.values, dtype=dtype)

        sorted_sets, sort = [], np.sort
        monkeypatch.setattr(np, "sort", lambda a, **kw: sorted_sets.append(a.tolist()) or sort(a, **kw))
        shared, other = Counted([3.0, 1.0, 2.0]), Counted([2.0, 1.0, 3.0])
        series = pit_series([shared, other, shared, shared], [2.5, 2.5, 0.5, 3.0], 7, randomized=False)
        assert series.z.tolist() == [2 / 3, 2 / 3, 0.0, 1.0]
        assert (shared.conversions, other.conversions) == (1, 1)
        assert sorted_sets == [[3.0, 1.0, 2.0], [2.0, 1.0, 3.0]]

    # the first faulty row raises, whichever fault comes after it
    @pytest.mark.parametrize(
        "sets, error, message",
        [
            ([[1.0, math.inf], [2.0], []], ValueError, "atoms and weights must be finite"),
            ([[], [2.0], [math.nan, 1.0]], EmptyScenarioSetError, "at least one value"),
        ],
    )
    def test_the_first_faulty_row_raises(self, sets, error, message):
        sets = [sets[0], *sets, sets[-1]]  # each faulty set also on a later row
        for pit in (pit_series, oracles.pit_by_law):
            with pytest.raises(error, match=message):
                pit(sets, [1.0] * len(sets), 7)

    def test_a_bare_number_is_not_a_set(self):
        with pytest.raises(TypeError):
            pit_series([1.0, 2.0], [1.0, 2.0], 7)

    def test_a_draw_outside_the_unit_interval_is_rejected(self):
        with pytest.raises(ValueError, match="randomization draw"):
            pit_transform([1.0, 2.0], 1.5, 1.5)
        # the set is checked first
        with pytest.raises(EmptyScenarioSetError):
            pit_transform([], 1.5, 1.5)


class TestPitUniformity:
    def test_concentrated_values_reject(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.0, 0.5, 500)
        res = pit_uniformity_test(PitSeries(z, randomized=True, rng_seed=0), bins=10)
        assert res.statistic >= 500.0
        assert res.reject_at[0.01]

    def test_uniform_values_pass(self):
        rng = np.random.default_rng(13)
        z = rng.uniform(size=1000)
        res = pit_uniformity_test(PitSeries(z, randomized=True, rng_seed=0), bins=10)
        assert res.p_value > 0.01

    def test_insufficient_data(self):
        z = np.linspace(0.0, 1.0, 30)
        with pytest.raises(InsufficientDataError):
            pit_uniformity_test(PitSeries(z, randomized=False, rng_seed=None), bins=10)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            PitSeries(np.array([0.5, 1.2]), randomized=False, rng_seed=None)

    def test_nan_is_refused(self):
        # a NaN compares false against both bounds; unchecked, the uniformity
        # test would bin 99 of 100 values and the independence test fail on int(NaN)
        z = np.linspace(0.0, 1.0, 100)
        z[40] = math.nan
        with pytest.raises(ValueError, match=r"^PIT values z must lie in \[0, 1\]$"):
            PitSeries(z, randomized=False, rng_seed=None)


class TestPitIndependence:
    def test_alternating_rejects_at_lag_one(self):
        z = np.tile([0.1, 0.9], 250)
        res = pit_independence_test(
            PitSeries(z, randomized=False, rng_seed=None), max_lag=1, powers=(1,)
        )
        assert res.reject_at[0.01]

    @pytest.mark.parametrize("powers", [(-1,), (0, 1), (0.5,), (2.0,), ("2",)])
    def test_a_power_that_is_not_a_positive_integer_is_refused(self, powers):
        # unchecked, power -1 on a z holding 0.0 failed with "cannot convert float NaN to integer"
        z = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError, match="^power must be an integer of at least 1, got "):
            pit_independence_test(PitSeries(z, randomized=False, rng_seed=None), powers=powers)

    def test_a_repeated_power_is_refused(self):
        # unchecked, (1, 1) counted one test twice in the Bonferroni factor
        z = np.random.default_rng(3).uniform(size=100)
        with pytest.raises(ValueError, match=r"^powers must not repeat, got \[1, 1\]$"):
            pit_independence_test(PitSeries(z, randomized=True, rng_seed=0), powers=(1, 1))

    def test_iid_uniforms_pass(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(size=1000)
        res = pit_independence_test(PitSeries(z, randomized=True, rng_seed=0))
        assert res.p_value > 0.01

    def test_constant_series_degenerate(self):
        z = np.full(100, 0.4)
        res = pit_independence_test(PitSeries(z, randomized=False, rng_seed=None))
        assert res.p_value == 1.0
        assert "degenerate" in res.notes

    def test_spread_that_squares_to_zero_is_degenerate(self):
        # the range is positive, but the centered sum of squares underflows
        z = np.array([1e-200] + [0.0] * 99)
        res = pit_independence_test(PitSeries(z, randomized=False, rng_seed=None))
        assert res.p_value == 1.0
        assert "degenerate" in res.notes

    def test_needs_enough_data(self):
        z = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InsufficientDataError):
            pit_independence_test(PitSeries(z, randomized=False, rng_seed=None), max_lag=5)


class TestExpectileComonotoneSearch:
    def test_finds_counterexample_at_08(self):
        found = find_expectile_comonotone_counterexample(0.8)
        assert abs(found.gap) > 1e-6
        # the reported gap must reproduce from the returned pair
        law1, law2, law_sum = comonotone_sum(found.pair)
        gap = expectile(law_sum, 0.8) - expectile(law1, 0.8) - expectile(law2, 0.8)
        assert gap == pytest.approx(found.gap, abs=1e-14)

    def test_equal_weight_grid_contains_documented_shape(self):
        # denominator 3 forces equal weights on the three factor atoms; the
        # split maps (0,1,1) / (0,0,1) family yields a violation there
        found = find_expectile_comonotone_counterexample(0.8, weight_denominator=3)
        assert np.allclose(found.pair.factor.weights, [1 / 3, 1 / 3, 1 / 3])
        assert abs(found.gap) > 1e-6

    def test_linear_maps_are_additive(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            factor = DiscreteDistribution.from_sample(rng.normal(0, 2, 5))
            k = factor.atoms.size
            f1 = np.sort(rng.normal(0, 2, k))
            a, b = float(rng.uniform(0.1, 3.0)), float(rng.normal(0, 2))
            from tailrisk import ComonotonePair

            pair = ComonotonePair(factor, f1, a * f1 + b)
            law1, law2, law_sum = comonotone_sum(pair)
            for t in (0.6, 0.8, 0.95):
                gap = expectile(law_sum, t) - expectile(law1, t) - expectile(law2, t)
                assert abs(gap) <= 1e-10

    def test_tau_must_exceed_half(self):
        with pytest.raises(ValueError):
            find_expectile_comonotone_counterexample(0.5)
        with pytest.raises(ValueError):
            find_expectile_comonotone_counterexample(0.3)

    def test_not_found_on_hopeless_grid(self):
        # a single-atom factor admits only point masses: always additive
        with pytest.raises(CounterexampleNotFoundError):
            find_expectile_comonotone_counterexample(
                0.8, factor_atoms=(0.0,), map_values=(0.0, 1.0), weight_denominator=2
            )

    # below 2 the search would divide by zero or search only point masses
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("denominator", [0, -3])
    def test_weight_denominator_below_two_is_rejected(self, denominator):
        want = f"weight_denominator must be an integer of at least 2, got {denominator!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            find_expectile_comonotone_counterexample(
                0.8, factor_atoms=(0.0,), map_values=(0.0, 1.0), weight_denominator=denominator
            )

    # one that is not an integer would otherwise fail inside range()
    @pytest.mark.parametrize("denominator", [2.5, 8.0, "8", np.float64(8.0), None])
    def test_weight_denominator_must_be_an_integer(self, denominator):
        want = f"weight_denominator must be an integer of at least 2, got {denominator!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            find_expectile_comonotone_counterexample(0.8, weight_denominator=denominator)

    def test_weight_denominator_takes_a_numpy_integer(self):
        found = find_expectile_comonotone_counterexample(0.8, weight_denominator=np.int64(3))
        want = find_expectile_comonotone_counterexample(0.8, weight_denominator=3)
        assert found.pair.factor.weights.tobytes() == want.pair.factor.weights.tobytes()
        assert found.gap == want.gap

    @pytest.mark.parametrize("denominator", [3, 5, 8, 12])
    @pytest.mark.parametrize("tau", [0.51, 0.6, 0.8, 0.9, 0.99, 0.9999, 0.999999999])
    def test_matches_the_pair_by_pair_search_bit_for_bit(self, tau, denominator):
        try:
            pair, sum_value, part_values, gap = oracles.comonotone_search_by_pairs(
                tau, weight_denominator=denominator
            )
        except CounterexampleNotFoundError as exc:
            with pytest.raises(CounterexampleNotFoundError, match=re.escape(str(exc))):
                find_expectile_comonotone_counterexample(tau, weight_denominator=denominator)
            return
        found = find_expectile_comonotone_counterexample(tau, weight_denominator=denominator)
        for got, want in [
            (found.pair.factor.atoms, pair.factor.atoms),
            (found.pair.factor.weights, pair.factor.weights),
            (found.pair.f1, pair.f1),
            (found.pair.f2, pair.f2),
            ((found.sum_value, *found.part_values, found.gap), (sum_value, *part_values, gap)),
        ]:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("tau", [0.6, 0.8, 0.95])
    def test_counterexample_is_its_exact_rationals_to_rounding(self, tau):
        # The default grid's atoms are integers to 4 and its weights multiples of
        # 1/8, so every running sum an expectile reads is exact, and 1 - tau is
        # exact for tau >= 1/2. What rounds is a product by tau or 1 - tau and a
        # sum, in numerator and denominator, and their quotient: each expectile
        # is within (1 + u)^3 / (1 - u)^2 - 1 < 5.0001 u of its exact value, u =
        # 2^-53. The gap adds one rounding for e1 + e2 and one for the
        # difference, on values that are all positive: 7.01 u (s + e1 + e2).
        u = 2.0**-53
        found = find_expectile_comonotone_counterexample(tau)
        laws = comonotone_sum(found.pair)
        assert all(
            np.array_equal(law.atoms, np.round(law.atoms)) and law.atoms.max() <= 4
            and np.array_equal(law.weights * 8, np.round(law.weights * 8)) for law in laws
        )
        e1, e2, s = (oracles.expectile_exact(law.atoms, law.weights, tau) for law in laws)
        for got, want in zip((*found.part_values, found.sum_value), (e1, e2, s)):
            assert abs(got - want) <= 5.0001 * u * want
        gap = s - (e1 + e2)
        assert gap < 0 and abs(found.gap - gap) <= 7.01 * u * (s + e1 + e2)
        if tau == 0.8:
            assert float(gap) == -0.0039787798408488055

    def test_measures_each_distinct_law_once_per_factor(self, monkeypatch):
        # the default maps and their sums are the 35 nondecreasing maps of three
        # atoms to 0..4, and d = 8 cuts C(7, 2) = 21 factors; measuring three laws
        # per pair would take 21 * 100 * 3 = 6,300 expectiles
        from tailrisk import backtest

        calls = []

        def spy(law, t):
            calls.append(t)
            return expectile(law, t)

        monkeypatch.setattr(backtest, "expectile", spy)
        with pytest.raises(CounterexampleNotFoundError):
            find_expectile_comonotone_counterexample(0.999999999, weight_denominator=8)
        assert len(calls) <= 21 * 35

    # a bad map or factor fails as the pair-by-pair search fails, on its first pair
    @pytest.mark.parametrize(
        "grid",
        [
            {"map_values": (0.0, math.nan, 2.0)},
            {"map_values": (0.0, math.inf)},
            {"map_values": (0.0, 1e308, 1.7e308)},
            {"factor_atoms": (0.0, 1.0, 1.0)},
            {"factor_atoms": (0.0, math.nan, 2.0)},
            {"factor_atoms": ()},
        ],
        ids=["nan-map", "inf-map", "overflowing-sum", "repeated-atom", "nan-atom", "no-atoms"],
    )
    def test_a_bad_grid_raises_as_the_pair_by_pair_search_does(self, grid):
        with pytest.raises(Exception) as want:
            oracles.comonotone_search_by_pairs(0.8, **grid)
        with pytest.raises(Exception) as got:
            find_expectile_comonotone_counterexample(0.8, **grid)
        assert type(got.value) is want.type


class TestVarSuperadditivitySearch:
    def test_default_grid_succeeds(self):
        found = find_var_superadditivity_example(0.95)
        assert found.gap > 0.0
        assert found.portfolio_var > sum(found.position_vars)

    def test_reproduces_iid_two_point_example(self):
        found = find_var_superadditivity_example(0.95, tail_probabilities=(0.04,))
        assert found.position_vars == (0.0, 0.0)
        assert found.portfolio_var == 10.0
        # joint law: P(0)=0.9216, P(10)=0.0768, P(20)=0.0016
        law = found.panel.portfolio_law()
        assert np.array_equal(law.atoms, [0.0, 10.0, 20.0])
        assert np.allclose(law.weights, [0.9216, 0.0768, 0.0016], atol=1e-12)

    def test_es_never_superadditive_on_searched_grid(self):
        for p1, p2 in itertools.product((0.01, 0.02, 0.04, 0.05, 0.08), repeat=2):
            rows = np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 0.0], [10.0, 10.0]])
            w = np.array([(1 - p1) * (1 - p2), (1 - p1) * p2, p1 * (1 - p2), p1 * p2])
            from tailrisk import LossPanel

            panel = LossPanel.from_rows(rows, weights=w)
            es_sum = expected_shortfall(panel.portfolio_law(), 0.95)
            es_1 = expected_shortfall(panel.column_law(0), 0.95)
            es_2 = expected_shortfall(panel.column_law(1), 0.95)
            assert es_sum <= es_1 + es_2 + 1e-10

    def test_comonotone_grids_never_superadditive(self):
        # VaR is comonotonically additive, so no comonotone pair can show up
        rng = np.random.default_rng(23)
        for _ in range(50):
            factor = DiscreteDistribution.from_sample(rng.normal(0, 1, 4))
            k = factor.atoms.size
            from tailrisk import ComonotonePair

            f1 = np.sort(rng.integers(0, 5, k)).astype(float)
            f2 = np.sort(rng.integers(0, 5, k)).astype(float)
            law1, law2, law_sum = comonotone_sum(ComonotonePair(factor, f1, f2))
            for a in (0.3, 0.8, 0.95):
                gap = value_at_risk(law_sum, a) - value_at_risk(law1, a) - value_at_risk(law2, a)
                assert abs(gap) <= 1e-10

    def test_not_found_for_low_alpha(self):
        # at alpha=0.5 every searched marginal already has VaR at the loss atom
        with pytest.raises(CounterexampleNotFoundError):
            find_var_superadditivity_example(0.5, tail_probabilities=(0.6, 0.7))


def test_enumerate_joint_panels_counts():
    # compositions of D into 9 nonnegative cells: C(D+8, 8)
    panels = list(enumerate_joint_panels((0, 1, 2), (0, 1, 2), 2))
    assert len(panels) == 45
    for p in panels:
        assert abs(p.weights.sum() - 1.0) < 1e-12


def test_enumerate_joint_panels_takes_integer_denominators():
    assert len(list(enumerate_joint_panels((0, 1, 2), (0, 1, 2), np.int64(2)))) == 45
    # a single grid point: one law for any denominator
    assert [p.weights.tolist() for p in enumerate_joint_panels((1.0,), (2.0,), 3)] == [[1.0]]


@pytest.mark.parametrize("denominator", [0, -1, 2.5, 2.0, "2", None])
def test_enumerate_joint_panels_rejects_a_bad_denominator(denominator):
    # raised by the call itself, before any panel is asked for
    want = f"weight_denominator must be an integer of at least 1, got {denominator!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        enumerate_joint_panels((0, 1, 2), (0, 1, 2), denominator)


# each integer argument, its range, and a call that takes it: one check names it
INTEGER_ARGUMENTS = [
    ("bins", "of at least 2", lambda n: pit_uniformity_test(
        PitSeries(np.linspace(0.0, 1.0, 40), randomized=False, rng_seed=None), bins=n)),
    ("max_lag", "of at least 1", lambda n: pit_independence_test(
        PitSeries(np.linspace(0.0, 1.0, 40) ** 2, randomized=False, rng_seed=None), max_lag=n)),
    ("points", "from 2 to 16", lambda n: supporting_levels(0.9, n)),
    ("points", "from 2 to 16", lambda n: es_quantile_approximation(
        DiscreteDistribution.from_sample(range(1, 101)), 0.9, n)),
    ("weight_denominator", "of at least 2", lambda n: find_expectile_comonotone_counterexample(
        0.8, weight_denominator=n).gap),
]
INTEGER_IDS = ["bins", "max_lag", "supporting_levels", "es_quantile_approximation", "weight_denominator"]


@pytest.mark.parametrize("value", [2.5, 4.0, None, "4"])
@pytest.mark.parametrize("name, span, call", INTEGER_ARGUMENTS, ids=INTEGER_IDS)
def test_an_integer_argument_refuses_any_other_value(name, span, call, value):
    with pytest.raises(ValueError) as caught:
        call(value)
    assert str(caught.value) == f"{name} must be an integer {span}, got {value!r}"


@pytest.mark.parametrize("name, span, call", INTEGER_ARGUMENTS, ids=INTEGER_IDS)
def test_an_integer_argument_takes_a_numpy_integer(name, span, call):
    assert call(np.int64(4)) == call(4)


@pytest.mark.parametrize("atoms_a, atoms_b", [((), (0, 1)), ((0, 1), ()), ((), ())])
def test_enumerate_joint_panels_rejects_an_empty_grid(atoms_a, atoms_b):
    want = f"the atom grid is empty: {len(atoms_a)} x {len(atoms_b)} atoms"
    with pytest.raises(ValueError, match=re.escape(want)):
        enumerate_joint_panels(atoms_a, atoms_b, 2)


@pytest.mark.parametrize("total, parts", [(0, 1), (4, 1), (0, 3), (5, 3), (2, 9), (3, 4)])
def test_compositions_list_every_split_once_in_order(total, parts):
    from tailrisk.backtest import _compositions

    got = [tuple(counts.tolist()) for counts in _compositions(total, parts)]
    want = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
    assert got == want  # product order is lexicographic


def test_positive_splits_are_shifted_compositions():
    # the expectile search's factor weights: every split of 8 into 3 positive parts
    from tailrisk.backtest import _compositions

    got = [tuple((counts + 1).tolist()) for counts in _compositions(8 - 3, 3)]
    want = [c for c in itertools.product(range(1, 9), repeat=3) if sum(c) == 8]
    assert got == want


# The tails behind the four tests, against exact sums (stdlib integers and
# decimals) and against scipy. Each tolerance is relative, applies where the
# reference is at least 1e-300, and sits above the largest error measured.
# Against the exact sums: 2.5e-13 for the binomial, over 9000 random (k, n, p)
# with n <= 400 and 568 with n <= 2000; 3.2e-13 for chi-square, over 2800
# random (x, df) with df <= 10^4. Against scipy on the grids below: 3.7e-13
# for the binomial and 5.9e-13 for chi-square, where scipy's own error
# against the exact chi-square sum reaches 6.1e-13.
EXACT_BINOMIAL_REL = 4e-13
EXACT_CHI2_REL = 5e-13
SCIPY_REL = 1e-12


def assert_tail(got, want, rel):
    """``got`` within ``rel`` of ``want``; below 1e-300, where doubles run out
    of digits, only as small."""
    if want >= 1e-300:
        assert abs(got - want) <= rel * want, (got, want)
    else:
        assert 0.0 <= got < 1e-299, (got, want)


def binomial_grid(ns, ps, z_scores):
    """(k, n, p) at k = n p + z sd, clipped to [0, n], with k = 0 and k = n."""
    cases = set()
    for n, p in itertools.product(ns, ps):
        sd = math.sqrt(n * p * (1.0 - p))
        cases |= {(min(n, max(0, round(n * p + z * sd))), n, p) for z in z_scores}
        cases |= {(0, n, p), (n, n, p)}
    return sorted(cases)


Z_SCORES = (-37, -30, -20, -10, -3, -1, 0, 1, 3, 10, 20, 30, 37)
CHI2_DFS = (1, 2, 3, 4, 5, 9, 10, 99, 100, 999, 1000, 9999, 10000)


def chi2_points(df):
    return (1e-3, 0.5, 1.0, df / 2, df, 2 * df, df + 10 * math.sqrt(2 * df),
            1499.0, 1501.0, 1600.0, 3000.0, 1e4, 1.2e4, 1e5)


class TestTails:
    @pytest.mark.parametrize("k, n, p", binomial_grid(
        (1, 2, 7, 100, 2000), (0.5, 0.3, 0.01, 0.975, 1e-4), (-30, -10, -1, 0, 1, 10, 30)
    ))
    def test_binomial_tails_match_exact_sums(self, k, n, p):
        for got, want in zip(_binomial_tails(k, n, p), oracles.binomial_tails_exact(k, n, p)):
            assert_tail(got, want, EXACT_BINOMIAL_REL)

    @pytest.mark.parametrize("n, p", itertools.product((5000, 20000), (0.5, 0.1, 0.05, 0.025, 0.01)))
    def test_binomial_tails_match_scipy(self, n, p):
        for k, _, _ in binomial_grid((n,), (p,), Z_SCORES):
            lower, upper = _binomial_tails(k, n, p)
            assert_tail(lower, stats.binom.cdf(k, n, p), SCIPY_REL)
            assert_tail(upper, stats.binom.sf(k - 1, n, p), SCIPY_REL)

    def test_binomial_tail_past_an_underflowing_pmf(self):
        # pmf(3868) is below the smallest double; the near side is still 1
        k, n, p = 3868, 5000, 0.5
        assert stats.binom.pmf(k, n, p) == 0.0
        assert _binomial_tails(k, n, p) == (1.0, 0.0)
        assert stats.binom.cdf(k, n, p) == 1.0
        assert _binomial_tails(n - k, n, p) == (0.0, 1.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        n=st.integers(1, 400),
        u=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_binomial_tails_property(self, n, u, p):
        k = min(n, int(u * (n + 1)))
        lower, upper = _binomial_tails(k, n, p)
        for got, want in zip((lower, upper), oracles.binomial_tails_exact(k, n, p)):
            assert_tail(got, want, EXACT_BINOMIAL_REL)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0

    @pytest.mark.parametrize("df", CHI2_DFS)
    def test_chi2_sf_matches_scipy(self, df):
        for x in chi2_points(df):
            assert_tail(_chi2_sf(x, df), stats.chi2.sf(x, df), SCIPY_REL)

    @pytest.mark.parametrize("df", (1, 2, 3, 7, 100, 101, 1543, 4616, 6548, 9999, 10000))
    def test_chi2_sf_matches_exact_sums(self, df):
        # the deep tails at large df are where scipy's own error passes 1e-12
        # (7.3e-12 at df 6548, x 10862.5)
        for x in (*chi2_points(df), 1.5 * df, 1.66 * df, 10862.5):
            assert_tail(_chi2_sf(x, df), oracles.chi2_sf_decimal(x, df), EXACT_CHI2_REL)

    def test_chi2_sf_at_and_below_zero_is_one(self):
        assert _chi2_sf(0.0, 1) == _chi2_sf(-1.0, 4) == 1.0
