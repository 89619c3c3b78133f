"""Tests for scoring functions, empirical elicitation, the two-step
expected-shortfall forecast, and forecast comparison."""

import numpy as np
import pytest

from tailrisk import (
    DiscreteDistribution,
    EmptySampleError,
    Level,
    ScoringFunction,
    ShapeMismatchError,
    Winner,
    compare_forecasts,
    elicit,
    expected_shortfall,
    expectile,
    mean_score,
    score,
    two_step_es_forecast,
)

import oracles


class TestScoreValues:
    def test_pinball_example(self):
        s = ScoringFunction.weighted_absolute_error(0.95)
        assert score(s, 2.0, 1.0) == pytest.approx(0.05, abs=1e-15)

    def test_squared_zero_at_match(self):
        assert score(ScoringFunction.squared_error(), 1.7, 1.7) == 0.0

    def test_weighted_squared_example(self):
        s = ScoringFunction.weighted_squared_error(0.8)
        # (1{x>=y} - tau) * (x-y)^2 * sgn(x-y) at x=0, y=1
        assert score(s, 0.0, 1.0) == pytest.approx(0.8, abs=1e-15)

    def test_tail_mean_zero_at_match_and_below_cutoff(self):
        s = ScoringFunction.tail_mean(1.0)
        assert score(s, 2.0, 2.0) == 0.0
        assert score(s, 0.5, 9.0) == 0.0  # forecast below the cutoff scores zero

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(83)
        functions = [
            ScoringFunction.squared_error(),
            ScoringFunction.absolute_error(),
            ScoringFunction.weighted_absolute_error(0.3),
            ScoringFunction.weighted_squared_error(0.7),
            ScoringFunction.tail_mean(-0.5),
        ]
        xs = rng.normal(0, 3, 200)
        ys = rng.normal(0, 3, 200)
        for s in functions:
            values = score(s, xs, ys)
            assert np.all(np.asarray(values) >= -1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoringFunction.weighted_absolute_error(1.2)
        with pytest.raises(ValueError):
            ScoringFunction(ScoringFunction.squared_error().kind, level=0.5)
        with pytest.raises(ValueError):
            ScoringFunction.tail_mean(float("nan"))

    @pytest.mark.parametrize(
        "name, level, threshold, want",
        [
            ("squared-error", 0.9, 1.0, ScoringFunction.squared_error()),
            ("absolute-error", None, None, ScoringFunction.absolute_error()),
            ("weighted-absolute-error", 0.95, 1.0, ScoringFunction.weighted_absolute_error(0.95)),
            ("weighted-squared-error", 0.9, None, ScoringFunction.weighted_squared_error(0.9)),
            ("tail-mean", 0.9, -0.25, ScoringFunction.tail_mean(-0.25)),
        ],
    )
    def test_named_takes_the_parameter_of_its_kind(self, name, level, threshold, want):
        assert ScoringFunction.named(name, level, threshold) == want

    @pytest.mark.parametrize(
        "name, level, threshold, message",
        [
            ("weighted-squared-error", None, 1.0, "weighted-squared-error requires a level"),
            ("weighted-absolute-error", 1.2, None, "level must lie strictly inside (0, 1), got 1.2"),
            ("tail-mean", 0.9, None, "tail-mean requires a threshold"),
            ("tail-mean", None, float("inf"), "tail-mean requires a finite threshold"),
        ],
    )
    def test_named_rejects(self, name, level, threshold, message):
        with pytest.raises(ValueError) as caught:
            ScoringFunction.named(name, level, threshold)
        assert str(caught.value) == message


class TestElicit:
    def test_squared_recovers_sample_mean(self):
        assert elicit(ScoringFunction.squared_error(), [1, 2, 3]) == pytest.approx(2.0)

    def test_pinball_on_1_to_100(self):
        s = ScoringFunction.weighted_absolute_error(0.95)
        # minimizer set is [95, 96]; the smallest minimizer is returned
        assert elicit(s, list(range(1, 101))) == 95.0

    def test_weighted_squared_on_bernoulli_sample(self):
        s = ScoringFunction.weighted_squared_error(0.8)
        assert elicit(s, [0.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_absolute_even_tie_takes_lower_middle(self):
        assert elicit(ScoringFunction.absolute_error(), [1, 2, 3, 4]) == 2.0

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            elicit(ScoringFunction.squared_error(), [])

    def test_squared_agrees_with_mean_on_random_samples(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            sample = rng.normal(2, 3, int(rng.integers(1, 60)))
            assert elicit(ScoringFunction.squared_error(), sample) == pytest.approx(
                float(np.mean(sample)), abs=1e-9
            )

    def test_absolute_agrees_with_lower_median(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            n = int(rng.integers(1, 30)) * 2 + 1  # odd sizes: unique median
            sample = rng.normal(0, 5, n)
            got = elicit(ScoringFunction.absolute_error(), sample)
            assert got == pytest.approx(oracles.pinball_quantile(sample, 0.5), abs=1e-9)

    def test_pinball_agrees_with_inf_quantile(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(3, 80))
            sample = rng.normal(0, 2, n)
            alpha = float(rng.uniform(0.05, 0.95))
            if abs(alpha * n - round(alpha * n)) < 1e-9:
                alpha += 0.013  # keep the empirical minimizer unique
            got = elicit(ScoringFunction.weighted_absolute_error(alpha), sample)
            assert got == pytest.approx(oracles.pinball_quantile(sample, alpha), abs=1e-9)

    def test_weighted_squared_agrees_with_expectile(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            sample = rng.normal(1, 4, int(rng.integers(2, 50)))
            tau = float(rng.uniform(0.1, 0.9))
            got = elicit(ScoringFunction.weighted_squared_error(tau), sample)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(sample))))
            assert abs(oracles.expectile_residual(sample, tau, got)) <= bound

    def test_tail_mean_recovers_clipped_mean(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            sample = rng.normal(0, 2, 40)
            c = float(rng.normal(-1, 1))
            got = elicit(ScoringFunction.tail_mean(c), sample)
            assert got == pytest.approx(max(c, float(np.mean(sample))), abs=1e-7)

    def test_mean_score_matches_the_scan_minimum(self):
        rng = np.random.default_rng(127)
        for _ in range(40):
            sample = np.round(rng.standard_t(4, int(rng.integers(1, 60))), 3)
            level = float(rng.uniform(0.05, 0.95))
            functions = [
                ScoringFunction.squared_error(),
                ScoringFunction.absolute_error(),
                ScoringFunction.weighted_absolute_error(level),
                ScoringFunction.weighted_squared_error(level),
                ScoringFunction.tail_mean(float(rng.normal(0, 1))),
            ]
            for s in functions:
                want = mean_score(s, oracles.elicit_by_scan(s, sample), sample)
                got = mean_score(s, elicit(s, sample), sample)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), s

    @pytest.mark.parametrize(
        "s, alpha",
        [(ScoringFunction.weighted_absolute_error(0.99), 0.99), (ScoringFunction.absolute_error(), 0.5)],
        ids=["pinball-0.99", "absolute"],
    )
    def test_flat_minimum_returns_the_order_statistic(self, s, alpha):
        # alpha * n is whole, so the mean score is flat between two order
        # statistics; the inf-quantile convention takes the lower one
        mismatches = []
        for seed in range(300):
            sample = np.round(np.random.default_rng(seed).standard_t(4, 500), 6)
            if elicit(s, sample) != oracles.order_statistic(sample, alpha):
                mismatches.append(seed)
        assert mismatches == []

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError):
            elicit(ScoringFunction.squared_error(), [1.0, float("nan")])


class TestPopulationConsistency:
    """Grid-search the population mean score on small enumerated laws and
    compare the minimizer with the directly computed functional."""

    def enumerated_laws(self):
        atoms = (-1.0, 0.5, 2.0)
        for w1 in range(1, 7):
            for w2 in range(1, 7 - w1):
                w3 = 8 - w1 - w2
                if w3 < 1:
                    continue
                yield DiscreteDistribution(atoms, np.array([w1, w2, w3]) / 8.0)

    def test_squared_elicits_mean(self):
        grid = np.linspace(-2.0, 3.0, 2001)
        for law in self.enumerated_laws():
            best = oracles.population_minimizer_on_grid(
                lambda x, y: (x - y) ** 2, law.atoms, law.weights, grid
            )
            want = float(np.dot(law.atoms, law.weights))
            assert abs(best - want) <= 0.005

    def test_pinball_elicits_inf_quantile(self):
        grid = np.linspace(-2.0, 3.0, 2001)
        for law in self.enumerated_laws():
            for alpha in (0.3, 0.66):
                best = oracles.population_minimizer_on_grid(
                    lambda x, y: ((x >= y) - alpha) * (x - y), law.atoms, law.weights, grid
                )
                want = oracles.quantile_by_scan(law.atoms, law.weights, alpha)
                # alpha never hits a cumulative-weight breakpoint of these
                # laws, so the population minimizer is the unique quantile
                assert abs(best - want) <= 0.005

    def test_weighted_squared_elicits_expectile(self):
        grid = np.linspace(-2.0, 3.0, 2001)

        def ws(x, y, tau):
            return ((x >= y) - tau) * (x - y) ** 2 * np.sign(x - y)

        for law in self.enumerated_laws():
            for tau in (0.25, 0.8):
                best = oracles.population_minimizer_on_grid(
                    lambda x, y: ws(x, y, tau), law.atoms, law.weights, grid
                )
                want = expectile(law, tau)
                assert abs(best - want) <= 0.005


class TestTwoStepForecast:
    def test_uniform_example(self):
        q, es = two_step_es_forecast(list(range(1, 101)), 0.95)
        assert q == 95.0
        assert es == pytest.approx(97.5, abs=1e-12)

    def test_point_mass(self):
        q, es = two_step_es_forecast([4.0] * 10, 0.9)
        assert (q, es) == (4.0, 4.0)

    def test_outlier_pushes_tail_mean_above_quantile(self):
        sample = list(range(1, 50)) + [500.0]
        q, es = two_step_es_forecast(sample, 0.9)
        assert es > q

    def test_tail_mean_vs_exact_es_discontinuity_identity(self):
        # the tail mean omits exactly the discontinuity correction
        rng = np.random.default_rng(109)
        for _ in range(100):
            sample = rng.normal(0, 5, int(rng.integers(5, 80)))
            alpha = float(rng.uniform(0.3, 0.95))
            q, es_hat = two_step_es_forecast(sample, alpha)
            law = DiscreteDistribution.from_sample(sample)
            exact = expected_shortfall(law, alpha)
            p_tail = 1.0 - law.cdf_left(q)
            correction = (es_hat - q) * (p_tail / (1.0 - alpha) - 1.0)
            assert exact - es_hat == pytest.approx(correction, abs=1e-10)

    def test_rejects_expectile_level(self):
        with pytest.raises(ValueError):
            two_step_es_forecast([1.0, 2.0], Level.expectile(0.9))


class TestCompareForecasts:
    def test_zero_score_wins(self):
        ys = [1.0, 2.0, 3.0]
        ma, mb, winner = compare_forecasts(
            ScoringFunction.squared_error(), ys, [2.0, 3.0, 4.0], ys
        )
        assert ma == 0.0 and mb == 1.0 and winner is Winner.A

    def test_identical_series_tie(self):
        ys = [1.0, 2.0]
        _, _, winner = compare_forecasts(ScoringFunction.absolute_error(), ys, ys, [0.0, 5.0])
        assert winner is Winner.NEITHER

    def test_true_quantile_beats_shifted_quantile(self):
        rng = np.random.default_rng(113)
        t = 10000
        losses = rng.normal(0, 1, t)
        from scipy.stats import norm

        q = norm.ppf(0.95)
        s = ScoringFunction.weighted_absolute_error(0.95)
        ma, mb, winner = compare_forecasts(s, np.full(t, q), np.full(t, q + 0.4), losses)
        assert winner is Winner.A
        assert ma < mb

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compare_forecasts(ScoringFunction.squared_error(), [1.0], [1.0, 2.0], [1.0])


def test_mean_score_matches_manual_average():
    s = ScoringFunction.absolute_error()
    assert mean_score(s, 1.0, [0.0, 2.0, 4.0]) == pytest.approx((1 + 1 + 3) / 3)
