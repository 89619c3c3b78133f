"""Monte Carlo size and power of the supporting-quantile ES backtest and of
the PIT tests.

The paper backtests expected shortfall at level alpha through the VaR
violations of K supporting quantiles at alpha + k(1 - alpha)/K, each tested
for coverage at significance/K (Bonferroni). Two settings are run, each
replication with its own generator: unit-variance t(3) losses with T = 1000
periods, alpha = 0.975 and R = 300 replications; and standard normal losses
with T = 250, alpha = 0.95 and R = 400, whose VaR-matched normal forecast is
then tried against t(3) losses at T = 250 and 1000. Every bound is derived
before the run from exact binomial probabilities (scipy) and R:

- size: correct forecasts are rejected at most at the sum of the exact
  per-level sizes (Bonferroni's union bound), plus 4 binomial standard errors;
- power: a normal forecast scaled so that its VaR at alpha is right is
  rejected at least as often as the likeliest single level rejects it, less
  4 standard errors, while the single VaR test at alpha stays within 4
  standard errors of its exact size.

The independence tests do not enter ``passed``; their rejection rates are
reported in the messages only. Kratz, Lok & McNeil's (2018) multinomial test
is not measured here.

The PIT tests run on T = 500 periods and R = 400 replications against one
forecast, a standard normal law discretized to the S = 1000 scenarios
Phi^-1((i + 1/2)/S), at significance 0.05:

- size: realizations drawn from the scenarios themselves have randomized PIT
  values that are exactly iid uniform. The uniformity test (Pearson, 10 bins)
  must reject within 4 standard errors of 0.05, and the independence test
  (Ljung-Box at 5 lags on z, z^2 and z^3, Bonferroni-combined) at most at
  0.05 plus 4 standard errors. Both bounds take the chi-square laws the
  p-values use as exact: with 50 expected values per bin and T = 500 the
  approximations err by far less than 4 standard errors (0.044).
- power under a wrong law, N(0, 1.4^2) realizations: Pearson's statistic is
  at least any one bin's term (n_k - 50)^2/50, so the uniformity test rejects
  at least as often as that bin's count leaves [21, 79], an exact binomial
  probability of the bin's exact mass under the wrong law, less 4 standard
  errors. The PIT values stay iid, so the independence test keeps its size.
- power under AR(1)-clustered realizations with phi = 0.2 and N(0, 1)
  margins: the test rejects at least when z alone does. Its Ljung-Box
  statistic is taken as noncentral chi-square(5) with noncentrality
  T * sum(rho_k^2), rho_k = (6/pi) asin(phi^k/2) the rank autocorrelation of
  a Gaussian AR(1) at lag k; that rejection probability at 0.05/3, less 4
  standard errors, bounds the rate. This bound rests on that approximation.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tailrisk import (
    es_quantile_backtest,
    pit_independence_test,
    pit_series,
    pit_uniformity_test,
    supporting_levels,
    unconditional_coverage_test,
    violation_process,
)

ALPHA, T, R, SIGNIFICANCE, SE_MULTIPLE = 0.975, 1000, 300, 0.05, 4
SCALE = math.sqrt(3.0)  # the standard deviation of t(3)
# the normal setting: alpha, periods and replications
NORMAL_ALPHA, NORMAL_T, NORMAL_R = 0.95, 250, 400


def t3_losses(rep, t=T):
    """The unit-variance t(3) losses of replication ``rep``, from its own generator."""
    return np.random.default_rng([2028, rep]).standard_t(3, t) / SCALE


def normal_losses(rep, t=NORMAL_T):
    """The standard normal losses of replication ``rep``, from its own generator."""
    return np.random.default_rng([2030, rep]).standard_normal(t)


def rejection_probability(rate, cutoff, violation_probability, t=T):
    """P(p-value < cutoff) of the exact two-sided coverage test of violation
    rate ``rate`` over ``t`` periods, when the count is Binomial(t, violation_probability)."""
    k = np.arange(t + 1)
    tails = np.minimum(stats.binom.cdf(k, t, rate), stats.binom.sf(k - 1, t, rate))
    rejected = np.minimum(1.0, 2.0 * tails) < cutoff
    return float(stats.binom.pmf(k[rejected], t, violation_probability).sum())


def standard_error(p, r=R):
    return math.sqrt(p * (1.0 - p) / r)


def run_backtests(quantiles, losses=t3_losses, alpha=ALPHA, r=R):
    """The share of ``r`` replications whose backtest fails, and each level's
    share of independence rejections, for constant quantile forecasts."""
    failed, dependent = 0, np.zeros(len(quantiles))
    for rep in range(r):
        realized = losses(rep)
        series = [np.full(realized.size, q) for q in quantiles]
        result = es_quantile_backtest(
            np.mean(series, axis=0), series, realized, alpha, SIGNIFICANCE
        )
        failed += not result.passed
        dependent += [test.p_value < SIGNIFICANCE for test in result.independence]
    return failed / r, dependent / r


def var_matched_normal(alpha, k):
    """The supporting levels and quantiles of the normal forecast whose VaR at
    ``alpha`` is that of unit-variance t(3), and each quantile's true violation
    probability under t(3) losses."""
    levels = supporting_levels(alpha, k)
    sigma = stats.t.ppf(alpha, 3) / SCALE / stats.norm.ppf(alpha)
    quantiles = [sigma * stats.norm.ppf(u) for u in levels]
    return levels, quantiles, [stats.t.sf(q * SCALE, 3) for q in quantiles]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_correct_forecasts_are_rejected_within_the_bonferroni_size(k):
    levels = supporting_levels(ALPHA, k)
    size = sum(rejection_probability(1.0 - u, SIGNIFICANCE / k, 1.0 - u) for u in levels)
    bound = size + SE_MULTIPLE * standard_error(size)
    rate, dependent = run_backtests([stats.t.ppf(u, 3) / SCALE for u in levels])
    assert rate <= bound, f"K={k}: rejected {rate:.3f} > {bound:.3f}; independence {dependent}"


def test_var_matched_normal_is_rejected_by_the_quantiles_but_not_by_var():
    k = 4
    levels, quantiles, violations = var_matched_normal(ALPHA, k)
    per_level = [
        rejection_probability(1.0 - u, SIGNIFICANCE / k, p) for u, p in zip(levels, violations)
    ]
    floor = max(per_level) - SE_MULTIPLE * standard_error(max(per_level))
    rate, dependent = run_backtests(quantiles)
    assert rate >= floor, f"rejected {rate:.3f} < {floor:.3f}; independence {dependent}"
    # the single VaR test at alpha sees a correct forecast
    size = rejection_probability(1.0 - ALPHA, SIGNIFICANCE, 1.0 - ALPHA)
    var_rate = np.mean([
        unconditional_coverage_test(
            violation_process(np.full(T, quantiles[0]), t3_losses(rep), ALPHA)
        ).p_value < SIGNIFICANCE
        for rep in range(R)
    ])
    assert abs(var_rate - size) <= SE_MULTIPLE * standard_error(size), (var_rate, size)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_correct_normal_forecasts_are_rejected_within_the_bonferroni_size(k):
    levels = supporting_levels(NORMAL_ALPHA, k)
    size = sum(
        rejection_probability(1.0 - u, SIGNIFICANCE / k, 1.0 - u, NORMAL_T) for u in levels
    )
    bound = size + SE_MULTIPLE * standard_error(size, NORMAL_R)
    quantiles = [stats.norm.ppf(u) for u in levels]
    rate, dependent = run_backtests(quantiles, normal_losses, NORMAL_ALPHA, NORMAL_R)
    assert rate <= bound, f"K={k}: rejected {rate:.3f} > {bound:.3f}; independence {dependent}"


@pytest.mark.parametrize("t", [250, 1000])
def test_var_matched_normal_at_95_is_rejected_by_the_quantiles(t):
    k = 4
    levels, quantiles, violations = var_matched_normal(NORMAL_ALPHA, k)
    per_level = [
        rejection_probability(1.0 - u, SIGNIFICANCE / k, p, t) for u, p in zip(levels, violations)
    ]
    floor = max(per_level) - SE_MULTIPLE * standard_error(max(per_level), NORMAL_R)
    rate, dependent = run_backtests(
        quantiles, lambda rep: t3_losses(rep, t), NORMAL_ALPHA, NORMAL_R
    )
    assert rate >= floor, f"T={t}: rejected {rate:.3f} < {floor:.3f}; independence {dependent}"


# the PIT setting: periods, replications and the discretized normal forecast
PIT_T, PIT_R, SCENARIOS = 500, 400, 1000
FORECAST = stats.norm.ppf((np.arange(SCENARIOS) + 0.5) / SCENARIOS)
WRONG_SCALE, PHI = 1.4, 0.2


def pit_rates(realizations):
    """The shares of PIT_R replications that the uniformity and the
    independence test reject, with ``realizations(rng)`` giving each one's losses."""
    uniformity = independence = 0
    for rep in range(PIT_R):
        rng = np.random.default_rng([2031, rep])
        z = pit_series([FORECAST] * PIT_T, realizations(rng), rng_seed=rep)
        uniformity += pit_uniformity_test(z).p_value < SIGNIFICANCE
        independence += pit_independence_test(z).p_value < SIGNIFICANCE
    return uniformity / PIT_R, independence / PIT_R


def ar1(rng):
    """A Gaussian AR(1) path with coefficient PHI and N(0, 1) margins."""
    shocks = rng.standard_normal(PIT_T)
    x = np.empty(PIT_T)
    x[0] = shocks[0]
    for t in range(1, PIT_T):
        x[t] = PHI * x[t - 1] + math.sqrt(1.0 - PHI * PHI) * shocks[t]
    return x


def test_pit_tests_keep_their_size_under_correct_scenario_sets():
    uniformity, independence = pit_rates(lambda rng: rng.choice(FORECAST, PIT_T))
    se = SE_MULTIPLE * standard_error(SIGNIFICANCE, PIT_R)
    assert abs(uniformity - SIGNIFICANCE) <= se, f"uniformity rejected {uniformity:.4f}"
    assert independence <= SIGNIFICANCE + se, f"independence rejected {independence:.4f}"


def test_uniformity_test_rejects_a_wrong_scenario_law():
    # without ties each z is the share j/S of scenarios at or below the
    # realization, which lies in [x_(j-1), x_(j)); its mass under N(0, 1.4^2)
    # binned as pit_uniformity_test bins z
    cdf = np.concatenate([[0.0], stats.norm.cdf(FORECAST / WRONG_SCALE), [1.0]])
    share = np.arange(SCENARIOS + 1) / SCENARIOS
    masses, _ = np.histogram(share, bins=10, range=(0.0, 1.0), weights=np.diff(cdf))
    expected = PIT_T / 10
    half = math.sqrt(stats.chi2.isf(SIGNIFICANCE, 9) * expected)  # 29.09: n_k <= 20 or >= 80
    low, high = math.ceil(expected - half) - 1, math.floor(expected + half) + 1
    power = max(
        stats.binom.cdf(low, PIT_T, p) + stats.binom.sf(high - 1, PIT_T, p) for p in masses
    )
    floor = power - SE_MULTIPLE * standard_error(power, PIT_R)
    uniformity, independence = pit_rates(lambda rng: WRONG_SCALE * rng.standard_normal(PIT_T))
    assert uniformity >= floor, f"uniformity rejected {uniformity:.4f} < {floor:.4f}"
    se = SE_MULTIPLE * standard_error(SIGNIFICANCE, PIT_R)
    assert independence <= SIGNIFICANCE + se, f"independence rejected {independence:.4f}"


def test_independence_test_rejects_clustered_realizations():
    rho = [6.0 / math.pi * math.asin(PHI**lag / 2.0) for lag in range(1, 6)]
    cutoff = stats.chi2.isf(SIGNIFICANCE / 3, 5)
    power = float(stats.ncx2.sf(cutoff, 5, PIT_T * sum(r * r for r in rho)))
    floor = power - SE_MULTIPLE * standard_error(power, PIT_R)
    uniformity, independence = pit_rates(ar1)
    assert independence >= floor, (
        f"independence rejected {independence:.4f} < {floor:.4f}; uniformity {uniformity:.4f}"
    )
