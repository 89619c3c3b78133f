"""Monte Carlo size and power of the four-quantile ES backtest.

The paper backtests expected shortfall at level alpha through the VaR
violations of K supporting quantiles at alpha + k(1 - alpha)/K, each tested
for coverage at significance/K (Bonferroni). Losses are unit-variance t(3)
draws, T = 1000 periods, alpha = 0.975 and R = 300 replications, each with its
own generator. Every bound is derived before the run from exact binomial
probabilities (scipy) and R:

- size: correct forecasts are rejected at most at the sum of the exact
  per-level sizes (Bonferroni's union bound), plus 4 binomial standard errors;
- power: a normal forecast scaled so that its VaR at alpha is right is
  rejected at least as often as the likeliest single level rejects it, less
  4 standard errors, while the single VaR test at alpha stays within 4
  standard errors of its exact size.

The independence tests do not enter ``passed``; their rejection rates are
reported in the messages only. Kratz, Lok & McNeil's (2018) multinomial test
and the PIT tests are not measured here.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tailrisk import (
    es_quantile_backtest,
    supporting_levels,
    unconditional_coverage_test,
    violation_process,
)

ALPHA, T, R, SIGNIFICANCE, SE_MULTIPLE = 0.975, 1000, 300, 0.05, 4
SCALE = math.sqrt(3.0)  # the standard deviation of t(3)


def t3_losses(rep):
    """The unit-variance t(3) losses of replication ``rep``, from its own generator."""
    return np.random.default_rng([2028, rep]).standard_t(3, T) / SCALE


def rejection_probability(rate, cutoff, violation_probability):
    """P(p-value < cutoff) of the exact two-sided coverage test of violation
    rate ``rate``, when the count is Binomial(T, violation_probability)."""
    k = np.arange(T + 1)
    tails = np.minimum(stats.binom.cdf(k, T, rate), stats.binom.sf(k - 1, T, rate))
    rejected = np.minimum(1.0, 2.0 * tails) < cutoff
    return float(stats.binom.pmf(k[rejected], T, violation_probability).sum())


def standard_error(p):
    return math.sqrt(p * (1.0 - p) / R)


def run_backtests(quantiles):
    """The share of replications whose backtest fails, and each level's share
    of independence rejections, for constant quantile forecasts."""
    failed, dependent = 0, np.zeros(len(quantiles))
    series = [np.full(T, q) for q in quantiles]
    for rep in range(R):
        result = es_quantile_backtest(
            np.mean(series, axis=0), series, t3_losses(rep), ALPHA, SIGNIFICANCE
        )
        failed += not result.passed
        dependent += [r.p_value < SIGNIFICANCE for r in result.independence]
    return failed / R, dependent / R


@pytest.mark.parametrize("k", [2, 4, 8])
def test_correct_forecasts_are_rejected_within_the_bonferroni_size(k):
    levels = supporting_levels(ALPHA, k)
    size = sum(rejection_probability(1.0 - u, SIGNIFICANCE / k, 1.0 - u) for u in levels)
    bound = size + SE_MULTIPLE * standard_error(size)
    rate, dependent = run_backtests([stats.t.ppf(u, 3) / SCALE for u in levels])
    assert rate <= bound, f"K={k}: rejected {rate:.3f} > {bound:.3f}; independence {dependent}"


def test_var_matched_normal_is_rejected_by_the_quantiles_but_not_by_var():
    k = 4
    levels = supporting_levels(ALPHA, k)
    sigma = stats.t.ppf(ALPHA, 3) / SCALE / stats.norm.ppf(ALPHA)
    quantiles = [sigma * stats.norm.ppf(u) for u in levels]
    # the true violation probability of each normal quantile under t(3) losses
    violations = [stats.t.sf(q * SCALE, 3) for q in quantiles]
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
