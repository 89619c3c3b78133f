"""Acceptance suite: one test per release criterion, each printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from tailrisk import (
    ComonotonePair,
    DiscreteDistribution,
    LossPanel,
    MeasureKind,
    PitSeries,
    comonotone_sum,
    diversification_benefit,
    diversification_index,
    enumerate_joint_panels,
    es_contributions,
    es_quantile_approximation,
    expectile,
    expectile_contributions,
    expected_shortfall,
    find_expectile_comonotone_counterexample,
    find_var_superadditivity_example,
    mean,
    pit_independence_test,
    pit_series,
    pit_uniformity_test,
    unconditional_coverage_test,
    value_at_risk,
    violation_process,
    wasserstein1,
)
from tailrisk.cli import main

import oracles


def _report(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


def random_law(rng, max_atoms=15, scale=5.0):
    n = int(rng.integers(1, max_atoms))
    return DiscreteDistribution.from_sample(rng.normal(0, scale, n) + rng.normal(0, 20))


def test_criterion_01_exact_measure_values():
    started = time.perf_counter()
    d = DiscreteDistribution.from_sample(range(1, 101))
    assert value_at_risk(d, 0.95) == pytest.approx(95.0, abs=1e-12)
    assert expected_shortfall(d, 0.95) == pytest.approx(98.0, abs=1e-12)
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        law = random_law(rng)
        alpha = float(rng.uniform(0.02, 0.99))
        integral_form = expected_shortfall(law, alpha)
        tail_form = oracles.es_tail_form(law.atoms, law.weights, alpha)
        assert abs(integral_form - tail_form) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "exact measure values")


def test_criterion_02_expectile_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        sample = rng.normal(rng.normal(0, 10), rng.uniform(0.5, 8), int(rng.integers(1, 60)))
        law = DiscreteDistribution.from_sample(sample)
        assert expectile(law, 0.5) == pytest.approx(mean(law), abs=1e-9)
    bern = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    for tau in np.arange(0.1, 0.95, 0.1):
        assert expectile(bern, float(tau)) == pytest.approx(float(tau), abs=1e-10)
    # ratio representation holds at every solver output
    for _ in range(1000):
        law = random_law(rng)
        t = float(rng.uniform(0.02, 0.98))
        e = expectile(law, t)
        upper = law.atoms >= e
        num = t * np.dot(law.atoms[upper], law.weights[upper]) + (1 - t) * np.dot(
            law.atoms[~upper], law.weights[~upper]
        )
        den = t * np.sum(law.weights[upper]) + (1 - t) * np.sum(law.weights[~upper])
        assert abs(e - num / den) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, "expectile correctness")


def test_criterion_03_coherence_enumeration():
    started = time.perf_counter()
    var_superadditive_found = 0
    n_panels = 0
    for panel in enumerate_joint_panels((0.0, 1.0, 2.0), (0.0, 1.0, 2.0), 8):
        n_panels += 1
        law1, law2 = panel.column_law(0), panel.column_law(1)
        law_sum = panel.portfolio_law()
        for tau in (0.6, 0.8):
            assert expectile(law_sum, tau) <= expectile(law1, tau) + expectile(law2, tau) + 1e-10
        for alpha in (0.6, 0.8):
            assert expected_shortfall(law_sum, alpha) <= (
                expected_shortfall(law1, alpha) + expected_shortfall(law2, alpha) + 1e-10
            )
        # mirrored family: negated losses; tau below one half is superadditive
        m1, m2, ms = law1.scale(-1.0), law2.scale(-1.0), law_sum.scale(-1.0)
        assert expectile(ms, 0.2) >= expectile(m1, 0.2) + expectile(m2, 0.2) - 1e-10
        if value_at_risk(law_sum, 0.8) > value_at_risk(law1, 0.8) + value_at_risk(law2, 0.8) + 1e-12:
            var_superadditive_found += 1
    assert n_panels == 12870  # all weight splits of 8 eighths over the 3x3 grid
    assert var_superadditive_found > 0
    # the independent two-point heavy-loss construction must be reproduced
    example = find_var_superadditivity_example(0.95, tail_probabilities=(0.04,))
    assert example.position_vars == (0.0, 0.0)
    assert example.portfolio_var == 10.0
    law = example.panel.portfolio_law()
    assert np.allclose(law.weights, [0.9216, 0.0768, 0.0016], atol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, "coherence enumeration")


def test_criterion_04_comonotone_additivity_and_its_failure():
    found = find_expectile_comonotone_counterexample(0.8)
    assert abs(found.gap) > 1e-6
    # VaR and ES stay additive across the entire search grid
    atoms = np.array([0.0, 1.0, 2.0])
    maps = list(itertools.combinations_with_replacement((0.0, 1.0, 2.0), 3))
    weight_vectors = [
        np.diff((0, *cut, 8)) / 8.0
        for cut in itertools.combinations(range(1, 8), 2)
    ]
    for weights in weight_vectors:
        factor = DiscreteDistribution(atoms, weights)
        for f1 in maps:
            for f2 in maps:
                law1, law2, law_sum = comonotone_sum(
                    ComonotonePair(factor, np.asarray(f1), np.asarray(f2))
                )
                for alpha in (0.6, 0.95):
                    var_gap = value_at_risk(law_sum, alpha) - value_at_risk(law1, alpha) - value_at_risk(law2, alpha)
                    assert abs(var_gap) <= 1e-10
                    es_gap = expected_shortfall(law_sum, alpha) - expected_shortfall(law1, alpha) - expected_shortfall(law2, alpha)
                    assert abs(es_gap) <= 1e-10
    _report(4, "comonotonic additivity and the expectile counterexample")


def test_criterion_05_full_allocation():
    rng = np.random.default_rng(1005)
    for _ in range(500):
        t = int(rng.integers(2, 201))
        m = int(rng.integers(1, 6))
        panel = LossPanel.from_rows(rng.normal(0, 3, size=(t, m)) + rng.normal(0, 5, size=m))
        alpha = float(rng.uniform(0.05, 0.98))
        tau = float(rng.uniform(0.5, 0.98))
        es_alloc = es_contributions(panel, alpha)
        total_es = expected_shortfall(panel.portfolio_law(), alpha)
        assert math.fsum(es_alloc.contributions) == pytest.approx(total_es, rel=1e-10, abs=1e-10)
        exp_alloc = expectile_contributions(panel, tau)
        total_exp = expectile(panel.portfolio_law(), tau)
        assert math.fsum(exp_alloc.contributions) == pytest.approx(total_exp, rel=1e-10, abs=1e-10)
    # linear splits allocate proportionally
    base = np.arange(1.0, 101.0)
    for coefficients in ((0.3, 0.7), (0.1, 0.4, 0.5)):
        panel = LossPanel.from_rows(np.column_stack([c * base for c in coefficients]))
        es_alloc = es_contributions(panel, 0.95)
        for c, contribution in zip(coefficients, es_alloc.contributions):
            assert contribution == pytest.approx(c * es_alloc.total, rel=1e-12)
        exp_alloc = expectile_contributions(panel, 0.8)
        for c, contribution in zip(coefficients, exp_alloc.contributions):
            assert contribution == pytest.approx(c * exp_alloc.total, rel=1e-12)
    _report(5, "full Euler allocation")


def test_criterion_06_diversification_identities():
    # comonotone positions: no diversification under expected shortfall
    base = np.arange(1.0, 21.0)
    comonotone = LossPanel.from_rows(np.column_stack([base, 2.0 * base]))
    kind = MeasureKind.es(0.7)
    assert diversification_index(comonotone, kind) == pytest.approx(1.0, abs=1e-12)
    assert diversification_benefit(comonotone, kind) == pytest.approx(0.0, abs=1e-12)
    # a perfect hedge saves all capital
    hedge = LossPanel.from_rows([[-1.0, 1.0], [1.0, -1.0]])
    assert diversification_benefit(hedge, MeasureKind.es(0.75)) == pytest.approx(1.0, abs=1e-12)
    # two independent fair coins, the worked example of the ratio identities:
    # at the level whose tail spans half the outcomes the index shows real
    # diversification (DI = 1.5/2, DB = 0.5/1) ...
    coins = LossPanel.from_rows([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert diversification_index(coins, MeasureKind.es(0.5)) == pytest.approx(0.75, abs=1e-12)
    assert diversification_benefit(coins, MeasureKind.es(0.5)) == pytest.approx(0.5, abs=1e-12)
    # ... while at the level whose tail is exactly the double-loss corner the
    # 25% tail carries no diversification at all: ES(sum)=2 vs marginals 1+1
    assert expected_shortfall(coins.portfolio_law(), 0.75) == pytest.approx(2.0, abs=1e-12)
    assert diversification_index(coins, MeasureKind.es(0.75)) == pytest.approx(1.0, abs=1e-12)
    assert diversification_benefit(coins, MeasureKind.es(0.75)) == pytest.approx(0.0, abs=1e-12)
    _report(6, "diversification identities")


def test_criterion_07_backtest_calibration():
    started = time.perf_counter()
    alpha = 0.95
    t = 500
    replications = 1000
    q_true = stats.norm.ppf(alpha)
    iqr = stats.norm.ppf(0.75) - stats.norm.ppf(0.25)
    reject_true = 0
    reject_shifted = 0
    for rep in range(replications):
        rng = np.random.default_rng([20240, rep])  # per-replication generator
        losses = rng.normal(size=t)
        good = violation_process(np.full(t, q_true), losses, alpha)
        reject_true += unconditional_coverage_test(good).p_value < 0.05
        shifted = violation_process(np.full(t, q_true - iqr / 2.0), losses, alpha)
        reject_shifted += unconditional_coverage_test(shifted).p_value < 0.05
    true_rate = reject_true / replications
    shifted_rate = reject_shifted / replications
    assert 0.03 <= true_rate <= 0.07, f"size {true_rate} outside 5% +/- 2%"
    assert shifted_rate >= 0.90, f"power {shifted_rate} below 90%"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.2f}s"
    _report(7, "backtest calibration")


def test_criterion_08_four_quantile_approximation():
    # never exceeds the exact value on discrete laws
    rng = np.random.default_rng(1008)
    for _ in range(500):
        law = random_law(rng)
        alpha = float(rng.uniform(0.05, 0.99))
        assert es_quantile_approximation(law, alpha) <= expected_shortfall(law, alpha) + 1e-12
    # unit-rate exponential at the 99% level, from closed-form quantiles
    alpha = 0.99
    exact = 1.0 - math.log(1.0 - alpha)
    levels = [alpha + k * (1.0 - alpha) / 4.0 for k in range(4)]
    approximation = sum(-math.log(1.0 - u) for u in levels) / 4.0
    assert exact == pytest.approx(5.605170185988091, abs=1e-6)
    assert approximation == pytest.approx(5.196951089520998, abs=1e-6)
    assert approximation <= exact
    # the four-point average understates the exponential tail mean by ~7%
    assert (exact - approximation) / exact == pytest.approx(0.0728, abs=0.001)
    _report(8, "four-quantile approximation of expected shortfall")


def test_criterion_09_pit_correctness():
    # draws from the scenario distribution itself are exactly uniform
    rng = np.random.default_rng(1009)
    scenarios = tuple(rng.normal(size=250))
    draws = rng.choice(scenarios, size=100_000, replace=True)
    series = pit_series([scenarios] * draws.size, draws, rng_seed=123)
    zs = np.sort(series.z)
    grid = np.arange(1, zs.size + 1) / zs.size
    ks = max(np.max(np.abs(grid - zs)), np.max(np.abs(grid - 1 / zs.size - zs)))
    assert ks < 0.01
    # null calibration of the uniformity test
    rng = np.random.default_rng(12345)
    reject_uniformity = 0
    for _ in range(1000):
        z = PitSeries(rng.uniform(size=500), randomized=True, rng_seed=0)
        reject_uniformity += pit_uniformity_test(z, bins=10).p_value < 0.05
    rate = reject_uniformity / 1000
    assert 0.03 <= rate <= 0.07, f"uniformity null rejection {rate}"
    # null calibration of the portmanteau statistic (single power), plus the
    # Bonferroni-combined default, which is conservative by construction
    rng = np.random.default_rng(2024)
    reject_single = 0
    reject_default = 0
    for _ in range(1000):
        z = PitSeries(rng.uniform(size=500), randomized=True, rng_seed=0)
        reject_single += pit_independence_test(z, max_lag=5, powers=(1,)).p_value < 0.05
        reject_default += pit_independence_test(z, max_lag=5).p_value < 0.05
    single_rate = reject_single / 1000
    default_rate = reject_default / 1000
    assert 0.03 <= single_rate <= 0.07, f"portmanteau null rejection {single_rate}"
    assert default_rate <= 0.07, f"combined portmanteau rejection {default_rate}"
    _report(9, "PIT correctness")


def test_criterion_10_wasserstein_lipschitz():
    rng = np.random.default_rng(1010)
    taus = (0.2, 0.5, 0.8, 0.95)
    alphas = (0.5, 0.9, 0.99)
    for _ in range(1000):
        x = random_law(rng, max_atoms=12)
        y = random_law(rng, max_atoms=12)
        w = wasserstein1(x, y)
        for t in taus:
            constant = max(t / (1 - t), (1 - t) / t)
            assert abs(expectile(x, t) - expectile(y, t)) <= constant * w + 1e-10
        for a in alphas:
            assert abs(expected_shortfall(x, a) - expected_shortfall(y, a)) <= w / (1 - a) + 1e-10
    _report(10, "Wasserstein Lipschitz bounds")


def test_criterion_11_cli_determinism(tmp_path):
    panel_path = tmp_path / "panel.csv"
    panel_path.write_text("loss\n" + "\n".join(str(x) for x in range(1, 101)) + "\n")
    wide_path = tmp_path / "wide.csv"
    rng = np.random.default_rng(6)
    rows = ["a,b,c"] + [",".join(f"{v:.6f}" for v in rng.normal(0, 1, 3)) for _ in range(40)]
    wide_path.write_text("\n".join(rows) + "\n")
    scen = rng.normal(size=120)
    (tmp_path / "scen.txt").write_text("\n".join(str(v) for v in scen) + "\n")
    fc_rows = ["period,realized,var_forecast,scenario_file"]
    for i in range(80):
        fc_rows.append(f"{i},{rng.choice(scen)},{1.5},scen.txt")
    fc_path = tmp_path / "forecasts.csv"
    fc_path.write_text("\n".join(fc_rows) + "\n")

    fixtures = [
        ["measure", "--input", str(panel_path), "--kind", "es", "--level", "0.95"],
        ["allocate", "--input", str(wide_path), "--kind", "expectile", "--level", "0.8"],
        ["diversify", "--input", str(wide_path), "--kind", "es", "--level", "0.9"],
        ["backtest-var", "--input", str(fc_path), "--level", "0.95"],
        ["backtest-pit", "--input", str(fc_path), "--seed", "7", "--bins", "10"],
        ["counterexample", "--input", "unused", "--search", "expectile-comonotone",
         "--level", "0.8"],
    ]
    for idx, args in enumerate(fixtures):
        out = tmp_path / f"report_{idx}.json"
        assert main(args + ["--output", str(out)]) == 0
        first = out.read_bytes()
        assert main(args + ["--output", str(out)]) == 0
        assert out.read_bytes() == first, f"fixture {idx} not byte-identical"
        json.loads(first.decode())  # and it parses
    _report(11, "CLI determinism")
