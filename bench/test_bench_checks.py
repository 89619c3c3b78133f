"""The benchmark's oracles on hand-worked laws.

A wrong oracle could pass a wrong program, so each oracle is pinned here to
values worked out by hand or by exact rational arithmetic, and each check is
shown to reject an output that is off by one step.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import checks


def test_order_statistics_on_one_to_hundred():
    xs = np.arange(1.0, 101.0)
    assert checks.var_sorted(xs, 0.95) == 95.0
    assert checks.es_sorted(xs, 0.95) == pytest.approx(98.0, rel=1e-15)
    # a level between grid points: k = ceil(0.951 * 100) = 96 and the boundary
    # atom 96 carries weight 0.96 - 0.951
    want = (sum(range(97, 101)) / 100 + 96 * 0.009) / 0.049
    assert checks.es_sorted(xs, 0.951) == pytest.approx(want, rel=1e-14)


def test_order_index_uses_the_exact_float_level():
    # float(0.975) lies just below 0.975, so 0.975 * 2000 still needs k = 1950
    assert checks.order_index(0.975, 2000) == 1950
    assert checks.order_index(0.9751, 2000) == 1951
    assert checks.order_index(0.5, 3) == 2


def test_weighted_law_tail_form():
    atoms, weights = [0.0, 1.0, 2.0], [0.5, 0.25, 0.25]
    assert checks.var_weighted(atoms, weights, 0.5) == 0.0
    assert checks.es_weighted(atoms, weights, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert checks.var_weighted(atoms, weights, 0.6) == 1.0
    assert checks.es_weighted(atoms, weights, 0.6) == pytest.approx((0.5 + 0.15) / 0.4, abs=1e-15)


def test_expectile_root():
    for tau in (0.2, 0.5, 0.8, 0.99):
        assert checks.expectile_root([0.0, 1.0], tau, [0.5, 0.5]) == pytest.approx(tau, abs=1e-15)
    xs = np.array([1.0, 2.0, 6.0])
    assert checks.expectile_root(xs, 0.5) == pytest.approx(3.0, abs=1e-15)
    # tau = 0.8 on {1, 2, 6}: the root lies in (2, 6) where
    # 0.8 * (6 - e) = 0.2 * ((e - 1) + (e - 2)), so e = 5.4 / 1.2
    assert checks.expectile_root(xs, 0.8) == pytest.approx(4.5, abs=1e-14)


def test_pinball_elicitation_check():
    sample = np.arange(1.0, 101.0)
    checks.check_elicit({"results": {"estimate": 95.0}}, sample, "weighted-absolute-error", level=0.95)
    with pytest.raises(checks.CheckFailed):
        checks.check_elicit({"results": {"estimate": 96.0}}, sample, "weighted-absolute-error", level=0.95)
    checks.check_elicit({"results": {"estimate": 50.5}}, sample, "squared-error")
    checks.check_elicit({"results": {"estimate": 60.0}}, sample, "tail-mean", threshold=60.0)
    # the two-step tail mean averages 95..100 and omits the boundary correction
    checks.check_two_step({"results": {"quantile": 95.0, "es": 97.5}}, sample, 0.95)


def test_measure_check_rejects_the_next_order_statistic():
    rows = np.arange(1.0, 101.0)[:, None]
    good = {"results": {"portfolio": 95.0, "positions": {"a": 95.0}}}
    checks.check_measure(good, rows, ["a"], "var", 0.95)
    for bad in (96.0, 94.0):
        report = {"results": {"portfolio": bad, "positions": {"a": 95.0}}}
        with pytest.raises(checks.CheckFailed):
            checks.check_measure(report, rows, ["a"], "var", 0.95)


def test_es_contributions_by_hand():
    # portfolio losses 1, 2, 4, 4; at 0.5 the VaR is 2 and both rows with 4
    # carry the whole tail: contributions ([3, 1] + [2, 2]) / 4 / 0.5
    rows = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
    total, parts = checks.contributions(rows, "es", 0.5)
    assert total == 4.0
    assert parts == [2.5, 1.5]
    report = {"results": {"total": 4.0, "contributions": {"b": 1.5, "a": 2.5}}}
    checks.check_allocate(report, rows, ["a", "b"], "es", 0.5)
    swapped = {"results": {"total": 4.0, "contributions": {"a": 1.5, "b": 2.5}}}
    with pytest.raises(checks.CheckFailed):
        checks.check_allocate(swapped, rows, ["a", "b"], "es", 0.5)


def test_binomial_two_sided_matches_exact_rationals():
    n, p = 40, Fraction(1, 10)
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    for k in (0, 2, 4, 9):
        exact = min(Fraction(1), 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))
        assert checks.binomial_two_sided(k, n, 0.1) == pytest.approx(float(exact), rel=1e-12)


def test_chi2_tail_at_five_percent():
    for df, x in ((1, 3.841458820694124), (5, 11.070497693516351), (9, 16.918977604620448)):
        assert checks.chi2_sf_odd(x, df) == pytest.approx(0.05, rel=1e-12)


def test_markov_lr_on_an_alternating_series():
    # transitions 0->1 three times and 1->0 twice: the Markov fit is perfect
    stat, p = checks.markov_lr(np.array([0, 1, 0, 1, 0, 1]))
    want = -2.0 * (2 * math.log(0.4) + 3 * math.log(0.6))
    assert stat == pytest.approx(want, rel=1e-14)
    assert p == pytest.approx(math.erfc(math.sqrt(want / 2)), rel=1e-14)


def test_pit_bounds_by_counting():
    lo, hi = checks.pit_bounds([np.array([1.0, 2.0, 2.0, 3.0])], np.array([2.0]))
    assert (lo[0], hi[0]) == (0.25, 0.75)


def _sweep_by_oracles(denominator):
    grid = list(itertools.product((0.0, 1.0, 2.0), repeat=2))
    panels = []
    for cut in itertools.combinations(range(denominator + 8), 8):
        counts = np.diff((-1, *cut, denominator + 8)) - 1
        keep = counts > 0
        rows = np.array(grid)[keep]
        weights = counts[keep] / denominator
        laws = (rows[:, 0], rows[:, 1], rows.sum(axis=1))
        values = {
            "var": [checks.var_weighted(law, weights, 0.8) for law in laws],
            "es": [checks.es_weighted(law, weights, 0.8) for law in laws],
            "expectile": [checks.expectile_root(law, 0.8, weights) for law in laws],
        }
        panels.append((rows, weights, values))
    return {"alpha": 0.8, "tau": 0.8, "panels": panels}


def test_sweep_check():
    sweep = _sweep_by_oracles(4)
    checks.check_sweep(sweep, 4, superadditive=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(sweep, 4, superadditive=True)  # no VaR-superadditive law at /4
    rows, weights, values = sweep["panels"][10]
    values["es"][2] = values["es"][0] + values["es"][1] + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(sweep, 4, superadditive=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(dict(sweep, panels=sweep["panels"][:-1]), 4, superadditive=False)
