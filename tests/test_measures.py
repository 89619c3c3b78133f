"""Tests for the risk measures: exact values, coherence-style properties,
the expectile solver, and the quantile approximation of expected shortfall."""

import copy
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from tailrisk import measures
from tailrisk import (
    ComonotonePair,
    DiscreteDistribution,
    Level,
    MeasureKind,
    comonotone_sum,
    enumerate_joint_panels,
    es_quantile_approximation,
    evaluate,
    expectile,
    expected_shortfall,
    mean,
    risk_adjusted_capital,
    supporting_levels,
    value_at_risk,
    variance,
    wasserstein1,
)
from tailrisk.distribution import LevelKind, level_value
import oracles


def uniform_1_to_100():
    return DiscreteDistribution.from_sample(range(1, 101))


def random_law(rng, max_atoms=12, scale=5.0):
    n = int(rng.integers(1, max_atoms))
    return DiscreteDistribution.from_sample(rng.normal(0, scale, n))


class TestValueAtRisk:
    def test_uniform_95(self):
        assert value_at_risk(uniform_1_to_100(), 0.95) == 95.0

    def test_translation(self):
        d = uniform_1_to_100()
        assert value_at_risk(d.shift(3.25), 0.9) == value_at_risk(d, 0.9) + 3.25

    def test_point_mass(self):
        assert value_at_risk(DiscreteDistribution.from_sample([7.0]), 0.4) == 7.0

    def test_rejects_expectile_level(self):
        with pytest.raises(ValueError):
            value_at_risk(uniform_1_to_100(), Level.expectile(0.95))


class TestExpectedShortfall:
    def test_uniform_95_is_98(self):
        assert expected_shortfall(uniform_1_to_100(), 0.95) == pytest.approx(98.0, abs=1e-12)

    def test_point_mass(self):
        d = DiscreteDistribution.from_sample([3.5])
        for a in (0.1, 0.5, 0.99):
            assert expected_shortfall(d, a) == 3.5

    def test_bernoulli_075(self):
        d = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        assert expected_shortfall(d, 0.75) == pytest.approx(1.0, abs=1e-15)

    def test_agrees_with_tail_form_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            d = random_law(rng)
            a = float(rng.uniform(0.05, 0.99))
            got = expected_shortfall(d, a)
            want = oracles.es_tail_form(d.atoms, d.weights, a)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("alpha", [k / 8 for k in range(1, 8)] + [0.7, 0.8, 0.95])
    def test_equals_clipped_segments_on_eighths(self, alpha):
        # alpha = k/8 sits exactly on a cumulative weight of both laws
        for law in (
            DiscreteDistribution.from_sample([3.0, -1.0, 2.0, 2.0, 0.5, 7.0, -4.0, 1.0]),
            DiscreteDistribution([-2.0, 0.0, 1.0, 5.0], [0.125, 0.375, 0.25, 0.25]),
        ):
            want = oracles.es_by_clipped_segments(law.atoms, law.cum_weights, alpha)
            assert expected_shortfall(law, alpha) == want

    def test_equals_clipped_segments_at_every_boundary(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            atoms = rng.integers(-5, 6, int(rng.integers(1, 30))).astype(float)
            law = DiscreteDistribution.from_sample(atoms)
            if rng.random() < 0.5:
                raw = rng.uniform(0.01, 1.0, atoms.size)
                law = DiscreteDistribution(atoms, raw / raw.sum())
            cum = law.cum_weights
            for alpha in [*cum[:-1], *rng.uniform(0.01, 0.99, 3)]:
                want = oracles.es_by_clipped_segments(law.atoms, cum, float(alpha))
                assert expected_shortfall(law, float(alpha)) == want

    def test_es_dominates_var(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            d = random_law(rng)
            a = float(rng.uniform(0.05, 0.99))
            assert expected_shortfall(d, a) >= value_at_risk(d, a) - 1e-12


class TestExpectile:
    def test_tau_half_is_mean(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = random_law(rng)
            assert expectile(d, 0.5) == pytest.approx(mean(d), abs=1e-9)

    @pytest.mark.parametrize("tau", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_bernoulli_expectile_is_tau(self, tau):
        d = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        assert expectile(d, tau) == pytest.approx(tau, abs=1e-10)

    def test_point_mass(self):
        d = DiscreteDistribution.from_sample([2.25])
        assert expectile(d, 0.8) == 2.25

    def test_ratio_representation_identity(self):
        # e = [tau E[L 1{L>=e}] + (1-tau) E[L 1{L<e}]] / [tau P[L>=e] + (1-tau) P[L<e]]
        rng = np.random.default_rng(43)
        for _ in range(300):
            d = random_law(rng)
            t = float(rng.uniform(0.05, 0.95))
            e = expectile(d, t)
            upper = d.atoms >= e
            num = t * np.dot(d.atoms[upper], d.weights[upper]) + (1 - t) * np.dot(
                d.atoms[~upper], d.weights[~upper]
            )
            den = t * np.sum(d.weights[upper]) + (1 - t) * np.sum(d.weights[~upper])
            assert e == pytest.approx(num / den, abs=1e-10)

    def test_matches_argmin_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            d = random_law(rng, max_atoms=8)
            t = float(rng.uniform(0.1, 0.9))
            want = oracles.expectile_by_minimization(d.atoms, d.weights, t)
            # the ternary oracle resolves the flat quadratic only to ~1e-8 * scale
            assert expectile(d, t) == pytest.approx(want, abs=5e-7)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            d = random_law(rng)
            values = [expectile(d, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_quantile_level(self):
        with pytest.raises(ValueError):
            expectile(uniform_1_to_100(), Level.quantile(0.8))


def _sweep_laws(d):
    """(panel values, law) of each column and of the row sum of every law of
    the coherence sweep's 3x3 grid in multiples of 1/d."""
    grid = (0.0, 1.0, 2.0)
    for panel in enumerate_joint_panels(grid, grid, d):
        yield panel.rows[:, 0], panel.weights, panel.column_law(0)
        yield panel.rows[:, 1], panel.weights, panel.column_law(1)
        yield panel.portfolio_losses(), panel.weights, panel.portfolio_law()


@pytest.mark.parametrize("d, laws", [(2, 3 * 45), (4, 3 * 495), (8, 3 * 12870)])
def test_every_law_of_the_sweep_is_the_merge_of_its_rows(d, laws):
    """The enumerator builds each law from integer counts over d, which is
    exact at a power-of-two d, so every law it shares has the bits of the
    np.unique merge of the panel's own rows and weights."""
    seen = 0
    for values, weights, law in _sweep_laws(d):
        seen += 1
        want = oracles.merge_by_unique(values, weights)
        assert [a.tobytes() for a in (law.atoms, law.weights, law.cum_weights)] == [
            a.tobytes() for a in want
        ]
    assert seen == laws


def test_every_law_of_the_small_sweep_equals_its_references():
    """The coherence sweep's laws, in quarters on the 3x3 grid: the VaR, ES
    and expectile of each equal the scan, clipped-segments and bisection
    references bit for bit. Each law is the np.unique merge of its rows
    (the test above)."""
    laws = 0
    for _, _, law in _sweep_laws(4):
        laws += 1
        atoms, weights, cum = law.atoms, law.weights, law.cum_weights
        for alpha in (0.25, 0.5, 0.8, 0.95):
            want = oracles.quantile_by_scan(atoms.tolist(), weights.tolist(), alpha)
            assert value_at_risk(law, alpha) == want
            got = expected_shortfall(law, alpha)
            assert got.hex() == oracles.es_by_clipped_segments(atoms, cum, alpha).hex()
        for tau in (0.2, 0.5, 0.8):
            got = expectile(law, tau)
            assert got.hex() == oracles.expectile_by_bisection(atoms, weights, cum, tau).hex()
    assert laws == 3 * 495


def mixture(f, g, share=0.5):
    """The law ``share * F + (1 - share) * G``."""
    weights = np.concatenate([share * f.weights, (1.0 - share) * g.weights])
    return DiscreteDistribution(np.concatenate([f.atoms, g.atoms]), weights)


class TestLevelSets:
    """The paper's elicitability row. A functional that some scoring function
    elicits has convex level sets: if T(F) = T(G) = t, then every mixture of F
    and G has T = t too (Osband 1985; Gneiting 2011, JASA, "Making and
    evaluating point forecasts", Sec. 3). VaR and the expectile keep a common
    value under mixture; ES does not, so no scoring function elicits it. The
    laws are dyadic, so every value below is exact in floats."""

    @pytest.mark.parametrize("share, es", [(0.25, 2.125), (0.5, 2.25), (0.75, 2.25)])
    def test_es_level_sets_are_not_convex(self, share, es):
        f = DiscreteDistribution([0.0, 1.0, 3.0], [0.5, 0.25, 0.25])
        g = DiscreteDistribution([2.0], [1.0])
        assert expected_shortfall(f, 0.5) == expected_shortfall(g, 0.5) == 2.0
        # the mixture's upper half holds all of F's mass at 3 but only part of G's at 2
        assert expected_shortfall(mixture(f, g, share), 0.5) == es

    @pytest.mark.parametrize("share", [0.25, 0.5, 0.75])
    def test_var_and_expectile_level_sets_are_convex(self, share):
        f = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])
        point = DiscreteDistribution.from_sample
        assert value_at_risk(f, 0.5) == value_at_risk(point([1.0]), 0.5) == 1.0
        assert value_at_risk(mixture(f, point([1.0]), share), 0.5) == 1.0
        assert expectile(f, 0.5) == expectile(point([2.0]), 0.5) == 2.0
        assert expectile(mixture(f, point([2.0]), share), 0.5) == 2.0


class TestLevelValue:
    @pytest.mark.parametrize(
        "level, shown",
        [(0, "0.0"), (1, "1.0"), (float("nan"), "nan"), (1.5, "1.5"), (np.float64(-0.25), "-0.25")],
    )
    def test_plain_number_outside_the_interval(self, level, shown):
        with pytest.raises(ValueError) as caught:
            level_value(level, LevelKind.QUANTILE)
        assert str(caught.value) == f"level must lie strictly inside (0, 1), got {shown}"

    def test_plain_number_inside_is_its_float(self):
        got = level_value(np.float64(0.9), LevelKind.EXPECTILE)
        assert type(got) is float and got == 0.9

    def test_level_passes_its_value(self):
        assert level_value(Level.expectile(0.3), LevelKind.EXPECTILE) == 0.3

    @pytest.mark.parametrize(
        "level, kind, message",
        [
            (Level.expectile(0.9), LevelKind.QUANTILE, "expected a quantile level, got an expectile level"),
            (Level.quantile(0.9), LevelKind.EXPECTILE, "expected an expectile level, got a quantile level"),
        ],
    )
    def test_level_of_the_wrong_kind(self, level, kind, message):
        with pytest.raises(ValueError) as caught:
            level_value(level, kind)
        assert str(caught.value) == message


class TestMomentMeasures:
    def test_point_mass_variance(self):
        assert variance(DiscreteDistribution.from_sample([4.0])) == 0.0

    def test_two_point(self):
        d = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
        assert mean(d) == 1.0
        assert variance(d) == 1.0

    def test_symmetric(self):
        d = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
        assert variance(d) == 1.0


class TestRiskAdjustedCapital:
    @pytest.mark.parametrize(
        "kind",
        [MeasureKind.var(0.9), MeasureKind.es(0.9), MeasureKind.expectile(0.9)],
    )
    def test_point_mass_is_zero(self, kind):
        d = DiscreteDistribution.from_sample([11.0])
        assert risk_adjusted_capital(d, kind) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_es(self):
        d = uniform_1_to_100()
        assert risk_adjusted_capital(d, MeasureKind.es(0.95)) == pytest.approx(
            98.0 - 50.5, abs=1e-12
        )

    def test_translation_invariant(self):
        d = uniform_1_to_100()
        kind = MeasureKind.es(0.9)
        assert risk_adjusted_capital(d.shift(-12.5), kind) == pytest.approx(
            risk_adjusted_capital(d, kind), abs=1e-12
        )


class TestCoherenceProperties:
    KINDS = [
        MeasureKind.mean(),
        MeasureKind.var(0.85),
        MeasureKind.es(0.85),
        MeasureKind.expectile(0.85),
    ]

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            d = random_law(rng)
            for h in (0.0, 0.5, 1.0, 2.0, 7.25):
                scaled = d.scale(h)
                for kind in self.KINDS:
                    want = h * evaluate(d, kind)
                    assert evaluate(scaled, kind) == pytest.approx(want, abs=1e-12 * max(1, abs(want)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            d = random_law(rng)
            a = float(rng.normal(0, 5))
            for kind in self.KINDS:
                got = evaluate(d.shift(-a), kind)
                want = evaluate(d, kind) - a
                assert got == pytest.approx(want, abs=1e-10)

    def test_monotonicity_on_comonotone_pairs(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            factor = DiscreteDistribution.from_sample(rng.normal(size=n))
            k = factor.atoms.size
            f1 = np.sort(rng.normal(0, 2, k))
            # nondecreasing map dominating f1 atom-wise
            f2 = np.maximum(np.maximum.accumulate(f1 + rng.uniform(0.0, 3.0, k)), f1)
            law1, law2, _ = comonotone_sum(ComonotonePair(factor, f1, f2))
            for kind in self.KINDS:
                assert evaluate(law1, kind) <= evaluate(law2, kind) + 1e-12

    def test_subadditivity_random_joint_laws(self):
        # spot check; the exhaustive grid enumeration lives in the acceptance suite
        rng = np.random.default_rng(71)
        for _ in range(100):
            t = int(rng.integers(2, 20))
            rows = rng.normal(0, 2, size=(t, 2))
            law1 = DiscreteDistribution.from_sample(rows[:, 0])
            law2 = DiscreteDistribution.from_sample(rows[:, 1])
            law_sum = DiscreteDistribution.from_sample(rows.sum(axis=1))
            for a in (0.6, 0.9):
                assert expected_shortfall(law_sum, a) <= (
                    expected_shortfall(law1, a) + expected_shortfall(law2, a) + 1e-10
                )
            for t_level in (0.6, 0.8):
                assert expectile(law_sum, t_level) <= (
                    expectile(law1, t_level) + expectile(law2, t_level) + 1e-10
                )
            # tau below one half flips to superadditivity
            assert expectile(law_sum, 0.2) >= (
                expectile(law1, 0.2) + expectile(law2, 0.2) - 1e-10
            )

    def test_wasserstein_lipschitz(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            x = random_law(rng)
            y = random_law(rng)
            w = wasserstein1(x, y)
            for t in (0.2, 0.5, 0.8):
                k = max(t / (1 - t), (1 - t) / t)
                assert abs(expectile(x, t) - expectile(y, t)) <= k * w + 1e-10
            for a in (0.5, 0.9):
                assert abs(expected_shortfall(x, a) - expected_shortfall(y, a)) <= w / (1 - a) + 1e-10


class TestMeasureKind:
    def test_var_requires_quantile_level(self):
        with pytest.raises(ValueError):
            MeasureKind(family=MeasureKind.var(0.9).family, level=Level.expectile(0.9))

    def test_mean_takes_no_level(self):
        with pytest.raises(ValueError):
            MeasureKind(family=MeasureKind.mean().family, level=Level.quantile(0.9))

    @pytest.mark.parametrize(
        "name, level, want",
        [
            ("mean", None, MeasureKind.mean()),
            ("variance", None, MeasureKind.variance()),
            ("var", 0.95, MeasureKind.var(0.95)),
            ("es", 0.975, MeasureKind.es(0.975)),
            ("expectile", 0.9, MeasureKind.expectile(0.9)),
        ],
    )
    def test_named_builds_the_family_at_the_level_it_takes(self, name, level, want):
        assert MeasureKind.named(name, level) == want

    @pytest.mark.parametrize(
        "name, level, message",
        [
            ("var", None, "var requires a level"),
            ("mean", 0.9, "mean takes no level"),
            ("variance", 0.9, "variance takes no level"),
            ("es", 1.5, "level must lie strictly inside (0, 1), got 1.5"),
            ("cvar", 0.9, "'cvar' is not a valid MeasureFamily"),
        ],
    )
    def test_named_rejects(self, name, level, message):
        with pytest.raises(ValueError) as caught:
            MeasureKind.named(name, level)
        assert str(caught.value) == message

    def test_labels(self):
        assert MeasureKind.es(0.95).label == "es@0.95"
        assert MeasureKind.variance().label == "variance"

    def test_evaluate_dispatch(self):
        d = uniform_1_to_100()
        assert evaluate(d, MeasureKind.mean()) == pytest.approx(50.5)
        assert evaluate(d, MeasureKind.variance()) == pytest.approx(np.var(np.arange(1, 101)))
        assert evaluate(d, MeasureKind.var(0.95)) == 95.0
        assert evaluate(d, MeasureKind.es(0.95)) == pytest.approx(98.0, abs=1e-12)


class TestQuantileApproximation:
    def test_levels_for_four_points(self):
        # alpha=0.95 supporting quantiles sit at 0.95, 0.9625, 0.975, 0.9875
        d = uniform_1_to_100()
        got = es_quantile_approximation(d, 0.95, points=4)
        assert got == pytest.approx((95 + 97 + 98 + 99) / 4, abs=1e-12)

    def test_never_exceeds_exact_es(self):
        rng = np.random.default_rng(79)
        for _ in range(300):
            d = random_law(rng)
            a = float(rng.uniform(0.1, 0.99))
            for points in (2, 4, 8):
                assert es_quantile_approximation(d, a, points) <= expected_shortfall(d, a) + 1e-12

    def test_points_range(self):
        d = uniform_1_to_100()
        with pytest.raises(ValueError):
            es_quantile_approximation(d, 0.95, points=1)
        with pytest.raises(ValueError):
            es_quantile_approximation(d, 0.95, points=17)

    def test_supporting_levels(self):
        assert supporting_levels(0.95) == pytest.approx((0.95, 0.9625, 0.975, 0.9875), abs=1e-15)
        assert supporting_levels(0.9, 2) == pytest.approx((0.9, 0.95), abs=1e-15)
        for points in (1, 17):
            with pytest.raises(ValueError):
                supporting_levels(0.95, points)


# How far the average of a continuous law's true quantiles at the four (K = 4)
# or eight supporting levels of 0.975 falls below its expected shortfall, in
# percent of ES, rounded to 0.01 as the README's table quotes it.
FOUR_QUANTILE_BIAS = {
    "normal": (stats.norm(), {4: 6.12, 8: 3.57}),
    "t5": (stats.t(5), {4: 12.29, 8: 7.88}),
    "t3": (stats.t(3), {4: 19.03, 8: 13.03}),
    "t2.5": (stats.t(2.5), {4: 23.31, 8: 16.51}),
}


def closed_form_es(law, alpha):
    """ES of a standard normal, phi(z)/(1 - a), or of a standard Student t(nu),
    f(q)(nu + q^2)/((nu - 1)(1 - a)), with z and q the laws' alpha-quantiles."""
    q = law.ppf(alpha)
    if law.dist.name == "norm":
        return law.pdf(q) / (1.0 - alpha)
    nu = law.args[0]
    return law.pdf(q) * (nu + q * q) / ((nu - 1.0) * (1.0 - alpha))


class TestFourQuantileBias:
    """The supporting quantiles' average understates ES on continuous laws,
    the more so the heavier the tail: a left-endpoint Riemann sum of an
    increasing quantile function that is unbounded near 1."""

    ALPHA = 0.975

    @pytest.mark.parametrize("name", FOUR_QUANTILE_BIAS)
    def test_closed_form_es_is_the_tail_mean(self, name):
        # quad integrates x f(x) over the tail to 1e-12 relative and reports
        # its error; the closed form is a few roundings on scipy's pdf and
        # ppf, each near 1e-15 relative, so 1e-13 of ES bounds it a
        # hundredfold
        law = FOUR_QUANTILE_BIAS[name][0]
        tail, error = integrate.quad(
            lambda x: x * law.pdf(x), law.ppf(self.ALPHA), np.inf, epsabs=0.0, epsrel=1e-12
        )
        es = closed_form_es(law, self.ALPHA)
        assert abs(tail / (1.0 - self.ALPHA) - es) <= (error / (1.0 - self.ALPHA) + 1e-13 * es)

    @pytest.mark.parametrize("name", FOUR_QUANTILE_BIAS)
    @pytest.mark.parametrize("points", [4, 8])
    def test_the_average_falls_below_es_by_the_quoted_share(self, name, points):
        # the quoted share is rounded to 0.01 percent, so it lies within half
        # of that of the exact share
        law, quoted = FOUR_QUANTILE_BIAS[name]
        average = float(np.mean(law.ppf(supporting_levels(self.ALPHA, points))))
        es = closed_form_es(law, self.ALPHA)
        assert average < es
        assert abs(100.0 * (1.0 - average / es) - quoted[points]) <= 0.005



# each measure that a law keeps the last value of, the kernel that computes
# it, and the role of its level
KEPT = [
    (value_at_risk, DiscreteDistribution.quantile, LevelKind.QUANTILE),
    (expected_shortfall, measures._expected_shortfall, LevelKind.QUANTILE),
    (expectile, measures._expectile, LevelKind.EXPECTILE),
]


def skewed_law():
    """A law whose measures all move under scale(-1), scale(2) and shift(1)."""
    return DiscreteDistribution(np.array([0.0, 1.0, 2.0, 5.0]), np.array([0.1, 0.2, 0.3, 0.4]))


def test_every_law_of_the_big_sweep_keeps_its_kernels_bits():
    """The sweep's 12,870 panels share 585 laws: each law's first call and
    every repeat, on this panel and on later ones, have the kernel's bits."""
    distinct = {}
    for _, _, law in _sweep_laws(8):
        distinct[id(law)] = law
        for measure, kernel, _ in KEPT:
            want = kernel(law, 0.8).hex()
            assert measure(law, 0.8).hex() == want
            assert measure(law, 0.8).hex() == want
    assert len(distinct) == 585


@st.composite
def interleaved_calls(draw):
    """A law with equal or unequal weights, and calls (measure, level, as a
    Level or a float) at levels that repeat and change."""
    sample = draw(st.lists(st.one_of(st.integers(-5, 5).map(float), st.floats(-1e3, 1e3)),
                           min_size=1, max_size=30))
    if draw(st.booleans()):
        law = DiscreteDistribution.from_sample(sample)
    else:
        raw = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=len(sample), max_size=len(sample))))
        law = DiscreteDistribution(sample, raw / math.fsum(raw))
    level = st.one_of(st.sampled_from([0.2, 0.5, 0.8, 0.95]), st.floats(1e-3, 0.999))
    calls = st.tuples(st.integers(0, 2), level, st.booleans())
    return law, draw(st.lists(calls, min_size=1, max_size=40))


@settings(derandomize=True, database=None, deadline=None)
@given(interleaved_calls())
def test_interleaved_levels_give_the_kernels_bits(case):
    law, calls = case
    for index, level, tagged in calls:
        measure, kernel, kind = KEPT[index]
        got = measure(law, Level(level, kind) if tagged else level)
        assert got.hex() == kernel(law, level).hex()
    assert len(law._measured) <= 3


class TestKeptValues:
    """A law keeps the last level each of VaR, ES and the expectile was asked
    at, with the kernel's value there."""

    def test_a_float_level_and_the_equal_level_share_one_entry(self):
        law = skewed_law()
        for measure, kernel, kind in KEPT:
            measure(law, 0.8)
            kept = dict(law._measured)
            # a repeat stores nothing: each entry is the same tuple as before
            for level in (Level(0.8, kind), np.float64(0.8), 0.8):
                assert measure(law, level) == kernel(law, 0.8)
                assert all(law._measured[name] is kept[name] for name in kept)
        assert len(law._measured) == 3

    @pytest.mark.parametrize("measure, kernel, kind", KEPT)
    def test_a_level_holds_a_python_float(self, measure, kernel, kind):
        """A Level of a numpy float32 is measured at its value as a Python
        float, as the same float32 passed plainly is."""
        level = Level(np.float32(0.8), kind)
        assert type(level.value) is float
        law = skewed_law()
        assert measure(law, level).hex() == kernel(law, float(np.float32(0.8))).hex()
        assert measure(law, np.float32(0.8)).hex() == measure(skewed_law(), level).hex()

    @pytest.mark.parametrize("measure, kernel, kind", KEPT)
    def test_a_bad_level_raises_on_a_measured_law(self, measure, kernel, kind):
        law = skewed_law()
        want = measure(law, 0.8)
        other = LevelKind.EXPECTILE if kind is LevelKind.QUANTILE else LevelKind.QUANTILE
        for bad in (0.0, 1.0, -0.5, 1.5, math.nan, Level(0.8, other)):
            with pytest.raises(ValueError):
                measure(law, bad)
        assert measure(law, 0.8) == want == kernel(law, 0.8)

    @pytest.mark.parametrize("measure, kernel, kind", KEPT)
    def test_a_scaled_or_shifted_law_is_measured_afresh(self, measure, kernel, kind):
        law = skewed_law()
        parent = measure(law, 0.8)
        for derived in (law.scale(-1.0), law.scale(2.0), law.shift(1.0)):
            assert derived._measured == {}
            got = measure(derived, 0.8)
            assert got.hex() == kernel(derived, 0.8).hex()
            assert got != parent

    def test_a_law_keeps_one_entry_per_measure(self):
        law = DiscreteDistribution.from_sample(np.arange(20.0))
        levels = [(k + 0.5) / 10_000 for k in range(10_000)]
        for level in levels:
            for measure, _, _ in KEPT:
                measure(law, level)
        assert len(law._measured) == 3
        assert [last for last, _ in law._measured.values()] == [levels[-1]] * 3

    def test_a_measured_law_pickles_and_deep_copies(self):
        law = skewed_law()
        values = [measure(law, 0.8) for measure, _, _ in KEPT]
        for copied in (pickle.loads(pickle.dumps(law)), copy.deepcopy(law)):
            assert copied._measured == law._measured
            assert copied.atoms.tobytes() == law.atoms.tobytes()
            assert [measure(copied, 0.8) for measure, _, _ in KEPT] == values
            assert [measure(copied, 0.3) for measure, _, _ in KEPT] == [
                kernel(law, 0.3) for _, kernel, _ in KEPT
            ]

    def test_threads_measuring_one_law_get_the_kernels_bits(self):
        law = DiscreteDistribution.from_sample(np.random.default_rng(3).standard_normal(2000))
        levels = (0.5, 0.8, 0.9, 0.95, 0.99)
        want = {(i, a): kernel(law, a).hex() for i, (_, kernel, _) in enumerate(KEPT) for a in levels}

        def work(seed):
            rng = np.random.default_rng(seed)
            calls = zip(rng.integers(3, size=2000).tolist(), rng.integers(len(levels), size=2000).tolist())
            return {KEPT[i][0](law, levels[k]).hex() == want[i, levels[k]] for i, k in calls}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between the kept value's read and write
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert set().union(*pool.map(work, range(8), timeout=120)) == {True}
        finally:
            sys.setswitchinterval(interval)
        # each entry is a whole pair: a level and its kernel's value there
        kernels = {kernel.__qualname__: kernel for _, kernel, _ in KEPT}
        assert len(law._measured) == 3
        for name, (level, value) in law._measured.items():
            assert value.hex() == kernels[name](law, level).hex()
