"""Tests for Euler contributions, diversification indices, and the benefit."""

import math

import numpy as np
import pytest

from tailrisk import (
    DegenerateDenominatorError,
    DiscreteDistribution,
    LossPanel,
    MeasureKind,
    ShapeMismatchError,
    diversification_benefit,
    diversification_index,
    diversify,
    es_contributions,
    expectile,
    expectile_contributions,
    expected_shortfall,
    marginal_diversification_index,
)


NOT_A_MATRIX = "rows must be a T x m matrix, got shape"


def bernoulli_product_panel():
    """Two independent fair coins: rows are the four joint outcomes."""
    return LossPanel.from_rows([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def random_panel(rng, max_periods=200, max_positions=5):
    t = int(rng.integers(2, max_periods + 1))
    m = int(rng.integers(1, max_positions + 1))
    return LossPanel.from_rows(rng.normal(0, 2, size=(t, m)))


class TestLossPanel:
    def test_portfolio_is_row_sum(self):
        p = LossPanel.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(p.portfolio_losses(), [3.0, 7.0])
        assert p.n_periods == 2 and p.n_positions == 2

    def test_default_weights_and_names(self):
        p = LossPanel.from_rows([[1.0], [2.0], [3.0]])
        assert np.allclose(p.weights, [1 / 3] * 3)
        assert p.positions == ("pos_1",)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            LossPanel.from_rows([[1.0], [2.0]], weights=[0.5, 0.6])
        with pytest.raises(ValueError):
            LossPanel.from_rows([[1.0], [2.0]], weights=[1.0, 0.0])

    @pytest.mark.parametrize("n", [4, 10, 10**5])
    def test_equal_weights_are_judged_by_their_exact_sum(self, n):
        # n equal weights are summed as w * n, rounded once, which is what fsum gives
        rows = np.zeros((n, 1))
        for excess, refused in ((2e-12, True), (0.5e-12, False)):
            weights = np.full(n, (1.0 + excess) / n)
            assert (abs(math.fsum(weights.tolist()) - 1.0) > 1e-12) == refused
            if refused:
                with pytest.raises(ValueError, match="row weights must sum to 1"):
                    LossPanel.from_rows(rows, weights=weights)
            else:
                LossPanel.from_rows(rows, weights=weights)

    def test_rejects_name_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            LossPanel.from_rows([[1.0, 2.0]], positions=("a",))

    @pytest.mark.parametrize(
        "rows, weights, error, message",
        [
            ([1.0, 2.0], [0.5, 0.5], ShapeMismatchError, f"{NOT_A_MATRIX} (2,)"),
            (np.zeros((0, 1)), [], ShapeMismatchError, f"{NOT_A_MATRIX} (0, 1)"),
            (np.zeros((2, 0)), [0.5, 0.5], ShapeMismatchError, f"{NOT_A_MATRIX} (2, 0)"),
            ([[1.0], [math.nan]], [0.5, 0.5], ValueError, "losses must be finite"),
            ([[-math.inf], [1.0]], [0.5, 0.5], ValueError, "losses must be finite"),
            ([[1.0], [2.0]], [1.0], ShapeMismatchError, "1 weights for 2 rows"),
            ([[1.0], [2.0]], [0.25, 0.25, 0.5], ShapeMismatchError, "3 weights for 2 rows"),
        ],
    )
    def test_rejects_rows_and_weights_of_the_wrong_shape_or_value(
        self, rows, weights, error, message
    ):
        rows = np.asarray(rows, dtype=float)
        names = tuple(f"p{i}" for i in range(rows.shape[-1])) if rows.ndim == 2 else ("p",)
        with pytest.raises(error) as caught:
            LossPanel(names, rows, np.asarray(weights, dtype=float))
        assert str(caught.value) == message

    def test_column_law_merges(self):
        p = LossPanel.from_rows([[1.0], [1.0], [2.0], [5.0]])
        law = p.column_law(0)
        assert np.array_equal(law.atoms, [1.0, 2.0, 5.0])
        assert np.allclose(law.weights, [0.5, 0.25, 0.25])


class TestEsContributions:
    def test_single_position_equals_es(self):
        p = LossPanel.from_rows([[float(x)] for x in range(1, 101)])
        result = es_contributions(p, 0.95)
        assert result.contributions[0] == pytest.approx(98.0, abs=1e-10)
        assert result.total == pytest.approx(98.0, abs=1e-10)

    def test_linear_split_is_proportional(self):
        base = np.arange(1.0, 101.0)
        p = LossPanel.from_rows(np.column_stack([0.3 * base, 0.7 * base]), positions=("a", "b"))
        result = es_contributions(p, 0.95)
        assert result.contributions[0] == pytest.approx(29.4, rel=1e-12)
        assert result.contributions[1] == pytest.approx(68.6, rel=1e-12)
        assert result.total == pytest.approx(98.0, rel=1e-12)

    def test_full_allocation_on_random_panels(self):
        rng = np.random.default_rng(211)
        for _ in range(100):
            p = random_panel(rng)
            a = float(rng.uniform(0.05, 0.98))
            result = es_contributions(p, a)
            total = expected_shortfall(p.portfolio_law(), a)
            assert math.fsum(result.contributions) == pytest.approx(
                total, rel=1e-10, abs=1e-10
            )
            assert abs(result.residual) <= 1e-10 * max(1.0, abs(result.total))

    def test_boundary_rows_weighted_against_oracle(self):
        # mass sits exactly on the portfolio quantile: the boundary rows get a
        # proportional partial weight; check against a hand-built reweighting
        p = LossPanel.from_rows([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        a = 0.6
        result = es_contributions(p, a)
        # portfolio = (0, 1, 1, 2), q_0.6 = 1, P[L>q] = 0.25, P[L=q] = 0.5
        # beta = (0.4 - 0.25)/0.5 = 0.3
        h = np.array([0.0, 0.3, 0.3, 1.0]) * 0.25 / 0.4
        want = h @ p.rows
        assert np.allclose(result.contributions, want, atol=1e-12)
        assert result.nonunique_gradient

    def test_smooth_case_not_flagged(self):
        p = LossPanel.from_rows([[float(x), float(2 * x)] for x in range(1, 101)])
        assert not es_contributions(p, 0.95).nonunique_gradient


class TestExpectileContributions:
    def test_single_position_equals_expectile(self):
        p = LossPanel.from_rows([[float(x)] for x in range(1, 101)])
        result = expectile_contributions(p, 0.8)
        assert result.contributions[0] == pytest.approx(result.total, abs=1e-10)

    def test_identical_columns_split_evenly(self):
        p = LossPanel.from_rows([[0.0, 0.0], [1.0, 1.0]], weights=[0.5, 0.5])
        result = expectile_contributions(p, 0.8)
        e = expectile(DiscreteDistribution([0.0, 2.0], [0.5, 0.5]), 0.8)
        assert result.contributions[0] == pytest.approx(e / 2, abs=1e-12)
        assert result.contributions[1] == pytest.approx(e / 2, abs=1e-12)

    def test_product_panel_ratio_formula(self):
        # portfolio law {0: 1/4, 1: 1/2, 2: 1/4}; e_0.8 solves
        # 0.8*(2-e)/4 = 0.2*(3e/4 - 1/2), giving e = 10/7, and each position
        # contributes [0.8*(1/4) + 0.2*(1/4)]/0.35 = 5/7 by the ratio formula
        result = expectile_contributions(bernoulli_product_panel(), 0.8)
        assert result.total == pytest.approx(10 / 7, abs=1e-12)
        assert result.contributions[0] == pytest.approx(5 / 7, abs=1e-12)
        assert result.contributions[1] == pytest.approx(5 / 7, abs=1e-12)

    def test_full_allocation_on_random_panels(self):
        rng = np.random.default_rng(223)
        for _ in range(100):
            p = random_panel(rng)
            t = float(rng.uniform(0.5, 0.98))
            result = expectile_contributions(p, t)
            total = expectile(p.portfolio_law(), t)
            assert math.fsum(result.contributions) == pytest.approx(
                total, rel=1e-10, abs=1e-10
            )

    def test_rejects_tau_below_half(self):
        with pytest.raises(ValueError):
            expectile_contributions(bernoulli_product_panel(), 0.3)

    def test_nonunique_flag_on_point_mass(self):
        p = LossPanel.from_rows([[2.0], [2.0]])
        result = expectile_contributions(p, 0.8)
        assert result.nonunique_gradient
        assert result.total == 2.0


EULER_CASES = [
    pytest.param(es_contributions, expected_shortfall, MeasureKind.es, a, id=f"es-{a}")
    for a in (0.5, 0.9, 0.975, 0.99)
] + [
    pytest.param(expectile_contributions, expectile, MeasureKind.expectile, t, id=f"expectile-{t}")
    for t in (0.5, 0.9, 0.99)
]


class TestEulerProperty:
    """Each contribution is the measure's derivative along its position:
    scaling column i by 1 + h moves the portfolio measure by h * c_i."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("contributions, measure, kind, level", EULER_CASES)
    def test_contribution_is_the_directional_derivative(
        self, seed, contributions, measure, kind, level
    ):
        p = LossPanel.from_rows(np.random.default_rng(seed).standard_t(4, size=(1000, 4)))
        result = contributions(p, level)
        assert result.measure == kind(level)
        assert not result.nonunique_gradient
        h = 1e-7
        for i, c in enumerate(result.contributions):
            up = measure(p.scale_position(i, 1.0 + h).portfolio_law(), level)
            down = measure(p.scale_position(i, 1.0 - h).portfolio_law(), level)
            assert abs(c - (up - down) / (2.0 * h)) <= 1e-6
            # the marginal index divides the same contribution by the standalone measure
            standalone = measure(p.column_law(i), level)
            assert marginal_diversification_index(p, i, kind(level)) == c / standalone


class TestDiversificationIndex:
    def test_single_position_is_one(self):
        p = LossPanel.from_rows([[1.0], [2.0], [4.0]])
        assert diversification_index(p, MeasureKind.es(0.6)) == pytest.approx(1.0, abs=1e-12)

    def test_comonotone_es_is_one(self):
        p = LossPanel.from_rows([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        assert diversification_index(p, MeasureKind.es(0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_independent_bernoulli_at_half(self):
        # sum law {0,1,2} w=(1/4,1/2,1/4): ES_0.5(sum)=1.5, marginal ES_0.5=1
        p = bernoulli_product_panel()
        assert diversification_index(p, MeasureKind.es(0.5)) == pytest.approx(0.75, abs=1e-12)

    def test_independent_bernoulli_at_three_quarters(self):
        # at 0.75 the tail of the sum is exactly the double-loss corner, so the
        # index shows no diversification: ES_0.75(sum)=2, marginals 1 each
        p = bernoulli_product_panel()
        assert diversification_index(p, MeasureKind.es(0.75)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_denominator_raises(self):
        p = LossPanel.from_rows([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(DegenerateDenominatorError):
            diversification_index(p, MeasureKind.mean())

    def test_subadditive_measures_stay_at_or_below_one(self):
        rng = np.random.default_rng(227)
        for _ in range(50):
            p = LossPanel.from_rows(rng.uniform(0.5, 3.0, size=(int(rng.integers(2, 40)), 3)))
            assert diversification_index(p, MeasureKind.es(0.8)) <= 1.0 + 1e-12
            assert diversification_index(p, MeasureKind.expectile(0.8)) <= 1.0 + 1e-12


class TestDiversify:
    @pytest.mark.parametrize(
        "kind", [MeasureKind.var(0.9), MeasureKind.es(0.9), MeasureKind.expectile(0.8)]
    )
    def test_equals_the_one_result_functions(self, kind):
        p = random_panel(np.random.default_rng(5), max_positions=8)
        found = diversify(p, kind)
        assert found.index == diversification_index(p, kind)
        assert found.benefit == diversification_benefit(p, kind)
        assert found.warnings == ()
        if kind.family.value == "var":
            assert found.marginal_indices is None
        else:
            assert found.marginal_indices == tuple(
                marginal_diversification_index(p, i, kind) for i in range(p.n_positions)
            )

    @pytest.mark.parametrize("kind", [MeasureKind.es(0.9), MeasureKind.expectile(0.8)])
    def test_measures_the_portfolio_law_once(self, monkeypatch, kind):
        from tailrisk import allocation, measures

        p = LossPanel.from_rows(np.random.default_rng(5).normal(size=(50, 3)))
        portfolio = p.portfolio_law().atoms.tobytes()
        on_portfolio = []

        def spy(measure):
            def call(law, level):
                on_portfolio.append(law.atoms.tobytes() == portfolio)
                return measure(law, level)
            return call

        for name in ("expected_shortfall", "expectile"):
            measure = getattr(measures, name)
            for module in (allocation, measures):
                monkeypatch.setattr(module, name, spy(measure))
        diversify(p, kind)
        assert len(on_portfolio) == 4 and sum(on_portfolio) == 1

    def test_degenerate_results_are_none_with_their_reasons(self):
        p = LossPanel.from_rows([[0.0, 0.0], [0.0, 0.0]])
        found = diversify(p, MeasureKind.es(0.5))
        assert (found.index, found.benefit, found.marginal_indices) == (None, None, (None, None))
        assert [w.split(";")[0] for w in found.warnings] == [
            "sum of standalone measures is zero",
            "sum of standalone risk-adjusted capital must be positive",
            "standalone measure of position 0 is zero",
            "standalone measure of position 1 is zero",
        ]

    def test_expectile_below_one_half_has_no_marginal_indices(self):
        # below 1/2 the expectile is not coherent, so it is not allocated, as VaR
        # is not: the index is 0.75 / (0.3 + 0.3), and the standalone RACs sum
        # to 2 * (0.3 - 0.5) = -0.4, so the benefit is undefined
        p = bernoulli_product_panel()
        kind = MeasureKind.expectile(0.3)
        found = diversify(p, kind)
        assert found.index == pytest.approx(1.25)
        assert found.benefit is None
        assert found.warnings == ("sum of standalone risk-adjusted capital must be positive",)
        assert found.marginal_indices is None
        assert diversification_index(p, kind) == found.index
        with pytest.raises(DegenerateDenominatorError, match="risk-adjusted capital"):
            diversification_benefit(p, kind)
        with pytest.raises(ValueError, match="tau >= 1/2"):
            marginal_diversification_index(p, 0, kind)


class TestMarginalDiversificationIndex:
    def test_single_position_is_one(self):
        p = LossPanel.from_rows([[1.0], [2.0], [4.0]])
        assert marginal_diversification_index(p, 0, MeasureKind.es(0.6)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_linear_split_is_one(self):
        base = np.arange(1.0, 101.0)
        p = LossPanel.from_rows(np.column_stack([0.3 * base, 0.7 * base]))
        for i in range(2):
            assert marginal_diversification_index(p, i, MeasureKind.es(0.95)) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_bernoulli_panel_brute_force(self):
        # contribution at 0.5: rows above q=1 weight 1, boundary rows beta=0.5,
        # scaled by 1/(1-alpha); standalone ES_0.5(Bernoulli) = 1
        p = bernoulli_product_panel()
        got = marginal_diversification_index(p, 0, MeasureKind.es(0.5))
        h = np.array([0.0, 0.5, 0.5, 1.0]) * 0.25 / 0.5
        want = float(h @ p.rows[:, 0]) / 1.0
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_requires_contribution_measure(self):
        p = bernoulli_product_panel()
        with pytest.raises(ValueError):
            marginal_diversification_index(p, 0, MeasureKind.var(0.9))

    def test_zero_standalone_raises(self):
        p = LossPanel.from_rows([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(DegenerateDenominatorError):
            marginal_diversification_index(p, 0, MeasureKind.es(0.6))

    @pytest.mark.parametrize("i", [-1, 2])
    def test_position_outside_the_panel_raises(self, i):
        p = bernoulli_product_panel()
        want = f"position i = {i} must lie in [0, m) for m = 2 positions"
        with pytest.raises(IndexError) as caught:
            marginal_diversification_index(p, i, MeasureKind.es(0.5))
        assert str(caught.value) == want

    def test_last_position(self):
        # the panel is symmetric in its two positions, so both indices are 0.75
        p = bernoulli_product_panel()
        got = marginal_diversification_index(p, p.n_positions - 1, MeasureKind.es(0.5))
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_scaling_up_low_marginal_position_reduces_index(self):
        # if a position's marginal index is below the portfolio index, growing
        # that position by a small factor must pull the portfolio index down
        rows = [[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [3.0, 1.0]]
        p = LossPanel.from_rows(rows)
        kind = MeasureKind.es(0.5)
        di = diversification_index(p, kind)
        h = 1e-3
        found = False
        for i in range(2):
            if marginal_diversification_index(p, i, kind) < di - 1e-9:
                found = True
                grown = p.scale_position(i, 1.0 + h)
                assert diversification_index(grown, kind) < di
        assert found, "fixture should have a position with marginal index below the portfolio"


class TestDiversificationBenefit:
    def test_full_hedge_is_one(self):
        p = LossPanel.from_rows([[-1.0, 1.0], [1.0, -1.0]])
        assert diversification_benefit(p, MeasureKind.es(0.75)) == pytest.approx(1.0, abs=1e-12)

    def test_comonotone_is_zero(self):
        p = LossPanel.from_rows([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        assert diversification_benefit(p, MeasureKind.es(0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_independent_bernoulli_at_half(self):
        # RAC_0.5(sum) = 1.5 - 1 = 0.5; standalone RACs 0.5 each
        p = bernoulli_product_panel()
        assert diversification_benefit(p, MeasureKind.es(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_independent_bernoulli_at_three_quarters(self):
        p = bernoulli_product_panel()
        assert diversification_benefit(p, MeasureKind.es(0.75)) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_denominator_raises(self):
        p = LossPanel.from_rows([[1.0, 1.0], [1.0, 1.0]])  # point masses: RAC = 0
        with pytest.raises(DegenerateDenominatorError):
            diversification_benefit(p, MeasureKind.es(0.6))

    def test_equals_one_minus_index_for_zero_mean_positions(self):
        rng = np.random.default_rng(229)
        for _ in range(30):
            t = int(rng.integers(2, 30))
            rows = rng.normal(0, 2, size=(t, 3))
            rows -= rows.mean(axis=0, keepdims=True)  # zero-mean columns
            p = LossPanel.from_rows(rows)
            kind = MeasureKind.es(0.8)
            db = diversification_benefit(p, kind)
            di = diversification_index(p, kind)
            # portfolio mean is zero too, so RAC = measure and DB = 1 - DI
            assert db == pytest.approx(1.0 - di, abs=1e-9)


class TestExpectileComonotoneBlindSpot:
    def test_linearly_dependent_columns_show_no_diversification(self):
        base = np.arange(1.0, 21.0)
        p = LossPanel.from_rows(np.column_stack([base, 3.0 * base + 2.0]))
        kind = MeasureKind.expectile(0.8)
        assert diversification_index(p, kind) == pytest.approx(1.0, abs=1e-10)

    def test_nonlinear_comonotone_columns_show_spurious_diversification(self):
        base = np.arange(1.0, 21.0)
        p = LossPanel.from_rows(np.column_stack([base, base**2]))
        kind = MeasureKind.expectile(0.8)
        assert diversification_index(p, kind) < 1.0 - 1e-6
