"""Tests for the discrete-distribution substrate: construction, quantiles,
comonotone couplings, and the Wasserstein distance."""

import math

import numpy as np
import pytest

from tailrisk import (
    ComonotonePair,
    DiscreteDistribution,
    EmptySampleError,
    Level,
    LevelKind,
    ShapeMismatchError,
    comonotone_sum,
    wasserstein1,
)

import oracles


def uniform_1_to_100():
    return DiscreteDistribution.from_sample(range(1, 101))


class TestConstruction:
    def test_from_sample_equal_weights(self):
        d = DiscreteDistribution.from_sample([3, 1, 2])
        assert np.array_equal(d.atoms, [1.0, 2.0, 3.0])
        assert np.allclose(d.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_from_sample_merges_duplicates(self):
        d = DiscreteDistribution.from_sample([1, 1, 2])
        assert np.array_equal(d.atoms, [1.0, 2.0])
        assert np.allclose(d.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_from_sample_point_mass(self):
        d = DiscreteDistribution.from_sample([5])
        assert np.array_equal(d.atoms, [5.0])
        assert np.array_equal(d.weights, [1.0])

    def test_from_sample_empty_raises(self):
        with pytest.raises(EmptySampleError):
            DiscreteDistribution.from_sample([])

    def test_constructor_sorts_and_merges(self):
        d = DiscreteDistribution([2.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        assert np.array_equal(d.atoms, [1.0, 2.0])
        assert np.allclose(d.weights, [0.5, 0.5])

    def test_constructor_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0, 2.0], [0.5, 0.6])

    def test_constructor_rejects_bad_equal_weight_sum(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0, 2.0], [0.6, 0.6])

    def test_constructor_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0, 2.0], [1.0, 0.0])

    def test_constructor_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            DiscreteDistribution([1.0, 2.0], [1.0])

    def test_constructor_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0, np.inf], [0.5, 0.5])

    NAN, INF = float("nan"), float("inf")
    FINITE = (ValueError, "atoms and weights must be finite")
    POSITIVE = (ValueError, "all weights must be strictly positive")

    @pytest.mark.parametrize(
        "atoms, weights, error",
        [
            ([0.0, NAN], [0.5, 0.5], FINITE),
            ([NAN, 1.0, 2.0], [0.25, 0.5, 0.25], FINITE),
            ([INF, 0.0], [0.5, 0.5], FINITE),
            ([-INF, 0.0], [0.25, 0.75], FINITE),
            ([0.0, 1.0], [INF, 0.5], FINITE),
            ([0.0, 1.0], [-INF, 0.5], FINITE),
            ([0.0, 1.0], [NAN, 0.5], FINITE),
            ([0.0, 1.0], [NAN, NAN], FINITE),
            ([NAN, 1.0], [0.0, 1.0], FINITE),  # finiteness is checked first
            ([0.0, 1.0], [0.0, 1.0], POSITIVE),
            ([0.0, 1.0], [0.0, 0.0], POSITIVE),
            ([0.0, 1.0], [-0.5, 1.5], POSITIVE),
            ([], [], (EmptySampleError, "a distribution needs at least one atom")),
            ([], [1.0], (EmptySampleError, "a distribution needs at least one atom")),
            ([0.0, 1.0], [1.0], (ShapeMismatchError, "2 atoms but 1 weights")),
            ([0.0], [], (ShapeMismatchError, "1 atoms but 0 weights")),
            ([0.0, 1.0], [0.5, 0.6], (ValueError, "weights must sum to 1 within 1e-12, got 1.1")),
            ([0.0, 1.0], [0.4, 0.4], (ValueError, "weights must sum to 1 within 1e-12, got 0.8")),
        ],
    )
    def test_rejection_type_and_message(self, atoms, weights, error):
        kind, message = error
        with pytest.raises(kind) as caught:
            DiscreteDistribution(np.array(atoms), np.array(weights))
        assert type(caught.value) is kind and str(caught.value) == message

    def test_arrays_are_read_only(self):
        d = uniform_1_to_100()
        with pytest.raises(ValueError):
            d.atoms[0] = -1.0


class TestLevel:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Level.quantile(bad)

    def test_kinds(self):
        assert Level.quantile(0.95).kind is LevelKind.QUANTILE
        assert Level.expectile(0.8).kind is LevelKind.EXPECTILE


class TestQuantileAndCdf:
    def test_uniform_95(self):
        d = uniform_1_to_100()
        assert d.quantile(0.95) == 95.0

    def test_uniform_951(self):
        d = uniform_1_to_100()
        assert d.quantile(0.951) == 96.0

    def test_point_mass_any_level(self):
        d = DiscreteDistribution.from_sample([5])
        for u in (0.01, 0.5, 0.99):
            assert d.quantile(u) == 5.0

    def test_quantile_rejects_bad_level(self):
        d = uniform_1_to_100()
        with pytest.raises(ValueError):
            d.quantile(0.0)
        with pytest.raises(ValueError):
            d.quantile(1.0)

    def test_bernoulli_cdf(self):
        d = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        assert d.cdf(0.0) == 0.5
        assert d.cdf_left(0.0) == 0.0

    def test_uniform_cdf_at_95(self):
        d = uniform_1_to_100()
        assert d.cdf(95.0) == pytest.approx(0.95, abs=1e-15)

    def test_cdf_below_support(self):
        d = uniform_1_to_100()
        assert d.cdf(0.5) == 0.0
        assert d.cdf_left(1.0) == 0.0

    def test_cdf_refuses_nan(self):
        """searchsorted sorts NaN above every atom, where both cdfs would read 1.0."""
        d = DiscreteDistribution.from_sample([1.0, 2.0, 3.0])
        for cdf in (d.cdf, d.cdf_left):
            with pytest.raises(ValueError, match="NaN"):
                cdf(float("nan"))
            assert cdf(math.inf) == 1.0 and cdf(-math.inf) == 0.0

    def test_quantile_cdf_sandwich_random_laws(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = DiscreteDistribution.from_sample(rng.normal(0, 4, n))
            us = np.sort(rng.uniform(0.001, 0.999, 10))
            qs = [d.quantile(u) for u in us]
            assert all(a <= b for a, b in zip(qs, qs[1:]))  # nondecreasing in u
            for u, q in zip(us, qs):
                assert d.cdf(q) >= u
                assert d.cdf_left(q) <= u

    def test_quantile_matches_scan_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            d = DiscreteDistribution.from_sample(rng.integers(-5, 5, n))
            for u in rng.uniform(0.01, 0.99, 5):
                assert d.quantile(u) == oracles.quantile_by_scan(d.atoms, d.weights, u)


class TestShiftScale:
    def test_shift(self):
        d = uniform_1_to_100()
        s = d.shift(2.5)
        assert np.allclose(s.atoms, d.atoms + 2.5)
        assert np.array_equal(s.weights, d.weights)

    def test_shift_and_scale_keep_cumulative_weights(self):
        # 10^5 rows with many duplicates: merged weights are unequal, so a
        # recomputed running sum would drift from the source's counts
        rng = np.random.default_rng(3)
        d = DiscreteDistribution.from_sample(np.round(rng.normal(size=10**5), 2))
        assert d.atoms.size < 10**4
        assert np.array_equal(d.shift(0.3).cum_weights, d.cum_weights)
        assert np.array_equal(d.scale(2.5).cum_weights, d.cum_weights)

    def test_scale_zero_collapses(self):
        d = uniform_1_to_100()
        z = d.scale(0.0)
        assert np.array_equal(z.atoms, [0.0])

    def test_scale_negative_mirrors(self):
        d = DiscreteDistribution([1.0, 3.0], [0.25, 0.75])
        m = d.scale(-1.0)
        assert np.array_equal(m.atoms, [-3.0, -1.0])
        assert np.allclose(m.weights, [0.75, 0.25])


class TestComonotone:
    def test_identity_maps_double(self):
        factor = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        pair = ComonotonePair(factor, [0.0, 1.0], [0.0, 1.0])
        _, _, law_sum = comonotone_sum(pair)
        assert np.array_equal(law_sum.atoms, [0.0, 2.0])
        assert np.allclose(law_sum.weights, [0.5, 0.5])

    def test_linear_and_square_maps(self):
        factor = DiscreteDistribution.from_sample([1, 2, 3])
        pair = ComonotonePair(factor, [1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
        _, _, law_sum = comonotone_sum(pair)
        assert np.array_equal(law_sum.atoms, [2.0, 6.0, 12.0])

    def test_constant_map_translates(self):
        factor = DiscreteDistribution.from_sample([1, 2, 3])
        pair = ComonotonePair(factor, [4.0, 4.0, 4.0], [1.0, 4.0, 9.0])
        _, law2, law_sum = comonotone_sum(pair)
        assert np.allclose(law_sum.atoms, law2.atoms + 4.0)
        assert np.allclose(law_sum.weights, law2.weights)

    def test_marginals_match_pushforwards(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            factor = DiscreteDistribution.from_sample(rng.normal(size=max(n, 1)))
            k = factor.atoms.size
            f1 = np.sort(rng.integers(-3, 4, k)).astype(float)
            f2 = np.sort(rng.integers(-3, 4, k)).astype(float)
            law1, law2, _ = comonotone_sum(ComonotonePair(factor, f1, f2))
            direct1 = DiscreteDistribution(f1, factor.weights)
            assert np.array_equal(law1.atoms, direct1.atoms)
            assert np.allclose(law1.weights, direct1.weights, atol=1e-15)
            direct2 = DiscreteDistribution(f2, factor.weights)
            assert np.array_equal(law2.atoms, direct2.atoms)

    def test_rejects_length_mismatch(self):
        factor = DiscreteDistribution.from_sample([1, 2, 3])
        with pytest.raises(ShapeMismatchError):
            ComonotonePair(factor, [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_decreasing_map(self):
        factor = DiscreteDistribution.from_sample([1, 2, 3])
        with pytest.raises(ValueError):
            ComonotonePair(factor, [3.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_a_non_finite_map_by_name(self):
        factor = DiscreteDistribution.from_sample([1, 2, 3])
        with pytest.raises(ValueError, match="^f1 must be finite$"):
            ComonotonePair(factor, [1.0, 2.0, float("inf")], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^f2 must be finite$"):
            ComonotonePair(factor, [1.0, 2.0, 3.0], [1.0, float("nan"), 3.0])


class TestWasserstein:
    def test_unit_shift(self):
        d1 = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        d2 = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        assert wasserstein1(d1, d2) == pytest.approx(1.0, abs=1e-15)

    def test_identity_is_zero(self):
        d = uniform_1_to_100()
        assert wasserstein1(d, d) == 0.0

    def test_point_vs_two_point(self):
        d1 = DiscreteDistribution([0.0], [1.0])
        d2 = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
        assert wasserstein1(d1, d2) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d1 = DiscreteDistribution.from_sample(rng.normal(0, 2, int(rng.integers(1, 9))))
            d2 = DiscreteDistribution.from_sample(rng.normal(1, 3, int(rng.integers(1, 9))))
            w12 = wasserstein1(d1, d2)
            assert w12 == pytest.approx(wasserstein1(d2, d1), abs=1e-14)
            area = oracles.wasserstein_by_cdf_area(d1.atoms, d1.weights, d2.atoms, d2.weights)
            assert w12 == pytest.approx(area, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            laws = [
                DiscreteDistribution.from_sample(rng.normal(0, 3, int(rng.integers(1, 7))))
                for _ in range(3)
            ]
            ab = wasserstein1(laws[0], laws[1])
            bc = wasserstein1(laws[1], laws[2])
            ac = wasserstein1(laws[0], laws[2])
            assert ac <= ab + bc + 1e-12

    def test_translation_distance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = DiscreteDistribution.from_sample(rng.normal(0, 2, int(rng.integers(1, 10))))
            a = float(rng.normal(0, 5))
            assert wasserstein1(d.shift(a), d) == pytest.approx(abs(a), abs=1e-12)
