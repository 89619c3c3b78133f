"""Validation of VaR, expected-shortfall, and distribution forecasts.

Violation-based checks
   ``violation_process`` marks periods where the realized loss strictly
   exceeded the VaR forecast. Under a valid model the indicators are iid
   Bernoulli(1 - alpha); ``unconditional_coverage_test`` checks the rate with
   an exact two-sided binomial test and ``independence_test`` checks serial
   independence with a first-order Markov likelihood-ratio test.

Multi-quantile expected-shortfall backtest
   ``es_quantile_backtest`` backtests the supporting quantiles of the
   left-endpoint quantile average that approximates expected shortfall,
   Bonferroni-combining the per-level coverage verdicts.

Distribution forecasts
   ``pit_transform`` maps a realization through the randomized probability
   integral transform of a scenario-set forecast; under a correct forecast
   the transformed values are iid uniform on [0, 1], which
   ``pit_uniformity_test`` (chi-square) and ``pit_independence_test``
   (portmanteau on low integer powers) check.

Counterexample searches
   Exhaustive small-grid searches exhibiting that expectiles are not
   comonotonically additive and that VaR can be superadditive.

The four tests compute their binomial tails from Loader's saddle-point pmf
(C. Loader 2000, "Fast and accurate computation of binomial probabilities")
and their chi-square tails from the closed form at integer degrees of freedom,
to 1e-12 relative down to 1e-300, so the package needs only numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .allocation import LossPanel
from .distribution import (
    ComonotonePair,
    DiscreteDistribution,
    Level,
    LevelKind,
    _check_integer,
    _dot,
    _finite,
    level_value,
)
from .errors import (
    CounterexampleNotFoundError,
    EmptyScenarioSetError,
    InsufficientDataError,
    ShapeMismatchError,
)
from .measures import expectile, supporting_levels, value_at_risk

__all__ = [
    "SIGNIFICANCE_LEVELS",
    "ViolationSeries",
    "TestResult",
    "PitSeries",
    "EsQuantileBacktestResult",
    "ComonotoneCounterexample",
    "VarSuperadditivityExample",
    "violation_process",
    "unconditional_coverage_test",
    "independence_test",
    "es_quantile_backtest",
    "pit_transform",
    "pit_series",
    "pit_uniformity_test",
    "pit_independence_test",
    "find_expectile_comonotone_counterexample",
    "find_var_superadditivity_example",
    "enumerate_joint_panels",
]

SIGNIFICANCE_LEVELS = (0.01, 0.05, 0.10)


@dataclass(frozen=True, eq=False)
class ViolationSeries:
    """Per-period indicators that the realized loss exceeded the VaR forecast;
    ``count`` is their sum."""

    indicators: np.ndarray
    alpha: Level
    count: int = field(init=False)

    def __post_init__(self) -> None:
        indicators = np.asarray(self.indicators)
        if indicators.size < 1:
            raise InsufficientDataError("a violation series needs at least one period")
        if not np.all((indicators == 0) | (indicators == 1)):
            raise ValueError("indicators must be 0 or 1")
        object.__setattr__(self, "indicators", indicators)
        object.__setattr__(self, "count", int(indicators.sum()))

    def __len__(self) -> int:
        return self.indicators.size


def violation_process(
    var_forecasts: Sequence[float],
    realizations: Sequence[float],
    alpha: "Level | float",
) -> ViolationSeries:
    """Indicator series 1{loss > forecast}; strict inequality by construction."""
    a = level_value(alpha, LevelKind.QUANTILE)
    forecasts = _finite(var_forecasts, "var_forecasts")
    losses = _finite(realizations, "realizations")
    if forecasts.size != losses.size:
        raise ShapeMismatchError(
            f"{forecasts.size} forecasts but {losses.size} realizations"
        )
    indicators = (losses > forecasts).astype(np.int8)
    indicators.setflags(write=False)
    return ViolationSeries(indicators, Level.quantile(a))


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test.

    ``reject_at`` maps each conventional significance level to whether the
    null is rejected there (p-value strictly below the level).
    """

    method: str
    statistic: float
    p_value: float
    reject_at: Mapping[float, bool]
    notes: tuple[str, ...] = ()


def _make_result(method: str, statistic: float, p_value: float, notes=()) -> TestResult:
    p_value = float(min(max(p_value, 0.0), 1.0))
    return TestResult(
        method=method,
        statistic=float(statistic),
        p_value=p_value,
        reject_at={lvl: p_value < lvl for lvl in SIGNIFICANCE_LEVELS},
        notes=tuple(notes),
    )


def _stirlerr(v: float) -> float:
    """log Γ(v + 1) - log(√(2πv) (v/e)^v), the error of Stirling's formula, for v > 0."""
    if v <= 15.0:
        return math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v - 0.5 * math.log(2.0 * math.pi)
    w = 1.0 / (v * v)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / v


def _bd0(x: float, m: float, d: float) -> float:
    """x log(x/m) + m - x, given d = x - m to full precision; near x = m by a
    series in v = d/(x + m) that cancels nothing."""
    v = d / (x + m)
    if abs(v) >= 0.3:
        return x * math.log(x / m) - d
    v2, term, total = v * v, 2.0 * x * v, d * v
    for j in itertools.count(3, 2):
        term *= v2
        if total + term / j == total:
            return total
        total += term / j


def _tail_sum(ratios: Iterator[float]) -> float:
    """1 + r1 + r1 r2 + ... for ratios below 1 that fall, stopped once the
    geometric bound on the rest is below double precision."""
    terms = [1.0]
    for r in ratios:
        terms.append(terms[-1] * r)
        if terms[-1] < (1.0 - r) * 2.0**-60:
            break
    return math.fsum(terms)


def _binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P[X <= k] and P[X >= k] for X ~ Binomial(n, p): on the side of k away
    from the mean, pmf(k) times the sum of pmf ratios outward from k; on the
    near side, which holds at least half the mass, the complement."""
    if p == 1.0:
        return float(k == n), 1.0
    q = 1.0 - p
    if k in (0, n):
        log_pmf = n * (math.log1p(-p) if k == 0 else math.log(p))
    else:
        num, den = p.as_integer_ratio()
        d = (k * den - n * num) / den  # k - n p, rounded once
        log_pmf = (
            _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p, d)
            - _bd0(n - k, n * q, -d) - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n)
        )
    upper = k > n * p
    if upper:
        s = _tail_sum((n - i) * p / ((i + 1) * q) for i in range(k, n))
    else:
        s = _tail_sum(i * q / ((n - i + 1) * p) for i in range(k, 0, -1))
    far, near = math.exp(log_pmf + math.log(s)), 1.0 - math.exp(log_pmf) * (s - 1.0)
    return (near, far) if upper else (far, near)


def _chi2_sf(x: float, df: int) -> float:
    """P[chi2_df > x] for integer df >= 1: with l = x/2, erfc(√l) for odd df
    plus the sum of e^-l l^v / Γ(v + 1) over v = df/2 - 1, df/2 - 2, ... > -1,
    summed outward from its largest term so that no large x or df underflows."""
    if x <= 0.0:
        return 1.0
    lam = x / 2.0
    low, high = df % 2 / 2, df / 2 - 1
    tail = math.erfc(math.sqrt(lam)) if df % 2 else 0.0
    if high < low:
        return tail
    top = min(high, low + max(0, math.floor(lam - low)))
    s = _tail_sum((top - j) / lam for j in range(int(top - low)))
    s += _tail_sum(lam / (top + j + 1) for j in range(int(high - top))) - 1.0
    if top == 0:
        log_top = -lam
    else:
        log_top = -_stirlerr(top) - _bd0(top, lam, top - lam) - 0.5 * math.log(2.0 * math.pi * top)
    return min(1.0, tail + math.exp(log_top + math.log(s)))


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0 else x * math.log(y)


def unconditional_coverage_test(v: ViolationSeries) -> TestResult:
    """Exact two-sided binomial test of count ~ Binomial(T, 1 - alpha)."""
    lower, upper = _binomial_tails(v.count, len(v), 1.0 - v.alpha.value)
    return _make_result(
        "coverage-binomial-exact", float(v.count), min(1.0, 2.0 * min(lower, upper))
    )


def independence_test(v: ViolationSeries) -> TestResult:
    """First-order Markov likelihood-ratio test of violation independence.

    Compares the iid Bernoulli fit against a two-state Markov chain fit;
    the statistic is asymptotically chi-square with one degree of freedom.
    A degenerate series (no violations, or nothing but violations, as every
    one-period series is) shows no dependence: statistic 0, p-value 1 and the
    note ``degenerate``.
    """
    if v.count in (0, len(v)):
        return _make_result("independence-markov-lr", 0.0, 1.0, ("degenerate",))
    i = v.indicators.astype(np.intp)
    n00, n01, n10, n11 = np.bincount(2 * i[:-1] + i[1:], minlength=4).tolist()
    from0 = n00 + n01
    from1 = n10 + n11
    p01 = n01 / from0 if from0 else 0.0
    p11 = n11 / from1 if from1 else 0.0
    pooled = (n01 + n11) / (from0 + from1)
    ll_markov = (
        _xlogy(n00, 1.0 - p01) + _xlogy(n01, p01) + _xlogy(n10, 1.0 - p11) + _xlogy(n11, p11)
    )
    ll_iid = _xlogy(n00 + n10, 1.0 - pooled) + _xlogy(n01 + n11, pooled)
    statistic = max(2.0 * (ll_markov - ll_iid), 0.0)
    p_value = _chi2_sf(statistic, 1)
    return _make_result("independence-markov-lr", statistic, p_value)


@dataclass(frozen=True, eq=False)
class EsQuantileBacktestResult:
    """Joint backtest of the supporting quantiles approximating expected shortfall.

    ``passed`` is True when every per-level coverage test survives at the
    Bonferroni-adjusted significance. ``approximation`` is the per-period
    average of the supporting quantile forecasts and ``mean_gap`` the mean of
    (es_forecast - approximation). ``top_tail_observations`` lists the
    realized losses in the upper tail beyond the highest supporting level,
    for manual inspection - the test makes no automated judgment on them.
    """

    alpha: float
    significance: float
    levels: tuple[float, ...]
    coverage: tuple[TestResult, ...]
    independence: tuple[TestResult, ...]
    passed: bool
    approximation: np.ndarray
    mean_gap: float
    top_tail_observations: tuple[float, ...]


def _check_significance(value: float) -> None:
    if not 0.0 < value <= 0.5:
        raise ValueError(f"significance must lie in (0, 0.5], got {value}")


def es_quantile_backtest(
    es_forecasts: Sequence[float],
    quantile_forecasts: Sequence[Sequence[float]],
    realizations: Sequence[float],
    alpha: "Level | float",
    significance: float = 0.05,
) -> EsQuantileBacktestResult:
    """Backtest expected-shortfall forecasts through their supporting quantiles.

    With K supporting series, the levels are ``supporting_levels(alpha, K)``,
    a + k*(1-a)/K for k = 0..K-1 (K = 4 recovers the usual four-point
    approximation). Each level's violation process is run through the
    coverage and independence tests; the joint verdict Bonferroni-adjusts
    coverage to significance/K.
    """
    a = level_value(alpha, LevelKind.QUANTILE)
    _check_significance(significance)
    levels = supporting_levels(a, len(quantile_forecasts))
    k_points = len(levels)
    losses = _finite(realizations, "realizations")
    es_series = _finite(es_forecasts, "es_forecasts")
    if es_series.size != losses.size:
        raise ShapeMismatchError(
            f"{es_series.size} es forecasts but {losses.size} realizations"
        )
    q_series = [_finite(qf, "quantile_forecasts") for qf in quantile_forecasts]
    for idx, qf in enumerate(q_series):
        if qf.size != losses.size:
            raise ShapeMismatchError(
                f"quantile series {idx + 1} has {qf.size} entries for {losses.size} realizations"
            )
    coverage = []
    independence = []
    per_level = significance / k_points
    for level, qf in zip(levels, q_series):
        series = violation_process(qf, losses, level)
        coverage.append(unconditional_coverage_test(series))
        independence.append(independence_test(series))
    passed = all(res.p_value >= per_level for res in coverage)
    approximation = np.mean(q_series, axis=0)
    mean_gap = float(np.mean(es_series - approximation))
    n_top = max(1, math.ceil(losses.size * (1.0 - a) / k_points))
    top_tail = tuple(float(x) for x in np.sort(losses)[-n_top:][::-1])
    approximation.setflags(write=False)
    return EsQuantileBacktestResult(
        alpha=a,
        significance=significance,
        levels=levels,
        coverage=tuple(coverage),
        independence=tuple(independence),
        passed=passed,
        approximation=approximation,
        mean_gap=mean_gap,
        top_tail_observations=top_tail,
    )


@dataclass(frozen=True, eq=False)
class PitSeries:
    """Probability-integral-transform values of realized losses under
    scenario-set forecasts; iid uniform on [0, 1] under a correct model."""

    z: np.ndarray
    randomized: bool
    rng_seed: int | None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float).ravel()
        if z.size == 0:
            raise InsufficientDataError("a PIT series needs at least one value")
        if not np.all((z >= 0.0) & (z <= 1.0)):  # NaN fails both
            raise ValueError("PIT values z must lie in [0, 1]")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return self.z.size


def _pit_values(scenario_sets: Sequence, x: np.ndarray, v: np.ndarray | float) -> np.ndarray:
    """F(x-) + v * (F(x) - F(x-)) in each row, F the empirical cdf of its scenario set. Each
    set object is checked and sorted once, in the order of first rows, and held until return."""
    groups: dict[int, tuple[Sequence[float], list[int]]] = {}
    for idx, scenarios in enumerate(scenario_sets):
        groups.setdefault(id(scenarios), (scenarios, []))[1].append(idx)
    below, upto, n = np.empty((3, x.size), dtype=np.intp)
    for scenarios, rows in groups.values():
        ordered = np.sort(np.asarray(scenarios, dtype=float), axis=None)
        if len(scenarios) == 0 or ordered.size == 0:  # len() refuses a bare number
            raise EmptyScenarioSetError("scenario set must contain at least one value")
        if not all(map(math.isfinite, (ordered.item(0), ordered.item(-1)))):  # NaN sorts last
            raise ValueError("atoms and weights must be finite")
        rows = np.array(rows)
        below[rows] = ordered.searchsorted(x[rows])
        upto[rows] = ordered.searchsorted(x[rows], side="right")
        n[rows] = ordered.size
    if np.isnan(x).any():  # searchsorted would place it above every scenario
        raise ValueError("realizations must not be NaN")
    lo, hi = below / n, upto / n
    return lo + v * (hi - lo)


def pit_transform(scenario_set: Sequence[float], realization: float, v: float) -> float:
    """Randomized probability integral transform of one realization.

    With F the empirical cdf of the scenario set, returns
    F(x-) + v * (F(x) - F(x-)); the uniform draw ``v`` spreads the atom mass
    so that draws from the scenario distribution itself map to exact
    uniforms despite the discreteness of the forecast cdf.
    """
    z = _pit_values([scenario_set], np.array([realization], dtype=float), v)  # checks the set first
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"randomization draw must lie in [0, 1], got {v}")
    return float(z[0])


def pit_series(
    scenario_sets: Sequence[Sequence[float]],
    realizations: Sequence[float],
    rng_seed: int,
    randomized: bool = True,
) -> PitSeries:
    """PIT values for aligned scenario forecasts and realizations.

    Randomization draws come from a generator seeded with ``rng_seed`` in row
    order, so results are bit-reproducible for a given seed. A realization
    may be infinite, but not NaN.
    """
    losses = np.asarray(realizations, dtype=float).ravel()
    if len(scenario_sets) != losses.size:
        raise ShapeMismatchError(
            f"{len(scenario_sets)} scenario sets but {losses.size} realizations"
        )
    rng = np.random.default_rng(rng_seed)
    v = rng.uniform(size=losses.size) if randomized else np.ones(losses.size)
    z = _pit_values(scenario_sets, losses, v)
    return PitSeries(z=z, randomized=randomized, rng_seed=int(rng_seed) if randomized else None)


def pit_uniformity_test(p: PitSeries, bins: int = 10) -> TestResult:
    """Pearson chi-square test of the PIT values against equal bin probabilities."""
    bins = _check_integer(bins, "bins", 2)
    t = len(p)
    if t < 5 * bins:
        raise InsufficientDataError(
            f"chi-square uniformity test needs at least {5 * bins} values, got {t}"
        )
    counts, _ = np.histogram(p.z, bins=bins, range=(0.0, 1.0))
    expected = t / bins
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    p_value = _chi2_sf(statistic, bins - 1)
    return _make_result("pit-uniformity-chi2", statistic, p_value)


def pit_independence_test(
    p: PitSeries, max_lag: int = 5, powers: Sequence[int] = (1, 2, 3)
) -> TestResult:
    """Portmanteau (Ljung-Box) test on autocorrelations of the PIT values and
    their low integer powers, Bonferroni-combined across powers."""
    max_lag = _check_integer(max_lag, "max_lag", 1)
    powers = sorted(_check_integer(k, "power", 1) for k in powers)
    if len(powers) == 0:
        raise ValueError("need at least one power")
    if len(set(powers)) < len(powers):  # the Bonferroni factor would count it twice
        raise ValueError(f"powers must not repeat, got {powers}")
    t = len(p)
    if t <= max_lag + 1:
        raise InsufficientDataError(
            f"portmanteau test with {max_lag} lags needs more than {max_lag + 1} values"
        )
    worst_p = math.inf
    worst_stat = 0.0
    notes = []
    for k in powers:
        x = p.z**k
        centered = x - x.mean()
        denom = _dot(centered, centered)
        # centering a constant series leaves only rounding, and a spread below
        # about 1e-154 squares to zero; neither has autocorrelations
        if np.ptp(x) == 0.0 or denom == 0.0:
            notes.append(f"power {k}: constant series")
            continue
        q_stat = 0.0
        for lag in range(1, max_lag + 1):
            r = _dot(centered[:-lag], centered[lag:]) / denom
            q_stat += r * r / (t - lag)
        q_stat *= t * (t + 2.0)
        pk = _chi2_sf(q_stat, max_lag)
        notes.append(f"power {k}: p={pk:.6g}")
        if pk < worst_p:
            worst_p = pk
            worst_stat = q_stat
    if math.isinf(worst_p):
        return _make_result(
            "pit-independence-portmanteau", 0.0, 1.0, notes + ["degenerate"]
        )
    combined = min(1.0, len(powers) * worst_p)
    return _make_result("pit-independence-portmanteau", worst_stat, combined, notes)


def _compositions(total: int, parts: int) -> Iterator[np.ndarray]:
    """Every way to split ``total`` into ``parts`` non-negative integers
    (stars and bars), as count arrays, in lexicographic order of the bars."""
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        edges = (-1, *bars, end)
        yield np.array([b - a - 1 for a, b in zip(edges, edges[1:])])


@dataclass(frozen=True, eq=False)
class ComonotoneCounterexample:
    """A comonotone pair on which the expectile fails to add up."""

    pair: ComonotonePair
    tau: float
    sum_value: float
    part_values: tuple[float, float]
    gap: float


def find_expectile_comonotone_counterexample(
    tau: "Level | float",
    factor_atoms: Sequence[float] = (0.0, 1.0, 2.0),
    map_values: Sequence[float] = (0.0, 1.0, 2.0),
    weight_denominator: int = 8,
) -> ComonotoneCounterexample:
    """Exhaustively search comonotone pairs for expectile non-additivity.

    Factors run over the given atoms with all positive weight vectors in
    multiples of 1/weight_denominator; the maps run over all nondecreasing
    assignments of ``map_values`` to the factor atoms. Returns the first pair
    (in deterministic iteration order) whose additivity gap exceeds
    1e-6; raises :class:`CounterexampleNotFoundError` if the grid is
    exhausted, in which case widen it. The grid holds C(d - 1, k - 1) factors
    for k atoms and denominator d, each paired with every two maps, so a
    search that finds nothing on the default atoms and maps scans
    C(d - 1, 2) * 100 pairs. Each distinct loss on a factor is measured once;
    on the default atoms and maps they are the 35 nondecreasing maps to 0..4.
    """
    t = level_value(tau, LevelKind.EXPECTILE)
    if not 0.5 < t < 1.0:
        raise ValueError(f"the search targets tau in (1/2, 1), got {t}")
    d = _check_integer(weight_denominator, "weight_denominator", 2)
    atoms = np.asarray(factor_atoms, dtype=float)
    maps = [np.asarray(f, dtype=float) for f in
            itertools.combinations_with_replacement(sorted(map_values), atoms.size)]
    # a positive split of d into k parts is a non-negative split of d - k, plus one each
    for counts in _compositions(d - atoms.size, atoms.size):
        factor = DiscreteDistribution(atoms, (counts + 1) / d)
        # the expectile of each distinct loss on the factor, map or sum, keyed by
        # its bytes so that 0.0 and -0.0 stay apart
        measured: dict[bytes, float] = {}
        for f1, f2 in itertools.product(maps, repeat=2):
            losses = (f1, f2, f1 + f2)
            for values in losses:
                if values.tobytes() not in measured:
                    law = DiscreteDistribution(values, factor.weights)
                    measured[values.tobytes()] = expectile(law, t)
            e1, e2, e_sum = (measured[values.tobytes()] for values in losses)
            gap = e_sum - (e1 + e2)
            if abs(gap) > 1e-6:
                pair = ComonotonePair(factor, f1, f2)
                return ComonotoneCounterexample(pair, t, e_sum, (e1, e2), gap)
    raise CounterexampleNotFoundError(
        "no expectile additivity violation in the search grid; widen the grid"
    )


@dataclass(frozen=True, eq=False)
class VarSuperadditivityExample:
    """A joint two-position law on which VaR is strictly superadditive."""

    panel: LossPanel
    alpha: float
    portfolio_var: float
    position_vars: tuple[float, float]
    gap: float


def find_var_superadditivity_example(
    alpha: "Level | float",
    tail_probabilities: Sequence[float] = (0.01, 0.02, 0.04, 0.05, 0.08),
) -> VarSuperadditivityExample:
    """Search independent products of two-point loss laws for VaR superadditivity.

    Each marginal puts mass p on a loss of 10 and 1-p on zero; the joint law
    is the independent product. Returns the first pair (in deterministic
    order) with VaR(L1 + L2) > VaR(L1) + VaR(L2) + 1e-12.
    """
    a = level_value(alpha, LevelKind.QUANTILE)
    rows = [[0.0, 0.0], [0.0, 10.0], [10.0, 0.0], [10.0, 10.0]]
    for p1, p2 in itertools.product(tail_probabilities, repeat=2):
        weights = [(1.0 - p1) * (1.0 - p2), (1.0 - p1) * p2, p1 * (1.0 - p2), p1 * p2]
        panel = LossPanel.from_rows(rows, weights=weights)
        var_sum = value_at_risk(panel.portfolio_law(), a)
        var_1 = value_at_risk(panel.column_law(0), a)
        var_2 = value_at_risk(panel.column_law(1), a)
        gap = var_sum - (var_1 + var_2)
        if gap > 1e-12:
            return VarSuperadditivityExample(
                panel=panel,
                alpha=a,
                portfolio_var=var_sum,
                position_vars=(var_1, var_2),
                gap=gap,
            )
    raise CounterexampleNotFoundError(
        "no VaR superadditivity instance in the search grid; widen the grid"
    )


def enumerate_joint_panels(
    atoms_a: Sequence[float],
    atoms_b: Sequence[float],
    weight_denominator: int,
) -> Iterator[LossPanel]:
    """All joint laws of (L1, L2) on the atom grid with weights in multiples
    of 1/weight_denominator, as two-position panels ``pos_1``, ``pos_2``
    (zero-weight grid points are dropped).

    A grid of k points has C(d + k - 1, k - 1) laws for denominator d: the
    3x3 grid has C(d + 8, 8), 12,870 for d = 8. The call raises ValueError
    unless d is an integer of at least 1 and both atom lists are non-empty.
    """
    d = _check_integer(weight_denominator, "weight_denominator", 1)
    grid = np.array(list(itertools.product(atoms_a, atoms_b)), dtype=float)
    if grid.size == 0:
        raise ValueError(f"the atom grid is empty: {len(atoms_a)} x {len(atoms_b)} atoms")
    return (
        LossPanel(("pos_1", "pos_2"), grid.compress(counts, axis=0), counts.compress(counts) / d)
        for counts in _compositions(d, len(grid))
    )
