"""Law-based risk measures evaluated exactly on finite discrete distributions.

The four measures are

* ``value_at_risk`` -- the left-continuous alpha-quantile of the loss law,
* ``expected_shortfall`` -- the average of quantiles above alpha, computed in
  closed form (the piecewise-constant quantile function integrates exactly),
* ``expectile`` -- the asymmetric-least-squares location; coherent for
  tau >= 1/2 and equal to the mean at tau = 1/2,
* ``variance`` / ``mean`` -- plain central moments.

``risk_adjusted_capital`` is measure minus expected loss, and ``evaluate``
dispatches a :class:`MeasureKind` to the matching function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distribution import DiscreteDistribution, Level, LevelKind, level_value

__all__ = [
    "MeasureFamily",
    "MeasureKind",
    "mean",
    "variance",
    "value_at_risk",
    "expected_shortfall",
    "expectile",
    "risk_adjusted_capital",
    "evaluate",
    "es_quantile_approximation",
    "supporting_levels",
]


class MeasureFamily(Enum):
    MEAN = "mean"
    VARIANCE = "variance"
    VALUE_AT_RISK = "var"
    EXPECTED_SHORTFALL = "es"
    EXPECTILE = "expectile"


_LEVEL_KIND_BY_FAMILY = {
    MeasureFamily.VALUE_AT_RISK: LevelKind.QUANTILE,
    MeasureFamily.EXPECTED_SHORTFALL: LevelKind.QUANTILE,
    MeasureFamily.EXPECTILE: LevelKind.EXPECTILE,
}


@dataclass(frozen=True)
class MeasureKind:
    """A risk measure selection: family plus the level it is evaluated at.

    VaR and expected shortfall require a quantile level, expectiles an
    expectile level; mean and variance take none.
    """

    family: MeasureFamily
    level: Level | None = None

    def __post_init__(self) -> None:
        wanted = _LEVEL_KIND_BY_FAMILY.get(self.family)
        if wanted is None:
            if self.level is not None:
                raise ValueError(f"{self.family.value} takes no level")
        else:
            if self.level is None:
                raise ValueError(f"{self.family.value} requires a level")
            if self.level.kind is not wanted:
                raise ValueError(
                    f"{self.family.value} requires a {wanted.value} level, "
                    f"got a {self.level.kind.value} level"
                )

    @classmethod
    def mean(cls) -> "MeasureKind":
        return cls(MeasureFamily.MEAN)

    @classmethod
    def variance(cls) -> "MeasureKind":
        return cls(MeasureFamily.VARIANCE)

    @classmethod
    def var(cls, alpha: float) -> "MeasureKind":
        return cls(MeasureFamily.VALUE_AT_RISK, Level.quantile(alpha))

    @classmethod
    def es(cls, alpha: float) -> "MeasureKind":
        return cls(MeasureFamily.EXPECTED_SHORTFALL, Level.quantile(alpha))

    @classmethod
    def expectile(cls, tau: float) -> "MeasureKind":
        return cls(MeasureFamily.EXPECTILE, Level.expectile(tau))

    @classmethod
    def named(cls, name: str, level: float | None = None) -> "MeasureKind":
        """The measure of the family whose value is ``name``, at ``level`` if
        the family takes one; a family that takes none ignores ``level``."""
        family = MeasureFamily(name)
        wanted = _LEVEL_KIND_BY_FAMILY.get(family)
        return cls(family, None if wanted is None or level is None else Level(float(level), wanted))

    @property
    def label(self) -> str:
        if self.level is None:
            return self.family.value
        return f"{self.family.value}@{self.level.value:g}"


def mean(d: DiscreteDistribution) -> float:
    """Expected loss of the law."""
    return float(np.dot(d.atoms, d.weights))


def variance(d: DiscreteDistribution) -> float:
    """Second central moment of the law."""
    centered = d.atoms - mean(d)
    return float(np.dot(centered * centered, d.weights))


def value_at_risk(d: DiscreteDistribution, alpha: "Level | float") -> float:
    """The alpha-quantile of the loss law, inf{l : P(L <= l) >= alpha}."""
    return d.quantile(level_value(alpha, LevelKind.QUANTILE))


def expected_shortfall(d: DiscreteDistribution, alpha: "Level | float") -> float:
    """Average of the quantiles above ``alpha``: (1/(1-a)) * integral of q_u du.

    On a finite law the quantile function is a step function, so the integral
    is a finite sum over the cumulative-weight segments above ``alpha``.
    """
    a = level_value(alpha, LevelKind.QUANTILE)
    # segment k is cum_k - max(cum_{k-1}, a) where cum_k >= a, and +0.0 below
    edges = np.maximum(np.concatenate(([a], d.cum_weights)), a)
    return float(np.dot(d.atoms, edges[1:] - edges[:-1])) / (1.0 - a)


def expectile(d: DiscreteDistribution, tau: "Level | float") -> float:
    """The tau-expectile: the unique root of
    tau * E[(L - l)+] = (1 - tau) * E[(l - L)+].

    The imbalance g(l) = tau*E[(L-l)+] - (1-tau)*E[(l-L)+] is continuous,
    strictly decreasing, and piecewise linear with breakpoints at the atoms,
    so the root is bracketed by the support and found by bisection over the
    atoms followed by the closed-form solution on the linear piece containing
    the sign change. Bisection ends within ceil(log2 n) steps and no iterative
    tuning is involved; the result is exact up to floating-point rounding.
    """
    t = level_value(tau, LevelKind.EXPECTILE)
    atoms = d.atoms
    n = atoms.size
    if n == 1:
        return float(atoms[0])

    weights = d.weights
    cum_w = d.cum_weights
    cum_aw = (atoms * weights).cumsum()
    total_aw = float(cum_aw[-1])

    def imbalance_at_atom(k: int) -> float:
        above = (total_aw - cum_aw[k]) - (1.0 - cum_w[k]) * atoms[k]
        below = cum_w[k] * atoms[k] - cum_aw[k]
        return t * above - (1.0 - t) * below

    # smallest atom index where the imbalance is <= 0; index 0 is always > 0
    lo, hi = 0, n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if imbalance_at_atom(mid) <= 0.0:
            hi = mid
        else:
            lo = mid

    if imbalance_at_atom(hi) == 0.0:
        return float(atoms[hi])
    # linear piece (atoms[lo], atoms[hi]): atoms up to lo sit below the root
    num = t * (total_aw - cum_aw[lo]) + (1.0 - t) * cum_aw[lo]
    den = t * (1.0 - cum_w[lo]) + (1.0 - t) * cum_w[lo]
    return min(max(num / den, float(atoms[lo])), float(atoms[hi]))


def risk_adjusted_capital(d: DiscreteDistribution, kind: MeasureKind) -> float:
    """Measure value minus expected loss: the capital buffer beyond the mean."""
    return evaluate(d, kind) - mean(d)


def evaluate(d: DiscreteDistribution, kind: MeasureKind) -> float:
    """Evaluate a :class:`MeasureKind` on a law."""
    if kind.family is MeasureFamily.MEAN:
        return mean(d)
    if kind.family is MeasureFamily.VARIANCE:
        return variance(d)
    if kind.family is MeasureFamily.VALUE_AT_RISK:
        return value_at_risk(d, kind.level)
    if kind.family is MeasureFamily.EXPECTED_SHORTFALL:
        return expected_shortfall(d, kind.level)
    if kind.family is MeasureFamily.EXPECTILE:
        return expectile(d, kind.level)
    raise ValueError(f"unknown measure family {kind.family!r}")


def es_quantile_approximation(
    d: DiscreteDistribution, alpha: "Level | float", points: int = 4
) -> float:
    """Left-endpoint quantile approximation of expected shortfall.

    Averages the quantiles at the :func:`supporting_levels`. Because the
    quantile function is nondecreasing this left-endpoint Riemann sum never
    exceeds the exact expected shortfall.
    """
    return float(np.mean([d.quantile(u) for u in supporting_levels(alpha, points)]))


def supporting_levels(alpha: "Level | float", points: int = 4) -> tuple[float, ...]:
    """The levels a + k*(1-a)/points for k = 0, ..., points-1, with
    2 <= points <= 16, whose quantiles approximate expected shortfall at
    ``alpha``; ``points = 4`` gives the usual four supporting quantiles."""
    a = level_value(alpha, LevelKind.QUANTILE)
    if not 2 <= points <= 16:
        raise ValueError(f"need between 2 and 16 supporting quantile levels, got {points}")
    return tuple(a + k * (1.0 - a) / points for k in range(points))
