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

from .distribution import DiscreteDistribution, Level, LevelKind, _check_integer, _dot, level_value

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


# each family's level kind (None: it takes no level) and its value on a law; the lambdas
# look the measures up at call time, so a wrapper bound over a module name sees evaluate
_FAMILIES = {
    MeasureFamily.MEAN: (None, lambda d, level: mean(d)),
    MeasureFamily.VARIANCE: (None, lambda d, level: variance(d)),
    MeasureFamily.VALUE_AT_RISK: (LevelKind.QUANTILE, lambda d, level: value_at_risk(d, level)),
    MeasureFamily.EXPECTED_SHORTFALL: (LevelKind.QUANTILE, lambda d, level: expected_shortfall(d, level)),
    MeasureFamily.EXPECTILE: (LevelKind.EXPECTILE, lambda d, level: expectile(d, level)),
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
        wanted = _FAMILIES[self.family][0]
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
        """The measure of the family whose value is ``name``, at ``level``; the
        constructor refuses a level the family does not take, or lacks."""
        family = MeasureFamily(name)
        wanted = _FAMILIES[family][0]
        return cls(family, level if wanted is None or level is None else Level(float(level), wanted))

    @property
    def label(self) -> str:
        if self.level is None:
            return self.family.value
        return f"{self.family.value}@{self.level.value:g}"


def mean(d: DiscreteDistribution) -> float:
    """Expected loss of the law."""
    return _dot(d.atoms, d.weights)


def variance(d: DiscreteDistribution) -> float:
    """Second central moment of the law."""
    centered = d.atoms - mean(d)
    return _dot(centered * centered, d.weights)


def _kept(d: DiscreteDistribution, level: "Level | float", kind: LevelKind, kernel) -> float:
    """``kernel(d, x)`` for the float ``x`` of a level of role ``kind``, checked
    first. The law keeps the last ``x`` and value under the kernel's name: a
    repeat call at ``x`` returns that float, a call at a new level replaces it."""
    x = level_value(level, kind)
    last = d._measured.get(kernel.__qualname__)
    if last is None or last[0] != x:
        last = d._measured[kernel.__qualname__] = (x, kernel(d, x))
    return last[1]


def value_at_risk(d: DiscreteDistribution, alpha: "Level | float") -> float:
    """The alpha-quantile of the loss law, inf{l : P(L <= l) >= alpha}."""
    return _kept(d, alpha, LevelKind.QUANTILE, DiscreteDistribution.quantile)


def expected_shortfall(d: DiscreteDistribution, alpha: "Level | float") -> float:
    """Average of the quantiles above ``alpha``: (1/(1-a)) * integral of q_u du.

    On a finite law the quantile function is a step function, so the integral
    is a finite sum over the cumulative-weight segments above ``alpha``.
    """
    return _kept(d, alpha, LevelKind.QUANTILE, _expected_shortfall)


def _expected_shortfall(d: DiscreteDistribution, a: float) -> float:
    # segment k is cum_k - max(cum_{k-1}, a) where cum_k >= a, and +0.0 below
    edges = np.empty(d.atoms.size + 1)
    edges[0] = a
    np.maximum(d.cum_weights, a, out=edges[1:])
    return _dot(d.atoms, np.subtract(edges[1:], edges[:-1])) / (1.0 - a)


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
    return _kept(d, tau, LevelKind.EXPECTILE, _expectile)


def _expectile(d: DiscreteDistribution, t: float) -> float:
    at = d.atoms.item  # the bisection reads Python floats
    cum_w = d.cum_weights.item
    cum_aw = np.add.accumulate(d.atoms * d.weights).item
    total_aw = cum_aw(-1)

    def imbalance_at_atom(k: int) -> float:
        above = (total_aw - cum_aw(k)) - (1.0 - cum_w(k)) * at(k)
        below = cum_w(k) * at(k) - cum_aw(k)
        return t * above - (1.0 - t) * below

    # smallest atom index where the imbalance is <= 0; index 0 is always > 0,
    # but for a single atom, which either return below gives back
    lo, hi = 0, d.atoms.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if imbalance_at_atom(mid) <= 0.0:
            hi = mid
        else:
            lo = mid

    if imbalance_at_atom(hi) == 0.0:
        return at(hi)
    # linear piece (atoms[lo], atoms[hi]): atoms up to lo sit below the root
    num = t * (total_aw - cum_aw(lo)) + (1.0 - t) * cum_aw(lo)
    den = t * (1.0 - cum_w(lo)) + (1.0 - t) * cum_w(lo)
    return min(max(num / den, at(lo)), at(hi))


def risk_adjusted_capital(d: DiscreteDistribution, kind: MeasureKind) -> float:
    """Measure value minus expected loss: the capital buffer beyond the mean."""
    return evaluate(d, kind) - mean(d)


def evaluate(d: DiscreteDistribution, kind: MeasureKind) -> float:
    """Evaluate a :class:`MeasureKind` on a law."""
    return _FAMILIES[kind.family][1](d, kind.level)


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
    points = _check_integer(points, "points", 2, 16)
    return tuple(a + k * (1.0 - a) / points for k in range(points))
