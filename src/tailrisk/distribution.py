"""Finite discrete loss distributions, quantiles, comonotone couplings, and transport distance.

Every computation in this package runs on :class:`DiscreteDistribution`:
finitely many strictly increasing loss atoms carrying positive weights that
sum to one. Losses follow the positive-for-loss sign convention, so gains
appear as negative atoms. Empirical samples are equal-weight instances with
exact duplicates merged at construction.

A law's atoms and weights are immutable after construction. A law also keeps
the last level each of VaR, expected shortfall and the expectile was asked at,
with the value there (see ``measures``): each store is one tuple assigned at
once, and every writer stores the same bits, so instances are safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptySampleError, ShapeMismatchError

__all__ = [
    "LevelKind",
    "Level",
    "DiscreteDistribution",
    "ComonotonePair",
    "comonotone_sum",
    "wasserstein1",
    "level_value",
]

_WEIGHT_SUM_TOL = 1e-12


class LevelKind(Enum):
    """Role of a probability level: quantile alpha versus expectile tau."""

    QUANTILE = "quantile"
    EXPECTILE = "expectile"


@dataclass(frozen=True)
class Level:
    """A probability level in the open interval (0, 1) tagged with its role.

    The tag prevents a quantile level from being fed to an expectile
    computation (and vice versa) by accident.
    """

    value: float
    kind: LevelKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _check_level(float(self.value)))

    @classmethod
    def quantile(cls, value: float) -> "Level":
        return cls(float(value), LevelKind.QUANTILE)

    @classmethod
    def expectile(cls, value: float) -> "Level":
        return cls(float(value), LevelKind.EXPECTILE)


_LEVEL_NAMES = {LevelKind.QUANTILE: "a quantile level", LevelKind.EXPECTILE: "an expectile level"}


def _check_level(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {value}")
    return value


def _check_integer(value: int, name: str, least: int, most: float = math.inf) -> int:
    """``value`` as an int, if it is an integer from ``least`` to ``most``;
    a float is refused even when it is whole."""
    if not (isinstance(value, (int, np.integer)) and least <= value <= most):
        span = f"of at least {least}" if most == math.inf else f"from {least} to {most}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _finite(values: Sequence[float], name: str) -> np.ndarray:
    """``values`` as a flat float array, if every entry is finite."""
    array = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of ``a * b`` by numpy's pairwise summation, with no BLAS and no
    threads, so it has the same bits on every host. Every sum of products in
    the package goes through it, except ``expectile``'s running prefix sum."""
    return float(np.add.reduce(a * b))


def level_value(level: "Level | float", kind: LevelKind) -> float:
    """Return the float value of a level of role ``kind``.

    A :class:`Level` of the other role is rejected; a plain number is
    converted to float and checked by the rule :class:`Level` applies.
    """
    if not isinstance(level, Level):
        return _check_level(float(level))
    if level.kind is not kind:
        raise ValueError(f"expected {_LEVEL_NAMES[kind]}, got {_LEVEL_NAMES[level.kind]}")
    return level.value


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """A finite weighted set of loss atoms on the real line.

    Atoms are stored strictly increasing; exact duplicates are merged at
    construction with their weights summed (callers who need fuzzy merging
    pre-round their values). Weights must be positive and sum to one within
    1e-12. ``cum_weights`` holds the cumulative weights, the last exactly 1.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0:
            raise EmptySampleError("a distribution needs at least one atom")
        if atoms.shape != weights.shape:
            raise ShapeMismatchError(f"{atoms.size} atoms but {weights.size} weights")
        n = atoms.size
        lo, hi = weights.item(weights.argmin()), weights.item(weights.argmax())
        # argmin and argmax stop at the first NaN, and an infinity is one of them
        if not all(map(math.isfinite, (atoms.item(atoms.argmin()), atoms.item(atoms.argmax()), lo, hi))):
            raise ValueError("atoms and weights must be finite")
        if not lo > 0.0:
            raise ValueError("all weights must be strictly positive")
        if lo == hi:
            # equal weights: cumulative weights from integer atom counts, so
            # order-statistic boundaries like 95/100 are hit exactly at any size
            merged_atoms, counts = np.unique(atoms, return_counts=True)
            merged_weights = counts / n
            cum = np.add.accumulate(counts) / n
            total = lo * n  # the exact input sum, rounded once
        else:
            merged_atoms, inverse = np.unique(atoms, return_inverse=True)
            merged_weights = np.bincount(inverse, weights=weights)
            # general weights: split w * 2^53 into whole parts, whose running
            # sum is exact in float while it stays within 2^53, and remainders
            # of at most 1/2, whose running sum drifts far below one unit
            rest = merged_weights * 2.0**53
            whole = np.rint(rest)
            rest -= whole
            cum = (np.add.accumulate(whole) + np.add.accumulate(rest)) / 2.0**53
            cum[-1] = 1.0
            total = math.fsum(merged_weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        merged_atoms.setflags(write=False)
        merged_weights.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "atoms", merged_atoms)
        object.__setattr__(self, "weights", merged_weights)
        object.__setattr__(self, "cum_weights", cum)
        object.__setattr__(self, "_measured", {})  # kernel name -> (last level, value)

    @classmethod
    def from_sample(cls, values: Sequence[float]) -> "DiscreteDistribution":
        """Empirical law of a sample: equal weights 1/n, duplicates merged."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise EmptySampleError("cannot build a distribution from an empty sample")
        return cls(arr, np.full(arr.size, 1.0 / arr.size))

    def quantile(self, u: float) -> float:
        """Left-continuous generalized inverse: the smallest atom whose
        cumulative weight reaches ``u``."""
        return self.atoms.item(self.cum_weights.searchsorted(_check_level(u)))

    def cdf(self, x: float) -> float:
        """P(L <= x); a NaN ``x`` raises ValueError."""
        if math.isnan(x):  # searchsorted would place it above every atom
            raise ValueError("x must not be NaN")
        k = int(self.atoms.searchsorted(x, side="right"))
        return 0.0 if k == 0 else float(self.cum_weights[k - 1])

    def cdf_left(self, x: float) -> float:
        """P(L < x), the left limit of the cdf at ``x``; a NaN ``x`` raises ValueError."""
        if math.isnan(x):
            raise ValueError("x must not be NaN")
        k = int(self.atoms.searchsorted(x))
        return 0.0 if k == 0 else float(self.cum_weights[k - 1])

    def shift(self, offset: float) -> "DiscreteDistribution":
        """Law of L + offset."""
        shifted = DiscreteDistribution(self.atoms + float(offset), self.weights)
        if shifted.atoms.size == self.atoms.size:
            object.__setattr__(shifted, "cum_weights", self.cum_weights)
        return shifted

    def scale(self, factor: float) -> "DiscreteDistribution":
        """Law of factor * L. A zero factor collapses to a point mass at 0;
        negative factors mirror the distribution."""
        factor = float(factor)
        if factor == 0.0:
            return DiscreteDistribution(np.array([0.0]), np.array([1.0]))
        scaled = DiscreteDistribution(self.atoms * factor, self.weights)
        if factor > 0.0 and scaled.atoms.size == self.atoms.size:
            object.__setattr__(scaled, "cum_weights", self.cum_weights)
        return scaled


@dataclass(frozen=True, eq=False)
class ComonotonePair:
    """Two losses driven by a common risk factor through nondecreasing maps.

    ``f1`` and ``f2`` list the mapped loss values at each atom of ``factor``
    (in atom order), so the joint law of (L1, L2) is fully determined without
    any independence assumption.
    """

    factor: DiscreteDistribution
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self) -> None:
        f1 = _finite(self.f1, "f1")
        f2 = _finite(self.f2, "f2")
        n = self.factor.atoms.size
        if f1.size != n or f2.size != n:
            raise ShapeMismatchError(
                f"maps must list one value per factor atom ({n}), got {f1.size} and {f2.size}"
            )
        if np.any(np.diff(f1) < 0.0) or np.any(np.diff(f2) < 0.0):
            raise ValueError("maps must be nondecreasing along the factor atoms")
        f1.setflags(write=False)
        f2.setflags(write=False)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)


def comonotone_sum(
    pair: ComonotonePair,
) -> tuple[DiscreteDistribution, DiscreteDistribution, DiscreteDistribution]:
    """Laws of L1, L2 and L1 + L2 for a comonotone pair.

    The sum is formed atom-by-atom on the common factor, which is the exact
    joint law of the coupling.
    """
    w = pair.factor.weights
    law1 = DiscreteDistribution(pair.f1, w)
    law2 = DiscreteDistribution(pair.f2, w)
    law_sum = DiscreteDistribution(pair.f1 + pair.f2, w)
    return law1, law2, law_sum


def wasserstein1(d1: DiscreteDistribution, d2: DiscreteDistribution) -> float:
    """Exact 1-D Wasserstein distance between two finite discrete laws.

    Computed as the integral of |Q1(u) - Q2(u)| over u in (0, 1) on the
    merged breakpoints of both cumulative-weight grids; in one dimension this
    comonotone coupling is optimal, so the value is exact.
    """
    cuts = np.union1d(d1.cum_weights, d2.cum_weights)
    q1 = d1.atoms[np.searchsorted(d1.cum_weights, cuts, side="left")]
    q2 = d2.atoms[np.searchsorted(d2.cum_weights, cuts, side="left")]
    widths = np.diff(np.concatenate(([0.0], cuts)))
    return _dot(widths, np.abs(q1 - q2))
