"""Finite discrete loss distributions, quantiles, comonotone couplings, and transport distance.

Every computation in this package runs on :class:`DiscreteDistribution`:
finitely many strictly increasing loss atoms carrying positive weights that
sum to one. Losses follow the positive-for-loss sign convention, so gains
appear as negative atoms. Empirical samples are equal-weight instances with
exact duplicates merged at construction.

All values are immutable after construction and every operation is a pure
function, so instances are safe to share across threads.
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
        _check_level(self.value)

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
    1e-12.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0:
            raise EmptySampleError("a distribution needs at least one atom")
        if atoms.shape != weights.shape:
            raise ShapeMismatchError(
                f"{atoms.size} atoms but {weights.size} weights"
            )
        n = atoms.size
        lo, hi = float(weights.min()), float(weights.max())  # NaN if any weight is
        # np.unique's sorts (np.sort to count, the default argsort to invert),
        # so the merge equals np.unique's bit for bit, down to which of 0.0
        # and -0.0 stands for their run
        if lo == hi:
            ordered = np.sort(atoms)
        else:
            perm = atoms.argsort()
            ordered = atoms[perm]
        # NaN sorts last, so the two ends decide the atoms' finiteness
        finite = math.isfinite
        if not (finite(ordered[0]) and finite(ordered[-1]) and finite(lo) and finite(hi)):
            raise ValueError("atoms and weights must be finite")
        if not lo > 0.0:
            raise ValueError("all weights must be strictly positive")
        first = np.empty(n, dtype=bool)  # the first atom of each run of equal atoms
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        merged_atoms = ordered[first]
        if lo == hi:
            # equal weights: cumulative weights from integer atom counts, so
            # order-statistic boundaries like 95/100 are hit exactly at any size
            bounds = np.append(first.nonzero()[0], n)  # where each run starts, then n
            merged_weights = (bounds[1:] - bounds[:-1]) / n
            cum = bounds[1:] / n
            total = lo * n  # the exact input sum, rounded once
        else:
            inverse = np.empty(n, dtype=np.intp)
            inverse[perm] = first.cumsum() - 1
            merged_weights = np.bincount(inverse, weights=weights)
            # general weights: split w * 2^53 into whole parts, whose running
            # sum is exact in float while it stays within 2^53, and remainders
            # of at most 1/2, whose running sum drifts far below one unit
            scaled = merged_weights * 2.0**53
            whole = np.rint(scaled)
            cum = (whole.cumsum() + (scaled - whole).cumsum()) / 2.0**53
            cum[-1] = 1.0
            total = math.fsum(merged_weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        merged_atoms.setflags(write=False)
        merged_weights.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "atoms", merged_atoms)
        object.__setattr__(self, "weights", merged_weights)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def from_sample(cls, values: Sequence[float]) -> "DiscreteDistribution":
        """Empirical law of a sample: equal weights 1/n, duplicates merged."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise EmptySampleError("cannot build a distribution from an empty sample")
        return cls(arr, np.full(arr.size, 1.0 / arr.size))

    @property
    def cum_weights(self) -> np.ndarray:
        """Cumulative weights aligned with ``atoms``; the last entry is exactly 1."""
        return self._cum  # type: ignore[attr-defined]

    def quantile(self, u: float) -> float:
        """Left-continuous generalized inverse: the smallest atom whose
        cumulative weight reaches ``u``."""
        idx = int(self.cum_weights.searchsorted(_check_level(u)))
        return float(self.atoms[idx])

    def cdf(self, x: float) -> float:
        """P(L <= x)."""
        k = int(self.atoms.searchsorted(x, side="right"))
        return 0.0 if k == 0 else float(self.cum_weights[k - 1])

    def cdf_left(self, x: float) -> float:
        """P(L < x), the left limit of the cdf at ``x``."""
        k = int(self.atoms.searchsorted(x))
        return 0.0 if k == 0 else float(self.cum_weights[k - 1])

    def shift(self, offset: float) -> "DiscreteDistribution":
        """Law of L + offset."""
        shifted = DiscreteDistribution(self.atoms + float(offset), self.weights)
        if shifted.atoms.size == self.atoms.size:
            object.__setattr__(shifted, "_cum", self.cum_weights)
        return shifted

    def scale(self, factor: float) -> "DiscreteDistribution":
        """Law of factor * L. A zero factor collapses to a point mass at 0;
        negative factors mirror the distribution."""
        factor = float(factor)
        if factor == 0.0:
            return DiscreteDistribution(np.array([0.0]), np.array([1.0]))
        scaled = DiscreteDistribution(self.atoms * factor, self.weights)
        if factor > 0.0 and scaled.atoms.size == self.atoms.size:
            object.__setattr__(scaled, "_cum", self.cum_weights)
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
        f1 = np.asarray(self.f1, dtype=float).ravel()
        f2 = np.asarray(self.f2, dtype=float).ravel()
        n = self.factor.atoms.size
        if f1.size != n or f2.size != n:
            raise ShapeMismatchError(
                f"maps must list one value per factor atom ({n}), got {f1.size} and {f2.size}"
            )
        if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
            raise ValueError("mapped values must be finite")
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
    return float(np.dot(widths, np.abs(q1 - q2)))
