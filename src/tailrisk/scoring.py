"""Scoring functions, empirical elicitation, and forecast comparison.

A scoring function assigns a nonnegative penalty s(forecast, observation) to
a point forecast. Minimizing the empirical mean score over forecasts
("generalized regression") recovers the functional the score is strictly
consistent for: the mean for the squared error, the median for the absolute
error, the quantile for the weighted absolute (pinball) error, and the
expectile for the weighted squared error.

``two_step_es_forecast`` chains two elicitable stages: first the quantile via
the pinball score, then the tail mean above it -- the standard two-step
construction for expected shortfall, which is not elicitable in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .distribution import DiscreteDistribution, Level, LevelKind, _check_level, level_value
from .errors import (
    EmptySampleError,
    EmptyTailError,
    ShapeMismatchError,
)
from .measures import expectile, mean, value_at_risk

__all__ = [
    "ScoreKind",
    "ScoringFunction",
    "Winner",
    "score",
    "mean_score",
    "elicit",
    "two_step_es_forecast",
    "compare_forecasts",
]


class ScoreKind(Enum):
    SQUARED_ERROR = "squared-error"
    ABSOLUTE_ERROR = "absolute-error"
    WEIGHTED_ABSOLUTE_ERROR = "weighted-absolute-error"
    WEIGHTED_SQUARED_ERROR = "weighted-squared-error"
    TAIL_MEAN = "tail-mean"


# the parameter each score takes; the scores not listed take none
_PARAMETER_BY_KIND = {
    ScoreKind.WEIGHTED_ABSOLUTE_ERROR: "level",
    ScoreKind.WEIGHTED_SQUARED_ERROR: "level",
    ScoreKind.TAIL_MEAN: "threshold",
}


@dataclass(frozen=True)
class ScoringFunction:
    """A scoring function family member.

    ``level`` is the tau of the weighted squared error or the alpha of the
    weighted absolute error; ``threshold`` is the tail cutoff of the
    tail-mean score.
    """

    kind: ScoreKind
    level: float | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        takes = _PARAMETER_BY_KIND.get(self.kind)
        for name in ("level", "threshold"):
            if name != takes:
                if getattr(self, name) is not None:
                    raise ValueError(f"{self.kind.value} takes no {name}")
            elif getattr(self, name) is None:
                raise ValueError(f"{self.kind.value} requires a {name}")
        if takes == "level":
            _check_level(self.level)
        elif takes == "threshold" and not math.isfinite(self.threshold):
            raise ValueError(f"{self.kind.value} requires a finite threshold")

    @classmethod
    def named(
        cls, name: str, level: float | None = None, threshold: float | None = None
    ) -> "ScoringFunction":
        """The score of the kind whose value is ``name``, given the parameter
        that kind takes; a parameter it does not take is ignored."""
        kind = ScoreKind(name)
        given = {"level": level, "threshold": threshold}
        return cls(kind, **{p: v for p, v in given.items() if p == _PARAMETER_BY_KIND.get(kind)})

    @classmethod
    def squared_error(cls) -> "ScoringFunction":
        return cls(ScoreKind.SQUARED_ERROR)

    @classmethod
    def absolute_error(cls) -> "ScoringFunction":
        return cls(ScoreKind.ABSOLUTE_ERROR)

    @classmethod
    def weighted_squared_error(cls, tau: float) -> "ScoringFunction":
        return cls(ScoreKind.WEIGHTED_SQUARED_ERROR, level=float(tau))

    @classmethod
    def weighted_absolute_error(cls, alpha: float) -> "ScoringFunction":
        return cls(ScoreKind.WEIGHTED_ABSOLUTE_ERROR, level=float(alpha))

    @classmethod
    def tail_mean(cls, threshold: float) -> "ScoringFunction":
        return cls(ScoreKind.TAIL_MEAN, threshold=float(threshold))


def _phi(x: np.ndarray) -> np.ndarray:
    return x * x / (1.0 + np.abs(x))


def _phi_prime(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.sign(x) * (ax * ax + 2.0 * ax) / np.square(1.0 + ax)


def score(s: ScoringFunction, forecast, observation):
    """Evaluate the score; broadcasts over numpy arrays.

    Always nonnegative, and zero at forecast == observation for the
    error-type scores.
    """
    x = np.asarray(forecast, dtype=float)
    y = np.asarray(observation, dtype=float)
    if s.kind is ScoreKind.SQUARED_ERROR:
        out = np.square(x - y)
    elif s.kind is ScoreKind.ABSOLUTE_ERROR:
        out = np.abs(x - y)
    elif s.kind is ScoreKind.WEIGHTED_ABSOLUTE_ERROR:
        out = ((x >= y) - s.level) * (x - y)
    elif s.kind is ScoreKind.WEIGHTED_SQUARED_ERROR:
        diff = x - y
        out = ((x >= y) - s.level) * diff * diff * np.sign(diff)
    elif s.kind is ScoreKind.TAIL_MEAN:
        out = (_phi(y) - _phi(x) - _phi_prime(x) * (y - x)) * (x >= s.threshold)
    else:  # pragma: no cover
        raise ValueError(f"unknown score kind {s.kind!r}")
    if out.ndim == 0:
        return float(out)
    return out


def mean_score(s: ScoringFunction, forecast: float | np.ndarray, sample: Sequence[float]) -> float:
    """Empirical mean score of a forecast against a sample: a constant
    forecast, or an array of one forecast per sample value."""
    values = np.asarray(sample, dtype=float).ravel()
    if values.size == 0:
        raise EmptySampleError("cannot score against an empty sample")
    return math.fsum(np.asarray(score(s, forecast, values)).tolist()) / values.size


def elicit(s: ScoringFunction, sample: Sequence[float]) -> float:
    """Minimize the empirical mean score over forecasts.

    Each score is strictly consistent for a functional, so its empirical
    minimizer is that functional of the sample's empirical law, evaluated here
    in closed form: the mean for the squared error, the lower median for the
    absolute error, the inf-quantile for the pinball score and the expectile
    for the weighted squared error. The tail-mean score is a Bregman score
    that vanishes below its threshold; over forecasts at or above the
    threshold it is minimized at ``max(threshold, mean)``. Non-finite sample
    values are rejected.
    """
    law = DiscreteDistribution.from_sample(sample)
    if s.kind is ScoreKind.SQUARED_ERROR:
        return mean(law)
    if s.kind is ScoreKind.ABSOLUTE_ERROR:
        return value_at_risk(law, 0.5)
    if s.kind is ScoreKind.WEIGHTED_ABSOLUTE_ERROR:
        return value_at_risk(law, s.level)
    if s.kind is ScoreKind.WEIGHTED_SQUARED_ERROR:
        return expectile(law, s.level)
    if s.kind is ScoreKind.TAIL_MEAN:
        return max(s.threshold, mean(law))
    raise ValueError(f"unknown score kind {s.kind!r}")  # pragma: no cover


def two_step_es_forecast(
    sample: Sequence[float], alpha: "Level | float"
) -> tuple[float, float]:
    """Two-step expected-shortfall forecast from a sample.

    Step 1 elicits the alpha-quantile with the pinball score; step 2 averages
    the sample points at or above it, which is a plain (elicitable) mean.
    Returns ``(quantile_estimate, tail_mean)`` with tail_mean >= quantile.

    Note the tail mean omits the discontinuity correction that the exact
    discrete expected shortfall carries when the tail probability is not
    exactly 1 - alpha.
    """
    a = level_value(alpha, LevelKind.QUANTILE)
    values = np.asarray(sample, dtype=float).ravel()
    if values.size == 0:
        raise EmptySampleError("cannot forecast from an empty sample")
    q_hat = elicit(ScoringFunction.weighted_absolute_error(a), values)
    tail = values[values >= q_hat]
    if tail.size == 0:
        raise EmptyTailError(f"no sample points at or above the elicited quantile {q_hat}")
    return q_hat, float(np.mean(tail))


class Winner(Enum):
    A = "a"
    B = "b"
    NEITHER = "neither"


def compare_forecasts(
    s: ScoringFunction,
    forecasts_a: Sequence[float],
    forecasts_b: Sequence[float],
    realizations: Sequence[float],
) -> tuple[float, float, Winner]:
    """Mean scores of two forecast series and which one wins (strictly
    smaller mean score); equal scores give ``Winner.NEITHER``."""
    fa = np.asarray(forecasts_a, dtype=float).ravel()
    fb = np.asarray(forecasts_b, dtype=float).ravel()
    ys = np.asarray(realizations, dtype=float).ravel()
    if not (fa.size == fb.size == ys.size):
        raise ShapeMismatchError(
            f"series lengths differ: {fa.size}, {fb.size}, {ys.size}"
        )
    if ys.size == 0:
        raise EmptySampleError("cannot compare forecasts on an empty series")
    ma, mb = mean_score(s, fa, ys), mean_score(s, fb, ys)
    if ma < mb:
        winner = Winner.A
    elif mb < ma:
        winner = Winner.B
    else:
        winner = Winner.NEITHER
    return ma, mb, winner
