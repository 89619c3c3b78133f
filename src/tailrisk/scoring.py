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

from .distribution import DiscreteDistribution, Level, LevelKind, _check_level, _finite, level_value
from .errors import EmptySampleError, ShapeMismatchError
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
        that kind takes; the constructor refuses a parameter it does not take."""
        return cls(ScoreKind(name), level, threshold)

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
        # the Bregman term of phi(v) = v^2/(1 + |v|) as a sum of two terms that are
        # never negative, zero at x == y and free of x^2: with r = |x|/(1 + |x|) it is
        # (|y| - sign(x) y) r (2 - r) + ((|y| - |x|)/(1 + |x|))^2/(1 + |y|)
        ax, ay = np.abs(x), np.abs(y)
        r, d = ax / (1.0 + ax), (ay - ax) / (1.0 + ax)
        out = ((ay - np.sign(x) * y) * r * (2.0 - r) + d * (d / (1.0 + ay))) * (x >= s.threshold)
    else:  # pragma: no cover
        raise ValueError(f"unknown score kind {s.kind!r}")
    if out.ndim == 0:
        return float(out)
    return out


def mean_score(s: ScoringFunction, forecast: float | np.ndarray, sample: Sequence[float]) -> float:
    """Empirical mean score of a finite forecast against a finite sample: a
    constant forecast, or an array of one forecast per sample value."""
    values = _finite(sample, "sample")
    if values.size == 0:
        raise EmptySampleError("cannot score against an empty sample")
    return math.fsum(score(s, _finite(forecast, "forecast"), values).tolist()) / values.size


# the minimizer of each score's empirical mean, from the sample's law
_ELICITED = {
    ScoreKind.SQUARED_ERROR: lambda s, law: mean(law),
    ScoreKind.ABSOLUTE_ERROR: lambda s, law: value_at_risk(law, 0.5),
    ScoreKind.WEIGHTED_ABSOLUTE_ERROR: lambda s, law: value_at_risk(law, s.level),
    ScoreKind.WEIGHTED_SQUARED_ERROR: lambda s, law: expectile(law, s.level),
    ScoreKind.TAIL_MEAN: lambda s, law: max(s.threshold, mean(law)),
}


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
    return _ELICITED[s.kind](s, DiscreteDistribution.from_sample(sample))


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
    # q_hat is a sample value, so the tail holds at least that one
    q_hat = elicit(ScoringFunction.weighted_absolute_error(a), values)
    return q_hat, float(np.mean(values[values >= q_hat]))


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
    fa = _finite(forecasts_a, "forecasts_a")
    fb = _finite(forecasts_b, "forecasts_b")
    ys = _finite(realizations, "realizations")
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
