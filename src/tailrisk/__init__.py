"""Risk measurement on finite discrete loss distributions.

Exact VaR, expected shortfall, expectiles and variance on finite weighted
loss laws, scoring-function elicitation of the matching functionals, Euler
capital allocation with diversification indices, and a statistical
backtesting suite (violation tests, multi-quantile expected-shortfall
backtest, PIT distribution-forecast tests), plus a batch CLI.
"""

__version__ = "0.1.0"

from .allocation import (
    AllocationResult,
    LossPanel,
    diversification_benefit,
    diversification_index,
    es_contributions,
    expectile_contributions,
    marginal_diversification_index,
)
from .backtest import (
    ComonotoneCounterexample,
    EsQuantileBacktestResult,
    PitSeries,
    TestResult,
    VarSuperadditivityExample,
    ViolationSeries,
    enumerate_joint_panels,
    es_quantile_backtest,
    find_expectile_comonotone_counterexample,
    find_var_superadditivity_example,
    independence_test,
    pit_independence_test,
    pit_series,
    pit_transform,
    pit_uniformity_test,
    unconditional_coverage_test,
    violation_process,
)
from .distribution import (
    ComonotonePair,
    DiscreteDistribution,
    Level,
    LevelKind,
    comonotone_sum,
    wasserstein1,
)
from .errors import (
    CounterexampleNotFoundError,
    DegenerateDenominatorError,
    EmptySampleError,
    EmptyScenarioSetError,
    EmptyTailError,
    InsufficientDataError,
    ParseError,
    ShapeMismatchError,
    TailriskError,
)
from .measures import (
    MeasureFamily,
    MeasureKind,
    es_quantile_approximation,
    evaluate,
    expectile,
    expected_shortfall,
    mean,
    risk_adjusted_capital,
    supporting_levels,
    value_at_risk,
    variance,
)
from .scoring import (
    ScoreKind,
    ScoringFunction,
    Winner,
    compare_forecasts,
    elicit,
    mean_score,
    score,
    two_step_es_forecast,
)

__all__ = [
    "__version__",
    # distribution
    "DiscreteDistribution",
    "Level",
    "LevelKind",
    "ComonotonePair",
    "comonotone_sum",
    "wasserstein1",
    # measures
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
    # scoring
    "ScoreKind",
    "ScoringFunction",
    "Winner",
    "score",
    "mean_score",
    "elicit",
    "two_step_es_forecast",
    "compare_forecasts",
    # allocation
    "LossPanel",
    "AllocationResult",
    "es_contributions",
    "expectile_contributions",
    "diversification_index",
    "marginal_diversification_index",
    "diversification_benefit",
    # backtest
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
    # errors
    "TailriskError",
    "EmptySampleError",
    "ShapeMismatchError",
    "EmptyTailError",
    "EmptyScenarioSetError",
    "InsufficientDataError",
    "DegenerateDenominatorError",
    "CounterexampleNotFoundError",
    "ParseError",
]
