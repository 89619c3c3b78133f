"""The package's exported names: ``tailrisk.__all__`` lists each public name
once, and each resolves to an attribute of the package."""

import tailrisk

EXPORTED = [
    "__version__",
    # distribution
    "DiscreteDistribution",
    "Level",
    "LevelKind",
    "ComonotonePair",
    "comonotone_sum",
    "wasserstein1",
    "level_value",
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
    "DiversificationResult",
    "diversify",
    # backtest
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


def test_all_lists_the_exported_names_once():
    assert len(tailrisk.__all__) == len(set(tailrisk.__all__))
    assert sorted(tailrisk.__all__) == sorted(EXPORTED)


def test_every_exported_name_resolves():
    for name in tailrisk.__all__:
        assert hasattr(tailrisk, name), name
