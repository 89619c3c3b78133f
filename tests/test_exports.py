"""The package's exported names: ``tailrisk.__all__`` lists each public name
once, and each resolves to an attribute of the package. The package imports
its modules on first use of a name, so a fresh ``import tailrisk`` loads no
numpy; the checks of a fresh import run in a new interpreter."""

import importlib

import pytest

import tailrisk
from test_imports import run_cold

MODULES = ("distribution", "measures", "scoring", "allocation", "backtest", "errors")

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


# the numpy and tailrisk modules that a bare import loads, then dir() of the package
FRESH_IMPORT = """
import json, sys, tailrisk
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "tailrisk"))))
print(json.dumps(dir(tailrisk)))
"""

# runs the statement in argv[1] as the first use of the package, then prints
# the names it bound and whether each public name of the modules listed there
# resolves on the package to the module's own object
FIRST_USE = """
import importlib, json, sys, tailrisk
first, parts = json.loads(sys.argv[1])
namespace = {"tailrisk": tailrisk}
exec(first, namespace)
print(json.dumps(sorted(set(namespace) - {"tailrisk", "__builtins__"})))
modules = [importlib.import_module("tailrisk." + part) for part in parts]
print(json.dumps(all(getattr(tailrisk, n) is getattr(m, n) for m in modules for n in m.__all__)))
"""


def test_a_fresh_import_loads_no_numpy_and_dir_lists_every_name():
    loaded, listed = run_cold([], FRESH_IMPORT)
    assert loaded == ["tailrisk"]
    assert set(EXPORTED) | set(MODULES) <= set(listed)


@pytest.mark.parametrize(
    "first",
    ["from tailrisk import *", "tailrisk.measures", "tailrisk.Level", "tailrisk.__all__"],
)
def test_each_first_use_binds_every_name_to_its_module(first):
    bound, same = run_cold([first, MODULES], FIRST_USE)
    assert bound == (sorted(EXPORTED) if first.startswith("from") else [])
    assert same


def test_the_package_binds_its_modules_and_their_names():
    for part in MODULES:
        module = importlib.import_module(f"tailrisk.{part}")
        assert getattr(tailrisk, part) is module
        for name in module.__all__:
            assert getattr(tailrisk, name) is getattr(module, name), name
    namespace = {}
    exec("from tailrisk import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(tailrisk, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tailrisk.no_such_name
    assert not hasattr(tailrisk, "no_such_name")
