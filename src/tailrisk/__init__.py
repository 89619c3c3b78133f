"""Risk measurement on finite discrete loss distributions.

Exact VaR, expected shortfall, expectiles and variance on finite weighted
loss laws, scoring-function elicitation of the matching functionals, Euler
capital allocation with diversification indices, and a statistical
backtesting suite (violation tests, multi-quantile expected-shortfall
backtest, PIT distribution-forecast tests), plus a batch CLI.

Each module's ``__all__`` lists its public names; the package exports them all,
importing the modules on first use of a name, so ``import tailrisk`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"


def _load() -> dict:
    """This module's namespace; the first call binds the six modules' public names."""
    if "__all__" not in globals():
        names = ["__version__"]
        for part in ("distribution", "measures", "scoring", "allocation", "backtest", "errors"):
            module = importlib.import_module(f".{part}", __name__)
            names += module.__all__
            globals().update((name, getattr(module, name)) for name in module.__all__)
        globals()["__all__"] = names
    return globals()


def __getattr__(name: str):
    if name in _load():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_load())
