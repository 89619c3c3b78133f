"""Risk measurement on finite discrete loss distributions.

Exact VaR, expected shortfall, expectiles and variance on finite weighted
loss laws, scoring-function elicitation of the matching functionals, Euler
capital allocation with diversification indices, and a statistical
backtesting suite (violation tests, multi-quantile expected-shortfall
backtest, PIT distribution-forecast tests), plus a batch CLI.

Each module's ``__all__`` lists its public names; the package exports them all.
"""

__version__ = "0.1.0"

from . import allocation, backtest, distribution, errors, measures, scoring
from .allocation import *  # noqa: F401,F403
from .backtest import *  # noqa: F401,F403
from .distribution import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .scoring import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *distribution.__all__,
    *measures.__all__,
    *scoring.__all__,
    *allocation.__all__,
    *backtest.__all__,
    *errors.__all__,
]
