"""Euler risk contributions and diversification indices on a loss panel.

A :class:`LossPanel` holds T joint observations of m position losses; the
portfolio loss of a row is its sum. Contributions reweight the joint rows:

* expected shortfall: rows strictly beyond the portfolio quantile get weight
  1/(1-alpha), and rows sitting exactly on the quantile get a proportional
  partial weight so the tail mass is exactly 1 - alpha. With this weighting
  the contributions sum to the exact discrete expected shortfall. (The
  derivative-based definition assumes a smooth law; the partial boundary
  weight is the discrete extension.)
* expectile: rows are weighted by the asymmetric density
  tau above the portfolio expectile and 1 - tau at or below it, normalized;
  the contributions sum to the expectile identically.

When the portfolio law puts positive mass exactly on the threshold the
gradient is not unique; results then carry ``nonunique_gradient=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distribution import DiscreteDistribution, Level, LevelKind, _dot, level_value
from .errors import DegenerateDenominatorError, ShapeMismatchError
from .measures import (
    MeasureFamily,
    MeasureKind,
    evaluate,
    expectile,
    expected_shortfall,
    mean,
    risk_adjusted_capital,
)

__all__ = [
    "LossPanel",
    "AllocationResult",
    "es_contributions",
    "expectile_contributions",
    "diversification_index",
    "marginal_diversification_index",
    "diversification_benefit",
    "DiversificationResult",
    "diversify",
]

@dataclass(frozen=True, eq=False)
class LossPanel:
    """T x m joint loss observations with per-row weights summing to one."""

    positions: tuple[str, ...]
    rows: np.ndarray
    weights: np.ndarray
    _laws = ()  # the row sum's and each column's law, where enumerate_joint_panels shares them

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ShapeMismatchError(f"rows must be a T x m matrix, got shape {rows.shape}")
        # argmin and argmax stop at the first NaN, and an infinity is one of them
        if not all(map(math.isfinite, (rows.item(rows.argmin()), rows.item(rows.argmax())))):
            raise ValueError("losses must be finite")
        if len(self.positions) != rows.shape[1]:
            raise ShapeMismatchError(
                f"{len(self.positions)} position names for {rows.shape[1]} columns"
            )
        weights = np.ravel(self.weights).astype(float)  # a copy that owns its data
        if weights.size != rows.shape[0]:
            raise ShapeMismatchError(f"{weights.size} weights for {rows.shape[0]} rows")
        lo, hi = weights.item(weights.argmin()), weights.item(weights.argmax())
        if not 0.0 < lo <= hi < math.inf:  # False on NaN
            raise ValueError("row weights must be positive and finite")
        # n equal weights sum to lo * n rounded once, as fsum gives, without a list
        if abs((lo * weights.size if lo == hi else math.fsum(weights.tolist())) - 1.0) > 1e-12:
            raise ValueError("row weights must sum to 1")
        rows.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[float]],
        positions: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "LossPanel":
        """Build a panel from joint observations; weights default to 1/T."""
        arr = np.atleast_2d(np.asarray(rows, dtype=float))
        t = arr.shape[0]
        if positions is None:
            positions = tuple(f"pos_{i + 1}" for i in range(arr.shape[1]))
        if weights is None:
            weights = np.full(t, 1.0 / t)
        return cls(tuple(positions), arr, np.asarray(weights, dtype=float))

    @property
    def n_periods(self) -> int:
        return self.rows.shape[0]

    @property
    def n_positions(self) -> int:
        return self.rows.shape[1]

    def portfolio_losses(self) -> np.ndarray:
        return np.add.reduce(self.rows, axis=1)

    def portfolio_law(self) -> DiscreteDistribution:
        return self._laws[0] if self._laws else DiscreteDistribution(self.portfolio_losses(), self.weights)

    def column_law(self, i: int) -> DiscreteDistribution:
        return self._laws[1:][i] if self._laws else DiscreteDistribution(self.rows[:, i], self.weights)

    def scale_position(self, i: int, factor: float) -> "LossPanel":
        """Panel with column ``i`` multiplied by ``factor``."""
        rows = self.rows.copy()
        rows[:, i] *= factor
        return LossPanel(self.positions, rows, self.weights)


@dataclass(frozen=True)
class AllocationResult:
    """Euler allocation of a portfolio measure across positions.

    ``residual`` is ``total - sum(contributions)``, within 1e-10 *
    max(1, |total|): the full-allocation identity is exact up to floating
    rounding. The bound is a guarantee, held by tests at 10^6 rows, and is
    not checked at run time. ``nonunique_gradient`` flags boundary mass on the
    threshold (the subgradient then has more than one element and the
    reported contributions are the canonical choice).
    """

    measure: MeasureKind
    total: float
    contributions: tuple[float, ...]
    residual: float
    nonunique_gradient: bool = False


def es_contributions(panel: LossPanel, alpha: "Level | float") -> AllocationResult:
    """Expected-shortfall contributions E[L_i | tail weighting] per position."""
    return _allocate(
        panel, MeasureKind.es(level_value(alpha, LevelKind.QUANTILE)), panel.portfolio_law()
    )


def expectile_contributions(panel: LossPanel, tau: "Level | float") -> AllocationResult:
    """Expectile contributions via the asymmetric tail-weighting ratio.

    Rows strictly above the portfolio expectile carry weight tau, rows at or
    below it 1 - tau, normalized to total mass one. Requires tau >= 1/2: the
    package allocates coherent measures only.
    """
    return _allocate(
        panel, MeasureKind.expectile(level_value(tau, LevelKind.EXPECTILE)), panel.portfolio_law()
    )


def _check_expectile_tau(t: float) -> None:
    """Expectile contributions need tau >= 1/2. The row weighting gives the
    gradient below 1/2 as well, but the package allocates coherent measures
    only (so no VaR either), and the expectile is coherent from 1/2 on."""
    if t < 0.5:
        raise ValueError(f"expectile contributions require tau >= 1/2, got {t}")


# the measures with Euler contributions
_EULER_FAMILIES = (MeasureFamily.EXPECTED_SHORTFALL, MeasureFamily.EXPECTILE)


def _allocate(panel: LossPanel, kind: MeasureKind, law: DiscreteDistribution) -> AllocationResult:
    """The Euler allocation of ``kind``, given the panel's portfolio law: each
    contribution is its column's sum under the measure's row weighting."""
    if kind.family not in _EULER_FAMILIES:
        raise ValueError(f"contributions are defined for es and expectile, not {kind.family.value}")
    portfolio = panel.portfolio_losses()
    w = panel.weights
    if kind.family is MeasureFamily.EXPECTED_SHORTFALL:
        a = kind.level.value
        q = law.quantile(a)
        above = portfolio > q
        at = portfolio == q
        p_above = float(np.sum(w[above]))
        p_at = float(np.sum(w[at]))
        boundary_mass = max((1.0 - a) - p_above, 0.0)
        beta = boundary_mass / p_at if p_at > 0.0 else 0.0
        row_weights = w * (above + beta * at) / (1.0 - a)
        total = expected_shortfall(law, a)
        # the flag ignores rounding-level boundary mass; the weighting keeps it
        # so the full-allocation identity stays exact
        nonunique_gradient = boundary_mass > 1e-12
    else:
        t = kind.level.value
        _check_expectile_tau(t)
        total = expectile(law, t)
        above = portfolio > total
        p_above = float(np.sum(w[above]))
        denominator = t * p_above + (1.0 - t) * (1.0 - p_above)
        row_weights = w * np.where(above, t, 1.0 - t) / denominator
        nonunique_gradient = bool(np.any(portfolio == total))
    contributions = tuple(_dot(row_weights, column) for column in panel.rows.T)
    return AllocationResult(
        measure=kind,
        total=total,
        contributions=contributions,
        residual=total - math.fsum(contributions),
        nonunique_gradient=nonunique_gradient,
    )


def _index(total: float, standalone: Sequence[float]) -> float:
    denominator = math.fsum(standalone)
    if denominator == 0.0:
        raise DegenerateDenominatorError(
            "sum of standalone measures is zero; the diversification index is undefined"
        )
    return total / denominator


def _marginal_index(contribution: float, standalone: float, i: int) -> float:
    if standalone == 0.0:
        raise DegenerateDenominatorError(
            f"standalone measure of position {i} is zero; the marginal index is undefined"
        )
    return contribution / standalone


def _benefit(rac_total: float, rac_parts: Iterable[float]) -> float:
    denominator = math.fsum(rac_parts)
    if denominator <= 0.0:
        raise DegenerateDenominatorError(
            "sum of standalone risk-adjusted capital must be positive"
        )
    return 1.0 - rac_total / denominator


def diversification_index(panel: LossPanel, kind: MeasureKind) -> float:
    """Portfolio measure divided by the sum of standalone position measures.

    At most 1 for subadditive measures with a positive denominator; equal to
    1 when the positions are comonotone and the measure is comonotonically
    additive.
    """
    standalone = [evaluate(panel.column_law(i), kind) for i in range(panel.n_positions)]
    return _index(evaluate(panel.portfolio_law(), kind), standalone)


def marginal_diversification_index(panel: LossPanel, i: int, kind: MeasureKind) -> float:
    """Euler contribution of position ``i`` divided by its standalone measure."""
    if not 0 <= i < panel.n_positions:
        raise IndexError(f"position i = {i} must lie in [0, m) for m = {panel.n_positions} positions")
    allocation = _allocate(panel, kind, panel.portfolio_law())
    standalone = evaluate(panel.column_law(i), kind)
    return _marginal_index(allocation.contributions[i], standalone, i)


def diversification_benefit(panel: LossPanel, kind: MeasureKind) -> float:
    """1 - RAC(portfolio) / sum of standalone RACs.

    1 means a fully hedged portfolio, 0 comonotone risks, and a value in
    between the fraction of capital saved by diversification.
    """
    return _benefit(
        risk_adjusted_capital(panel.portfolio_law(), kind),
        (risk_adjusted_capital(panel.column_law(i), kind) for i in range(panel.n_positions)),
    )


@dataclass(frozen=True)
class DiversificationResult:
    """The diversification index, benefit and marginal indices of one panel
    under one measure. A result whose denominator is degenerate is ``None``,
    and ``warnings`` holds why, in the order index, benefit, positions.
    ``marginal_indices`` is ``None`` for a measure without Euler
    contributions; only es and expectile have them."""

    index: float | None
    benefit: float | None
    marginal_indices: tuple[float | None, ...] | None
    warnings: tuple[str, ...]


def diversify(panel: LossPanel, kind: MeasureKind) -> DiversificationResult:
    """Every diversification result from one allocation, the portfolio law
    and each position's law built once. Each value equals the one
    :func:`diversification_index`, :func:`diversification_benefit` or
    :func:`marginal_diversification_index` returns. Only coherent measures
    are allocated, so an expectile below 1/2 raises :class:`ValueError` here,
    as the marginal index does, though :func:`diversification_index` has a
    value."""
    law = panel.portfolio_law()
    allocation = _allocate(panel, kind, law) if kind.family in _EULER_FAMILIES else None
    total = evaluate(law, kind) if allocation is None else allocation.total
    rac_total = total - mean(law)  # risk_adjusted_capital(law, kind)
    standalone, rac_parts = [], []
    for i in range(panel.n_positions):
        column = panel.column_law(i)  # one position's law at a time
        standalone.append(evaluate(column, kind))
        rac_parts.append(standalone[-1] - mean(column))
    warnings: list[str] = []

    def attempt(ratio, *args) -> float | None:
        try:
            return ratio(*args)
        except DegenerateDenominatorError as exc:
            warnings.append(str(exc))
            return None

    index = attempt(_index, total, standalone)
    benefit = attempt(_benefit, rac_total, rac_parts)
    marginal = None
    if allocation is not None:
        marginal = tuple(
            attempt(_marginal_index, c, s, i)
            for i, (c, s) in enumerate(zip(allocation.contributions, standalone))
        )
    return DiversificationResult(index, benefit, marginal, tuple(warnings))
