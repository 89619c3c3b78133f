"""Seeded input generators: loss panels, samples and forecast files.

Values are written at full double precision (``repr``), so the program parses
back exactly the numbers the checks hold, and continuous draws carry no
duplicates: law sizes, and with them the traced counts, do not depend on the
seed.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

_NORMAL = NormalDist()


def _write_csv(path: Path, header: list[str], columns: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in columns.tolist())
    path.write_text("\n".join(lines) + "\n")


def panel(rng: np.random.Generator, path: Path, periods: int, positions: int) -> dict:
    """Student-t(4) losses with one common factor and per-position scales."""
    common = rng.standard_t(4, size=(periods, 1))
    scales = rng.uniform(0.5, 2.0, size=positions)
    rows = 0.6 * common + rng.standard_t(4, size=(periods, positions)) * scales
    names = [f"desk_{i + 1}" for i in range(positions)]
    _write_csv(path, names, rows)
    return {"path": str(path), "rows": rows, "names": names}


def sample(rng: np.random.Generator, path: Path, size: int) -> dict:
    """A single-column Student-t(4) loss sample for ``elicit``."""
    values = rng.standard_t(4, size=size)
    _write_csv(path, ["loss"], values[:, None])
    return {"path": str(path), "values": values}


def forecasts(
    rng: np.random.Generator,
    directory: Path,
    periods: int,
    alpha: float,
    scenarios: int = 0,
) -> dict:
    """A forecast file from a normal model of Student-t(5) losses under
    drifting volatility: VaR and ES at ``alpha``, four supporting quantiles,
    and with ``scenarios`` > 0 one scenario file per period.

    The model's tails are thinner than the losses', so backtests see a
    realistic mix of violations.
    """
    directory.mkdir(parents=True, exist_ok=True)
    vol = np.exp(np.cumsum(rng.normal(0.0, 0.05, size=periods)) * 0.5)
    realized = vol * rng.standard_t(5, size=periods) / math.sqrt(5.0 / 3.0)
    forecast_vol = vol * np.exp(rng.normal(0.0, 0.1, size=periods))
    levels = [alpha + k * (1.0 - alpha) / 4 for k in range(4)]
    quantiles = forecast_vol[:, None] * np.array([_NORMAL.inv_cdf(u) for u in levels])
    z_alpha = _NORMAL.inv_cdf(alpha)
    es = forecast_vol * _NORMAL.pdf(z_alpha) / (1.0 - alpha)
    header = ["period", "realized", "var_forecast", "es_forecast", "q1", "q2", "q3", "q4"]
    lines = [",".join(header + (["scenario_file"] if scenarios else []))]
    scenario_sets = []
    if scenarios:
        (directory / "scenarios").mkdir(exist_ok=True)
    for t in range(periods):
        cells = [str(t + 1), repr(float(realized[t])), repr(float(quantiles[t, 0])), repr(float(es[t]))]
        cells.extend(repr(v) for v in quantiles[t].tolist())
        if scenarios:
            draws = forecast_vol[t] * rng.standard_normal(scenarios)
            name = f"scenarios/p{t + 1}.txt"
            (directory / name).write_text("\n".join(map(repr, draws.tolist())) + "\n")
            scenario_sets.append(draws)
            cells.append(name)
        lines.append(",".join(cells))
    path = directory / "forecasts.csv"
    path.write_text("\n".join(lines) + "\n")
    return {
        "path": str(path),
        "realized": realized,
        "var": quantiles[:, 0].copy(),
        "es": es,
        "quantiles": quantiles,
        "scenarios": scenario_sets,
    }
