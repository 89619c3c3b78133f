"""Batch command-line front end: CSV in, deterministic JSON report out.

Commands dispatch to the library modules; statistical verdicts are data in
the report, never process failures. Exit code 0 means the run completed
(whatever the verdicts say), exit code 2 means the inputs were unusable, the
report could not be written, or a result is not a finite number, and exit
code 3 means a fault inside the program. Past argument parsing, every error
is one JSON object on standard error. An error's row is the line of the input
file it sits on.
"""

from __future__ import annotations

import argparse
import csv
import encodings.utf_8_sig  # noqa: F401  every input's codec, loaded with the module
import itertools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__
from .allocation import LossPanel, diversify, es_contributions, expectile_contributions
from .allocation import _check_expectile_tau
from .backtest import (
    TestResult,
    es_quantile_backtest,
    find_expectile_comonotone_counterexample,
    find_var_superadditivity_example,
    independence_test,
    pit_independence_test,
    pit_series,
    pit_uniformity_test,
    unconditional_coverage_test,
    violation_process,
)
from .distribution import _check_level
from .errors import (
    CounterexampleNotFoundError,
    ParseError,
    TailriskError,
)
from .measures import MeasureFamily, MeasureKind, evaluate
from .scoring import (
    ScoreKind,
    ScoringFunction,
    elicit,
    mean_score,
    two_step_es_forecast,
)

SEED_ENV_VAR = "TAILRISK_SEED"

# each choice is a name that MeasureKind.named / ScoringFunction.named takes
_MEASURE_CHOICES = tuple(family.value for family in MeasureFamily)
_SCORE_CHOICES = tuple(kind.value for kind in ScoreKind)


@dataclass
class RunConfig:
    command: str
    input: str
    output: str = "-"
    kind: str | None = None
    level: float | None = None
    significance: float = 0.05
    bins: int = 10
    max_lag: int = 5
    seed: int = 0
    score: str | None = None
    threshold: float | None = None
    two_step: bool = False
    search: str | None = None
    weight_denominator: int = 8

    def validate(self) -> None:
        """Check what no command checks before it reads its input. (Each
        command builds its measure or score first, which checks the flags
        that measure or score takes.)"""
        if self.level is not None:
            _check_level(self.level)
            if self.kind == "expectile" and self.command in ("allocate", "diversify"):
                _check_expectile_tau(self.level)
        if not 0.0 < self.significance <= 0.5:
            raise ValueError(f"--significance must lie in (0, 0.5], got {self.significance}")
        if self.bins < 2:
            raise ValueError(f"--bins must be at least 2, got {self.bins}")
        if self.max_lag < 1:
            raise ValueError(f"--max-lag must be at least 1, got {self.max_lag}")
        for flag in _COMMANDS[self.command].required:
            if getattr(self, flag) is None:
                raise ValueError(f"--{flag} is required for this command")
        if self.command == "elicit" and not self.two_step and self.score is None:
            raise ValueError("--score is required (or use --two-step)")
        if self.two_step and self.level is None:
            raise ValueError("--two-step requires --level")


@contextmanager
def _open_csv(path: Path):
    """Open ``path`` as UTF-8, with or without a byte-order mark, and yield the
    handle with a csv reader over it. A malformed record, such as a cell longer
    than the csv field size limit, becomes a :class:`ParseError` at the line
    where the reader stopped; bytes that do not decode, one naming the file."""
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            yield handle, reader
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", row=reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _record_line(path: Path, index: int) -> int:
    """The file line on which data record ``index`` (from 0, after the header)
    ends; a quoted cell may span lines. Read again only to place an error."""
    with _open_csv(path) as (_, reader):
        for _ in itertools.islice(reader, index + 2):
            pass
        return reader.line_num


def _finite_floats(cells: Sequence[str], locate: Callable[[int], tuple]) -> list[float]:
    """``float()`` of every cell, each required to be finite. The first cell
    that is not raises a :class:`ParseError`; ``locate(i)`` gives cell ``i``'s
    row, column and any finer location (a scenario file's line) for it."""
    values = []
    for i, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            row, column, where = locate(i)
            raise ParseError(f"cell {cell!r}{where} is not a finite number", row=row, column=column)
        values.append(value)
    return values


def _bulk_floats(lines: Iterator[str], columns: dict[str, type]) -> np.ndarray | None:
    """The rest of ``lines`` as T records with one field per entry of
    ``columns``, in one C-level pass. A field's type says how its cells are
    read: ``float`` cells must be finite numbers, ``np.int64`` cells integers,
    and ``object`` cells are kept as text.

    ``None`` when only the row loop can say what the lines hold: the pass
    fails, meets a value that is not finite or a row of another width, or
    comes to a line it cannot judge. That is a blank line, which
    ``np.loadtxt`` would skip, or one long enough to hold a cell over the csv
    field size limit. The pass accepts a subset of what ``float()`` and
    ``int()`` accept and gives the same values.
    """
    judged = re.compile(rf"(?=\s*\S).{{0,{csv.field_size_limit()}}}", re.DOTALL).fullmatch
    source = itertools.chain(lines, ("",))  # ends in a blank line, so takewhile stops
    trusted = itertools.takewhile(judged, source)
    first = next(trusted, None)
    if first is None:  # no data, or the first line is not judged
        return None
    try:
        rows = np.loadtxt(
            itertools.chain((first,), trusted),
            delimiter=",", comments=None, quotechar='"', ndmin=1, dtype=list(columns.items()),
        )
    except ValueError:
        return None
    if next(source, None) is not None:  # takewhile stopped before the end
        return None
    if not all(np.isfinite(rows[name]).all() for name, kind in columns.items() if kind is float):
        return None
    return rows


def _read_table(path: Path, columns: Callable, row_loop: Callable) -> tuple:
    """The header and the data rows of a panel or forecast file.

    The header's names are stripped; a blank one would drop its column unread
    and a repeated one hide a column behind another. ``columns(names)`` checks
    what else the file's kind asks of them and gives each column's cell type.
    The rows are the records of :func:`_bulk_floats` where it can be trusted,
    else what ``row_loop(reader, names)`` returns, which defines what they hold.
    """
    with _open_csv(path) as (handle, reader):
        names = [name.strip() for name in next(reader, [])]
        seen = set()
        for name in names:
            if not name:
                raise ParseError("blank column name in header", row=1)
            if name in seen:
                raise ParseError("repeated column name in header", row=1, column=name)
            seen.add(name)
        types = columns(names)
        rows = _bulk_floats(handle, types)
    if rows is None:
        with _open_csv(path) as (_, reader):
            next(reader)
            rows = row_loop(reader, names)
    return names, rows


def _panel_columns(names: list[str]) -> dict[str, type]:
    if not names:
        raise ParseError("empty panel file", row=1)
    return dict.fromkeys(names, float)


def _panel_rows(reader: Iterator[list[str]], names: list[str]) -> list[list[float]]:
    rows = []
    # an error's row is the line the reader stopped on; a blank line is an
    # error there, since in a one-column panel it is an empty cell
    for row in reader:
        if len(row) != len(names):
            problem = f"expected {len(names)} cells, found {len(row)}" if row else "blank line"
            raise ParseError(problem, row=reader.line_num)
        rows.append(_finite_floats(row, lambda i: (reader.line_num, names[i], "")))
    if not rows:
        raise ParseError("panel has no data rows", row=2)
    return rows


def parse_panel_csv(path: str | Path) -> LossPanel:
    """Read a loss panel: a header row of unique position names, then numeric
    rows. The row loop defines what a panel may hold; a bulk pass reads the
    file, and the loop reads it again only when that pass cannot be trusted.

    Losses use the positive-for-loss sign convention.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    names, rows = _read_table(path, _panel_columns, _panel_rows)
    if isinstance(rows, np.ndarray):  # every field is a float, so this is a view
        rows = rows.view(float).reshape(len(rows), len(names))
    panel = LossPanel.from_rows(rows, positions=names)
    with np.errstate(over="ignore"):
        overflowed = ~np.isfinite(panel.portfolio_losses())
    if overflowed.any():
        raise ParseError(
            "portfolio loss overflows: the row sums past the largest float",
            row=_record_line(path, int(np.argmax(overflowed))),
        )
    return panel


def _read_scenario_file(directory: Path, ref: str) -> np.ndarray:
    """The values of scenario file ``ref``, one per non-blank line, as a
    read-only float array. An error names the file as the forecast file
    wrote it."""
    path = directory / ref
    if not path.is_file():
        raise ParseError(f"dangling scenario reference {ref!r}")
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file {ref!r} is not UTF-8 text: {exc.reason}") from None
    cells = list(filter(None, map(str.strip, lines)))
    if not cells:
        raise ParseError(f"scenario file {ref!r} is empty")
    try:  # np.array reads a str as float() does
        values = np.array(cells, dtype=float)
    except ValueError:  # a cell float() rejects, which the loop below names
        values = None
    if values is None or not np.isfinite(values).all():
        line_nos = [n for n, line in enumerate(lines, start=1) if line.strip()]
        _finite_floats(cells, lambda i: (None, None, f" in {path.name} line {line_nos[i]}"))
    values.setflags(write=False)
    return values


def _scenario_sets(path: Path, refs: Sequence[str]) -> list[np.ndarray | None]:
    """The scenario set of each reference of forecast file ``path``, a blank
    one having none. Each distinct file is read once; an error in one is
    placed at the line of the first record naming it, found only then."""
    refs = [ref.strip() for ref in refs]
    sets = {"": None}
    for index, ref in enumerate(refs):
        if ref not in sets:
            try:
                sets[ref] = _read_scenario_file(path.parent, ref)
            except ParseError as exc:
                row = _record_line(path, index)
                raise ParseError(str(exc), row=row, column="scenario_file") from None
    return [sets[ref] for ref in refs]


@dataclass(frozen=True)
class ForecastColumns:
    """A forecast file as the columns the backtests take, one entry per period.
    A blank cell is NaN in a float column and ``None`` in ``scenario_sets``; a
    column the file lacks is ``None``. ``quantiles`` holds ``q1..qK`` in full."""

    periods: list[int]
    realized: np.ndarray
    var_forecast: np.ndarray | None
    es_forecast: np.ndarray | None
    quantiles: np.ndarray
    scenario_sets: list[np.ndarray | None] | None

    def __len__(self) -> int:
        return len(self.periods)

    def column(self, name: str) -> np.ndarray | list[np.ndarray]:
        """The column ``name``, which must have a value in every period."""
        values = getattr(self, name)
        if values is None:
            blank = [True]
        else:
            blank = [v is None for v in values] if name == "scenario_sets" else np.isnan(values)
        if np.any(blank):
            label = "scenario_file" if name == "scenario_sets" else name
            raise ParseError(f"missing {label} for period {self.periods[int(np.argmax(blank))]}")
        return values


def _forecast_columns(names: list[str]) -> dict[str, type]:
    """The cell type of each column of a forecast file. A supporting-quantile
    column must be one of ``q1..qK``: with a gap, a leading zero or ``q0`` a
    column would be tested at another column's level."""
    for required in ("realized", "period"):
        if required not in names:
            raise ParseError(f"missing required column {required!r}", row=1)
    quantiles = [name for name in names if name[:1] == "q" and name[1:].isdigit()]
    if set(quantiles) != {f"q{k}" for k in range(1, len(quantiles) + 1)}:
        raise ParseError(
            f"supporting-quantile columns must be q1..q{len(quantiles)}, "
            f"found {', '.join(quantiles)}",
            row=1,
        )
    floats = {"realized", "var_forecast", "es_forecast", *quantiles}
    return {
        name: float if name in floats else np.int64 if name == "period" else object
        for name in names
    }


def _forecast_rows(reader: Iterator[list[str]], names: list[str]) -> tuple:
    """The row loop that defines what a forecast file may hold. It gives the
    periods, the float columns by name, a blank cell as NaN, and the scenario
    references (``None`` without that column). Errors come row by row."""
    floats = [i for i, kind in enumerate(_forecast_columns(names).values()) if kind is float]
    period, realized = names.index("period"), names.index("realized")
    quantiles = [i for i in floats if names[i][0] == "q"]
    ref = names.index("scenario_file") if "scenario_file" in names else None
    periods, values, refs = [], [], []
    # a blank line or a record longer than the header is an error, as in a
    # panel; a short record ends in blank cells
    for row in reader:
        line = reader.line_num
        if not row or len(row) > len(names):
            problem = f"expected {len(names)} cells, found {len(row)}" if row else "blank line"
            raise ParseError(problem, row=line)
        cells = [cell.strip() for cell in row] + [""] * (len(names) - len(row))
        try:
            periods.append(int(cells[period]))
        except ValueError:
            raise ParseError(
                f"non-integer period {cells[period]!r}", row=line, column="period"
            ) from None
        if not cells[realized]:
            raise ParseError("missing realized loss", row=line, column="realized")
        if not all(cells[i] for i in quantiles):
            raise ParseError("incomplete supporting-quantile row", row=line, column="q*")
        filled = [i for i in floats if cells[i]]
        read = _finite_floats([cells[i] for i in filled], lambda k: (line, names[filled[k]], ""))
        values.append(dict(zip(filled, read)))
        if ref is not None:
            refs.append(cells[ref])
    if not periods:
        raise ParseError("forecast file has no data rows", row=2)
    columns = {names[i]: np.array([read.get(i, math.nan) for read in values]) for i in floats}
    return periods, columns, refs if ref is not None else None


def parse_forecasts_csv(path: str | Path) -> ForecastColumns:
    """Read a forecast file into the columns the backtests take.

    Columns: ``period`` and ``realized`` are required; ``var_forecast``,
    ``es_forecast``, ``scenario_file`` and supporting-quantile columns
    ``q1..qK`` are optional, and so are their cells, except that a row fills
    every ``q`` column. Scenario files hold one scenario value per line and
    are resolved relative to the CSV's directory. As for a panel, a bulk pass
    reads the file and the row loop reads it again only when that pass cannot
    be trusted. Errors come from the header, then row by row, then from the
    scenario files in row order.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    names, table = _read_table(path, _forecast_columns, _forecast_rows)
    if isinstance(table, np.ndarray):  # the bulk pass's records
        floats = {name: np.ascontiguousarray(table[name]) for name in names
                  if table.dtype[name] == float}
        refs = table["scenario_file"] if "scenario_file" in names else None
        table = table["period"].tolist(), floats, refs
    periods, floats, refs = table
    k = sum(name[0] == "q" for name in floats)
    return ForecastColumns(
        periods,
        floats["realized"],
        floats.get("var_forecast"),
        floats.get("es_forecast"),
        np.reshape([floats[f"q{j}"] for j in range(1, k + 1)], (-1, len(periods))).T,
        None if refs is None else _scenario_sets(path, refs),
    )


def _test_result_entry(result: TestResult) -> dict:
    return {
        "method": result.method,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "reject_at": {f"{lvl:.2f}": flag for lvl, flag in result.reject_at.items()},
        "notes": result.notes,
    }


def _run_measure(config: RunConfig, warnings: list[str]) -> dict:
    """evaluate a risk measure on a loss panel"""
    kind = MeasureKind.named(config.kind, config.level)
    panel = parse_panel_csv(config.input)
    positions = {
        name: evaluate(panel.column_law(i), kind)
        for i, name in enumerate(panel.positions)
    }
    return {
        "measure": kind.label,
        "portfolio": evaluate(panel.portfolio_law(), kind),
        "positions": positions,
    }


def _run_allocate(config: RunConfig, warnings: list[str]) -> dict:
    """Euler risk contributions per position"""
    kind = MeasureKind.named(config.kind, config.level)
    panel = parse_panel_csv(config.input)
    if kind.family is MeasureFamily.EXPECTED_SHORTFALL:
        allocation = es_contributions(panel, kind.level)
    else:
        allocation = expectile_contributions(panel, kind.level)
    if allocation.nonunique_gradient:
        warnings.append(
            "portfolio law has mass exactly on the threshold; the gradient is not "
            "unique and the canonical contributions are reported"
        )
    return {
        "measure": allocation.measure.label,
        "total": allocation.total,
        "contributions": dict(zip(panel.positions, allocation.contributions)),
        "residual": allocation.residual,
        "nonunique_gradient": allocation.nonunique_gradient,
    }


def _run_diversify(config: RunConfig, warnings: list[str]) -> dict:
    """diversification index and benefit"""
    kind = MeasureKind.named(config.kind, config.level)
    panel = parse_panel_csv(config.input)
    found = diversify(panel, kind)
    warnings.extend(found.warnings)
    marginal = found.marginal_indices
    if marginal is None:
        warnings.append("marginal indices need --kind es or expectile")
    return {
        "measure": kind.label,
        "diversification_index": found.index,
        "diversification_benefit": found.benefit,
        "marginal_indices": None if marginal is None else dict(zip(panel.positions, marginal)),
    }


def _run_backtest_var(config: RunConfig, warnings: list[str]) -> dict:
    """violation-based VaR backtest"""
    forecasts = parse_forecasts_csv(config.input)
    series = violation_process(
        forecasts.column("var_forecast"), forecasts.column("realized"), config.level
    )
    coverage = unconditional_coverage_test(series)
    results = {
        "alpha": config.level,
        "periods": len(series),
        "violations": series.count,
        "violation_rate": series.count / len(series),
        "expected_rate": 1.0 - config.level,
        "coverage": _test_result_entry(coverage),
        "rejected": coverage.p_value < config.significance,
        "significance": config.significance,
    }
    if len(series) >= 2:
        results["independence"] = _test_result_entry(independence_test(series))
    else:
        results["independence"] = None
        warnings.append("independence test needs at least two periods")
    return results


def _run_backtest_es(config: RunConfig, warnings: list[str]) -> dict:
    """multi-quantile expected-shortfall backtest"""
    forecasts = parse_forecasts_csv(config.input)
    if not forecasts.quantiles.shape[1]:
        raise ParseError("backtest-es needs supporting-quantile columns q1..qK")
    es_series, realized = forecasts.column("es_forecast"), forecasts.column("realized")
    result = es_quantile_backtest(
        es_series, forecasts.quantiles.T, realized, config.level, config.significance
    )
    return {
        "alpha": result.alpha,
        "levels": result.levels,
        "significance": result.significance,
        "per_level_significance": result.significance / len(result.levels),
        "passed": result.passed,
        "coverage": [_test_result_entry(r) for r in result.coverage],
        "independence": [_test_result_entry(r) for r in result.independence],
        "approximation": result.approximation,
        "mean_gap": result.mean_gap,
        "top_tail_observations": result.top_tail_observations,
    }


def _run_backtest_pit(config: RunConfig, warnings: list[str]) -> dict:
    """PIT distribution-forecast backtest"""
    forecasts = parse_forecasts_csv(config.input)
    series = pit_series(
        forecasts.column("scenario_sets"), forecasts.column("realized"), rng_seed=config.seed
    )
    return {
        "periods": len(series),
        "rng_seed": series.rng_seed,
        "z": series.z,
        "uniformity": _test_result_entry(pit_uniformity_test(series, bins=config.bins)),
        "independence": _test_result_entry(pit_independence_test(series, max_lag=config.max_lag)),
    }


def _run_elicit(config: RunConfig, warnings: list[str]) -> dict:
    """score-minimizing estimate from a sample"""
    s = None
    if not config.two_step:
        s = ScoringFunction.named(config.score, config.level, config.threshold)
    panel = parse_panel_csv(config.input)
    if panel.n_positions != 1:
        raise ParseError("elicit expects a single-column sample file")
    sample = panel.rows[:, 0]
    if s is None:
        q_hat, es_hat = two_step_es_forecast(sample, config.level)
        return {"quantile": q_hat, "es": es_hat, "alpha": config.level}
    estimate = elicit(s, sample)
    return {
        "score": s.kind.value,
        "estimate": estimate,
        "mean_score": mean_score(s, estimate, sample),
    }


def _expectile_comonotone(config: RunConfig) -> dict:
    found = find_expectile_comonotone_counterexample(
        config.level, weight_denominator=config.weight_denominator
    )
    return {
        "tau": found.tau,
        "factor_atoms": found.pair.factor.atoms,
        "factor_weights": found.pair.factor.weights,
        "map1": found.pair.f1,
        "map2": found.pair.f2,
        "sum_value": found.sum_value,
        "part_values": found.part_values,
        "gap": found.gap,
    }


def _var_superadditive(config: RunConfig) -> dict:
    found = find_var_superadditivity_example(config.level)
    return {
        "alpha": found.alpha,
        "rows": found.panel.rows,
        "weights": found.panel.weights,
        "portfolio_var": found.portfolio_var,
        "position_vars": found.position_vars,
        "gap": found.gap,
    }


# counterexample's --search choices
_SEARCHES = {"expectile-comonotone": _expectile_comonotone, "var-superadditive": _var_superadditive}


def _run_counterexample(config: RunConfig, warnings: list[str]) -> dict:
    """coherence counterexample searches"""
    try:
        found = _SEARCHES[config.search](config)
    except CounterexampleNotFoundError as exc:
        warnings.append(str(exc))
        return {"search": config.search, "found": False}
    return {"search": config.search, "found": True, **found}


# argparse keywords of every flag
_FLAGS = {
    "input": {"required": True, "help": "input CSV path"},
    "output": {"help": "report path (default: stdout)"},
    "seed": {"type": int, "help": "RNG seed (default: 0)"},
    "kind": {"choices": _MEASURE_CHOICES},
    "level": {"type": float},
    "significance": {"type": float},
    "bins": {"type": int},
    "max-lag": {"type": int},
    "score": {"choices": _SCORE_CHOICES},
    "threshold": {"type": float},
    "two-step": {"action": "store_true", "help": "two-step ES forecast"},
    "search": {"choices": tuple(_SEARCHES)},
    "weight-denominator": {"type": int},
}


class _Command(NamedTuple):
    run: Callable[[RunConfig, list[str]], dict]  # its docstring is the --help line
    flags: tuple[str, ...]  # after --input, --output and --seed
    required: tuple[str, ...] = ()
    choices: dict[str, tuple[str, ...]] | None = None  # in place of the flag's own


# the commands in --help order
_COMMANDS = {
    "measure": _Command(_run_measure, ("kind", "level"), ("kind",)),
    "allocate": _Command(
        _run_allocate, ("kind", "level"), ("kind", "level"), {"kind": ("es", "expectile")}
    ),
    "diversify": _Command(_run_diversify, ("kind", "level"), ("kind",)),
    "backtest-var": _Command(_run_backtest_var, ("level", "significance"), ("level",)),
    "backtest-es": _Command(_run_backtest_es, ("level", "significance"), ("level",)),
    "backtest-pit": _Command(_run_backtest_pit, ("bins", "max-lag")),
    "elicit": _Command(_run_elicit, ("score", "level", "threshold", "two-step")),
    "counterexample": _Command(
        _run_counterexample, ("search", "level", "weight-denominator"), ("search", "level")
    ),
}


def run(config: RunConfig) -> dict:
    """Execute a command and return the report as a JSON-ready dict."""
    config.validate()
    warnings: list[str] = []
    # a result that overflows is inf or nan, which render_report rejects;
    # numpy's warning would only print a second message ahead of that error
    with np.errstate(over="ignore", invalid="ignore"):
        results = _COMMANDS[config.command].run(config, warnings)
    return {
        "version": __version__,
        "command": config.command,
        "config": asdict(config),
        "results": results,
        "warnings": warnings,
    }


def render_report(report: dict) -> str:
    """Serialize a report deterministically (stable key order), a numpy value
    as its Python value. JSON has no number for a non-finite result, so one
    raises :class:`ValueError`."""
    try:
        return json.dumps(
            report, indent=2, sort_keys=True, allow_nan=False, default=lambda value: value.tolist()
        ) + "\n"
    except ValueError:
        raise ValueError("the report holds a non-finite result, which JSON cannot encode") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="Risk measurement and backtesting on loss panels and forecast files.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__)
        for flag in ("input", "output", "seed", *command.flags):
            spec = dict(_FLAGS[flag])
            if flag in command.required:
                spec["required"] = True
            if command.choices and flag in command.choices:
                spec["choices"] = command.choices[flag]
            p.add_argument(f"--{flag}", **spec)
    return parser


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags left unset take the :class:`RunConfig` defaults; the seed
    defaults to ``TAILRISK_SEED``, then 0."""
    values = {name: value for name, value in vars(args).items() if value is not None}
    if "seed" not in values:
        values["seed"] = _default_seed()
    return RunConfig(**values)


def _report_error(exc: Exception, code: int) -> int:
    error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        text = render_report(run(config))
        if config.output == "-":
            sys.stdout.write(text)
        else:
            Path(config.output).write_text(text)
    except (TailriskError, ValueError, OSError) as exc:
        return _report_error(exc, 2)
    except Exception as exc:  # a fault of the program, not of its input
        return _report_error(exc, 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
