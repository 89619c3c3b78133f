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
    """Open ``path`` and yield the handle with a csv reader over it; a
    malformed record, such as a cell longer than the csv field size limit,
    becomes a :class:`ParseError` at the line where the reader stopped."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            yield handle, reader
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", row=reader.line_num) from None


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


def _check_unique(header: list[str]) -> None:
    """A repeated column name would hide one column's data behind another's."""
    seen = set()
    for name in header:
        if name in seen:
            raise ParseError("repeated column name in header", row=1, column=name)
        seen.add(name)


def _bulk_floats(lines: Iterator[str], width: int) -> np.ndarray | None:
    """The rest of ``lines`` as a T x ``width`` matrix, in one C-level pass.

    ``None`` when only the row loop can say what the lines hold: the pass
    fails, meets a value that is not finite or a row of another width, or
    comes to a line it cannot judge. That is a blank line, which
    ``np.loadtxt`` would skip, or one long enough to hold a cell over the csv
    field size limit. The pass accepts a subset of what ``float()`` accepts
    and gives the same bits.
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
            delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float,
        )
    except ValueError:
        return None
    if next(source, None) is not None:  # takewhile stopped before the end
        return None
    if rows.shape[1] != width or not np.isfinite(rows).all():
        return None
    return rows


def _read_panel(path: Path, bulk: bool) -> tuple[list[str], np.ndarray | list[list[float]] | None]:
    """The position names and the data rows; with ``bulk`` the rows come
    from :func:`_bulk_floats` and are ``None`` where it cannot be trusted."""
    with _open_csv(path) as (handle, reader):
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty panel file", row=1) from None
        names = [name.strip() for name in header]
        if any(not name for name in names):
            raise ParseError("blank position name in header", row=1)
        _check_unique(names)
        if bulk:
            return names, _bulk_floats(handle, len(names))
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
    return names, rows


def parse_panel_csv(path: str | Path) -> LossPanel:
    """Read a loss panel: a header row of unique position names, then numeric
    rows. The row loop defines what a panel may hold; a bulk pass reads the
    file, and the loop reads it again only when that pass cannot be trusted.

    Losses use the positive-for-loss sign convention.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    names, rows = _read_panel(path, bulk=True)
    if rows is None:
        names, rows = _read_panel(path, bulk=False)
    panel = LossPanel.from_rows(rows, positions=names)
    with np.errstate(over="ignore"):
        overflowed = ~np.isfinite(panel.portfolio_losses())
    if overflowed.any():
        raise ParseError(
            "portfolio loss overflows: the row sums past the largest float",
            row=_record_line(path, int(np.argmax(overflowed))),
        )
    return panel


def _read_scenario_file(path: Path, row_idx: int) -> list[float]:
    lines = path.read_text().splitlines()
    cells = [cell for cell in map(str.strip, lines) if cell]
    if not cells:
        raise ParseError(f"scenario file {path} is empty", row=row_idx, column="scenario_file")

    def locate(i: int) -> tuple:
        line_no = [n for n, line in enumerate(lines, start=1) if line.strip()][i]
        return row_idx, "scenario_file", f" in {path.name} line {line_no}"

    return _finite_floats(cells, locate)


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
    scenario_sets: list[list[float] | None] | None

    def __len__(self) -> int:
        return len(self.periods)

    def column(self, name: str) -> np.ndarray | list[list[float]]:
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


def parse_forecasts_csv(path: str | Path) -> ForecastColumns:
    """Read a forecast file into the columns the backtests take.

    Columns: ``period`` and ``realized`` are required; ``var_forecast``,
    ``es_forecast``, ``scenario_file`` and supporting-quantile columns
    ``q1..qK`` are optional, and so are their cells, except that a row fills
    every ``q`` column. Scenario files hold one scenario value per line and
    are resolved relative to the CSV's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    scenario_cache: dict[Path, list[float]] = {}
    with _open_csv(path) as (_, reader):
        header = [c.strip() for c in next(reader, [])]
        _check_unique(header)
        for required in ("realized", "period"):
            if required not in header:
                raise ParseError(f"missing required column {required!r}", row=1)
        quantile_columns = sorted(
            (c for c in header if c[:1] == "q" and c[1:].isdigit()), key=lambda c: int(c[1:])
        )
        numbers = ["realized", "var_forecast", "es_forecast", *quantile_columns]
        cells_of = {c: [] for c in numbers if c in header}
        periods, scenario_sets = [], []
        # a blank line or a record longer than the header is an error, as in a
        # panel; a short record ends in blank cells
        for row in reader:
            row_idx = reader.line_num
            if not row or len(row) > len(header):
                problem = f"expected {len(header)} cells, found {len(row)}" if row else "blank line"
                raise ParseError(problem, row=row_idx)
            cells = {c: cell.strip() for c, cell in zip(header, row + [""] * len(header))}
            try:
                periods.append(int(cells["period"]))
            except ValueError:
                raise ParseError(
                    f"non-integer period {cells['period']!r}", row=row_idx, column="period"
                ) from None
            if not cells["realized"]:
                raise ParseError("missing realized loss", row=row_idx, column="realized")
            if not all(cells[c] for c in quantile_columns):
                raise ParseError("incomplete supporting-quantile row", row=row_idx, column="q*")
            for c, column in cells_of.items():
                column.append(cells[c])
            scenario_ref = cells.get("scenario_file")
            if scenario_ref:
                scenario_path = (path.parent / scenario_ref).resolve()
                if not scenario_path.is_file():
                    raise ParseError(
                        f"dangling scenario reference {scenario_ref!r}",
                        row=row_idx,
                        column="scenario_file",
                    )
                if scenario_path not in scenario_cache:
                    scenario_cache[scenario_path] = _read_scenario_file(scenario_path, row_idx)
            scenario_sets.append(scenario_cache[scenario_path] if scenario_ref else None)
    if not periods:
        raise ParseError("forecast file has no data rows", row=2)
    floats = {}
    for c, cells in cells_of.items():
        present = [i for i, cell in enumerate(cells) if cell]
        floats[c] = np.full(len(periods), np.nan)
        floats[c][present] = _finite_floats(
            [cells[i] for i in present], lambda k: (_record_line(path, present[k]), c, "")
        )
    return ForecastColumns(
        periods,
        floats["realized"],
        floats.get("var_forecast"),
        floats.get("es_forecast"),
        np.reshape([floats[c] for c in quantile_columns], (-1, len(periods))).T,
        scenario_sets if "scenario_file" in header else None,
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
