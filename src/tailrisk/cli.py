"""Batch command-line front end: CSV in, deterministic JSON report out.

Commands dispatch to the library modules; statistical verdicts are data in
the report, never process failures. Exit code 0 means the run completed
(whatever the verdicts say), exit code 2 means the inputs were unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (
    LossPanel,
    diversification_benefit,
    diversification_index,
    es_contributions,
    expectile_contributions,
    marginal_diversification_index,
)
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
from .errors import (
    CounterexampleNotFoundError,
    DegenerateDenominatorError,
    ParseError,
    TailriskError,
)
from .measures import MeasureFamily, MeasureKind, evaluate
from .scoring import (
    ForecastRecord,
    ScoreKind,
    ScoringFunction,
    elicit,
    mean_score,
    two_step_es_forecast,
)

SEED_ENV_VAR = "TAILRISK_SEED"

# each choice names a MeasureKind / ScoringFunction classmethod (with '-' as
# '_'); the tables give the RunConfig field passed to those that take one
_MEASURE_CHOICES = tuple(family.value for family in MeasureFamily)
_SCORE_CHOICES = tuple(kind.value for kind in ScoreKind)
_MEASURE_ARGS = {"var": "level", "es": "level", "expectile": "level"}
_SCORE_ARGS = {
    "weighted-absolute-error": "level",
    "weighted-squared-error": "level",
    "tail-mean": "threshold",
}


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
        if self.level is not None and not 0.0 < self.level < 1.0:
            raise ValueError(f"--level must lie in (0, 1), got {self.level}")
        if not 0.0 < self.significance <= 0.5:
            raise ValueError(f"--significance must lie in (0, 0.5], got {self.significance}")
        if self.bins < 2:
            raise ValueError(f"--bins must be at least 2, got {self.bins}")
        if self.max_lag < 1:
            raise ValueError(f"--max-lag must be at least 1, got {self.max_lag}")
        if self.weight_denominator < 2:
            raise ValueError("--weight-denominator must be at least 2")
        if self.kind in _MEASURE_ARGS and self.level is None:
            raise ValueError(f"--kind {self.kind} requires --level")
        if self.command == "elicit" and not self.two_step:
            if self.score is None:
                raise ValueError("--score is required (or use --two-step)")
            field = _SCORE_ARGS.get(self.score)
            if field is not None and getattr(self, field) is None:
                raise ValueError(f"--score {self.score} requires --{field}")


def _construct(cls, name: str, args: dict[str, str], config: RunConfig):
    """Call the classmethod of ``cls`` that ``name`` names, passing the
    config field it takes, if any."""
    make = getattr(cls, name.replace("-", "_"))
    field = args.get(name)
    return make() if field is None else make(getattr(config, field))


@contextmanager
def _open_csv(path: Path, reader_type):
    """Open ``path`` with a csv reader of ``reader_type``; a malformed record,
    such as a cell longer than the csv field size limit, becomes a
    :class:`ParseError` at the line where the reader stopped."""
    with path.open(newline="") as handle:
        reader = reader_type(handle)
        try:
            yield reader
        except csv.Error as exc:
            # a DictReader updates its own line_num only after a whole record
            line = getattr(reader, "reader", reader).line_num
            raise ParseError(f"malformed CSV: {exc}", row=line) from None


def parse_panel_csv(path: str | Path) -> LossPanel:
    """Read a loss panel: a header row of position names, then numeric rows.

    Losses use the positive-for-loss sign convention.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    with _open_csv(path, csv.reader) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty panel file", row=1) from None
        names = [name.strip() for name in header]
        if any(not name for name in names):
            raise ParseError("blank position name in header", row=1)
        rows = []
        for row_idx, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise ParseError(
                    f"expected {len(names)} cells, found {len(row)}", row=row_idx
                )
            values = []
            for name, cell in zip(names, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric cell {cell!r}", row=row_idx, column=name
                    ) from None
                if not math.isfinite(value):
                    raise ParseError("loss values must be finite", row=row_idx, column=name)
                values.append(value)
            rows.append(values)
    if not rows:
        raise ParseError("panel has no data rows", row=2)
    return LossPanel.from_rows(rows, positions=names)


def _optional_float(row: dict, column: str, row_idx: int) -> float | None:
    raw = (row.get(column) or "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"non-numeric cell {raw!r}", row=row_idx, column=column) from None


def _read_scenario_file(path: Path, row_idx: int) -> tuple[float, ...]:
    values = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ParseError(
                f"non-numeric scenario value {line!r} in {path.name} line {line_no}",
                row=row_idx,
                column="scenario_file",
            ) from None
    if not values:
        raise ParseError(f"scenario file {path} is empty", row=row_idx, column="scenario_file")
    return tuple(values)


def parse_forecasts_csv(path: str | Path) -> list[ForecastRecord]:
    """Read aligned forecast records.

    Columns: ``period`` and ``realized`` are required; ``var_forecast``,
    ``es_forecast``, ``scenario_file`` and supporting-quantile columns
    ``q1..qK`` are optional. Scenario files hold one scenario value per line
    and are resolved relative to the CSV's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"no such input file: {path}")
    base_dir = path.parent
    scenario_cache: dict[Path, tuple[float, ...]] = {}
    with _open_csv(path, csv.DictReader) as reader:
        columns = [c.strip() for c in reader.fieldnames or []]
        if "realized" not in columns:
            raise ParseError("missing required column 'realized'", row=1)
        if "period" not in columns:
            raise ParseError("missing required column 'period'", row=1)
        quantile_columns = sorted(
            (c for c in columns if len(c) > 1 and c[0] == "q" and c[1:].isdigit()),
            key=lambda c: int(c[1:]),
        )
        records = []
        for row_idx, row in enumerate(reader, start=2):
            period_raw = (row.get("period") or "").strip()
            try:
                period = int(period_raw)
            except ValueError:
                raise ParseError(
                    f"non-integer period {period_raw!r}", row=row_idx, column="period"
                ) from None
            realized = _optional_float(row, "realized", row_idx)
            if realized is None:
                raise ParseError("missing realized loss", row=row_idx, column="realized")
            scenario_set = None
            scenario_ref = (row.get("scenario_file") or "").strip()
            if scenario_ref:
                scenario_path = (base_dir / scenario_ref).resolve()
                if not scenario_path.is_file():
                    raise ParseError(
                        f"dangling scenario reference {scenario_ref!r}",
                        row=row_idx,
                        column="scenario_file",
                    )
                if scenario_path not in scenario_cache:
                    scenario_cache[scenario_path] = _read_scenario_file(scenario_path, row_idx)
                scenario_set = scenario_cache[scenario_path]
            quantiles = None
            if quantile_columns:
                parsed = [_optional_float(row, c, row_idx) for c in quantile_columns]
                if any(qv is None for qv in parsed):
                    raise ParseError(
                        "incomplete supporting-quantile row", row=row_idx, column="q*"
                    )
                quantiles = tuple(parsed)
            try:
                records.append(
                    ForecastRecord(
                        period=period,
                        realized=realized,
                        var_forecast=_optional_float(row, "var_forecast", row_idx),
                        es_forecast=_optional_float(row, "es_forecast", row_idx),
                        scenario_set=scenario_set,
                        quantile_forecasts=quantiles,
                    )
                )
            except (TailriskError, ValueError) as exc:
                raise ParseError(str(exc), row=row_idx) from None
    if not records:
        raise ParseError("forecast file has no data rows", row=2)
    return records


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _test_result_entry(result: TestResult) -> dict:
    return {
        "method": result.method,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "reject_at": {f"{lvl:.2f}": flag for lvl, flag in result.reject_at.items()},
        "notes": list(result.notes),
    }


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required for this command")
    return value


def _forecast_column(records: list[ForecastRecord], field_name: str) -> np.ndarray:
    values = [getattr(r, field_name) for r in records]
    if any(v is None for v in values):
        missing = next(r.period for r, v in zip(records, values) if v is None)
        raise ParseError(f"missing {field_name} for period {missing}")
    return np.asarray(values, dtype=float)


def _run_measure(config: RunConfig, warnings: list[str]) -> dict:
    panel = parse_panel_csv(config.input)
    kind = _construct(MeasureKind, _require(config.kind, "--kind"), _MEASURE_ARGS, config)
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
    panel = parse_panel_csv(config.input)
    kind = _require(config.kind, "--kind")
    level = _require(config.level, "--level")
    if kind == "es":
        allocation = es_contributions(panel, level)
    elif kind == "expectile":
        allocation = expectile_contributions(panel, level)
    else:
        raise ValueError("allocate supports --kind es or expectile")
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
    panel = parse_panel_csv(config.input)
    kind = _construct(MeasureKind, _require(config.kind, "--kind"), _MEASURE_ARGS, config)
    results: dict = {"measure": kind.label}
    try:
        results["diversification_index"] = diversification_index(panel, kind)
    except DegenerateDenominatorError as exc:
        results["diversification_index"] = None
        warnings.append(str(exc))
    try:
        results["diversification_benefit"] = diversification_benefit(panel, kind)
    except DegenerateDenominatorError as exc:
        results["diversification_benefit"] = None
        warnings.append(str(exc))
    if kind.family in (MeasureFamily.EXPECTED_SHORTFALL, MeasureFamily.EXPECTILE):
        marginal = {}
        for i, name in enumerate(panel.positions):
            try:
                marginal[name] = marginal_diversification_index(panel, i, kind)
            except DegenerateDenominatorError as exc:
                marginal[name] = None
                warnings.append(str(exc))
        results["marginal_indices"] = marginal
    else:
        results["marginal_indices"] = None
        warnings.append("marginal indices need --kind es or expectile")
    return results


def _run_backtest_var(config: RunConfig, warnings: list[str]) -> dict:
    records = parse_forecasts_csv(config.input)
    level = _require(config.level, "--level")
    realized = _forecast_column(records, "realized")
    forecasts = _forecast_column(records, "var_forecast")
    series = violation_process(forecasts, realized, level)
    coverage = unconditional_coverage_test(series)
    results = {
        "alpha": level,
        "periods": len(series),
        "violations": series.count,
        "violation_rate": series.count / len(series),
        "expected_rate": 1.0 - level,
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
    records = parse_forecasts_csv(config.input)
    level = _require(config.level, "--level")
    realized = _forecast_column(records, "realized")
    es_series = _forecast_column(records, "es_forecast")
    quantiles = [r.quantile_forecasts for r in records]
    if any(q is None for q in quantiles):
        raise ParseError("backtest-es needs supporting-quantile columns q1..qK")
    widths = {len(q) for q in quantiles}
    if len(widths) != 1:
        raise ParseError("supporting-quantile rows have inconsistent width")
    columns = list(zip(*quantiles))
    result = es_quantile_backtest(es_series, columns, realized, level, config.significance)
    return {
        "alpha": result.alpha,
        "levels": list(result.levels),
        "significance": result.significance,
        "per_level_significance": result.significance / len(result.levels),
        "passed": result.passed,
        "coverage": [_test_result_entry(r) for r in result.coverage],
        "independence": [_test_result_entry(r) for r in result.independence],
        "approximation": _jsonable(result.approximation),
        "mean_gap": result.mean_gap,
        "top_tail_observations": list(result.top_tail_observations),
    }


def _run_backtest_pit(config: RunConfig, warnings: list[str]) -> dict:
    records = parse_forecasts_csv(config.input)
    realized = _forecast_column(records, "realized")
    scenario_sets = []
    for record in records:
        if record.scenario_set is None:
            raise ParseError(f"missing scenario_file for period {record.period}")
        scenario_sets.append(record.scenario_set)
    series = pit_series(scenario_sets, realized, rng_seed=config.seed)
    results = {
        "periods": len(series),
        "rng_seed": series.rng_seed,
        "z": _jsonable(series.z),
        "uniformity": _test_result_entry(pit_uniformity_test(series, bins=config.bins)),
        "independence": _test_result_entry(
            pit_independence_test(series, max_lag=config.max_lag)
        ),
    }
    return results


def _run_elicit(config: RunConfig, warnings: list[str]) -> dict:
    panel = parse_panel_csv(config.input)
    if panel.n_positions != 1:
        raise ParseError("elicit expects a single-column sample file")
    sample = panel.rows[:, 0]
    if config.two_step:
        level = _require(config.level, "--level")
        q_hat, es_hat = two_step_es_forecast(sample, level)
        return {"quantile": q_hat, "es": es_hat, "alpha": level}
    s = _construct(ScoringFunction, config.score, _SCORE_ARGS, config)
    estimate = elicit(s, sample)
    return {
        "score": s.kind.value,
        "estimate": estimate,
        "mean_score": mean_score(s, estimate, sample),
    }


def _run_counterexample(config: RunConfig, warnings: list[str]) -> dict:
    search = _require(config.search, "--search")
    level = _require(config.level, "--level")
    if search == "expectile-comonotone":
        try:
            found = find_expectile_comonotone_counterexample(
                level, weight_denominator=config.weight_denominator
            )
        except CounterexampleNotFoundError as exc:
            warnings.append(str(exc))
            return {"search": search, "found": False}
        return {
            "search": search,
            "found": True,
            "tau": found.tau,
            "factor_atoms": _jsonable(found.pair.factor.atoms),
            "factor_weights": _jsonable(found.pair.factor.weights),
            "map1": _jsonable(found.pair.f1),
            "map2": _jsonable(found.pair.f2),
            "sum_value": found.sum_value,
            "part_values": list(found.part_values),
            "gap": found.gap,
        }
    if search == "var-superadditive":
        try:
            found = find_var_superadditivity_example(level)
        except CounterexampleNotFoundError as exc:
            warnings.append(str(exc))
            return {"search": search, "found": False}
        return {
            "search": search,
            "found": True,
            "alpha": found.alpha,
            "rows": _jsonable(found.panel.rows),
            "weights": _jsonable(found.panel.weights),
            "portfolio_var": found.portfolio_var,
            "position_vars": list(found.position_vars),
            "gap": found.gap,
        }
    raise ValueError(f"unknown search {search!r}")


_RUNNERS = {
    "measure": _run_measure,
    "allocate": _run_allocate,
    "diversify": _run_diversify,
    "backtest-var": _run_backtest_var,
    "backtest-es": _run_backtest_es,
    "backtest-pit": _run_backtest_pit,
    "elicit": _run_elicit,
    "counterexample": _run_counterexample,
}


def run(config: RunConfig) -> dict:
    """Execute a command and return the report as a JSON-ready dict."""
    config.validate()
    warnings: list[str] = []
    results = _RUNNERS[config.command](config, warnings)
    return _jsonable(
        {
            "version": __version__,
            "command": config.command,
            "config": asdict(config),
            "results": results,
            "warnings": warnings,
        }
    )


def render_report(report: dict) -> str:
    """Serialize a report deterministically (stable key order)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_report(report: dict, output_path: str) -> None:
    text = render_report(report)
    if output_path == "-":
        sys.stdout.write(text)
    else:
        Path(output_path).write_text(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="Risk measurement and backtesting on loss panels and forecast files.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--output", help="report path (default: stdout)")
        p.add_argument("--seed", type=int, help="RNG seed (default: 0)")

    p = sub.add_parser("measure", help="evaluate a risk measure on a loss panel")
    common(p)
    p.add_argument("--kind", required=True, choices=_MEASURE_CHOICES)
    p.add_argument("--level", type=float)

    p = sub.add_parser("allocate", help="Euler risk contributions per position")
    common(p)
    p.add_argument("--kind", required=True, choices=("es", "expectile"))
    p.add_argument("--level", type=float, required=True)

    p = sub.add_parser("diversify", help="diversification index and benefit")
    common(p)
    p.add_argument("--kind", required=True, choices=_MEASURE_CHOICES)
    p.add_argument("--level", type=float)

    p = sub.add_parser("backtest-var", help="violation-based VaR backtest")
    common(p)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--significance", type=float)

    p = sub.add_parser("backtest-es", help="multi-quantile expected-shortfall backtest")
    common(p)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--significance", type=float)

    p = sub.add_parser("backtest-pit", help="PIT distribution-forecast backtest")
    common(p)
    p.add_argument("--bins", type=int)
    p.add_argument("--max-lag", type=int)

    p = sub.add_parser("elicit", help="score-minimizing estimate from a sample")
    common(p)
    p.add_argument("--score", choices=_SCORE_CHOICES)
    p.add_argument("--level", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--two-step", action="store_true", help="two-step ES forecast")

    p = sub.add_parser("counterexample", help="coherence counterexample searches")
    common(p)
    p.add_argument(
        "--search", required=True, choices=("expectile-comonotone", "var-superadditive")
    )
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--weight-denominator", type=int)

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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
    except (TailriskError, ValueError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2
    _write_report(report, config.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
