"""Regression tests at the sizes the package is fed: panels of 10^5 and 10^6
rows, with equal and with unequal row weights, and a forecast of 2000 periods
of 250 scenarios. Measures and allocations must stay exact here, not only on
test-sized inputs, the CLI must keep its exit contract, a PIT backtest
must hold little more than its scenario values, and a file refused for one
late cell or row must pass only that record through the row loop and be read
once."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tailrisk
from tailrisk import (
    LossPanel,
    es_contributions,
    expectile,
    expectile_contributions,
    expected_shortfall,
    mean,
    pit_series,
    value_at_risk,
)
from tailrisk import ParseError, cli
from tailrisk.cli import main, parse_forecasts_csv, parse_panel_csv

import oracles

LEVELS = (0.95, 0.975, 0.99)


@pytest.fixture(
    scope="module",
    params=[(10**5, 0), (10**5, 1), (10**6, 0), (10**6, 1)],
    ids=["1e5-seed0", "1e5-seed1", "1e6-seed0", "1e6-seed1"],
)
def normal_panel(request):
    t, seed = request.param
    return LossPanel.from_rows(np.random.default_rng(seed).standard_normal((t, 5)))


def _laws(panel):
    """(sample, law) for the portfolio and the first position."""
    return [
        (panel.portfolio_losses(), panel.portfolio_law()),
        (panel.rows[:, 0], panel.column_law(0)),
    ]


def test_es_matches_tail_form(normal_panel):
    for sample, law in _laws(normal_panel):
        for alpha in LEVELS:
            want = oracles.es_of_sample(sample, alpha)
            assert abs(expected_shortfall(law, alpha) - want) <= 1e-11 * abs(want)


def test_var_is_the_order_statistic(normal_panel):
    for sample, law in _laws(normal_panel):
        for alpha in LEVELS:
            assert value_at_risk(law, alpha) == oracles.order_statistic(sample, alpha)


def test_expectile_meets_first_order_condition(normal_panel):
    for sample, law in _laws(normal_panel):
        e = expectile(law, 0.99)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(sample))))
        assert abs(oracles.expectile_residual(sample, 0.99, e)) <= bound


def test_allocations_are_full(normal_panel):
    results = [es_contributions(normal_panel, alpha) for alpha in LEVELS]
    results.append(expectile_contributions(normal_panel, 0.99))
    for result in results:
        assert abs(result.residual) <= 1e-10 * max(1.0, abs(result.total))


# the worst measured on the four normal panels: mean 0.6 ulp, expected
# shortfall 3 and its contributions 5
MEAN_ULPS, TAIL_ULPS = 1, 6


def _ulps(value, exact, scale):
    """|value - exact| in units of ulp(scale)."""
    return abs(value - exact) / math.ulp(scale)


def test_sums_of_products_are_within_a_few_ulps_of_exact(normal_panel):
    # the unit is the ulp of E|L| under the weights of the sum bounded
    n = normal_panel.n_periods
    for sample, law in _laws(normal_panel):
        exact, scale = (math.fsum(x.tolist()) / n for x in (sample, np.abs(sample)))
        assert _ulps(mean(law), exact, scale) <= MEAN_ULPS
        for alpha in LEVELS:
            exact, scale = oracles.tail_means_exact(sample, alpha, [sample, np.abs(sample)])
            assert _ulps(expected_shortfall(law, alpha), exact, scale) <= TAIL_ULPS
    portfolio = normal_panel.portfolio_losses()
    for alpha in LEVELS:
        contributions = es_contributions(normal_panel, alpha).contributions
        for column, c in zip(normal_panel.rows.T, contributions):
            exact, scale = oracles.tail_means_exact(portfolio, alpha, [column, np.abs(column)])
            assert _ulps(c, exact, scale) <= TAIL_ULPS


@pytest.mark.parametrize("seed", [0, 1])
def test_unequal_weight_allocations_are_full(seed):
    t = 10**6
    weights = np.where(np.arange(t) % 2 == 0, 1.5, 0.5) / t
    panel = LossPanel.from_rows(np.random.default_rng(seed).standard_normal((t, 5)), weights=weights)
    for alpha in LEVELS:
        result = es_contributions(panel, alpha)
        assert abs(result.residual) <= 1e-10 * max(1.0, abs(result.total))


def _write_panel(path: Path, rows: np.ndarray) -> str:
    header = ",".join(f"p{i + 1}" for i in range(rows.shape[1]))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    return str(path)


def _write_late_non_finite(path: Path, kind: str) -> tuple[Path, str]:
    """A 2*10^5-row panel whose last cell is nan, or a forecast file of as
    many periods whose last q4 is inf; with the error each must raise."""
    t = 2 * 10**5
    rows = np.random.default_rng(3).standard_normal((t, 7))
    if kind == "panel":
        rows[-1, 4] = math.nan
        _write_panel(path, rows[:, :5])
        return path, f"cell 'nan' is not a finite number (row {t + 1}, column 'p5')"
    rows[:, 0] = np.arange(1, t + 1)
    rows[-1, 6] = math.inf
    np.savetxt(path, rows, fmt=["%d"] + ["%.17g"] * 6, delimiter=",",
               header="period,realized,es_forecast,q1,q2,q3,q4", comments="")
    return path, f"cell 'inf' is not a finite number (row {t + 1}, column 'q4')"


class _CountingReader:
    """A csv reader that counts the records it yields."""

    def __init__(self, read, handle):
        self.reader, self.records = read(handle), 0

    def __iter__(self):
        return self

    def __next__(self):
        record = next(self.reader)
        self.records += 1
        return record

    @property
    def line_num(self):
        return self.reader.line_num


@pytest.mark.parametrize("kind", ["panel", "forecast"])
def test_late_non_finite_cell_sends_only_its_record_through_the_row_loop(
    tmp_path, monkeypatch, kind
):
    path, message = _write_late_non_finite(tmp_path / "in.csv", kind)
    parse = parse_panel_csv if kind == "panel" else parse_forecasts_csv
    calls, finite_floats = [], cli._finite_floats
    monkeypatch.setattr(cli, "_finite_floats", lambda *args: calls.append(1) or finite_floats(*args))
    readers, read = [], cli.csv.reader
    monkeypatch.setattr(cli.csv, "reader", lambda handle: readers.append(
        _CountingReader(read, handle)) or readers[-1])
    with pytest.raises(ParseError) as resumed:
        parse(path)
    assert len(calls) == 1
    # the csv readers yield the header, then the record that holds the value:
    # the lines between are passed over as text, not read as csv records
    assert [reader.records for reader in readers] == [1, 1]
    # the row loop from the top, as when the bulk pass cannot judge a file
    monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
    with pytest.raises(ParseError) as full:
        parse(path)
    assert len(calls) == 1 + 2 * 10**5
    errors = [(str(e.value), e.value.row, e.value.column) for e in (resumed, full)]
    assert errors[0] == errors[1] and errors[0][0] == message


def _late_error_opens_the_file_once(monkeypatch, path, parse, message):
    """``parse(path)`` raises ``message`` having opened the file once, and the
    row loop from the top raises the same error."""
    opened, open_csv = [], cli._open_csv
    monkeypatch.setattr(cli, "_open_csv", lambda *args: opened.append(args) or open_csv(*args))
    with pytest.raises(ParseError) as bulk:
        parse(path)
    assert len(opened) == 1
    monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
    with pytest.raises(ParseError) as full:
        parse(path)
    errors = [(str(e.value), e.value.row, e.value.column) for e in (bulk, full)]
    assert errors[0] == errors[1] and errors[0][0] == message


def test_late_overflowing_row_is_placed_without_reading_the_file_again(tmp_path, monkeypatch):
    t = 2 * 10**5
    rows = np.random.default_rng(4).standard_normal((t, 5))
    rows[-1] = 1e308
    path = Path(_write_panel(tmp_path / "in.csv", rows))
    message = f"portfolio loss overflows: the row sums past the largest float (row {t + 1})"
    _late_error_opens_the_file_once(monkeypatch, path, parse_panel_csv, message)


def test_late_dangling_reference_is_placed_without_reading_the_file_again(
    tmp_path, monkeypatch
):
    t = 2 * 10**5
    (tmp_path / "s.txt").write_text("0.1\n0.2\n")
    refs = ["s.txt"] * (t - 1) + ["missing.txt"]
    lines = ["period,realized,scenario_file", *(f"{i + 1},0.5,{ref}" for i, ref in enumerate(refs))]
    path = tmp_path / "in.csv"
    path.write_text("\n".join(lines) + "\n")
    message = f"dangling scenario reference 'missing.txt' (row {t + 1}, column 'scenario_file')"
    _late_error_opens_the_file_once(monkeypatch, path, parse_forecasts_csv, message)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_es_on_heavy_tailed_panel(tmp_path, seed):
    rows = np.random.default_rng(seed).standard_t(4, (5000, 5))
    path = _write_panel(tmp_path / "panel.csv", rows)
    out = tmp_path / "report.json"
    code = main(
        ["measure", "--input", path, "--kind", "es", "--level", "0.975", "--output", str(out)]
    )
    assert code == 0
    want = oracles.es_of_sample(rows.sum(axis=1), 0.975)
    assert json.loads(out.read_text())["results"]["portfolio"] == pytest.approx(want, rel=1e-11)


def _run_command(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter that imports this package, with
    ``env`` added to the environment."""
    src = str(Path(tailrisk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **env), timeout=300,
    )


_LIBRARY_RESULTS = """
import numpy as np
import tailrisk as t
rng = np.random.default_rng(0)
panel = t.LossPanel.from_rows(rng.standard_normal((10**5, 5)))
law = panel.portfolio_law()
pit = t.PitSeries(rng.uniform(size=10**5), randomized=False, rng_seed=None)
for result in (
    t.mean(law), t.variance(law), t.expected_shortfall(law, 0.975),
    t.es_contributions(panel, 0.975), t.expectile_contributions(panel, 0.99),
    t.wasserstein1(panel.column_law(0), panel.column_law(1)), t.pit_independence_test(pit),
):
    print(repr(result))
"""


def test_library_results_do_not_depend_on_the_blas_thread_count():
    # a multi-threaded BLAS splits a long dot product by thread, so its
    # rounding would follow the thread count; numpy's pairwise sum does not
    outputs = []
    for threads in ("1", "2"):
        proc = _run_command(["-c", _LIBRARY_RESULTS], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_allocate_without_assertions(tmp_path):
    rows = np.random.default_rng(0).standard_normal((10**5, 5))
    path = _write_panel(tmp_path / "panel.csv", rows)
    proc = _run_command(["-O", "-m", "tailrisk", "allocate", "--input", path,
                         "--kind", "es", "--level", "0.99"])
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["total"] == pytest.approx(oracles.es_of_sample(rows.sum(axis=1), 0.99), rel=1e-11)


@pytest.mark.parametrize(
    "argv",
    [["measure", "--kind", "es", "--level", "0.975"], ["measure", "--kind", "mean"],
     ["allocate", "--kind", "es", "--level", "0.975"]],
    ids=["measure-es", "measure-mean", "allocate-es"],
)
def test_cli_report_does_not_depend_on_the_blas_thread_count(tmp_path, argv):
    rows = np.random.default_rng(0).standard_normal((2 * 10**4, 3))
    path = _write_panel(tmp_path / "panel.csv", rows)
    reports = []
    for threads in ("1", "2"):
        proc = _run_command(["-m", "tailrisk", *argv, "--input", path], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]


def test_pit_on_a_long_forecast_holds_little_beyond_its_scenarios(tmp_path):
    t, k = 2000, 250
    rng = np.random.default_rng(0)
    scenarios = rng.standard_normal((t, k))
    realized = rng.standard_normal(t)
    lines = ["period,realized,scenario_file"]
    for i, (values, x) in enumerate(zip(scenarios.tolist(), realized.tolist())):
        (tmp_path / f"s{i}.txt").write_text("\n".join(map(repr, values)) + "\n")
        lines.append(f"{i + 1},{x!r},s{i}.txt")
    (tmp_path / "f.csv").write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        forecasts = parse_forecasts_csv(tmp_path / "f.csv")
        series = pit_series(forecasts.column("scenario_sets"), forecasts.column("realized"), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scenario values take 8 bytes each, 4 MB; a law per period took 28.8 MB
    assert peak <= 2.5 * scenarios.nbytes
    assert series.z.tobytes() == pit_series(scenarios, realized, 7).z.tobytes()
