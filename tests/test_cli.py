"""End-to-end tests of the batch CLI: CSV parsing, command dispatch, exit
codes, and deterministic JSON reports."""

import contextlib
import csv
import io
import json
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrisk import (
    DegenerateDenominatorError,
    LossPanel,
    MeasureKind,
    ParseError,
    diversification_benefit,
    diversification_index,
    marginal_diversification_index,
)
from tailrisk import cli
from tailrisk.cli import main, parse_forecasts_csv, parse_panel_csv
from test_golden import CASES


def write(path, text):
    path.write_text(text)
    return str(path)


# backtest commands without their --input
VAR = ["backtest-var", "--level", "0.9"]
ES = ["backtest-es", "--level", "0.9"]
PIT = ["backtest-pit"]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def uniform_panel(tmp_path):
    lines = ["loss"] + [str(x) for x in range(1, 101)]
    return write(tmp_path / "panel.csv", "\n".join(lines) + "\n")


class TestParsePanelCsv:
    def test_two_by_two(self, tmp_path):
        path = write(tmp_path / "p.csv", "a,b\n1,2\n3,4\n")
        panel = parse_panel_csv(path)
        assert panel.positions == ("a", "b")
        assert panel.n_periods == 2
        assert np.array_equal(panel.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_location(self, tmp_path):
        path = write(tmp_path / "p.csv", "a,b\n1,2\n3\n")
        with pytest.raises(ParseError) as info:
            parse_panel_csv(path)
        assert info.value.row == 3

    def test_non_numeric_cell_location(self, tmp_path):
        path = write(tmp_path / "p.csv", "a,b\n1,2\n3,x\n")
        with pytest.raises(ParseError) as info:
            parse_panel_csv(path)
        assert info.value.row == 3
        assert info.value.column == "b"

    def test_single_column(self, tmp_path):
        path = write(tmp_path / "p.csv", "loss\n1\n2\n")
        assert parse_panel_csv(path).n_positions == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_panel_csv(tmp_path / "nope.csv")

    def test_no_data_rows(self, tmp_path):
        path = write(tmp_path / "p.csv", "a,b\n")
        with pytest.raises(ParseError):
            parse_panel_csv(path)

    def test_blank_line_is_an_error_at_its_line(self, tmp_path):
        # in a one-column panel a blank line is an empty cell, not a skipped row
        path = write(tmp_path / "p.csv", "loss\n1\n\n3\n")
        with pytest.raises(ParseError, match="blank line") as info:
            parse_panel_csv(path)
        assert info.value.row == 3

    def test_repeated_name_is_an_error(self, tmp_path):
        # one of the two columns would otherwise be dropped from every report
        path = write(tmp_path / "p.csv", "a,a\n1,3\n2,4\n")
        with pytest.raises(ParseError, match="repeated column name") as info:
            parse_panel_csv(path)
        assert (info.value.row, info.value.column) == (1, "a")

    def test_row_is_the_file_line(self, tmp_path):
        # a quoted cell spanning two lines puts the next record on line 4
        path = write(tmp_path / "p.csv", 'a,b\n1,"2\n"\n3,x\n')
        with pytest.raises(ParseError) as info:
            parse_panel_csv(path)
        assert (info.value.row, info.value.column) == (4, "b")


class TestParseForecastsCsv:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ParseError) as caught:
            parse_forecasts_csv(path)
        assert str(caught.value) == f"no such input file: {path}"
        assert (caught.value.row, caught.value.column) == (None, None)

    def test_var_only(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,var_forecast\n1,0.5,1.0\n2,1.5,1.0\n",
        )
        forecasts = parse_forecasts_csv(path)
        assert len(forecasts) == 2
        assert forecasts.column("var_forecast").tolist() == [1.0, 1.0]
        assert forecasts.column("realized").tolist() == [0.5, 1.5]
        assert forecasts.es_forecast is None and forecasts.scenario_sets is None
        assert forecasts.quantiles.shape == (2, 0)

    def test_es_with_quantile_columns(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,es_forecast,q1,q2,q3,q4\n1,0.5,3.0,1,2,3,4\n",
        )
        forecasts = parse_forecasts_csv(path)
        assert forecasts.quantiles.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        assert forecasts.column("es_forecast").tolist() == [3.0]

    def test_scenario_reference(self, tmp_path):
        write(tmp_path / "s1.txt", "1.0\n2.0\n3.0\n")
        path = write(
            tmp_path / "f.csv",
            "period,realized,scenario_file\n1,2.5,s1.txt\n",
        )
        forecasts = parse_forecasts_csv(path)
        assert set_bits(forecasts.column("scenario_sets")) == set_bits([np.array([1.0, 2.0, 3.0])])

    def test_header_names_are_stripped(self, tmp_path):
        path = write(tmp_path / "f.csv", "period, realized ,var_forecast\n1,0.5,1.0\n")
        assert parse_forecasts_csv(path).column("realized").tolist() == [0.5]

    def test_blank_cell_is_missing_for_its_period(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,var_forecast,es_forecast\n7,0.5,1.0,\n8,1.5,,2.0\n",
        )
        forecasts = parse_forecasts_csv(path)
        with pytest.raises(ParseError, match="missing var_forecast for period 8"):
            forecasts.column("var_forecast")
        with pytest.raises(ParseError, match="missing es_forecast for period 7"):
            forecasts.column("es_forecast")
        with pytest.raises(ParseError, match="missing scenario_file for period 7"):
            forecasts.column("scenario_sets")

    @pytest.mark.parametrize(
        "row, column",
        [
            ("2,nan,1.0,3,4", "realized"),
            ("2,0.5,inf,3,4", "var_forecast"),
            ("2,0.5,1.0,-inf,4", "q1"),
            ("2,0.5,1.0,3,x", "q2"),
        ],
    )
    def test_cell_must_be_a_finite_number(self, tmp_path, row, column):
        path = write(
            tmp_path / "f.csv",
            "period,realized,var_forecast,q1,q2\n1,0.5,1.0,3,4\n" + row + "\n",
        )
        with pytest.raises(ParseError, match="is not a finite number") as info:
            parse_forecasts_csv(path)
        assert (info.value.row, info.value.column) == (3, column)

    def test_scenario_value_must_be_a_finite_number(self, tmp_path):
        write(tmp_path / "s1.txt", "1.0\n\nnan\n")
        path = write(
            tmp_path / "f.csv",
            "period,realized,scenario_file\n1,2.5,s1.txt\n",
        )
        with pytest.raises(ParseError, match="s1.txt line 3") as info:
            parse_forecasts_csv(path)
        assert (info.value.row, info.value.column) == (2, "scenario_file")

    def test_dangling_scenario_reference(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,scenario_file\n1,2.5,missing.txt\n",
        )
        with pytest.raises(ParseError) as info:
            parse_forecasts_csv(path)
        assert info.value.column == "scenario_file"

    def test_oversized_cell_location(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,var_forecast\n1,0.5,1.0\n2,1.5," + "1" * 140000 + "\n",
        )
        with pytest.raises(ParseError) as info:
            parse_forecasts_csv(path)
        assert info.value.row == 3

    def test_blank_line_is_an_error_at_its_line(self, tmp_path):
        path = write(tmp_path / "f.csv", "period,realized,var_forecast\n1,0.5,1.0\n\n3,x,1.0\n")
        with pytest.raises(ParseError, match="blank line") as info:
            parse_forecasts_csv(path)
        assert info.value.row == 3

    def test_row_is_the_file_line(self, tmp_path):
        path = write(tmp_path / "f.csv", 'period,realized,var_forecast\n1,0.5,"1.0\n"\n3,x,1.0\n')
        with pytest.raises(ParseError) as info:
            parse_forecasts_csv(path)
        assert (info.value.row, info.value.column) == (4, "realized")

    def test_missing_realized_column(self, tmp_path):
        path = write(tmp_path / "f.csv", "period,var_forecast\n1,1.0\n")
        with pytest.raises(ParseError):
            parse_forecasts_csv(path)

    def test_repeated_column_is_an_error(self, tmp_path):
        # the second var_forecast column would otherwise replace the first
        path = write(
            tmp_path / "f.csv", "period,realized,var_forecast,var_forecast\n1,0.5,1.0,9.0\n"
        )
        with pytest.raises(ParseError, match="repeated column name") as info:
            parse_forecasts_csv(path)
        assert (info.value.row, info.value.column) == (1, "var_forecast")

    @pytest.mark.parametrize(
        "quantiles", ["q1,q2,q4", "q1,q01,q2,q3", "q0,q1,q2", "q2,q3", "q1,q\uff12"]
    )
    def test_quantile_columns_must_be_q1_to_qK(self, tmp_path, quantiles):
        # q1,q2,q4 read as K = 3 would test q4 at the level of a third column
        cells = ",".join(str(k) for k in range(len(quantiles.split(","))))
        path = write(tmp_path / "f.csv", f"period,realized,{quantiles}\n1,0.5,{cells}\n")
        with pytest.raises(ParseError, match="supporting-quantile columns must be q1..q") as info:
            parse_forecasts_csv(path)
        assert info.value.row == 1

    def test_quantile_columns_may_come_in_any_order(self, tmp_path):
        path = write(tmp_path / "f.csv", "period,realized,q2,q1\n1,0.5,4,3\n")
        assert parse_forecasts_csv(path).quantiles.tolist() == [[3.0, 4.0]]

    def test_blank_column_name_is_an_error(self, tmp_path):
        # the blank column's cells would otherwise be dropped unread
        path = write(tmp_path / "f.csv", "period,realized,,var_forecast\n1,0.5,x,1.0\n")
        with pytest.raises(ParseError, match="blank column name in header") as info:
            parse_forecasts_csv(path)
        assert info.value.row == 1

    def test_each_scenario_file_is_read_once(self, tmp_path, monkeypatch):
        write(tmp_path / "s1.txt", "1.0\n2.0\n")
        write(tmp_path / "s2.txt", "3.0\n")
        path = write(
            tmp_path / "f.csv",
            "period,realized,scenario_file\n1,0.5,s1.txt\n2,0.5,s2.txt\n3,0.5,s1.txt\n4,0.5,\n",
        )
        reads = []
        read = cli._read_scenario_file
        monkeypatch.setattr(
            cli, "_read_scenario_file", lambda *args: reads.append(args[1]) or read(*args)
        )
        forecasts = parse_forecasts_csv(path)
        assert reads == ["s1.txt", "s2.txt"]
        s1, s2 = np.array([1.0, 2.0]), np.array([3.0])
        assert set_bits(forecasts.scenario_sets) == set_bits([s1, s2, s1, None])
        # one read-only array per distinct file, shared by the rows naming it
        assert forecasts.scenario_sets[0] is forecasts.scenario_sets[2]
        assert not forecasts.scenario_sets[0].flags.writeable

    def test_trusted_file_with_references_is_opened_once(self, tmp_path, monkeypatch):
        # the references come from the bulk pass's table, not a second csv pass
        path = forecast_file(tmp_path, "period,realized,scenario_file\n1,0.5,s.txt\n2,0.6,s1.txt\n")
        opened, open_csv = [], cli._open_csv
        monkeypatch.setattr(cli, "_open_csv", lambda path: opened.append(path) or open_csv(path))
        forecasts = parse_forecasts_csv(path)
        assert opened == [path]
        want = [np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0])]
        assert set_bits(forecasts.scenario_sets) == set_bits(want)

    @pytest.mark.parametrize(
        "text, row, column",
        [
            # a row's float cells are read before the next row's period
            ("period,realized,var_forecast\n1,0.5,x\n2.5,0.6,1.0\n", 2, "var_forecast"),
            # every row is read before the scenario files
            ("period,realized,scenario_file\n1,0.5,missing.txt\n2,x,s.txt\n", 3, "realized"),
        ],
    )
    def test_errors_come_row_by_row_then_from_scenario_files(self, tmp_path, text, row, column):
        with pytest.raises(ParseError, match="cell 'x' is not a finite number") as info:
            parse_forecasts_csv(forecast_file(tmp_path, text))
        assert (info.value.row, info.value.column) == (row, column)

    def test_scenario_error_row_is_the_line_its_record_ends_on(self, tmp_path):
        path = forecast_file(tmp_path, 'period,realized,scenario_file\n1,0.5,s.txt\n2,0.6,"m\nx"\n')
        with pytest.raises(ParseError, match=r"dangling scenario reference 'm\\nx'") as info:
            parse_forecasts_csv(path)
        assert (info.value.row, info.value.column) == (4, "scenario_file")


# whitespace-only lines; none of these characters ends a line under newline=""
WHITESPACE_LINES = [f"loss\n1\n{space}\n2\n" for space in "\x0b\x0c\x1c\x85\xa0\u2028\u3000"]
# too long to be their own test ids: each case's file and whether the bulk pass trusts it
LONG_CASES = {
    "blank-line-after-64KiB": ("loss\n" + "1.5\n" * 20000 + "\n2\n", False),
    "long-line-after-64KiB": ("loss\n" + "1.5\n" * 20000 + "0" * 140000 + "2\n", False),
    "line-at-field-limit": ("a\n" + "0" * (csv.field_size_limit() - 2) + "1\n", True),
    "line-past-field-limit": ("a\n" + "0" * (csv.field_size_limit() - 1) + "1\n", False),
}

# Panels that take each branch of the bulk pass and of the row loop: every panel
# error input of this file, then the syntax where np.loadtxt and csv plus float()
# could part ways. Written as bytes, so the line endings are the ones shown.
BULK_CASES = [
    "a,b\n1,2\n3\n",
    "a,b\n1,2\n3,x\n",
    "a,b\n",
    "loss\n1\n\n3\n",
    'a,b\n1,"2\n"\n3,x\n',
    "a\n1\n" + "1" * 140000 + "\n",
    "a\n1e200\n-1e200\n",
    "a,b\n1,2\n1e308,1e308\n1e308,1e308\n",
    "a,a\n1,2\n",
    "",
    # empty lines at the start, middle and end of the data, per line ending
    *(
        text.replace("\n", eol)
        for eol in ("\n", "\r\n", "\r")
        for text in (
            "a,b\n\n1,2\n3,4\n", "a,b\n1,2\n\n3,4\n", "a,b\n1,2\n3,4\n\n", "a,b\n1,2\n3,4\n"
        )
    ),
    "a,b\r\n1,2\n3,4\r5,6",
    "loss\n1\n2\n\n",
    "loss\n1\n \n2\n",
    "a,b\n 1 ,\t2\t\n3 , 4\n",
    "a,b\n1_0,2\n",
    "a,b\n\uff11,2\n",
    "a,b\n+.5,5.\n-.5,-5.\n",
    'a,b\n"1","2"\n"3",4\n',
    'a,b\n"1,5",2\n',
    'a,b\n"1\n",2\n3,4\n',
    'a,b\n"1"2,3\n',
    'a,b\n1"2",3\n',
    'a\n1\n"\n2\n',
    "a,b\nnan,1\n",
    "a,b\n1,inf\n",
    "a,b\n1e400,1\n",
    "a,b\n1,2,\n",
    "a,b\n1,2\n3\n",
    "a,b,c\n1,2\n3,4\n",
    "a\n1\x002\n",
    "a,b\n1,\x00\n",
    "a\n1\n" + "0" * 140000 + "1\n",
    # the bulk pass judges a block of lines at a time: whitespace-only lines, a
    # refusal in a block after the first, and a line of the csv field size
    # limit, counting its "\n", and one longer
    *WHITESPACE_LINES,
    *(pytest.param(text, id=name) for name, (text, _) in LONG_CASES.items()),
    # a non-finite value the bulk pass reads sends the row loop to its record:
    # after a quoted cell spanning lines, after \r and \r\n endings, and in a
    # block after the first
    'a,b\n1,2\n"3\n",4\n5,6\n7,nan\n',
    'a,b\n"1\r",2\n"3\r\n",4\n5,-inf\n',
    *("a,b\n1,2\n3,4\n5,inf\n-inf,6\n".replace("\n", eol) for eol in ("\r", "\r\n")),
    pytest.param("loss\n" + "1.5\n" * 20000 + "nan\n2\n", id="nan-after-64KiB"),
]


def bulk_tables(patch):
    """The tables ``cli._bulk_floats`` returns once ``patch`` spies on it,
    ``None`` for each file it cannot vouch for."""
    tables, read = [], cli._bulk_floats
    patch.setattr(cli, "_bulk_floats", lambda *args: tables.append(read(*args)) or tables[-1])
    return tables


def parse_outcome(path, capsys):
    """What parse_panel_csv returns or raises, and what a CLI run on it prints."""
    try:
        panel = parse_panel_csv(path)
        parsed = (panel.positions, panel.rows.shape, panel.rows.tobytes())
    except ParseError as exc:
        parsed = (str(exc), exc.row, exc.column)
    code = main(["measure", "--input", path, "--kind", "mean"])
    return parsed, code, capsys.readouterr()


# Forecast files that take each branch of the bulk pass and of the row loop:
# every forecast and scenario input of this file, the header rules, the cells
# int() reads and an int64 pass does not, blank cells and short rows, then
# references and syntax. Each runs next to the scenario files below.
FORECAST_HEADER = "period,realized,var_forecast,es_forecast,q1,q2,scenario_file\n"
FORECAST_CASES = [
    "period,realized,var_forecast\n1,0.5,1.0\n2,1.5,1.0\n",
    "period,realized,es_forecast,q1,q2,q3,q4\n1,0.5,3.0,1,2,3,4\n",
    "period,realized,scenario_file\n1,2.5,s1.txt\n",
    "period, realized ,var_forecast\n1,0.5,1.0\n",
    "period,realized,var_forecast,es_forecast\n7,0.5,1.0,\n8,1.5,,2.0\n",
    *(
        "period,realized,var_forecast,q1,q2\n1,0.5,1.0,3,4\n" + row + "\n"
        for row in ("2,nan,1.0,3,4", "2,0.5,inf,3,4", "2,0.5,1.0,-inf,4", "2,0.5,1.0,3,x")
    ),
    "period,realized,scenario_file\n1,2.5,nan3.txt\n",
    "period,realized,scenario_file\n1,2.5,missing.txt\n",
    "period,realized,var_forecast\n1,0.5,1.0\n2,1.5," + "1" * 140000 + "\n",
    "period,realized,var_forecast\n1,0.5,1.0\n\n3,x,1.0\n",
    'period,realized,var_forecast\n1,0.5,"1.0\n"\n3,x,1.0\n',
    "period,var_forecast\n1,1.0\n",
    "period,realized,var_forecast,var_forecast\n1,0.5,1.0,9.0\n",
    "period,realized,var_forecast\n1,1.0,-100.0\n2,2.0,-100.0\n",
    "period,realized,es_forecast,q1,q2,q3,q4\n"
    "0,0.3,0.97,0.9,0.925,0.95,0.975\n1,0.99,0.97,0.9,0.925,0.95,0.975\n",
    "period,realized,scenario_file\n0,0.1,s.txt\n1,0.2,s.txt\n2,0.15,s1.txt\n",
    "period,realized,es_forecast\n1,0.5,1.0\n",
    "period,realized,var_forecast,es_forecast\n1,0.5,1.0,1.2\n2,0.7,,\n",
    "period,realized,scenario_file\n1,0.5,s.txt\n2,nan,s.txt\n",
    "period,realized,scenario_file\n1,0.5,bad.txt\n",
    "period,realized,scenario_file\n1,0.5,empty.txt\n",
    "period,realized,var_forecast\n1,0.5,1.0,99\n",
    "period,realized,es_forecast,q1,q2,q4\n1,0.5,1.0,1,2,4\n",
    "period,realized,q1,q01,q2,q3\n1,0.5,1,1,2,3\n",
    "period,realized,q0,q1\n1,0.5,1,2\n",
    "period,realized,,var_forecast\n1,0.5,x,1.0\n",
    "",
    "period,realized\n",
    *(
        f"period,realized,var_forecast\n1,0.5,1.0\n{period},0.7,1.1\n"
        for period in (
            "1.0", "1e3", "1_000", "99999999999999999999999", "-9223372036854775809",
            "9223372036854775807", " 7\t", "+3", "007", "\uff11", "x", "",
        )
    ),
    "period,realized,var_forecast\n1,0.5\n2,0.7,1.0\n",
    "period,realized,var_forecast\n1,,1.0\n",
    "period,realized,es_forecast,q1,q2\n1,0.5,1.0,2,\n",
    "period,realized,es_forecast,q1,q2\n1,0.5,,2,3\n",
    'period,realized,scenario_file\n1,0.5,"s.txt"\n2,0.6, s1.txt \n3,0.7,\n4,0.8,s.txt\n',
    'period,realized,scenario_file\n1,0.5,"s,1.txt"\n',
    "period,realized,scenario_file\n1,0.5,odd.txt\n",
    "period,realized,scenario_file\n1,0.5,comma.txt\n",
    "period,realized,scenario_file\n1,0.5,pair.txt\n",
    'period,realized,note,var_forecast\n1,0.5,a"b,1.0\n2,0.6,"c,d",1.1\n',
    "period,realized,note,var_forecast\n1,0.5,nan,1.0\n",
    *(
        text.replace("\n", eol)
        for eol in ("\n", "\r\n", "\r")
        for text in (
            FORECAST_HEADER + "1,0.5,1.0,1.2,1.0,1.1,s.txt\n2,0.6,1.0,1.2,1.0,1.1,s1.txt\n",
            FORECAST_HEADER + "1,0.5,1.0,1.2,1.0,1.1,s.txt\n\n",
            FORECAST_HEADER + "\n1,0.5,1.0,1.2,1.0,1.1,s.txt",
        )
    ),
    'period,realized,var_forecast\n"1","0.5", 1.0 \n',
    'period,realized,var_forecast\n1,"0.5\n",1.0\n',
    "period,realized,var_forecast\n1,0.5,1.0\x00\n",
    "period,realized,var_forecast\n1\x00,0.5,1.0\n",
    # two errors each: the first in file order is reported, and a scenario
    # file's only after every row
    "period,realized,var_forecast\n1,0.5,x\n2.5,0.6,1.0\n",
    "period,realized,scenario_file\n1,0.5,missing.txt\n2,x,s.txt\n",
    # reference cells where csv.reader and the bulk pass's text field could differ
    *(
        f"period,realized,scenario_file\n1,0.5,{cell}\n2,0.6,s.txt\n".replace("\n", eol)
        for eol in ("\n", "\r\n", "\r")
        for cell in (
            ' "s.txt"', 'a"b', '"s.txt" ', '"a""b"', '"s"x', "s.txt\t", '"s,1.txt"', '"s\n.txt"',
            '"s.txt',
        )
    ),
    # late non-finite values, as for a panel
    'period,realized,note,var_forecast\n1,"0.5\n",1,1.0\n2,0.6,"a\nb",1.0\n3,0.7,c,nan\n',
    *(
        "period,realized,var_forecast,q1,q2\n1,0.5,1.0,3,4\n2,0.6,1.0,3,inf\n3,-inf,1.0,3,4\n"
        .replace("\n", eol)
        for eol in ("\r", "\r\n")
    ),
    pytest.param(
        "period,realized,var_forecast\n" + "".join(f"{i},0.5,1.0\n" for i in range(1, 8001))
        + "8001,0.5,nan\n8002,x,1.0\n",
        id="nan-after-64KiB",
    ),
]
SCENARIO_FILES = {
    "s.txt": "0.1\n0.2\n",
    "s1.txt": "1.0\n2.0\n3.0\n",
    "nan3.txt": "1.0\n\nnan\n",
    "bad.txt": "0.1\nnan\n",
    "empty.txt": "\n",
    "s,1.txt": "1\n2\n",
    "odd.txt": "1_0\n\uff11\n +.5 \n5.\n\n-.5\r\n",
    "comma.txt": "1,5\n",
    "pair.txt": "1.0 2.0\n",
    'a"b': "4\n",
}


def forecast_file(directory, text):
    """``text`` as a forecast file, written as bytes, next to the scenario files."""
    for name, values in SCENARIO_FILES.items():
        (directory / name).write_bytes(values.encode())
    path = directory / "f.csv"
    path.write_bytes(text.encode())
    return path


def set_bits(sets):
    """Each scenario set's dtype and bytes, a blank one ``None``: stricter
    than comparing lists with ``==``, which equates 0.0 and -0.0."""
    return None if sets is None else [None if s is None else (s.dtype, s.tobytes()) for s in sets]


def forecast_summary(forecasts):
    """Everything a ForecastColumns holds, bit for bit."""
    f = forecasts
    arrays = (f.realized, f.var_forecast, f.es_forecast, f.quantiles)
    shaped = [None if a is None else (a.shape, a.tobytes()) for a in arrays]
    return f.periods, shaped, set_bits(f.scenario_sets)


def forecast_outcome(path, capsys):
    """What parse_forecasts_csv returns or raises, and what each backtest
    prints on the file."""
    try:
        parsed = forecast_summary(parse_forecasts_csv(path))
    except ParseError as exc:
        parsed = (str(exc), exc.row, exc.column)
    runs = [(main(argv + ["--input", path]), capsys.readouterr()) for argv in (VAR, ES, PIT)]
    return parsed, runs


class TestBulkParse:
    @pytest.mark.parametrize("text", BULK_CASES)
    def test_bulk_pass_agrees_with_the_row_loop(self, tmp_path, monkeypatch, capsys, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        bulk = parse_outcome(str(path), capsys)
        monkeypatch.setattr(cli, "_bulk_floats", lambda lines, width: None)
        assert parse_outcome(str(path), capsys) == bulk

    @pytest.mark.parametrize(
        "text, trusted",
        [
            ("a,b\r\n1,2\r\n3,4\r\n", True),
            ("a,b\r1,2\r3,4", True),
            # a record read from two lines: the table would not give each row's line
            ('a,b\n"1\n",2\n', False),
            ("a,b\n 1 ,\t2\n", True),
            ("a,b\n1,2\n\n", False),
            ("a,b\n1_0,2\n", False),
            ("a,b\n1,nan\n", True),
            ("a,b,c\n1,2\n", False),
            ("a\n" + "0" * 140000 + "1\n", False),
            *((text, False) for text in WHITESPACE_LINES),
            *(pytest.param(*case, id=name) for name, case in LONG_CASES.items()),
        ],
    )
    def test_bulk_pass_is_trusted_only_where_it_can_judge(
        self, tmp_path, monkeypatch, text, trusted
    ):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        tables = bulk_tables(monkeypatch)
        with suppress(ParseError):
            parse_panel_csv(path)
        assert [table is not None for table in tables] == [trusted]

    def test_golden_panel_takes_the_bulk_pass(self, monkeypatch):
        path = GOLDEN / "panel.csv"
        tables = bulk_tables(monkeypatch)
        rows = parse_panel_csv(path).rows
        assert rows.shape == (60, 3) and tables[0].tobytes() == rows.tobytes()
        monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        assert rows.tobytes() == parse_panel_csv(path).rows.tobytes()

    def test_benchmark_shaped_panel_takes_the_bulk_pass(self, tmp_path, monkeypatch):
        # 2*10^4 rows of five floats in repr span many blocks of the bulk pass
        rows = np.random.default_rng(5).normal(size=(20000, 5))
        lines = ["p1,p2,p3,p4,p5", *(",".join(map(repr, row)) for row in rows.tolist())]
        path = Path(write(tmp_path / "p.csv", "\n".join(lines) + "\n"))
        tables = bulk_tables(monkeypatch)
        parsed = parse_panel_csv(path).rows
        assert path.stat().st_size > 20 * (1 << 16)
        assert tables[0] is not None and parsed.tobytes() == rows.tobytes()
        monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        assert parse_panel_csv(path).rows.tobytes() == parsed.tobytes()

    @pytest.mark.parametrize("text", FORECAST_CASES)
    def test_forecast_bulk_pass_agrees_with_the_row_loop(self, tmp_path, monkeypatch, capsys, text):
        path = str(forecast_file(tmp_path, text))
        bulk = forecast_outcome(path, capsys)
        monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        assert forecast_outcome(path, capsys) == bulk

    @pytest.mark.parametrize(
        "text, trusted",
        [
            ("period,realized,var_forecast\r\n1,0.5,1.0\r\n", True),
            ('period,realized,scenario_file\n1,0.5,"s.txt"\n2,0.6,\n', True),
            ("period,realized,note\n1,0.5,nan\n", True),
            ("period,realized,var_forecast\n 7 ,0.5,1.0\n", True),
            ("period,realized,var_forecast\n1.0,0.5,1.0\n", False),
            ("period,realized,var_forecast\n1_000,0.5,1.0\n", False),
            ("period,realized,var_forecast\n99999999999999999999999,0.5,1.0\n", False),
            ("period,realized,var_forecast\n1,0.5,\n", False),
            ("period,realized,var_forecast\n1,0.5\n", False),
            ("period,realized,var_forecast\n1,0.5,1.0,2\n", False),
            ("period,realized,var_forecast\n1,0.5,nan\n", True),
        ],
    )
    def test_forecast_bulk_pass_is_trusted_only_where_it_can_judge(
        self, tmp_path, monkeypatch, text, trusted
    ):
        tables = bulk_tables(monkeypatch)
        with suppress(ParseError):
            parse_forecasts_csv(forecast_file(tmp_path, text))
        assert [table is not None for table in tables] == [trusted]

    def test_golden_forecasts_take_the_bulk_pass(self, monkeypatch):
        path = GOLDEN / "forecasts.csv"
        tables = bulk_tables(monkeypatch)
        forecasts = parse_forecasts_csv(path)
        assert tables[0] is not None
        assert len(forecasts) == 120 and forecasts.quantiles.shape == (120, 4)
        monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        assert forecast_summary(forecasts) == forecast_summary(parse_forecasts_csv(path))

    def test_benchmark_shaped_forecasts_take_the_bulk_pass(self, tmp_path, monkeypatch):
        # an integer period, seven float columns in repr and a scenario file per period
        rng = np.random.default_rng(5)
        lines = [FORECAST_HEADER.replace("q2,", "q2,q3,q4,").rstrip("\n")]
        for period in range(1, 201):
            scenarios = "\n".join(map(repr, rng.normal(size=25).tolist()))
            write(tmp_path / f"p{period}.txt", scenarios + "\n")
            cells = map(repr, rng.normal(size=7).tolist())
            lines.append(",".join([str(period), *cells, f"p{period}.txt"]))
        path = Path(write(tmp_path / "f.csv", "\n".join(lines) + "\n"))
        tables = bulk_tables(monkeypatch)
        forecasts = parse_forecasts_csv(path)
        assert tables[0] is not None
        assert len(forecasts) == 200 and forecasts.quantiles.shape == (200, 4)
        monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        assert forecast_summary(forecasts) == forecast_summary(parse_forecasts_csv(path))


class TestEncoding:
    """Every input is UTF-8, with or without a byte-order mark; bytes that do
    not decode are a ParseError that names the file."""

    @pytest.mark.parametrize("bulk", [True, False])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, bulk):
        if not bulk:
            monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        panel, forecasts = "a,b\n1,2\n3,4\n", "period,realized,scenario_file\n1,0.5,s.txt\n"
        read = {}
        for mark in ("", "\ufeff"):
            directory = tmp_path / f"bom{len(mark)}"
            directory.mkdir()
            (directory / "s.txt").write_text(mark + "0.5\n1.5\n", encoding="utf-8")
            (directory / "p.csv").write_text(mark + panel, encoding="utf-8")
            (directory / "f.csv").write_text(mark + forecasts, encoding="utf-8")
            parsed = parse_panel_csv(directory / "p.csv")
            read[mark] = (
                parsed.positions,
                parsed.rows.tobytes(),
                forecast_summary(parse_forecasts_csv(directory / "f.csv")),
            )
        assert read["\ufeff"] == read[""]
        assert read[""][0] == ("a", "b") and read[""][2][2] == set_bits([np.array([0.5, 1.5])])

    @pytest.mark.parametrize("bulk", [True, False])
    @pytest.mark.parametrize(
        "argv, header, row",
        [
            (["measure", "--kind", "mean"], "loss", "1.5"),
            (VAR, "period,realized,var_forecast", "7,0.5,1.0"),
        ],
    )
    @pytest.mark.parametrize("rows_before", [0, 4000])
    def test_undecodable_csv_names_the_file(
        self, tmp_path, monkeypatch, capsys, bulk, argv, header, row, rows_before
    ):
        # with no rows before it the bad byte is met as the header is read;
        # after 4000 rows, past the first chunk the reader decodes, it is met
        # inside the bulk pass, which leaves the file to the row loop
        path = tmp_path / "in.csv"
        path.write_bytes((f"{header}\n" + f"{row}\n" * rows_before).encode() + b"\xff\n")
        tables = bulk_tables(monkeypatch)
        if not bulk:
            monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        assert main(argv + ["--input", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ParseError", "message": f"{path} is not UTF-8 text: invalid start byte"
        }
        assert [table is not None for table in tables] == ([False] if bulk and rows_before else [])

    @pytest.mark.parametrize("bulk", [True, False])
    def test_undecodable_scenario_file_names_the_file_and_its_row(
        self, tmp_path, monkeypatch, capsys, bulk
    ):
        if not bulk:
            monkeypatch.setattr(cli, "_bulk_floats", lambda lines, columns: None)
        (tmp_path / "s.txt").write_bytes(b"0.5\n\xff\n")
        path = write(tmp_path / "f.csv", "period,realized,scenario_file\n1,0.5,\n2,0.6,s.txt\n")
        assert main(PIT + ["--input", path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ParseError",
            "message": "scenario file 's.txt' is not UTF-8 text: invalid start byte "
            "(row 3, column 'scenario_file')",
        }


class TestMeasureCommand:
    def test_es_on_uniform_panel(self, uniform_panel, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["measure", "--input", uniform_panel, "--kind", "es", "--level", "0.95",
             "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["portfolio"] == pytest.approx(98.0, abs=1e-12)
        assert report["command"] == "measure"
        assert report["config"]["level"] == 0.95

    def test_stdout_default(self, uniform_panel, capsys):
        code = main(["measure", "--input", uniform_panel, "--kind", "var", "--level", "0.95"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["portfolio"] == 95.0

    def test_leveled_kind_requires_level(self, uniform_panel):
        assert main(["measure", "--input", uniform_panel, "--kind", "es"]) == 2

    def test_mean_needs_no_level(self, uniform_panel, capsys):
        assert main(["measure", "--input", uniform_panel, "--kind", "mean"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["portfolio"] == pytest.approx(50.5)


class TestAllocateCommand:
    def test_single_position_contribution_equals_total(self, uniform_panel, capsys):
        code = main(
            ["allocate", "--input", uniform_panel, "--kind", "expectile", "--level", "0.8"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert results["contributions"]["loss"] == pytest.approx(results["total"], abs=1e-10)


class TestDiversifyCommand:
    def test_reports_indices(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "a,b\n0,0\n1,0\n0,1\n1,1\n")
        code = main(["diversify", "--input", path, "--kind", "es", "--level", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["diversification_index"] == pytest.approx(0.75, abs=1e-12)
        assert report["results"]["diversification_benefit"] == pytest.approx(0.5, abs=1e-12)
        assert report["results"]["marginal_indices"]["a"] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("kind, level", [("es", 0.95), ("expectile", 0.9)])
    def test_report_equals_the_public_functions(self, tmp_path, capsys, kind, level):
        rows = np.random.default_rng(11).standard_t(4, size=(400, 50))
        panel = LossPanel.from_rows(rows, positions=[f"p{i}" for i in range(50)])
        lines = [",".join(panel.positions)] + [",".join(map(repr, row)) for row in rows.tolist()]
        path = write(tmp_path / "p.csv", "\n".join(lines) + "\n")
        assert main(["diversify", "--input", path, "--kind", kind, "--level", str(level)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        measure = getattr(MeasureKind, kind)(level)
        assert results["diversification_index"] == diversification_index(panel, measure)
        assert results["diversification_benefit"] == diversification_benefit(panel, measure)
        assert sorted(results["marginal_indices"]) == sorted(panel.positions)
        for i, name in enumerate(panel.positions):
            want = marginal_diversification_index(panel, i, measure)
            assert results["marginal_indices"][name] == want

    @pytest.mark.parametrize(
        "text",
        ["a,b\n0,0\n0,0\n", "a,b,c\n1,0,2\n1,0,-2\n", "a,b\n1,0\n3,0\n", "a,b\n1,0\n1,0\n"],
    )
    def test_warnings_follow_the_public_functions(self, tmp_path, capsys, text):
        # zero standalone values: each undefined result is null, and its
        # warning comes in the order index, benefit, positions; in the last
        # panel a defined index comes ahead of an undefined benefit and index of b
        path = write(tmp_path / "p.csv", text)
        panel = parse_panel_csv(path)
        measure = MeasureKind.es(0.5)
        calls = [
            ("diversification_index", lambda: diversification_index(panel, measure)),
            ("diversification_benefit", lambda: diversification_benefit(panel, measure)),
        ] + [
            (name, lambda i=i: marginal_diversification_index(panel, i, measure))
            for i, name in enumerate(panel.positions)
        ]
        want, warnings = {}, []
        for key, call in calls:
            try:
                want[key] = call()
            except DegenerateDenominatorError as exc:
                want[key] = None
                warnings.append(str(exc))
        assert warnings
        assert main(["diversify", "--input", path, "--kind", "es", "--level", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        got = {
            "diversification_index": results["diversification_index"],
            "diversification_benefit": results["diversification_benefit"],
            **results["marginal_indices"],
        }
        assert got == want
        assert report["warnings"] == warnings

    def test_degenerate_denominator_becomes_warning(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "a,b\n1,1\n1,1\n")  # point masses: RAC = 0
        code = main(["diversify", "--input", path, "--kind", "es", "--level", "0.6"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["diversification_benefit"] is None
        assert report["warnings"]


class TestBacktestVarCommand:
    def test_all_violations_reject(self, tmp_path, capsys):
        rows = ["period,realized,var_forecast"]
        rows += [f"{i},{float(i)},{-100.0}" for i in range(1, 101)]
        path = write(tmp_path / "f.csv", "\n".join(rows) + "\n")
        code = main(["backtest-var", "--input", path, "--level", "0.99"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["violations"] == 100
        assert report["results"]["rejected"] is True
        assert report["results"]["coverage"]["reject_at"]["0.05"] is True

    def test_exit_zero_even_when_rejected(self, tmp_path):
        rows = ["period,realized,var_forecast"]
        rows += [f"{i},{float(i)},{-100.0}" for i in range(1, 31)]
        path = write(tmp_path / "f.csv", "\n".join(rows) + "\n")
        assert main(["backtest-var", "--input", path, "--level", "0.99"]) == 0

    @pytest.mark.parametrize("realized", ["0.5", "9"])
    def test_one_period_gets_the_independence_entry_of_backtest_es(
        self, tmp_path, capsys, realized
    ):
        # one rule decides a series that cannot show dependence, in both commands
        path = write(tmp_path / "f.csv", "period,realized,var_forecast,es_forecast,q1,q2,q3,q4\n"
                     f"1,{realized},1,4,1,2,3,4\n")
        reports = []
        for command in ("backtest-var", "backtest-es"):
            assert main([command, "--input", path, "--level", "0.9"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        var, es = reports
        assert var["warnings"] == es["warnings"] == []
        assert var["results"]["independence"] == {
            "method": "independence-markov-lr", "statistic": 0.0, "p_value": 1.0,
            "reject_at": {"0.01": False, "0.05": False, "0.10": False}, "notes": ["degenerate"],
        }
        assert es["results"]["independence"] == [var["results"]["independence"]] * 4


class TestBacktestEsCommand:
    def test_runs_with_quantile_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = ["period,realized,es_forecast,q1,q2,q3,q4"]
        for i in range(400):
            loss = rng.uniform()
            rows.append(f"{i},{loss},0.97,0.9,0.925,0.95,0.975")
        path = write(tmp_path / "f.csv", "\n".join(rows) + "\n")
        code = main(["backtest-es", "--input", path, "--level", "0.9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["levels"] == [0.9, 0.925, 0.95, 0.975]
        assert isinstance(report["results"]["passed"], bool)
        assert len(report["results"]["coverage"]) == 4

    @pytest.mark.parametrize("k", [0, 1, 17])
    def test_quantile_column_count_outside_2_to_16(self, tmp_path, capsys, k):
        header = ",".join(["period", "realized", "es_forecast"] + [f"q{j}" for j in range(1, k + 1)])
        path = write(tmp_path / "f.csv", header + "\n1,0.5,1.0" + ",1" * k + "\n")
        assert main(["backtest-es", "--input", path, "--level", "0.9"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ParseError",
            "message": f"backtest-es needs 2 to 16 supporting-quantile columns q1..qK, found {k}",
        }


class TestBacktestPitCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        scen = rng.normal(size=200)
        write(tmp_path / "scen.txt", "\n".join(str(v) for v in scen) + "\n")
        rows = ["period,realized,scenario_file"]
        for i in range(120):
            rows.append(f"{i},{rng.choice(scen)},scen.txt")
        path = write(tmp_path / "f.csv", "\n".join(rows) + "\n")
        code = main(["backtest-pit", "--input", path, "--seed", "11", "--bins", "10"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["rng_seed"] == 11
        assert len(report["results"]["z"]) == 120
        assert "uniformity" in report["results"]
        assert "independence" in report["results"]

    def test_missing_scenarios(self, tmp_path):
        path = write(tmp_path / "f.csv", "period,realized,var_forecast\n1,0.5,1.0\n")
        assert main(["backtest-pit", "--input", path]) == 2


class TestElicitCommand:
    def test_pinball_estimate(self, uniform_panel, capsys):
        code = main(
            ["elicit", "--input", uniform_panel, "--score", "weighted-absolute-error",
             "--level", "0.95"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["estimate"] == 95.0

    def test_two_step(self, uniform_panel, capsys):
        code = main(["elicit", "--input", uniform_panel, "--two-step", "--level", "0.95"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["quantile"] == 95.0
        assert report["results"]["es"] == pytest.approx(97.5)

    def test_multi_column_rejected(self, tmp_path):
        path = write(tmp_path / "p.csv", "a,b\n1,2\n")
        assert main(["elicit", "--input", path, "--score", "squared-error"]) == 2

    def test_tail_mean_score_of_huge_losses_is_finite(self, tmp_path, capsys):
        # d = (|y| - |x|)/(1 + |x|) is 1e200 at x = 0; squared before dividing it overflowed
        path = write(tmp_path / "s.csv", "loss\n1e200\n-1e200\n")
        code = main(["elicit", "--input", path, "--score", "tail-mean", "--threshold", "0"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["estimate"], results["mean_score"]) == (0.0, 1e200)


class TestCounterexampleCommand:
    def test_expectile_comonotone(self, uniform_panel, tmp_path, capsys):
        code = main(
            ["counterexample", "--input", "unused", "--search", "expectile-comonotone",
             "--level", "0.8"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["found"] is True
        assert abs(report["results"]["gap"]) > 1e-6

    def test_var_superadditive(self, capsys):
        code = main(
            ["counterexample", "--input", "unused", "--search", "var-superadditive",
             "--level", "0.95"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["portfolio_var"] > sum(report["results"]["position_vars"])

    def test_var_superadditive_takes_no_weight_denominator(self, capsys):
        argv = ["counterexample", "--input", "-", "--search", "var-superadditive",
                "--level", "0.95", "--weight-denominator", "3"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError", "message": "var-superadditive takes no --weight-denominator",
        }

    # a search that finds nothing scans C(d - 1, 2) * 100 pairs, so the CLI stops at 20
    @pytest.mark.parametrize("d", [-3, 0, 1, 21, 1001, 10**20])
    def test_weight_denominator_outside_2_to_20_exits_two(self, capsys, d):
        argv = ["counterexample", "--input", "-", "--search", "expectile-comonotone",
                "--level", "0.8", "--weight-denominator", str(d)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValueError",
            "message": f"weight_denominator must be an integer from 2 to 20, got {d}",
        }

    @pytest.mark.parametrize("d", [2, 20])
    def test_weight_denominator_at_either_end_of_its_range_is_taken(self, capsys, d):
        argv = ["counterexample", "--input", "-", "--search", "expectile-comonotone",
                "--level", "0.8", "--weight-denominator", str(d)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["weight_denominator"] == d

    def test_an_unset_weight_denominator_is_null_and_the_search_takes_its_own(self, capsys):
        argv = ["counterexample", "--input", "-", "--search", "expectile-comonotone",
                "--level", "0.8"]
        reports = []
        for extra in ([], ["--weight-denominator", "8"]):
            assert main(argv + extra) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert [r["config"]["weight_denominator"] for r in reports] == [None, 8]
        assert reports[0]["results"] == reports[1]["results"]


class TestRenderReport:
    def test_numpy_values_render_as_their_python_values(self, monkeypatch):
        values = {
            "int": np.int64(3),
            "flags": np.array([True, False]),
            "matrix": np.array([[1.0, 2.5], [3.0, -4.0]]),
            "pair": (np.float64(0.1), np.float64(2.0)),
        }
        command = cli._COMMANDS["measure"]._replace(run=lambda config, warnings: values)
        monkeypatch.setitem(cli._COMMANDS, "measure", command)
        argv = ["measure", "--input", "panel.csv", "--kind", "mean"]
        text = cli.render_report(cli.run(cli._build_parser().parse_args(argv)))
        results = text[text.index('  "results"'):text.index('  "version"')]
        assert results == (
            '  "results": {\n'
            '    "flags": [\n      true,\n      false\n    ],\n'
            '    "int": 3,\n'
            '    "matrix": [\n'
            '      [\n        1.0,\n        2.5\n      ],\n'
            '      [\n        3.0,\n        -4.0\n      ]\n'
            '    ],\n'
            '    "pair": [\n      0.1,\n      2.0\n    ]\n'
            '  },\n'
        )

    def test_numpy_scalars_render_without_conversion(self):
        report = {"count": np.int64(2), "flag": np.bool_(True), "value": np.float64(0.1)}
        assert cli.render_report(report) == '{\n  "count": 2,\n  "flag": true,\n  "value": 0.1\n}\n'



class TestCliContract:
    def test_invalid_config_exits_two(self, uniform_panel):
        assert main(
            ["measure", "--input", uniform_panel, "--kind", "es", "--level", "1.5"]
        ) == 2

    def test_oversized_cell_exits_two(self, tmp_path, capsys):
        # csv refuses cells over its field size limit (131072 characters)
        path = write(tmp_path / "p.csv", "a\n1\n" + "1" * 140000 + "\n")
        assert main(["measure", "--input", path, "--kind", "mean"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ParseError"
        assert "(row 3)" in error["message"]

    @pytest.mark.parametrize(
        "argv, text, column",
        [
            (VAR, "period,realized,var_forecast\n1,0.5,1.0\n2,nan,1.0\n", "realized"),
            (VAR, "period,realized,var_forecast\n1,0.5,1.0\n2,0.7,inf\n", "var_forecast"),
            (PIT, "period,realized,scenario_file\n1,0.5,s.txt\n2,nan,s.txt\n", "realized"),
            (PIT, "period,realized,scenario_file\n1,0.5,bad.txt\n", "scenario_file"),
        ],
    )
    def test_non_finite_forecast_input_exits_two(self, tmp_path, capsys, argv, text, column):
        write(tmp_path / "s.txt", "0.1\n0.2\n")
        write(tmp_path / "bad.txt", "0.1\nnan\n")
        path = write(tmp_path / "f.csv", text)
        assert main(argv + ["--input", path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ParseError"
        assert "is not a finite number" in error["message"]
        assert f"column {column!r}" in error["message"]

    def test_empty_scenario_file_exits_two(self, tmp_path, capsys):
        write(tmp_path / "s.txt", "\n")
        path = write(tmp_path / "f.csv", "period,realized,scenario_file\n1,0.5,s.txt\n")
        assert main(["backtest-pit", "--input", path]) == 2
        # the reference as the forecast file wrote it, the same on every machine
        assert json.loads(capsys.readouterr().err)["error"]["message"] == (
            "scenario file 's.txt' is empty (row 2, column 'scenario_file')"
        )

    def test_row_without_forecasts_exits_two(self, tmp_path, capsys):
        path = write(
            tmp_path / "f.csv",
            "period,realized,var_forecast,es_forecast\n1,0.5,1.0,1.2\n2,0.7,,\n",
        )
        assert main(["backtest-var", "--input", path, "--level", "0.9"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == "missing var_forecast for period 2"

    def test_unwritable_output_exits_two(self, tmp_path, uniform_panel, capsys):
        out = tmp_path / "missing" / "r.json"
        code = main(["measure", "--input", uniform_panel, "--kind", "mean", "--output", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "FileNotFoundError"

    # a numpy warning would become an exception, and so exit 3
    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_exits_two(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "a\n1e200\n-1e200\n")
        out = tmp_path / "r.json"
        code = main(["measure", "--input", path, "--kind", "variance", "--output", str(out)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "non-finite result" in error["message"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_portfolio_sum_names_its_row(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "a,b\n1,2\n1e308,1e308\n1e308,1e308\n")
        assert main(["measure", "--input", path, "--kind", "mean"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ParseError"
        assert "portfolio loss overflows" in error["message"]
        assert "(row 3)" in error["message"]

    def test_repeated_position_name_exits_two(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "a,a\n1,3\n2,4\n")
        assert main(["allocate", "--input", path, "--kind", "es", "--level", "0.5"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ParseError",
            "message": "repeated column name in header (row 1, column 'a')",
        }

    def test_blank_line_in_forecast_file_exits_two(self, tmp_path, capsys):
        path = write(tmp_path / "f.csv", "period,realized,var_forecast\n1,0.5,1.0\n\n3,x,1.0\n")
        assert main(VAR + ["--input", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == "blank line (row 3)"

    def test_quantile_gap_exits_two(self, tmp_path, capsys):
        path = write(tmp_path / "f.csv", "period,realized,es_forecast,q1,q2,q4\n1,0.5,1.0,1,2,4\n")
        assert main(ES + ["--input", path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ParseError",
            "message": "supporting-quantile columns must be q1..q3, found q1, q2, q4 (row 1)",
        }

    def test_blank_forecast_column_name_exits_two(self, tmp_path, capsys):
        path = write(tmp_path / "f.csv", "period,realized,,var_forecast\n1,0.5,x,1.0\n")
        assert main(VAR + ["--input", path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ParseError", "message": "blank column name in header (row 1)"}

    def test_long_forecast_row_exits_two(self, tmp_path, capsys):
        # the extra cell has no column to go to
        path = write(tmp_path / "f.csv", "period,realized,var_forecast\n1,0.5,1.0,99\n")
        assert main(VAR + ["--input", path]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ParseError", "message": "expected 3 cells, found 4 (row 2)"}

    def test_internal_fault_exits_three(self, uniform_panel, monkeypatch, capsys):
        def fault(config):
            raise RuntimeError("injected fault")

        monkeypatch.setattr("tailrisk.cli.run", fault)
        assert main(["measure", "--input", uniform_panel, "--kind", "mean"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error == {"type": "RuntimeError", "message": "injected fault"}

    def test_argparse_exit_passes_through(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["measure", "--kind", "mean"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    @pytest.mark.parametrize("command", ["allocate", "diversify"])
    def test_expectile_contribution_level_is_checked_before_the_input(self, tmp_path, capsys, command):
        argv = [command, "--input", str(tmp_path / "nope.csv"), "--kind", "expectile", "--level", "0.3"]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ValueError",
            "message": "expectile contributions require tau >= 1/2, got 0.3",
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (VAR + ["--significance", "0"], "significance must lie in (0, 0.5], got 0.0"),
            (VAR + ["--significance", "0.6"], "significance must lie in (0, 0.5], got 0.6"),
            (ES + ["--significance", "-0.1"], "significance must lie in (0, 0.5], got -0.1"),
            (PIT + ["--bins", "1"], "bins must be an integer of at least 2, got 1"),
            (PIT + ["--max-lag", "0"], "max_lag must be an integer of at least 1, got 0"),
            (["measure", "--kind", "mean", "--level", "0.9"], "mean takes no level"),
            (["diversify", "--kind", "variance", "--level", "0.9"], "variance takes no level"),
            (["elicit", "--score", "squared-error", "--level", "0.9"], "squared-error takes no level"),
            (["elicit", "--score", "tail-mean", "--threshold", "1", "--level", "0.9"],
             "tail-mean takes no level"),
            (["elicit", "--score", "weighted-absolute-error", "--level", "0.9", "--threshold", "1"],
             "weighted-absolute-error takes no threshold"),
            (["elicit", "--two-step", "--level", "0.95", "--score", "squared-error"],
             "--two-step takes no --score"),
            (["elicit", "--two-step", "--level", "0.95", "--threshold", "1"],
             "--two-step takes no --threshold"),
            (PIT + ["--seed", "-1"], "seed must be an integer of at least 0, got -1"),
            (["backtest-var", "--level", "1"], "level must lie strictly inside (0, 1), got 1.0"),
            (["backtest-es", "--level", "nan"], "level must lie strictly inside (0, 1), got nan"),
            (["elicit", "--two-step", "--level", "1.5"],
             "level must lie strictly inside (0, 1), got 1.5"),
            (["elicit", "--two-step"], "--two-step requires --level"),
            (["elicit", "--level", "0.9"], "--score is required (or use --two-step)"),
        ],
    )
    def test_a_flag_is_checked_before_the_input(self, tmp_path, capsys, argv, message):
        # a flag out of range, or one the command would not use, is refused
        # before the nonexistent input is looked for
        assert main(argv + ["--input", str(tmp_path / "nope.csv")]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": message}

    def test_missing_input_exits_two(self, tmp_path):
        assert main(
            ["measure", "--input", str(tmp_path / "nope.csv"), "--kind", "mean"]
        ) == 2

    def test_reports_are_byte_identical_across_runs(self, tmp_path, uniform_panel):
        out = tmp_path / "report.json"
        args = ["measure", "--input", uniform_panel, "--kind", "es", "--level", "0.95",
                "--output", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_version_in_report(self, uniform_panel, capsys):
        import tailrisk

        main(["measure", "--input", uniform_panel, "--kind", "mean"])
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == tailrisk.__version__

    def test_config_echo_round_trip(self, uniform_panel, capsys):
        main(["measure", "--input", uniform_panel, "--kind", "var", "--level", "0.9"])
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "measure"
        assert report["config"] == {"input": uniform_panel, "output": "-", "kind": "var", "level": 0.9}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_config_echoes_the_command_flags_only(self, case):
        argv = CASES[case]
        report = json.loads((GOLDEN / "reports" / f"{case}.json").read_text())
        flags = {flag.replace("-", "_") for flag in cli._COMMANDS[argv[0]].flags}
        assert set(report["config"]) == {"input", "output"} | flags


PANEL, FORECASTS, SAMPLE = (str(GOLDEN / name) for name in ("panel.csv", "forecasts.csv", "sample.csv"))

# For each flag a command offers beyond --input and --output: a command line
# on the golden fixtures, and two settings of that flag alone to add to it.
FLAG_SETTINGS = [
    ("measure", ["--input", PANEL, "--level", "0.95"], ["--kind", "var"], ["--kind", "es"]),
    ("measure", ["--input", PANEL, "--kind", "es"], ["--level", "0.9"], ["--level", "0.95"]),
    ("allocate", ["--input", PANEL, "--level", "0.9"], ["--kind", "es"], ["--kind", "expectile"]),
    ("allocate", ["--input", PANEL, "--kind", "es"], ["--level", "0.9"], ["--level", "0.95"]),
    ("diversify", ["--input", PANEL, "--level", "0.9"], ["--kind", "var"], ["--kind", "es"]),
    ("diversify", ["--input", PANEL, "--kind", "es"], ["--level", "0.9"], ["--level", "0.95"]),
    ("backtest-var", ["--input", FORECASTS], ["--level", "0.95"], ["--level", "0.99"]),
    ("backtest-var", ["--input", FORECASTS, "--level", "0.99"],
     ["--significance", "0.05"], ["--significance", "0.1"]),
    ("backtest-es", ["--input", FORECASTS], ["--level", "0.95"], ["--level", "0.975"]),
    ("backtest-es", ["--input", FORECASTS, "--level", "0.975"],
     ["--significance", "0.05"], ["--significance", "0.1"]),
    ("backtest-pit", ["--input", FORECASTS], ["--seed", "7"], ["--seed", "8"]),
    ("backtest-pit", ["--input", FORECASTS], ["--bins", "4"], ["--bins", "5"]),
    ("backtest-pit", ["--input", FORECASTS], ["--max-lag", "2"], ["--max-lag", "3"]),
    ("elicit", ["--input", SAMPLE], ["--score", "squared-error"], ["--score", "absolute-error"]),
    ("elicit", ["--input", SAMPLE, "--score", "weighted-absolute-error"],
     ["--level", "0.9"], ["--level", "0.95"]),
    ("elicit", ["--input", SAMPLE, "--score", "tail-mean"],
     ["--threshold", "0.5"], ["--threshold", "1.0"]),
    ("elicit", ["--input", SAMPLE, "--level", "0.95"],
     ["--score", "weighted-absolute-error"], ["--two-step"]),
    ("counterexample", ["--input", "-", "--level", "0.8"],
     ["--search", "expectile-comonotone"], ["--search", "var-superadditive"]),
    ("counterexample", ["--input", "-", "--search", "expectile-comonotone"],
     ["--level", "0.8"], ["--level", "0.9"]),
    ("counterexample", ["--input", "-", "--search", "expectile-comonotone", "--level", "0.8"],
     ["--weight-denominator", "4"], ["--weight-denominator", "8"]),
]


class TestEveryFlagCanChangeAReport:
    def test_the_table_covers_every_flag(self):
        covered = sorted((command, second[0]) for command, _, _, second in FLAG_SETTINGS)
        offered = sorted(
            (name, f"--{flag}") for name, command in cli._COMMANDS.items() for flag in command.flags
        )
        assert covered == offered

    @pytest.mark.parametrize(
        "command, argv, first, second", FLAG_SETTINGS, ids=[" ".join(s[3]) for s in FLAG_SETTINGS]
    )
    def test_two_settings_give_different_results(self, capsys, command, argv, first, second):
        results = []
        for setting in (first, second):
            assert main([command, *argv, *setting]) == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert results[0] != results[1]

    @pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - {"backtest-pit"}))
    def test_seed_is_a_usage_error_outside_backtest_pit(self, capsys, command):
        argv, first = next((argv, first) for name, argv, first, _ in FLAG_SETTINGS if name == command)
        with pytest.raises(SystemExit) as info:
            main([command, *argv, *first, "--seed", "7"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


# The exit contract, flag by flag, on the golden fixtures: one flag takes a
# value of one sort; the command's required flags, and some of its others,
# take values in range.
BEYOND = {
    "nan": st.just("nan"),
    "inf": st.just("inf"),
    "-inf": st.just("-inf"),
    "past int64": st.sampled_from([str(2**63), str(-(2**63) - 1)]),
}


def numbers(in_range, out_of_range):
    return {"in range": in_range.map(repr), "out of range": out_of_range.map(repr), **BEYOND}


def names(choices):
    return {"in range": st.sampled_from(choices), "out of range": st.just("bogus"), **BEYOND}


FLAG_VALUES = {
    "kind": names(cli._MEASURE_CHOICES),
    "level": numbers(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.sampled_from([0.0, 1.0, -0.5, 1.5, 1e300])),
    "significance": numbers(st.floats(0.001, 0.5), st.sampled_from([0.0, 0.6, -0.1])),
    "bins": numbers(st.integers(2, 12), st.integers(-3, 1)),
    "max-lag": numbers(st.integers(1, 8), st.integers(-3, 0)),
    "seed": numbers(st.integers(0, 2**64), st.integers(-3, -1)),
    "score": names(cli._SCORE_CHOICES),
    "threshold": numbers(st.floats(-2.0, 2.0), st.sampled_from([-1e308, 1e308])),
    "search": names(tuple(cli._SEARCHES)),
    # each search takes at most 0.25 s at these denominators
    "weight-denominator": numbers(st.integers(2, 8), st.sampled_from([-1, 0, 1, 21, 10**6])),
    "two-step": {"in range": st.just(None)},  # a switch: present or not
}
INPUTS = {"measure": PANEL, "allocate": PANEL, "diversify": PANEL, "elicit": SAMPLE,
          "counterexample": "-"}
FLAG_CASES = [
    (name, flag, sort)
    for name, command in cli._COMMANDS.items()
    for flag in command.flags
    for sort in FLAG_VALUES[flag]
]


@st.composite
def command_lines(draw, name, flag, sort):
    command = cli._COMMANDS[name]
    argv = [name, "--input", INPUTS.get(name, FORECASTS)]
    for other in command.flags:
        if other == flag or other in command.required or draw(st.booleans()):
            value = draw(FLAG_VALUES[other][sort if other == flag else "in range"])
            argv += [f"--{other}"] + ([] if value is None else [value])
    return argv


def test_every_flag_has_every_sort_of_value():
    offered = {flag for command in cli._COMMANDS.values() for flag in command.flags}
    assert set(FLAG_VALUES) == offered
    for flag, sorts in FLAG_VALUES.items():
        want = ["in range"] if flag == "two-step" else ["in range", "out of range", *BEYOND]
        assert list(sorts) == want, flag


@pytest.mark.parametrize("name, flag, sort", FLAG_CASES, ids=[" ".join(c) for c in FLAG_CASES])
def test_every_run_keeps_the_exit_contract(name, flag, sort):
    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(command_lines(name, flag, sort))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as usage:  # argparse refused the command line
                assert usage.code == 2
                return
        assert code in (0, 2), err.getvalue()
        if code == 0:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["command"] == name
        else:
            assert out.getvalue() == ""
            line, rest = err.getvalue().split("\n", 1)
            assert rest == ""
            assert set(json.loads(line)) == {"error"}

    run()
