"""End-to-end tests of the batch CLI: CSV parsing, command dispatch, exit
codes, and deterministic JSON reports."""

import json

import numpy as np
import pytest

from tailrisk import ParseError
from tailrisk.cli import main, parse_forecasts_csv, parse_panel_csv


def write(path, text):
    path.write_text(text)
    return str(path)


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


class TestParseForecastsCsv:
    def test_var_only(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,var_forecast\n1,0.5,1.0\n2,1.5,1.0\n",
        )
        records = parse_forecasts_csv(path)
        assert [r.var_forecast for r in records] == [1.0, 1.0]
        assert [r.realized for r in records] == [0.5, 1.5]

    def test_es_with_quantile_columns(self, tmp_path):
        path = write(
            tmp_path / "f.csv",
            "period,realized,es_forecast,q1,q2,q3,q4\n1,0.5,3.0,1,2,3,4\n",
        )
        records = parse_forecasts_csv(path)
        assert records[0].quantile_forecasts == (1.0, 2.0, 3.0, 4.0)
        assert records[0].es_forecast == 3.0

    def test_scenario_reference(self, tmp_path):
        write(tmp_path / "s1.txt", "1.0\n2.0\n3.0\n")
        path = write(
            tmp_path / "f.csv",
            "period,realized,scenario_file\n1,2.5,s1.txt\n",
        )
        records = parse_forecasts_csv(path)
        assert records[0].scenario_set == (1.0, 2.0, 3.0)

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

    def test_missing_realized_column(self, tmp_path):
        path = write(tmp_path / "f.csv", "period,var_forecast\n1,1.0\n")
        with pytest.raises(ParseError):
            parse_forecasts_csv(path)


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

    def test_missing_quantile_columns(self, tmp_path):
        path = write(
            tmp_path / "f.csv", "period,realized,es_forecast\n1,0.5,1.0\n"
        )
        assert main(["backtest-es", "--input", path, "--level", "0.9"]) == 2


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

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(4)
        scen = rng.normal(size=100)
        write(tmp_path / "scen.txt", "\n".join(str(v) for v in scen) + "\n")
        rows = ["period,realized,scenario_file"]
        for i in range(60):
            rows.append(f"{i},{rng.choice(scen)},scen.txt")
        path = write(tmp_path / "f.csv", "\n".join(rows) + "\n")
        monkeypatch.setenv("TAILRISK_SEED", "99")
        code = main(["backtest-pit", "--input", path, "--bins", "2", "--max-lag", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == 99

    def test_version_in_report(self, uniform_panel, capsys):
        import tailrisk

        main(["measure", "--input", uniform_panel, "--kind", "mean"])
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == tailrisk.__version__

    def test_config_echo_round_trip(self, uniform_panel, capsys):
        main(["measure", "--input", uniform_panel, "--kind", "var", "--level", "0.9"])
        report = json.loads(capsys.readouterr().out)
        cfg = report["config"]
        assert cfg["command"] == "measure"
        assert cfg["input"] == uniform_panel
        assert cfg["kind"] == "var"
