"""Golden CLI reports: every command on the small fixtures in ``tests/golden``
must render byte-for-byte the report stored under ``tests/golden/reports``,
and ``tailrisk --help`` and each command's ``--help`` the text stored under
``tests/golden/help``, at a fixed terminal width.

Reports echo their input paths, so each case runs from inside the fixture
directory with relative paths. To rewrite stored reports and help texts after
a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py [CASE ...]`` (all cases and every
help text when none is named) and review the diff.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from tailrisk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "measure-mean": ["measure", "--input", "panel.csv", "--kind", "mean"],
    "measure-variance": ["measure", "--input", "panel.csv", "--kind", "variance"],
    "measure-var": ["measure", "--input", "panel.csv", "--kind", "var", "--level", "0.95"],
    "measure-es": ["measure", "--input", "panel.csv", "--kind", "es", "--level", "0.95"],
    "measure-expectile": ["measure", "--input", "panel.csv", "--kind", "expectile", "--level", "0.9"],
    "allocate-es": ["allocate", "--input", "panel.csv", "--kind", "es", "--level", "0.95"],
    "allocate-expectile": ["allocate", "--input", "panel.csv", "--kind", "expectile", "--level", "0.9"],
    "diversify-var": ["diversify", "--input", "panel.csv", "--kind", "var", "--level", "0.95"],
    "diversify-es": ["diversify", "--input", "panel.csv", "--kind", "es", "--level", "0.95"],
    "diversify-expectile": ["diversify", "--input", "panel.csv", "--kind", "expectile", "--level", "0.9"],
    "backtest-var": ["backtest-var", "--input", "forecasts.csv", "--level", "0.99"],
    "backtest-es": ["backtest-es", "--input", "forecasts.csv", "--level", "0.975"],
    "backtest-pit": ["backtest-pit", "--input", "forecasts.csv", "--seed", "7", "--bins", "5", "--max-lag", "3"],
    "elicit-squared-error": ["elicit", "--input", "sample.csv", "--score", "squared-error"],
    "elicit-absolute-error": ["elicit", "--input", "sample.csv", "--score", "absolute-error"],
    "elicit-weighted-absolute-error": [
        "elicit", "--input", "sample.csv", "--score", "weighted-absolute-error", "--level", "0.95"
    ],
    "elicit-weighted-squared-error": [
        "elicit", "--input", "sample.csv", "--score", "weighted-squared-error", "--level", "0.9"
    ],
    "elicit-tail-mean": ["elicit", "--input", "sample.csv", "--score", "tail-mean", "--threshold", "-0.25"],
    "elicit-two-step": ["elicit", "--input", "sample.csv", "--two-step", "--level", "0.95"],
    "counterexample-expectile-comonotone": [
        "counterexample", "--input", "-", "--search", "expectile-comonotone", "--level", "0.8"
    ],
    "counterexample-var-superadditive": [
        "counterexample", "--input", "-", "--search", "var-superadditive", "--level", "0.95"
    ],
}


# the help texts: the top-level one, then each command's; argparse wraps at
# the width COLUMNS gives
HELP = ["tailrisk", "measure", "allocate", "diversify", "backtest-var", "backtest-es",
        "backtest-pit", "elicit", "counterexample"]
HELP_COLUMNS = "80"


def render(argv: list[str]) -> bytes:
    """Run the CLI from the fixture directory and return its stdout report."""
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(GOLDEN)
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0
    return out.getvalue().encode()


def render_help(name: str) -> bytes:
    """The ``--help`` text of command ``name``, or of the program for ``tailrisk``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
        main(["--help"] if name == "tailrisk" else [name, "--help"])
    assert info.value.code == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case):
    assert render(CASES[case]) == (GOLDEN / "reports" / f"{case}.json").read_bytes()


def test_the_environment_does_not_change_a_report(monkeypatch):
    # TAILRISK_SEED once set backtest-pit's default seed; now only --seed sets a seed
    monkeypatch.setenv("TAILRISK_SEED", "99")
    argv = CASES["backtest-pit"]
    assert render(argv) == (GOLDEN / "reports" / "backtest-pit.json").read_bytes()
    at = argv.index("--seed")
    unseeded = argv[:at] + argv[at + 2:]
    assert render(unseeded) == render(unseeded + ["--seed", "0"])


@pytest.mark.parametrize("name", HELP)
def test_help_is_byte_identical(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    assert render_help(name) == (GOLDEN / "help" / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        (GOLDEN / "reports" / f"{case}.json").write_bytes(render(CASES[case]))
    if len(sys.argv) == 1:
        os.environ["COLUMNS"] = HELP_COLUMNS
        (GOLDEN / "help").mkdir(exist_ok=True)
        for name in HELP:
            (GOLDEN / "help" / f"{name}.txt").write_bytes(render_help(name))
