"""Golden CLI reports: every command on the small fixtures in ``tests/golden``
must render byte-for-byte the report stored under ``tests/golden/reports``.

Reports echo their input paths, so each case runs from inside the fixture
directory with relative paths. To rewrite stored reports after a deliberate
change of output, run ``PYTHONPATH=src python tests/test_golden.py [CASE ...]``
(all cases when none is named) and review the diff.
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, monkeypatch):
    monkeypatch.delenv("TAILRISK_SEED", raising=False)
    assert render(CASES[case]) == (GOLDEN / "reports" / f"{case}.json").read_bytes()


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        (GOLDEN / "reports" / f"{case}.json").write_bytes(render(CASES[case]))
