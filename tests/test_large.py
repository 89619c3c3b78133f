"""Regression tests at the sizes the package is fed: panels of 10^5 and 10^6
rows, with equal and with unequal row weights. Measures and allocations must
stay exact here, not only on test-sized inputs, and the CLI must keep its exit
contract."""

import json
import os
import subprocess
import sys
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
    value_at_risk,
)
from tailrisk.cli import main

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


def test_cli_allocate_without_assertions(tmp_path):
    rows = np.random.default_rng(0).standard_normal((10**5, 5))
    path = _write_panel(tmp_path / "panel.csv", rows)
    src = str(Path(tailrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tailrisk", "allocate", "--input", path,
         "--kind", "es", "--level", "0.99"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["total"] == pytest.approx(oracles.es_of_sample(rows.sum(axis=1), 0.99), rel=1e-11)
