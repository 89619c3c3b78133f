"""The benchmark's tracer (``bench/tracing.py``) wraps the package's
functions by name and sizes their results; a renamed function or a changed
return type would otherwise only show as a broken ``--trace 1`` run."""

import sys
from pathlib import Path

import tailrisk.cli

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_counts_forecast_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()  # resolves every name in FUNCTIONS and METHODS
    try:
        tailrisk.cli.parse_forecasts_csv(ROOT / "tests" / "golden" / "forecasts.csv")
    finally:
        tracer.uninstall()
    assert tracer.summary()["cli.parse_forecasts_csv.rows"] == 120


# sweep(4): 495 panels, three laws and one VaR, ES and expectile each
SWEEP_4_COUNTS = {
    "distribution.construct.calls": 1485,
    "distribution.atoms_in": 4455,
    "distribution.atoms_kept": 3483,
    "backtest.enumerate_joint_panels.panels": 495,
    "measures.value_at_risk.calls": 1485,
    "measures.expected_shortfall.calls": 1485,
    "measures.expectile.calls": 1485,
}


def test_tracer_attributes_the_coherence_sweep(monkeypatch):
    """Every law of the sweep is built inside a traced construction span and
    every measure call is counted, so the sweep's time stays attributable to
    its layers."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    monkeypatch.delitem(sys.modules, "sweep", raising=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import sweep  # after the install, so it binds the wrapped functions

        sweep.sweep(4)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert {name: summary[name] for name in SWEEP_4_COUNTS} == SWEEP_4_COUNTS
    assert summary["distribution.construct.self_s"] > 0.0
