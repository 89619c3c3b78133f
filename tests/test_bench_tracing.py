"""The benchmark's tracer (``bench/tracing.py``) wraps the package's
functions by name and sizes their results; a renamed function or a changed
return type would otherwise only show as a broken ``--trace 1`` run."""

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
