"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps each function listed in ``FUNCTIONS`` and
``METHODS`` and rebinds the wrapper at every module binding of the function
(``allocation``, ``backtest`` and ``cli`` import functions by name, and the
package ``__init__`` re-exports them). A span records its name, start, end,
parent and the time covered by its child spans; a layer's self time is its
spans' durations minus their children's. Spans stay in memory until the run
writes them out.

Run as a script, this file is the traced form of one cold CLI or sweep
process: ``python bench/tracing.py SPANS.json cli measure --input ...``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# module -> {function name: span name}; None means count calls without a span
FUNCTIONS = {
    "tailrisk.cli": {
        "parse_panel_csv": "cli.parse_panel_csv",
        "parse_forecasts_csv": "cli.parse_forecasts_csv",
        "run": "cli.run",
        "render_report": "cli.render_report",
    },
    "tailrisk.measures": {
        "value_at_risk": "measures.value_at_risk",
        "expected_shortfall": "measures.expected_shortfall",
        "expectile": "measures.expectile",
    },
    "tailrisk.allocation": {
        "es_contributions": "allocation.es_contributions",
        "expectile_contributions": "allocation.expectile_contributions",
        "diversification_index": "allocation.diversification",
        "diversification_benefit": "allocation.diversification",
        "marginal_diversification_index": "allocation.diversification",
    },
    "tailrisk.scoring": {
        "elicit": "scoring.elicit",
        "two_step_es_forecast": "scoring.two_step_es_forecast",
        "score": None,
    },
    "tailrisk.backtest": {
        "pit_series": "backtest.pit_series",
        "es_quantile_backtest": "backtest.es_quantile_backtest",
        "unconditional_coverage_test": "backtest.coverage_test",
        "independence_test": "backtest.independence_test",
        "pit_uniformity_test": "backtest.pit_tests",
        "pit_independence_test": "backtest.pit_tests",
        "enumerate_joint_panels": "backtest.enumerate_joint_panels",
        "find_expectile_comonotone_counterexample": "backtest.counterexample",
        "find_var_superadditivity_example": "backtest.counterexample",
    },
}

CONSTRUCT = "distribution.construct"

# every way a law gets built: (module, class, attribute)
METHODS = [
    ("tailrisk.distribution", "DiscreteDistribution", "__post_init__"),
    ("tailrisk.distribution", "DiscreteDistribution", "from_sample"),
    ("tailrisk.distribution", "DiscreteDistribution", "shift"),
    ("tailrisk.distribution", "DiscreteDistribution", "scale"),
    ("tailrisk.allocation", "LossPanel", "portfolio_law"),
    ("tailrisk.allocation", "LossPanel", "column_law"),
]

SELF_TIMED = sorted({n for names in FUNCTIONS.values() for n in names.values() if n} | {CONSTRUCT})
FAILURE_COUNTED = ("measures.expected_shortfall", "measures.expectile", "allocation.es_contributions")
CALL_COUNTED = (
    CONSTRUCT,
    "measures.value_at_risk",
    "measures.expected_shortfall",
    "measures.expectile",
    "allocation.es_contributions",
    "allocation.expectile_contributions",
    "scoring.elicit",
)

# per-layer metrics in output order, with units
PER_LAYER = (
    [("import.python_s", "s"), ("import.tailrisk_cli_s", "s"), ("import.modules", "count")]
    + [(f"{n}.self_s", "s") for n in SELF_TIMED]
    + [(f"{n}.calls", "count") for n in CALL_COUNTED]
    + [(f"{n}.failed", "count") for n in FAILURE_COUNTED]
    + [
        ("cli.parse_panel_csv.cells", "count"),
        ("cli.parse_forecasts_csv.rows", "count"),
        ("cli.report_bytes", "count"),
        ("distribution.atoms_in", "count"),
        ("distribution.atoms_kept", "count"),
        ("allocation.contributions_per_diversify", "count"),
        ("scoring.score.calls", "count"),
        ("backtest.pit_series.laws", "count"),
        ("backtest.enumerate_joint_panels.panels", "count"),
    ]
)


def _size(values) -> int:
    return values.size if isinstance(values, np.ndarray) else len(values)


class Tracer:
    """In-memory span recorder. Closed spans are tuples
    (name, start, end, parent index, child time, failed, attrs)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list[list] = []  # [index, name, start, parent index, child time]
        self.counts: Counter = Counter()
        self._installed: list[tuple] = []

    def _inside(self, name: str) -> bool:
        return bool(self._open) and self._open[-1][1] == name

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append([len(self.spans) - 1, name, time.perf_counter(), parent, 0.0])

    def _exit(self, failed: bool, attrs) -> None:
        end = time.perf_counter()
        index, name, start, parent, child = self._open.pop()
        if self._open:
            self._open[-1][4] += end - start
        self.spans[index] = (name, start, end, parent, child, failed, attrs)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == CONSTRUCT and tracer._inside(CONSTRUCT):
                return fn(*args, **kwargs)
            state = before(args) if before else None
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(True, None)
                raise
            tracer._exit(False, after(args, state, result) if after else None)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                tracer._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._exit(False, None)
                    return
                except BaseException:
                    tracer._exit(True, None)
                    raise
                tracer._exit(False, {f"{name}.panels": 1})
                yield item

        return traced

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, extra_modules=()) -> None:
        """Wrap every listed function at each of its bindings in tailrisk's
        modules and in ``extra_modules``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tailrisk" or n.startswith("tailrisk.")]
        modules += list(extra_modules)
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[module_name]
            for attr, span in names.items():
                fn = getattr(home, attr)
                if span is None:
                    wrapper = self._count(fn, f"{module_name.split('.')[-1]}.{attr}.calls")
                elif attr == "enumerate_joint_panels":
                    wrapper = self._wrap_generator(fn, span)
                else:
                    wrapper = self._wrap(fn, span, after=_AFTER.get(attr))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            self._installed.append((module, key, fn))
        for module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._wrap(fn, CONSTRUCT, before=_ATOMS_IN[attr], after=_atoms_kept)
            setattr(cls, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            self._installed.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def summary(self) -> Counter:
        """Per-layer sums over every closed span, plus the call counters."""
        out = Counter(self.counts)
        spans = self.spans
        diversify_runs = set()
        for name, start, end, parent, child, failed, attrs in spans:
            out[f"{name}.self_s"] += (end - start) - child
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += failed
            if attrs:
                for key, value in attrs.items():
                    out[key] += value
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == CONSTRUCT and parent_name == "backtest.pit_series":
                out["backtest.pit_series.laws"] += 1
            if name.endswith("_contributions") and parent_name == "allocation.diversification":
                out["_contributions_in_diversify"] += 1
                while parent >= 0 and spans[parent][0] != "cli.run":
                    parent = spans[parent][3]
                diversify_runs.add(parent)
        out["_diversify_reports"] += len(diversify_runs)
        return out

    def dump(self, path: Path) -> None:
        with Path(path).open("w") as handle:
            json.dump({"summary": self.summary(), "spans": self.spans}, handle)


_ATOMS_IN = {
    "__post_init__": lambda args: int(np.size(args[0].atoms)),
    "from_sample": lambda args: _size(args[1]),
    "shift": lambda args: args[0].atoms.size,
    "scale": lambda args: args[0].atoms.size,
    "portfolio_law": lambda args: args[0].n_periods,
    "column_law": lambda args: args[0].n_periods,
}


def _atoms_kept(args, atoms_in, result):
    law = args[0] if result is None else result
    return {"distribution.atoms_in": atoms_in, "distribution.atoms_kept": law.atoms.size}


_AFTER = {
    "parse_panel_csv": lambda args, state, panel: {"cli.parse_panel_csv.cells": panel.rows.size},
    "parse_forecasts_csv": lambda args, state, records: {"cli.parse_forecasts_csv.rows": len(records)},
    "render_report": lambda args, state, text: {"cli.report_bytes": len(text.encode())},
}


def layer_metrics(summary: Counter, rounds: int, imports: dict) -> dict:
    """Per-layer metrics per round of operations, from summed span summaries."""
    metrics = dict(imports)
    for name, unit in PER_LAYER:
        if name.startswith("import."):
            continue
        if name == "allocation.contributions_per_diversify":
            reports = summary["_diversify_reports"]
            value = summary["_contributions_in_diversify"] / reports if reports else 0.0
        else:
            value = summary[name] / rounds
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _child(argv: list[str]) -> int:
    spans_path, target, *args = argv
    import tailrisk.cli
    import sweep

    tracer = Tracer()
    tracer.install(extra_modules=[sweep])
    try:
        main = tailrisk.cli.main if target == "cli" else sweep.main
        return main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
