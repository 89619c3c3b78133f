"""The three workloads: their inputs and one round of operations each.

A round is a fixed list of operations; every run attempts whole rounds, so
the share of failed operations is the same in every run. Operations marked
``fault`` run on inputs that do not depend on the seed and fail on every run
because of a known fault in the package (see the benchmark README); any other
failure makes the run incorrect.

* cli-cold: every command as a fresh ``python -m tailrisk`` process on daily
  risk windows, plus the coherence sweep as a cold batch script. Interpreter
  start and imports dominate; the kernels do little.
* panel-large: ``tailrisk.cli.main`` in-process on a few large laws. CSV
  parsing, sort-and-merge law building, ``diversify`` (one allocation per
  position) and the quadratic ``elicit`` scan do the work.
* forecast-sweep: large forecast files and many small laws, in-process.
  Forecast parsing, per-period scenario laws, the backtest statistics and
  per-call overhead in ``distribution`` and ``measures`` do the work.

Each workload also touches every other traced layer a little, so every
per-layer metric is a measurement on every workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

FIXED_SEED = 20131206  # inputs of the fault operations: independent of --seed
PIT_SEED = 7  # the CLI's --seed for backtest-pit; the checks replay its draws
ALPHA = 0.975  # VaR and ES level
TAU = 0.99  # expectile level
COUNTEREXAMPLE_TAU = 0.8
COUNTEREXAMPLE_ALPHA = 0.95
COLD_SWEEP = 4  # weight denominator of the small sweeps (495 laws, none VaR-superadditive)
FULL_SWEEP = 8  # the paper's sweep (12,870 laws)


@dataclass
class Op:
    """One operation. Exactly one of ``argv`` (a tailrisk CLI command line,
    without ``--output``), ``script`` (arguments of ``bench/sweep.py``) or
    ``call`` (a library call) is set. ``check`` receives the parsed report,
    the script's JSON output, or the call's return value."""

    name: str
    check: Callable
    argv: list[str] | None = None
    script: list[str] | None = None
    call: Callable | None = None
    fault: str | None = None  # how a known fault makes it fail: a reason prefix


@dataclass
class Workload:
    name: str
    in_process: bool
    generate: Callable[[int, Path], dict]
    round: Callable[[dict], list[Op]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shape(p: dict) -> str:
    t, m = p["rows"].shape
    return f"{t}x{m}"


def measure(p: dict, kind: str, level: float, fault: str | None = None) -> Op:
    return Op(
        f"measure-{kind}-{_shape(p)}",
        lambda r: checks.check_measure(r, p["rows"], p["names"], kind, level),
        argv=["measure", "--input", p["path"], "--kind", kind, "--level", repr(level)],
        fault=fault,
    )


def allocate(p: dict, kind: str, level: float, fault: str | None = None) -> Op:
    return Op(
        f"allocate-{kind}-{_shape(p)}",
        lambda r: checks.check_allocate(r, p["rows"], p["names"], kind, level),
        argv=["allocate", "--input", p["path"], "--kind", kind, "--level", repr(level)],
        fault=fault,
    )


def diversify(p: dict, kind: str, level: float, fault: str | None = None) -> Op:
    return Op(
        f"diversify-{kind}-{_shape(p)}",
        lambda r: checks.check_diversify(r, p["rows"], p["names"], kind, level),
        argv=["diversify", "--input", p["path"], "--kind", kind, "--level", repr(level)],
        fault=fault,
    )


def elicit(s: dict, score: str) -> Op:
    """``elicit`` with one score; the tail-mean threshold is the sample's
    lower-quartile order statistic, so the candidate count is fixed by n."""
    argv = ["elicit", "--input", s["path"], "--score", score]
    level = threshold = None
    if score == "weighted-absolute-error":
        level = ALPHA
    elif score == "weighted-squared-error":
        level = TAU
    elif score == "tail-mean":
        threshold = float(np.sort(s["values"])[s["values"].size // 4 - 1])
        argv += ["--threshold", repr(threshold)]
    if level is not None:
        argv += ["--level", repr(level)]
    return Op(
        f"elicit-{score}-{s['values'].size}",
        lambda r: checks.check_elicit(r, s["values"], score, level, threshold),
        argv=argv,
    )


def two_step(s: dict) -> Op:
    return Op(
        f"elicit-two-step-{s['values'].size}",
        lambda r: checks.check_two_step(r, s["values"], ALPHA),
        argv=["elicit", "--input", s["path"], "--two-step", "--level", repr(ALPHA)],
    )


def backtest_var(f: dict) -> Op:
    return Op(
        f"backtest-var-{f['realized'].size}",
        lambda r: checks.check_backtest_var(r, f, ALPHA),
        argv=["backtest-var", "--input", f["path"], "--level", repr(ALPHA)],
    )


def backtest_es(f: dict) -> Op:
    return Op(
        f"backtest-es-{f['realized'].size}",
        lambda r: checks.check_backtest_es(r, f, ALPHA),
        argv=["backtest-es", "--input", f["path"], "--level", repr(ALPHA)],
    )


def backtest_pit(f: dict) -> Op:
    return Op(
        f"backtest-pit-{f['realized'].size}",
        lambda r: checks.check_backtest_pit(r, f, PIT_SEED),
        argv=["backtest-pit", "--input", f["path"], "--seed", str(PIT_SEED)],
    )


def counterexample_cli(search: str) -> Op:
    level = COUNTEREXAMPLE_TAU if search == "expectile-comonotone" else COUNTEREXAMPLE_ALPHA
    check = checks.check_expectile_counterexample if search == "expectile-comonotone" else checks.check_var_example
    return Op(
        f"counterexample-{search}",
        lambda r: check(r["results"]),
        argv=["counterexample", "--input", "-", "--search", search, "--level", repr(level)],
    )


def counterexample_lib(search: str) -> Op:
    import tailrisk

    if search == "expectile-comonotone":
        return Op(
            "counterexample-expectile-comonotone",
            lambda found: checks.check_expectile_counterexample(
                {
                    "tau": found.tau,
                    "factor_weights": found.pair.factor.weights,
                    "map1": found.pair.f1,
                    "map2": found.pair.f2,
                    "part_values": found.part_values,
                    "sum_value": found.sum_value,
                }
            ),
            call=lambda: tailrisk.find_expectile_comonotone_counterexample(COUNTEREXAMPLE_TAU),
        )
    return Op(
        "counterexample-var-superadditive",
        lambda found: checks.check_var_example(
            {
                "rows": found.panel.rows,
                "weights": found.panel.weights,
                "alpha": found.alpha,
                "portfolio_var": found.portfolio_var,
                "position_vars": found.position_vars,
            }
        ),
        call=lambda: tailrisk.find_var_superadditivity_example(COUNTEREXAMPLE_ALPHA),
    )


def batch(name: str, ops: list[Op], directory: Path) -> Op:
    """In-process operations timed as one: CLI commands write their reports
    to ``directory`` and library calls keep their results, and every part is
    checked afterwards. Batches give small operations a measured time without
    letting them outnumber, and so move, the median."""

    def report(k: int) -> Path:
        return directory / f"{name}-{k}.json"

    def call() -> list:
        import tailrisk.cli

        results = []
        for k, op in enumerate(ops):
            if op.call is not None:
                results.append(op.call())
                continue
            code = tailrisk.cli.main(op.argv + ["--output", str(report(k))])
            if code != 0:
                raise RuntimeError(f"{op.name}: exit code {code}")
            results.append(None)
        return results

    def check(results: list) -> None:
        for k, (op, result) in enumerate(zip(ops, results)):
            op.check(json.loads(report(k).read_text()) if result is None else result)

    return Op(name, check, call=call)


def sweep_lib(denominator: int) -> Op:
    import sweep

    return Op(
        f"sweep-{denominator}",
        lambda result: checks.check_sweep(result, denominator, denominator == FULL_SWEEP),
        call=lambda: sweep.sweep(denominator),
    )


def sweep_script(denominator: int) -> Op:
    def check(report: dict) -> None:
        panels = [(np.asarray(r), np.asarray(w), v) for r, w, v in report["panels"]]
        checks.check_sweep(dict(report, panels=panels), denominator, denominator == FULL_SWEEP)

    return Op(f"sweep-{denominator}", check, script=["--denominator", str(denominator)])


# ---------------------------------------------------------------- cli-cold


def cli_cold_inputs(seed: int, d: Path) -> dict:
    return {
        "p250": inputs.panel(_rng(seed, 1), d / "p250.csv", 250, 5),
        "p500": inputs.panel(_rng(seed, 2), d / "p500.csv", 500, 5),
        "p1000": inputs.panel(_rng(seed, 3), d / "p1000.csv", 1000, 5),
        "f1000": inputs.forecasts(_rng(seed, 4), d / "f1000", 1000, ALPHA),
        "pit500": inputs.forecasts(_rng(seed, 5), d / "pit500", 500, ALPHA, scenarios=250),
        "s500": inputs.sample(_rng(seed, 6), d / "s500.csv", 500),
    }


def cli_cold_round(i: dict) -> list[Op]:
    s = i["s500"]
    return [
        measure(i["p250"], "var", ALPHA),
        measure(i["p500"], "es", ALPHA),
        measure(i["p1000"], "expectile", TAU),
        allocate(i["p1000"], "es", ALPHA),
        allocate(i["p250"], "expectile", TAU),
        diversify(i["p1000"], "var", ALPHA),
        diversify(i["p250"], "es", ALPHA),
        diversify(i["p500"], "expectile", TAU),
        backtest_var(i["f1000"]),
        backtest_es(i["f1000"]),
        backtest_pit(i["pit500"]),
        elicit(s, "squared-error"),
        elicit(s, "weighted-squared-error"),
        elicit(s, "weighted-absolute-error"),
        elicit(s, "tail-mean"),
        two_step(s),
        counterexample_cli("expectile-comonotone"),
        counterexample_cli("var-superadditive"),
        sweep_script(COLD_SWEEP),
    ]


# ---------------------------------------------------------------- panel-large

# Equal-weight panels build cumulative weights by summing float 1/T (ROADMAP
# item 1). The drift trips the cross-check in measures.expected_shortfall, and
# leaves VaR one order statistic above ceil(alpha*T), which its check catches.
# A fault operation that fails in any other way makes the run incorrect.
ES_FAULT = "AssertionError: expected shortfall forms disagree"
VAR_FAULT = "check: "


def panel_large_inputs(seed: int, d: Path) -> dict:
    # The two panels carry the fault operations, so they do not depend on
    # --seed; the expectile operations share them, which halves set-up.
    return {
        "a": inputs.panel(_rng(FIXED_SEED, 1), d / "a.csv", 100_000, 5),
        "b": inputs.panel(_rng(FIXED_SEED, 2), d / "b.csv", 20_000, 50),
        "s2000": inputs.sample(_rng(seed, 3), d / "s2000.csv", 2000),
        "s4000": inputs.sample(_rng(seed, 4), d / "s4000.csv", 4000),
        "f250": inputs.forecasts(_rng(seed, 5), d / "f250", 250, ALPHA),
        "pit250": inputs.forecasts(_rng(seed, 6), d / "pit250", 250, ALPHA, scenarios=100),
        "s500": inputs.sample(_rng(seed, 7), d / "s500.csv", 500),
        "dir": d,
    }


def panel_large_round(i: dict) -> list[Op]:
    ops = []
    for p in (i["a"], i["b"]):
        ops += [
            measure(p, "expectile", TAU),
            allocate(p, "expectile", TAU),
            diversify(p, "expectile", TAU),
            measure(p, "var", ALPHA, fault=VAR_FAULT),
            measure(p, "es", ALPHA, fault=ES_FAULT),
            allocate(p, "es", ALPHA, fault=ES_FAULT),
            diversify(p, "var", ALPHA, fault=VAR_FAULT),
            diversify(p, "es", ALPHA, fault=ES_FAULT),
        ]
    for s in (i["s2000"], i["s4000"]):
        ops += [elicit(s, "squared-error"), elicit(s, "weighted-squared-error"), elicit(s, "tail-mean")]
    small = [
        backtest_var(i["f250"]),
        backtest_es(i["f250"]),
        backtest_pit(i["pit250"]),
        counterexample_cli("var-superadditive"),
        two_step(i["s500"]),
    ]
    return ops + [batch("backtests-250-two-step-500", small, i["dir"]), sweep_lib(COLD_SWEEP)]


# ---------------------------------------------------------------- forecast-sweep


def forecast_sweep_inputs(seed: int, d: Path) -> dict:
    return {
        "f20000": inputs.forecasts(_rng(seed, 1), d / "f20000", 20_000, ALPHA),
        "pit2000": inputs.forecasts(_rng(seed, 2), d / "pit2000", 2000, ALPHA, scenarios=250),
        "p250": inputs.panel(_rng(seed, 3), d / "p250.csv", 250, 5),
        "s500": inputs.sample(_rng(seed, 4), d / "s500.csv", 500),
        "dir": d,
    }


def forecast_sweep_round(i: dict) -> list[Op]:
    small = [
        counterexample_lib("expectile-comonotone"),
        counterexample_lib("var-superadditive"),
        diversify(i["p250"], "es", ALPHA),
        diversify(i["p250"], "expectile", TAU),
        two_step(i["s500"]),
    ]
    return [
        batch("backtest-var-es-20000", [backtest_var(i["f20000"]), backtest_es(i["f20000"])], i["dir"]),
        backtest_pit(i["pit2000"]),
        sweep_lib(FULL_SWEEP),
        batch("counterexamples-daily-window", small, i["dir"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-cold", False, cli_cold_inputs, cli_cold_round),
        Workload("panel-large", True, panel_large_inputs, panel_large_round),
        Workload("forecast-sweep", True, forecast_sweep_inputs, forecast_sweep_round),
    )
}
