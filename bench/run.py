"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload panel-large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` there
and nowhere else, and the run exits 2 without a result if it is missing.

Set-up generates the workload's inputs from the seed and starts a fresh
interpreter that imports ``tailrisk.cli``; it is repeated ``SETUP_REPS``
times and ``setup_s`` is the median. An in-process workload then runs its
first operation once, untimed, as a warm-up. The timed phase runs whole
rounds of the workload's operations, one at a time (a single closed-loop
client), until the operations have taken ``--seconds`` of wall time. Each
operation's output is checked after it returns, outside its timing.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the functions of every layer are wrapped (see ``tracing.py``)
and the result carries the per-layer metrics per round instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import tailrisk.cli; "
    "print(time.perf_counter() - t, len(sys.modules), tailrisk.cli.__file__, sep='\\n')"
)


class Children:
    """Child processes see the package only through PYTHONPATH=src."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        """Run a child to completion; return (wall s, exit code, rusage)."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def cold_import(self, probe_out: Path) -> tuple[float, int]:
        """Import tailrisk.cli in a fresh interpreter; its own import time and
        the number of modules loaded."""
        with probe_out.open("w") as out:
            _, code, _ = self.spawn([sys.executable, "-c", IMPORT_PROBE], stdout=out)
        lines = probe_out.read_text().splitlines()
        if code != 0 or len(lines) != 3 or not Path(lines[2]).resolve().is_relative_to(SRC):
            raise SystemExit(f"bench: cold import of tailrisk.cli from {SRC} failed: {lines}")
        return float(lines[0]), int(lines[1])


def set_up(workload, seed: int, work: Path, children: Children, probe: speed.Probe, trace: bool):
    """Generate inputs and import the package cold, SETUP_REPS times, with
    the speed probe timed between them. Returns the median set-up time as
    measured and at reference speed."""
    times, scaled, import_s, modules = [], [], [], 0
    before = probe.seconds()
    for rep in range(SETUP_REPS):
        directory = work / f"setup{rep}"
        start = time.perf_counter()
        directory.mkdir(parents=True)
        inputs = workload.generate(seed, directory)
        seconds, modules = children.cold_import(work / "import.txt")
        elapsed = time.perf_counter() - start
        after = probe.seconds()
        times.append(elapsed)
        scaled.append(elapsed * speed.scale(before, after))
        before = after
        import_s.append(seconds)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(directory)
    imports = {}
    if trace:
        bare = [children.spawn([sys.executable, "-c", "pass"])[0] for _ in range(SETUP_REPS)]
        imports = {
            "import.python_s": {"value": statistics.median(bare), "unit": "s"},
            "import.tailrisk_cli_s": {"value": statistics.median(import_s), "unit": "s"},
            "import.modules": {"value": modules, "unit": "count"},
        }
    return inputs, statistics.median(times), statistics.median(scaled), imports


class Runner:
    def __init__(self, workload, work: Path, children: Children, trace_dir: Path | None):
        self.workload = workload
        self.work = work
        self.children = children
        self.spawned = 0
        self.trace_dir = trace_dir
        self.summary: Counter = Counter()
        self.peak_child_kb = 0

    def execute(self, op) -> tuple[bool, float, float, object, str]:
        """Run one operation: (ok, wall s, cpu s, output, failure reason)."""
        report = self.work / "report.json"
        if op.call is not None:
            return self._in_process(op.call)
        if self.workload.in_process:
            import tailrisk.cli

            ok, wall, cpu, code, reason = self._in_process(
                lambda: tailrisk.cli.main(op.argv + ["--output", str(report)])
            )
            if ok and code != 0:
                ok, reason = False, f"exit code {code}"
        else:
            ok, wall, cpu, reason = self._child(op, report)
        if not ok:
            return ok, wall, cpu, None, reason
        return ok, wall, cpu, json.loads(report.read_text()), ""

    def _in_process(self, call):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result, reason = call(), ""
        except SystemExit as exc:  # argparse rejects the command line
            result, reason = None, f"exit code {exc.code}"
        except Exception as exc:  # a failed operation is data, not a crash
            result, reason = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return not reason, wall, cpu, result, reason

    def _child(self, op, report: Path):
        args = op.argv + ["--output", str(report)] if op.argv else op.script + ["--output", str(report)]
        if self.trace_dir is None:
            target = ["-m", "tailrisk"] if op.argv else [str(BENCH / "sweep.py")]
            argv = [sys.executable, *target, *args]
        else:
            spans = self.trace_dir / f"child{self.spawned}.json"
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), "cli" if op.argv else "sweep", *args]
        errors = self.work / "stderr.txt"
        with errors.open("w") as err:
            wall, code, usage = self.children.spawn(argv, stderr=err)
        self.spawned += 1
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        if self.trace_dir is not None:
            self.summary.update(json.loads(spans.read_text())["summary"])
        cpu = usage.ru_utime + usage.ru_stime
        lines = errors.read_text().strip().splitlines()
        reason = "" if code == 0 else f"exit code {code}: {lines[-1][:120] if lines else ''}"
        return code == 0, wall, cpu, reason


class Tally:
    """What the timed phase saw: each attempt's outcome, wall and CPU time
    with the speed probe's scale factor for it, and the failures by
    operation."""

    def __init__(self) -> None:
        self.attempts: list[tuple[bool, float, float]] = []
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0
        self.rounds = 0
        self.failures: dict[str, str] = {}
        self.unexpected: list[str] = []
        self.by_op: dict[str, list[float]] = {}


def run_rounds(runner: Runner, ops, seconds: float, probe: speed.Probe) -> Tally:
    """Whole rounds until the operations have taken ``seconds`` of wall time
    (checks and the speed probe excluded)."""
    tally = Tally()
    before = probe.seconds()
    while tally.rounds == 0 or tally.timed < seconds:
        for op in ops:
            gc.collect()  # start every operation from a collected heap
            ok, wall, cpu, output, reason = runner.execute(op)
            after = probe.seconds()
            tally.scales.append(speed.scale(before, after))
            before = after
            if ok:
                try:
                    op.check(output)
                except checks.CheckFailed as exc:
                    ok, reason = False, f"check: {exc}"
                except Exception as exc:  # a malformed report fails its operation
                    ok, reason = False, f"check: {type(exc).__name__}: {exc}"
            tally.by_op.setdefault(op.name, []).append(wall)
            tally.attempts.append((ok, wall, cpu))
            tally.attempted += 1
            tally.timed += wall
            if ok:
                continue
            tally.failed += 1
            tally.failures[op.name] = reason
            if op.fault is None or not reason.startswith(op.fault):
                tally.unexpected.append(op.name)
        tally.rounds += 1
    return tally


def time_metrics(setup_s: float, attempts: list[tuple[bool, float, float]]) -> dict:
    """The end-to-end times; failed attempts count only in the denominators
    of the rates."""
    walls = [wall for ok, wall, _ in attempts if ok]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(walls),
        "ops_per_s": len(walls) / sum(wall for _, wall, _ in attempts),
        "cpu_s_per_op": sum(cpu for _, _, cpu in attempts) / len(walls),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tailrisk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tailrisk" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'tailrisk'}; run from a checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}" if trace else None
    children = Children()
    try:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        probe = speed.Probe()
        inputs, setup_s, setup_scaled, imports = set_up(workload, args.seed, work, children, probe, trace)
        tracer = None
        runner = Runner(workload, work, children, trace_dir)
        if workload.in_process:
            sys.path.insert(0, str(SRC))
            import tailrisk.cli  # noqa: F401  (imported once, before the timed phase)
            import sweep
        ops = workload.round(inputs)
        if workload.in_process:
            # warm-up, untimed and untraced: lazy imports and the allocator's
            # first arenas are paid here, not by the first timed round
            runner.execute(ops[0])
            if trace:
                tracer = tracing.Tracer()
                tracer.install(extra_modules=[sweep])
        tally = run_rounds(runner, ops, args.seconds, probe)
        if tracer is not None:
            tracer.uninstall()
            runner.summary.update(tracer.summary())
            tracer.dump(trace_dir / "spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, walls in tally.by_op.items():
        print(f"bench: {name} median {statistics.median(walls):.4f} s of {[round(w, 3) for w in walls]}", file=sys.stderr)
    for name, reason in sorted(tally.failures.items()):
        print(f"bench: {name} failed: {reason}", file=sys.stderr)
    print(f"bench: {tally.rounds} rounds, operation wall {tally.timed:.4f} s", file=sys.stderr)
    completed = tally.attempted - tally.failed
    if trace:
        metrics = tracing.layer_metrics(runner.summary, tally.rounds, imports)
    elif completed == 0:
        print("bench: no operation completed", file=sys.stderr)
        return 1
    else:
        if workload.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = runner.peak_child_kb
        measured = time_metrics(setup_s, tally.attempts)
        print(f"bench: as measured {json.dumps(measured)}", file=sys.stderr)
        scaled = [(ok, wall * k, cpu * k) for (ok, wall, cpu), k in zip(tally.attempts, tally.scales)]
        metrics = {
            name: {"value": value, "unit": "1/s" if name == "ops_per_s" else "s"}
            for name, value in time_metrics(setup_scaled, scaled).items()
        }
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
