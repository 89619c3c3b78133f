"""Import contract: no command loads scipy, and the panel commands load
nothing past ``import tailrisk.cli``.

A cold CLI command pays for every module it imports, and the package computes
its own binomial and chi-square tails, so scipy is a test dependency only.
Each check runs in a fresh interpreter, since this process has loaded scipy
through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"

# runs each argv list of argv[1] through cli.main from the fixture directory,
# printing the scipy modules loaded after each one
CHILD = """
import contextlib, io, json, sys
from tailrisk import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps(scipy_modules()))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, scipy_modules()]))
"""


# runs each argv list of argv[1] through cli.main, printing the modules loaded
# since import; argparse loads its translations (gettext, locale) when it first
# parses, so every argv is parsed once before the first module count
NEW_MODULES = """
import contextlib, io, json, sys
from tailrisk import cli

commands = json.loads(sys.argv[1])
for argv in commands:
    cli._build_parser().parse_args(argv)
loaded = set(sys.modules)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([code, sorted(set(sys.modules) - loaded)]))
"""


# with scipy made unimportable, runs each golden case of argv[1] (name: argv)
# from the fixture directory and prints whether its report matches the stored
# bytes
NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # an import of scipy now raises ImportError
from tailrisk import cli

for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    with open(f"reports/{name}.json", "rb") as stored:
        print(json.dumps([name, code, out.getvalue().encode() == stored.read()]))
"""


def run_cold(commands: list[list[str]] | dict, child: str = CHILD) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        cwd=GOLDEN, env=env, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_no_command_loads_scipy():
    assert len(CASES) == 21
    assert {argv[0] for argv in CASES.values()} == {
        "measure", "allocate", "diversify", "backtest-var", "backtest-es", "backtest-pit",
        "elicit", "counterexample",
    }
    after_import, *after_cases = run_cold(list(CASES.values()))
    assert after_import == []
    assert len(after_cases) == len(CASES)
    for argv, (code, loaded) in zip(CASES.values(), after_cases):
        assert code == 0, argv
        assert loaded == [], argv


def test_every_golden_report_renders_without_scipy():
    rendered = run_cold(CASES, NO_SCIPY)
    assert rendered == [[name, 0, True] for name in CASES]


def test_panel_commands_load_no_module_past_the_import():
    # a lazy import on the parse path (np.loadtxt's, say) would slow every
    # cold panel command
    panel = [CASES[name] for name in ("measure-es", "diversify-es", "diversify-expectile")]
    for code, loaded in run_cold(panel, NEW_MODULES):
        assert code == 0
        assert loaded == []
