"""Import contract: scipy is loaded only by the statistical tests that need it,
and the panel commands load nothing past ``import tailrisk.cli``.

A cold CLI command pays for every module it imports, so commands that make no
coverage, independence or PIT test must not load scipy. Each check runs in a
fresh interpreter, since this process has loaded scipy through other tests.
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


def run_cold(commands: list[list[str]], child: str = CHILD) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("TAILRISK_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        cwd=GOLDEN, env=env, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_scipy_is_loaded_only_by_the_backtests():
    light = [argv for argv in CASES.values() if not argv[0].startswith("backtest")]
    assert {argv[0] for argv in light} == {
        "measure", "allocate", "diversify", "elicit", "counterexample"
    }
    after_import, *after_light, after_backtest = run_cold(light + [CASES["backtest-var"]])
    assert after_import == []
    for argv, (code, loaded) in zip(light, after_light):
        assert code == 0, argv
        assert loaded == [], argv
    code, loaded = after_backtest
    assert code == 0
    assert "scipy.stats" in loaded


def test_panel_commands_load_no_module_past_the_import():
    # a lazy import on the parse path (np.loadtxt's, say) would slow every
    # cold panel command
    panel = [CASES[name] for name in ("measure-es", "diversify-es", "diversify-expectile")]
    for code, loaded in run_cold(panel, NEW_MODULES):
        assert code == 0
        assert loaded == []
