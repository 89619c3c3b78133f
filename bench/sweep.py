"""The paper's coherence sweep as a library user writes it.

Every joint law of two losses on the 3x3 grid {0, 1, 2}^2 with weights in
multiples of 1/denominator: VaR, ES and the expectile of each position and of
the sum. ``checks.check_sweep`` then verifies ES and expectile
subadditivity on every law and that VaR is superadditive on some.

Run as a script, it is one cold batch job:
``python bench/sweep.py --denominator 5 --output sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from tailrisk import enumerate_joint_panels, expectile, expected_shortfall, value_at_risk

GRID = (0.0, 1.0, 2.0)
ALPHA = 0.8
TAU = 0.8


def sweep(denominator: int) -> dict:
    panels = []
    for panel in enumerate_joint_panels(GRID, GRID, denominator):
        laws = (panel.column_law(0), panel.column_law(1), panel.portfolio_law())
        values = {
            "var": [value_at_risk(law, ALPHA) for law in laws],
            "es": [expected_shortfall(law, ALPHA) for law in laws],
            "expectile": [expectile(law, TAU) for law in laws],
        }
        panels.append((panel.rows, panel.weights, values))
    return {"alpha": ALPHA, "tau": TAU, "panels": panels}


def to_json(result: dict) -> dict:
    return {
        "alpha": result["alpha"],
        "tau": result["tau"],
        "panels": [[r.tolist(), w.tolist(), v] for r, w, v in result["panels"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--denominator", type=int, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    with open(args.output, "w") as handle:
        json.dump(to_json(sweep(args.denominator)), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
