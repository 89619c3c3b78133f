"""The speed probe: a fixed kernel that tracks the host's speed phases.

The sandbox shares its CPUs with other tenants, and its speed drifts between
a fast and a slow phase about 1.3-1.45x apart, in phases of seconds to many
minutes (see the README, "Noise"). A run that meets a slow phase reads slow
on every time it reports, whatever the program did.

So each run times this kernel before and after every set-up and every
operation, outside their timing. The kernel never touches ``tailrisk``: it
parses a fixed CSV text into lists of floats, sorts a fixed array with numpy
and runs a pure-Python loop, the three kinds of work the package's
operations do. It runs with the cyclic collector off, so the runner's heap
does not change its cost. Each set-up's and each operation's times are then scaled by
``REFERENCE_S`` over the mean of the kernel times just before and just
after it: they read as times at the speed where the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import csv
import gc
import io
import time

import numpy as np

REFERENCE_S = 0.1
_ROWS = 16_000
_SORTED = 200_000
_LOOP = 300_000


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._text = "\n".join(",".join(map(repr, row)) for row in rng.standard_normal((_ROWS, 5)).tolist())
        self._values = rng.standard_normal(_SORTED)

    def seconds(self) -> float:
        """One timing of the kernel, in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self._text))]
            np.sort(self._values)
            total = 0
            for i in range(_LOOP):
                total += i * i
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        assert len(rows) == _ROWS and total > 0
        return elapsed


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probe timings into a
    reference-speed time."""
    return REFERENCE_S / ((before + after) / 2)
