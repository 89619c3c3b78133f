"""The ``tailrisk`` command, also run as ``python -m tailrisk``. It sets numpy's BLAS
to one thread, overriding any thread setting, before numpy is imported: more
threads only burn CPU beside the commands' dot products, and change how a long
one is summed, so the last digits of a report."""

import os
import sys


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as run_command

    return run_command()


if __name__ == "__main__":
    sys.exit(main())
