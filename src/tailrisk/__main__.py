"""The ``tailrisk`` command, also run as ``python -m tailrisk``. It sets numpy's BLAS
to one thread, overriding any thread setting, before numpy is imported. This saves
CPU only: the package calls no BLAS routine, but idle BLAS worker threads still
burn CPU, and no report depends on the thread count."""

import os
import sys


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as run_command

    return run_command()


if __name__ == "__main__":
    sys.exit(main())
