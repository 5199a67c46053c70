"""Process entry point: ``python -m crmorse`` and the ``crmorse`` script.

The OpenBLAS of the numpy wheels starts threads that spin after import,
which costs a short command more CPU than its own work; crmorse hands
BLAS small matrices, which gain nothing from threads.  So each
command starts OpenBLAS with one thread, unless the user set a thread
count.  The default is set here, before ``crmorse.cli`` imports numpy,
and never on ``import crmorse``.
"""

import os

# the variables through which a user sets a BLAS thread count
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    if not any(name in os.environ for name in _THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as run_command

    run_command()


if __name__ == "__main__":
    main()
