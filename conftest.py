"""Pin OpenBLAS to one thread for the whole test suite.

The suite's matrix products are small; threaded BLAS on them
oversubscribes the cores and makes the run slower and its duration
erratic under load. This must be the root conftest: it is loaded before
any test module or ``tests/conftest.py`` imports numpy, and the variable
is read only when numpy loads OpenBLAS. An explicit setting wins.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
