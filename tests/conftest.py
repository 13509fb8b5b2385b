"""Shared test setup: one BLAS thread, as ``bench/run_bench.py`` pins it.

BLAS reads these variables once, when numpy loads it, so they are set here,
before any test module imports numpy; a caller's own setting wins.
``NUMPY_PRELOADED`` records whether numpy was already loaded when this file
ran, in which case the pins came too late; a test checks that it was not.
"""

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_PRELOADED = "numpy" in sys.modules

for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")
