"""Session set-up for every test directory: BLAS runs one thread.

OpenBLAS reads its thread count once, when numpy first loads it, so the
variables are set here, before any test module imports numpy.  Tier-1 then
runs single-threaded like the benchmark (``bench/run.py``); a value already
in the environment is kept.  The library itself sets no thread count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
