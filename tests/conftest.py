"""Suite-wide setup: one BLAS thread per test process.

Set before numpy loads, since BLAS reads these once at import.  Under CPU
contention a multi-threaded BLAS can double a test's time, and results do
not depend on the thread count (test_cli checks report bytes at 1 and 2
threads in child processes, with these variables stripped).  A value
already set in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
