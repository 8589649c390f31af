"""Test-session set-up: one BLAS thread, as the benchmark runs.

Threaded BLAS makes wall-clock tests such as
``test_criterion_9_performance_scaling`` depend on how many cores are free.
The variables are read when numpy loads, which is after this file, and a
value set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
