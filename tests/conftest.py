"""Test-session set-up: BLAS runs on one thread, fixed before numpy loads.

pytest imports this file before any test module, so numpy sees the setting
when it loads OpenBLAS. The timing test in test_acceptance.py compares
per-iteration costs across sizes. With OpenBLAS's default two threads on a
2-CPU machine its n=1600 point spiked to 5-13 ms per iteration, against
about 0.9 ms with one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
