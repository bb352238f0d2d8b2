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

from concurrent.futures import ThreadPoolExecutor  # noqa: E402

import pytest  # noqa: E402

from bmme import bregman  # noqa: E402


class CountingExecutor(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    """Two workers in place of the split passes' pool, counting the tasks."""
    pool = CountingExecutor(2)
    monkeypatch.setattr(bregman, "_pool", (os.getpid(), pool))
    yield pool
    pool.shutdown()
