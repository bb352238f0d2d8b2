"""The test session's BLAS runs on one thread (see conftest.py), also after
onmf has run a product in halves shared by the caller and a pool worker."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from bmme import onmf

# numpy's and scipy's wheels prefix and suffix OpenBLAS's symbols
GETTERS = [f"{pre}openblas_get_num_threads{suf}"
           for pre in ("", "scipy_") for suf in ("", "64_")]


def loaded_openblas():
    """Paths of the OpenBLAS libraries mapped into this process."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("needs /proc/self/maps")
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure BLAS is loaded
    return {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line.rsplit("/", 1)[-1]}


def openblas_threads():
    """OpenBLAS's reported thread count, per library mapped in."""
    threads = {}
    for path in loaded_openblas():
        lib = ctypes.CDLL(path)
        for g in GETTERS:
            if hasattr(lib, g):
                getter = getattr(lib, g)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads[path] = getter()
                break
    if not threads:
        pytest.skip("no OpenBLAS with a thread-count getter is loaded")
    return threads


def test_openblas_runs_one_thread():
    threads = openblas_threads()
    assert set(threads.values()) == {1}, threads


def test_split_product_leaves_blas_on_one_thread():
    # the caller and a pool worker run the halves, each a one-thread BLAS call
    rng = np.random.default_rng(0)
    X, U = rng.random((1024, 1024)), rng.random((1024, 3))
    assert X.size >= onmf._SPLIT_SIZE
    assert np.array_equal(onmf._utx(U, X), U.T @ X)
    threads = openblas_threads()
    assert set(threads.values()) == {1}, threads
