"""Tests of tools/fingerprint.py, the benchmark workloads' bit-identity hash.

They run the workloads at the tiny sizes of perfbench/test_smoke.py.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bmme import solver

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "tools"
    / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)
workloads = fingerprint.load_workloads()

TINY = {
    "onmf-small-verified": dict(m=12, n=15, r=3, sweeps=4),
    "onmf-large": dict(m=20, n=30, r=3, sweeps=3),
    "mc-large-bt": dict(m=30, n=25, r=2, obs_fraction=0.3, steps=3),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_two_runs_in_one_process_print_the_same_line(name):
    w = tiny(name)
    first = fingerprint.line(name, 3, fingerprint.fingerprint(w, 3))
    second = fingerprint.line(name, 3, fingerprint.fingerprint(w, 3))
    assert first == second
    words = first.split()
    assert words[:3] == [name, "seed", "3"] and len(words[3]) == 64
    assert words[4] == "final_objective"
    assert words[6] in ("accuracy", "rmse_test")


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_ulp_in_one_accepted_beta_changes_the_hash(name, monkeypatch):
    w = tiny(name)
    plain = fingerprint.fingerprint(w, 3)
    real, nudged = solver.search_extrapolation, []

    def search(*args):
        res = real(*args)
        if res.beta > 0.0 and not nudged:
            nudged.append(res.beta)
            res = res._replace(beta=float(np.nextafter(res.beta, np.inf)))
        return res

    monkeypatch.setattr(solver, "search_extrapolation", search)
    moved = fingerprint.fingerprint(w, 3)
    assert nudged
    assert moved[0] != plain[0]


def test_seeds_give_different_hashes():
    w = tiny("mc-large-bt")
    assert (fingerprint.fingerprint(w, 3)[0]
            != fingerprint.fingerprint(w, 11)[0])
