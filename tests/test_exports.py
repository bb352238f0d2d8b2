"""Export hygiene: every name in a module's ``__all__`` resolves, once, and
each class or function listed there is defined in that module."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bmme

MODULES = ["bmme"] + [f"bmme.{m.name}"
                      for m in pkgutil.iter_modules(bmme.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_class_or_function_has_its_home_here(name):
    # one home per public name: a module lists only what it defines, and
    # callers import a name from that module
    module = importlib.import_module(name)
    exported = [getattr(module, n) for n in module.__all__]
    assert [f.__name__ for f in exported
            if (inspect.isclass(f) or inspect.isfunction(f))
            and f.__module__ != name] == []


def test_package_root_holds_only_the_version():
    # every other name is imported from its own module; a fresh interpreter
    # shows what ``import bmme`` alone defines
    code = ("import bmme; print(bmme.__all__, "
            "sorted(n for n in vars(bmme) if not n.startswith('_')))")
    src = str(Path(bmme.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "['__version__'] []"


def test_package_and_cli_leave_scipy_linalg_and_optimize_unloaded():
    # scipy.optimize holds about 19 MB of resident memory and 200 modules,
    # scipy.linalg about 8 MB: cluster scoring solves its assignment in
    # numpy, and the r x r spectral norms take numpy's SVD
    code = """\
import sys, bmme, bmme.cli
from bmme import datakit, matcomp, onmf, solver
assert onmf.clustering_accuracy([1, 2, 2], [2, 1, 1]) == 1.0
syn = datakit.gen_synthetic_onmf(20, 15, 3, seed=1)
p = onmf.OnmfProblem(X=syn.X, r=3, lam=10.0)
res = solver.run(onmf.onmf_block_problems(p), list(onmf.spa_init(p.X, 3)),
                 solver.SolverConfig(max_iters=3, tol_rel_change=0.0),
                 lambda b: onmf.onmf_objective(p, *b))
assert len(res.trace) == 3
q = matcomp.McProblem(datakit.gen_synthetic_ratings(20, 15, 3, 0.5, seed=1),
                      r=3, lam=0.1, theta=5.0)
res = solver.run([matcomp.mc_block_problem(q)],
                 [matcomp.pack_state(matcomp.mc_random_init(q, seed=2))],
                 solver.SolverConfig(max_iters=2, tol_rel_change=0.0),
                 matcomp.mc_objective_packed(q))
assert len(res.trace) == 2
print([m for m in sys.modules
       if m.startswith(("scipy.linalg", "scipy.optimize"))])
"""
    src = str(Path(bmme.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
