"""Export hygiene: every name in a module's ``__all__`` resolves, once."""

import importlib
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


def test_package_and_cli_leave_scipy_optimize_unloaded():
    # scipy.optimize holds about 19 MB of resident memory and 200 modules;
    # cluster scoring solves its assignment in numpy instead
    code = ("import sys, bmme, bmme.cli\n"
            "from bmme.onmf import clustering_accuracy\n"
            "assert clustering_accuracy([1, 2, 2], [2, 1, 1]) == 1.0\n"
            "print([m for m in sys.modules if m.startswith('scipy.optimize')])")
    src = str(Path(bmme.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
