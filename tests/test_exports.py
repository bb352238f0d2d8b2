"""Export hygiene: every name in a module's ``__all__`` resolves, once."""

import importlib
import pkgutil

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
