"""Every name the package and its modules export in `__all__` resolves, so a
name removed from a module cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import kahlercone

MODULES = ["kahlercone"] + [f"kahlercone.{m.name}"
                            for m in pkgutil.iter_modules(kahlercone.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
