"""Every name the package and its modules export in `__all__` resolves, so a
name removed from a module cannot linger in an export list; and importing
the CLI loads neither `dataclasses` nor `inspect`."""

import importlib
import json
import pkgutil

import pytest

import kahlercone

from _util import run_python

MODULES = ["kahlercone"] + [f"kahlercone.{m.name}"
                            for m in pkgutil.iter_modules(kahlercone.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


# the modules `import kahlercone.cli` adds to a fresh interpreter's, so a
# module that a site hook loads first is not counted
_ADDED_BY_CLI = """
import sys
before = set(sys.modules)
import kahlercone.cli
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # each would pull in a dozen more stdlib modules at every cold start
    proc = run_python("-c", _ADDED_BY_CLI)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "kahlercone.cli" in added
    assert {"dataclasses", "inspect"} & set(added) == set()
