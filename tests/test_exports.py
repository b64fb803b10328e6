"""Every public name rigsim declares resolves: each module's ``__all__`` and
each name the package re-exports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rigsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(rigsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"rigsim.{name}")
    assert module.__all__, name
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    # the names rigsim/__init__.py imports from its modules, read from its
    # source: each is public in its module and bound on the package
    tree = ast.parse(Path(rigsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rigsim.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(rigsim, alias.asname or alias.name) is getattr(module, alias.name)
