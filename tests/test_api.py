"""Public names: every `__all__` entry resolves, and the package re-exports
only names its modules list as public.

bench/tracer.py wraps each layer by calling getattr on every name in the
module's `__all__`, so a stale entry would break every traced run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thetaparity

MODULES = [m.name for m in pkgutil.iter_modules(thetaparity.__path__)
           if not m.name.startswith("_")]


def test_modules_found():
    assert set(MODULES) >= {"census", "cli", "f2series", "quadarith", "theorems"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"thetaparity.{name}")
    assert len(set(module.__all__)) == len(module.__all__), name
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert not missing, (name, missing)


def test_package_imports_are_public():
    tree = ast.parse(Path(thetaparity.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} >= {"census", "f2series", "quadarith",
                                                 "theorems"}
    for node in imports:
        module = importlib.import_module(f"thetaparity.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
