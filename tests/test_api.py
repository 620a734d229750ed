"""Public names: every `__all__` entry resolves, and the package re-exports,
on first use, only names its modules list as public.

bench/tracer.py wraps each layer by calling getattr on every name in the
module's `__all__`, so a stale entry would break every traced run.
"""

import importlib
import pkgutil

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
    exports = thetaparity._EXPORTS
    assert set(exports.values()) >= {"census", "f2series", "quadarith", "theorems"}
    assert thetaparity.__all__ == list(exports)
    for public, name in exports.items():
        module = importlib.import_module(f"thetaparity.{name}")
        assert public in module.__all__, (name, public)
        assert getattr(thetaparity, public) is getattr(module, public)
