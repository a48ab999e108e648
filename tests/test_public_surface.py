"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import subsystem_codes

_MODULES = ["subsystem_codes"] + [
    f"subsystem_codes.{info.name}"
    for info in pkgutil.iter_modules(subsystem_codes.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_star_import_resolves(name):
    # a stale __all__ entry raises AttributeError here; cli has no __all__
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert set(exported) <= set(namespace)
