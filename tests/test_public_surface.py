"""Every name a module exports through ``__all__`` exists, and no public
scan takes a measurement setting beside the one ``Policy``."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", ["codes", "subsystem", "rules", "table1",
                                  "bounds"])
def test_policy_is_the_one_carrier_of_scan_settings(name):
    # how a weight is measured travels in one frozen Policy; a loose
    # threshold, mode or seed parameter would be a second carrier with its
    # own meaning of each mode
    mod = importlib.import_module(f"subsystem_codes.{name}")
    found = []
    for attr, obj in vars(mod).items():
        home = getattr(obj, "__module__", None)    # defined here, not imported
        if attr.startswith("_") or home != mod.__name__:
            continue
        if inspect.isfunction(obj):
            members = [(attr, obj)]
        elif inspect.isclass(obj) and obj is not subsystem_codes.Policy:
            members = [(f"{attr}.{m}", getattr(obj, m)) for m in vars(obj)
                       if m == "__init__" or not m.startswith("_")]
        else:
            continue
        found += [f"{label}({param})" for label, fn in members if callable(fn)
                  for param in inspect.signature(fn).parameters
                  if param in ("threshold", "mode", "seed")]
    assert not found


def test_policy_is_defined_once():
    from subsystem_codes import codes, subsystem
    assert subsystem.Policy is codes.Policy is subsystem_codes.Policy
    assert subsystem.DEFAULT_POLICY is codes.DEFAULT_POLICY
