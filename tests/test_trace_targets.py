"""Every name the benchmark's span tracer wraps must exist in the library.

``perfbench/spans.py`` wraps functions and methods by module and attribute
name; a refactor that renames or moves one would only show up as a
``KeyError`` or ``AttributeError`` under ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path


def _spans_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve():
    spans = _spans_module()
    targets = [t[:2] for t in spans._TARGETS + spans._COUNTED]
    missing = []
    for modname, attr in targets:
        mod = importlib.import_module(f"subsystem_codes.{modname}")
        if "." in attr:
            # the tracer replaces the method in the class's own __dict__
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert len(targets) > 40
    assert not missing
