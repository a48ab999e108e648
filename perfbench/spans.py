"""Span tracing installed from outside the library.

``install`` replaces public functions and methods of ``subsystem_codes``
with timing wrappers, both at their defining module attribute and at
every import site that holds the same object (``table1.derive``,
``subsystem.dual_symp``, ...).  A span is a list
``[name, start, end, parent, info]`` kept in memory; ``write`` dumps them
as JSON lines.  ``FieldSpec.add_arr``/``mul_arr`` are only counted, since
a span per call would cost more than the call.

Layer metrics are computed from self time: a span's duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   info(*args, **kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def manual(self, name: str):
        """A span around code of the benchmark itself."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _enum_info(gens, p, n_groups, group_size, lo, hi, *args, **kwargs):
    return [int(p), int(group_size), int(hi) - int(lo)]


# (module, attribute or Class.method, span name, info function)
_TARGETS = [
    ("_enum", "min_weight_range", "enum.min_weight_range", _enum_info),
    ("_enum", "weight_distribution", "enum.weight_distribution", _enum_info),
    ("linalg", "rref", "linalg.rref", None),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "row_space_contains", "linalg.row_space_contains", None),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "matmul", "linalg.matmul", None),
    ("gf", "FieldSpec.__init__", "gf.field_build", None),
    ("gf", "TowerSpec.__init__", "gf.tower_build", None),
    ("codes", "dual_symp", "codes.dual_symp", None),
    ("codes", "intersect", "codes.intersect", None),
    ("codes", "min_swt", "codes.min_swt", None),
    ("codes", "min_swt_coset", "codes.min_swt_coset", None),
    ("codes", "swt_distribution", "codes.swt_distribution", None),
    ("codes", "AdditiveCode.__init__", "codes.additive_init", None),
    ("codes", "AdditiveCode.as_additive", "codes.as_additive", None),
    ("codes", "AdditiveCode.contains_vector", "codes.contains_vector", None),
    ("codes", "AdditiveCode.contains_code", "codes.contains_code", None),
    ("codes", "AdditiveCode.load", "codes.load", None),
    ("codes", "AdditiveCode.save", "codes.save", None),
    ("codes", "ClassicalCode.__init__", "codes.classical_init", None),
    ("codes", "ClassicalCode.dual", "codes.classical_dual", None),
    ("codes", "ClassicalCode.intersect", "codes.classical_intersect", None),
    ("codes", "ClassicalCode.is_hermitian_self_orthogonal",
     "codes.hermitian_self_orthogonal", None),
    ("codes", "ClassicalCode.min_wt", "codes.classical_min_wt", None),
    ("codes", "ClassicalCode.min_wt_coset", "codes.classical_min_wt_coset", None),
    ("codes", "ClassicalCode.puncture", "codes.puncture", None),
    ("symplectic", "hyperbolic_decompose", "symplectic.decompose", None),
    ("symplectic", "extend_to_full_symplectic_basis",
     "symplectic.extend_basis", None),
    ("subsystem", "derive", "subsystem.derive", None),
    ("subsystem", "analysis_report", "subsystem.analysis_report", None),
    ("subsystem", "bracket_params", "subsystem.bracket_params", None),
    ("rs", "evaluation_code", "rs.evaluation_code", None),
    ("rs", "hermitian_self_orthogonal_rs", "rs.hermitian_self_orthogonal_rs",
     None),
    ("rs", "mds_min_weight_codeword", "rs.mds_min_weight_codeword", None),
    ("bounds", "singleton_check", "bounds.singleton_check", None),
    ("bounds", "hamming_check", "bounds.hamming_check", None),
    ("table1", "generate_table", "table1.generate_table", None),
] + [("rules", fn, f"rules.{fn}", None) for fn in (
    "shrink_k", "grow_k", "stabilizer_to_subsystem", "subsystem_to_stabilizer",
    "extend_length", "shorten_length", "combine_disjoint", "combine_nested",
    "hermitian_to_symplectic", "mds_family", "classical_modify")]

_COUNTED = [("gf", "FieldSpec.add_arr", "gf.array_ops"),
            ("gf", "FieldSpec.mul_arr", "gf.array_ops")]


def _package_modules(package: str):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package
                                    or name.startswith(package + "."))]


def install(tracer: Tracer, package: str = "subsystem_codes") -> None:
    """Wrap every target; module-level functions at all their import sites."""
    modules = _package_modules(package)
    by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
    for modname, attr, name, info in _TARGETS:
        _replace(modules, by_name[modname], attr,
                 lambda fn: tracer.span(name, fn, info))
    for modname, attr, name in _COUNTED:
        _replace(modules, by_name[modname], attr,
                 lambda fn: tracer.counter(name, fn))


def _replace(modules, mod, attr: str, make: Callable) -> None:
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    orig = getattr(mod, attr)
    wrapped = make(orig)
    for m in modules:
        for key, val in list(vars(m).items()):
            if val is orig:
                setattr(m, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

ENUM_KEYS = ("p2g2", "p2g4", "p3g2", "p5g2")

# name -> unit, in the order printed
LAYER_METRICS = {
    "enum.calls": "count",
    "enum.vectors": "count",
    "enum.self_s": "s",
    "enum.call_ms.p50": "ms",
    **{f"enum.{k}.vectors_per_s": "1/s" for k in ENUM_KEYS},
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.nullspace.self_s": "s",
    "linalg.matmul.self_s": "s",
    "gf.array_ops": "count",
    "gf.field_builds": "count",
    "gf.field_build_s": "s",
    "codes.dual_symp.self_s": "s",
    "codes.intersect.self_s": "s",
    "codes.min_swt.self_s": "s",
    "codes.min_swt_coset.self_s": "s",
    "codes.classical_min_wt.self_s": "s",
    "symplectic.decompose.self_s": "s",
    "symplectic.extend_basis.self_s": "s",
    "subsystem.derive.calls": "count",
    "subsystem.derive.self_s": "s",
    "rs.evaluation_code.self_s": "s",
    "rs.mds_min_weight_codeword.self_s": "s",
    "rules.self_s": "s",
    "table1.generate_table.self_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.named_share": "share",
}


def self_times(spans: List[list]) -> List[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: List[list], counts: Counter, run_start: float,
                  run_s: float) -> Dict[str, float]:
    """Per-layer figures over the spans that start in the timed pass.

    ``gf.field_builds`` and ``gf.field_build_s`` also cover the traced
    set-up, where most fields are built.  ``run.py`` adds ``trace.run_s``.
    """
    selfs = self_times(spans)
    in_run = [s[1] >= run_start for s in spans]
    self_by = defaultdict(float)
    calls = Counter()
    enum_ms, enum_vec, enum_time = [], Counter(), defaultdict(float)
    builds, build_s = 0, 0.0
    for i, (name, start, end, parent, info) in enumerate(spans):
        if name == "gf.field_build":
            builds += 1
            build_s += end - start
        if not in_run[i]:
            continue
        self_by[name] += selfs[i]
        calls[name] += 1
        if name.startswith("enum."):
            p, group, vectors = info
            enum_ms.append((end - start) * 1e3)
            key = f"p{p}g{group}"
            enum_vec[key] += vectors
            enum_time[key] += end - start
            enum_vec["all"] += vectors

    def layer_self(prefix):
        return sum(v for k, v in self_by.items() if k.startswith(prefix))

    out = {
        "enum.calls": len(enum_ms),
        "enum.vectors": enum_vec["all"],
        "enum.self_s": layer_self("enum."),
        "enum.call_ms.p50": statistics.median(enum_ms) if enum_ms else 0.0,
    }
    for key in ENUM_KEYS:
        t = enum_time[key]
        out[f"enum.{key}.vectors_per_s"] = enum_vec[key] / t if t else 0.0
    out.update({
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.self_s": self_by["linalg.rref"],
        "linalg.nullspace.self_s": self_by["linalg.nullspace"],
        "linalg.matmul.self_s": self_by["linalg.matmul"],
        "gf.array_ops": counts["gf.array_ops"],
        "gf.field_builds": builds,
        "gf.field_build_s": build_s,
        "codes.dual_symp.self_s": self_by["codes.dual_symp"],
        "codes.intersect.self_s": self_by["codes.intersect"],
        "codes.min_swt.self_s": self_by["codes.min_swt"],
        "codes.min_swt_coset.self_s": self_by["codes.min_swt_coset"],
        "codes.classical_min_wt.self_s": self_by["codes.classical_min_wt"],
        "symplectic.decompose.self_s": self_by["symplectic.decompose"],
        "symplectic.extend_basis.self_s": self_by["symplectic.extend_basis"],
        "subsystem.derive.calls": calls["subsystem.derive"],
        "subsystem.derive.self_s": self_by["subsystem.derive"],
        "rs.evaluation_code.self_s": self_by["rs.evaluation_code"],
        "rs.mds_min_weight_codeword.self_s":
            self_by["rs.mds_min_weight_codeword"],
        "rules.self_s": layer_self("rules."),
        "table1.generate_table.self_s": self_by["table1.generate_table"],
        "cli.self_s": layer_self("cli."),
        "trace.named_share": sum(self_by.values()) / run_s,
    })
    return out
