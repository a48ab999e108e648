"""Workload plans made from a seed, and the checks on their outputs.

This runs in ``run.py``'s process, which never imports the library: the
inputs and every expected value come from ``oracle.py``.

* ``catalog``: the paper's 17 catalog rows, one ``generate_table(q)``
  per q in {3, 4, 5, 7}, in that order.
* ``families``: a fixed draw (seed ``FAMILY_DRAW_SEED``) of members of
  the MDS families v and vi.
* ``small-codes``: random small additive codes drawn from the seed,
  each analyzed and transformed through the command line in process,
  in an order drawn from the seed.

Catalog and families have no random input, and their order is fixed:
the order of the catalog blocks changes their cost (the q=3 block runs
about a quarter faster after the q=5 block, whose large arrays leave
the allocator in another state).
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

import numpy as np

import oracle

WORKLOADS = ("catalog", "families", "small-codes")

FAMILY_DRAW_SEED = 1
FAMILY_RS = (0, 1, 2, 4)
FAMILY_PER_STRATUM = {4: 2, 5: 2, 7: 1}     # members drawn per (family, q)

# label, p, m, coefficient degree t, n, rules, and one (log_p |C|, log_p |D|)
# per code: a code of each listed shape is drawn from the seed, so the
# seed changes the codes but not the sizes of the spans the program scans
SMALL_CLASSES = [
    ("gf2-n4", 2, 1, 1, 4, ("shrink-k", "extend-n"),
     [(1, 1), (1, 1), (2, 0), (2, 2), (3, 1), (3, 1), (4, 0), (4, 2)]),
    ("gf2-n6", 2, 1, 1, 6, ("shrink-k", "extend-n"),
     [(2, 0), (2, 2), (3, 1), (4, 0), (4, 2), (5, 1), (6, 0), (6, 2)]),
    ("gf2-n8", 2, 1, 1, 8, ("shrink-k",),
     [(3, 1), (4, 0), (5, 1), (6, 0), (6, 2), (7, 1), (8, 0), (8, 2)]),
    ("gf3-n3", 3, 1, 1, 3, ("shrink-k", "extend-n"),
     [(1, 1), (1, 1), (2, 0), (2, 0), (2, 2), (3, 1), (3, 1), (3, 1)]),
    ("gf3-n5", 3, 1, 1, 5, ("shrink-k",),
     [(2, 0), (2, 2), (3, 1), (4, 0), (4, 2), (5, 1)]),
    ("gf4t1-n3", 2, 2, 1, 3, ("shrink-k", "extend-n"),
     [(1, 1), (2, 0), (2, 2), (3, 1), (4, 0), (4, 2), (5, 1), (6, 2)]),
    ("gf4t2-n3", 2, 2, 2, 3, ("shrink-k", "extend-n"),
     [(2, 2), (2, 2), (2, 2), (4, 0), (4, 0), (4, 0), (4, 4), (4, 4)]),
    ("gf4t2-n4", 2, 2, 2, 4, ("shrink-k",),
     [(2, 2), (2, 2), (4, 0), (4, 4), (6, 2), (6, 2)]),
    ("gf5-n3", 5, 1, 1, 3, ("shrink-k", "extend-n"),
     [(1, 1), (1, 1), (2, 0), (2, 0), (2, 2), (3, 1)]),
    ("gf5-n4", 5, 1, 1, 4, ("shrink-k",),
     [(1, 1), (2, 0), (3, 1), (4, 0)]),
]
# GF(4) = F_2[x]/(x^2 + x + 1); a prime field needs no modulus
_MODULUS = {1: [0, 1], 2: [1, 1, 1]}
_MAX_DRAWS = 500

# repository files analyzed and transformed, with their known parameters
DATA_FILES = {
    "five_qubit.json": ({"n": 5, "K": 2, "R": 1, "d": 3},
                        ("shrink-k", "extend-n")),
    "bacon_shor.json": ({"n": 9, "K": 2, "R": 16, "d": 3, "swt_c": 2},
                        ("extend-n",)),
}


def _family_draw() -> List[dict]:
    rng = random.Random(FAMILY_DRAW_SEED)
    ops = []
    for family in ("v", "vi"):
        for q, count in FAMILY_PER_STRATUM.items():
            members = oracle.family_members(family, q, FAMILY_RS)
            for delta, r in rng.sample(members, count):
                ops.append({"kind": "family", "family": family, "q": q,
                            "delta": delta, "r": r})
    return ops


def _eligible(rule: str, o: dict, t: int) -> bool:
    """The precondition of ``rule`` on a code with oracle values ``o``."""
    pure = o["swt_c"] >= o["d"]
    if rule == "analyze":                 # K = 1 codes must be pure
        return o["k_exp"] > 0 or pure
    if rule == "shrink-k":
        return o["k_exp"] > t or (o["k_exp"] == t and pure)
    if rule == "extend-n":
        return o["k_exp"] > 0
    raise ValueError(rule)


def _small_inputs(seed: int, workdir: str, root: str) -> List[dict]:
    inputs = []
    for ci, (label, p, m, t, n, rules, shapes) in enumerate(SMALL_CLASSES):
        rng = np.random.default_rng([seed, ci])
        for si, shape in enumerate(shapes):
            for _ in range(_MAX_DRAWS):
                gens = rng.integers(0, p ** m, size=(shape[0] // t, 2 * n))
                if not gens.any():
                    continue
                o = oracle.brute_force(p, _MODULUS[m], n, gens.tolist(), t)
                if ((o["log_p_C"], o["log_p_D"]) == shape and all(
                        _eligible(rule, o, t) for rule in ("analyze",) + rules)):
                    break
            else:
                raise RuntimeError(f"{label}: no eligible code of shape {shape}")
            inputs.append({"label": label, "p": p, "m": m, "t": t, "n": n,
                           "generators": gens.tolist(), "rules": list(rules),
                           "path": os.path.join(workdir, f"{label}-{si}.json"),
                           "oracle": o})
    for name, (known, rules) in DATA_FILES.items():
        path = os.path.join(root, "data", name)
        with open(path) as fh:
            data = json.load(fh)
        o = oracle.brute_force_file(data)
        for key, val in known.items():
            if o[key] != val:
                raise AssertionError(f"oracle gives {key}={o[key]} for {name}, "
                                     f"expected {val}")
        inputs.append({"label": name, "p": data["p"], "m": data.get("m", 1),
                       "t": data.get("coeff_degree", 1), "n": data["n"],
                       "path": path, "rules": list(rules), "oracle": o})
    return inputs


def make_plan(workload: str, seed: int, seconds: float, trace: bool,
              workdir: str, root: str) -> dict:
    plan = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}
    if workload == "catalog":
        plan["fields"] = sorted(oracle.PAPER_CATALOG)
        ops = [{"kind": "table", "q": q} for q in oracle.PAPER_CATALOG]
    elif workload == "families":
        plan["fields"] = sorted(FAMILY_PER_STRATUM)
        ops = _family_draw()
    elif workload == "small-codes":
        inputs = _small_inputs(seed, workdir, root)
        plan["inputs"] = inputs
        plan["fields"] = sorted({(i["p"], i["m"]) for i in inputs})
        ops = []
        for idx, inp in enumerate(inputs):
            ops.append({"kind": "cli", "input": idx, "rule": "analyze",
                        "args": ["analyze", inp["path"]]})
            for rule in inp["rules"]:
                ops.append({"kind": "cli", "input": idx, "rule": rule,
                            "args": ["transform", inp["path"], "--rule", rule]})
        random.Random(seed).shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["ops"] = ops
    return plan


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def certified_claims(summary) -> int:
    """Claims with a proof: tags ``verified*`` and ``exhaustive`` methods."""
    if isinstance(summary, list):
        return sum(certified_claims(s) for s in summary)
    if not isinstance(summary, dict):
        return 0
    count = 0
    for key, val in summary.items():
        if key == "verification" and isinstance(val, dict):
            count += sum(str(v).startswith("verified") for v in val.values())
        elif key in ("method", "d_method", "swt_c_method"):
            count += val == "exhaustive"
        else:
            count += certified_claims(val)
    return count


def _check_params(where: str, got: Dict, n: int, k: int, r: int, d: int,
                  errors: List[str]) -> None:
    m = got["m"]
    if (got["n"], got["k_exp"], got["r_exp"], got["d"]) != (n, k * m, r * m, d):
        errors.append(f"{where}: got n={got['n']} k_exp={got['k_exp']} "
                      f"r_exp={got['r_exp']} d={got['d']}, paper "
                      f"[[{n},{k},{r},{d}]] with m={m}")
    if got["k_exp"] + got["r_exp"] != m * (got["n"] - 2 * got["d"] + 2):
        errors.append(f"{where}: k + r != n - 2d + 2")


def _check_table(op: dict, rows, errors: List[str]) -> None:
    q = op["q"]
    paper = oracle.PAPER_CATALOG[q]
    if [tuple(r["subsystem"]) for r in rows] != paper:
        errors.append(f"q={q}: rows {[r['subsystem'] for r in rows]} "
                      f"differ from the paper's {paper}")
        return
    for row, (n, k, r, d) in zip(rows, paper):
        where = f"catalog [[{n},{k},{r},{d}]]_{q}"
        if not oracle.singleton_tight(n, k, r, d):
            errors.append(f"{where}: paper row is not Singleton-tight")
        _check_params(where, row, n, k, r, d, errors)
        if q == 3 and row["d_method"] in (None, "analytic", "witness"):
            errors.append(f"{where}: distance was not computed "
                          f"({row['d_method']})")


def _check_family(op: dict, got: dict, errors: List[str]) -> None:
    n, k, r, d = oracle.family_params(op["family"], op["q"], op["delta"],
                                      op["r"])
    where = f"family {op['family']} q={op['q']} delta={op['delta']} r={op['r']}"
    if not oracle.singleton_tight(n, k, r, d):
        errors.append(f"{where}: formula is not Singleton-tight")
    if got["kind"] == "params":
        if (got["n"], got["k"], got["r"], got["d"]) != (n, str(k), str(r), d):
            errors.append(f"{where}: got {got}, paper [[{n},{k},{r},{d}]]")
    else:
        _check_params(where, got, n, k, r, d, errors)


def _check_cli(op: dict, inp: dict, report: dict, errors: List[str]) -> None:
    o, t = inp["oracle"], inp["t"]
    where = f"{op['rule']} {os.path.basename(inp['path'])}"
    if op["rule"] == "analyze":
        params, purity = report["params"], report["purity"]
        want = {"n": o["n"], "K": o["K"], "R": o["R"], "d": o["d"]}
        got = {key: params[key] for key in want}
        if got != want or purity["swt_C"] != o["swt_c"]:
            errors.append(f"{where}: got {got} swt(C)={purity['swt_C']}, "
                          f"oracle {want} swt(C)={o['swt_c']}")
        kind = "pure" if o["swt_c"] >= o["d"] else "impure"
        if purity["kind"] != kind:
            errors.append(f"{where}: purity {purity['kind']}, oracle {kind}")
        return
    out = report["output"]
    params = out["params"]
    if op["rule"] == "shrink-k":
        pt = inp["p"] ** t
        want = (o["n"], o["K"] // pt, o["R"] * pt)
        level = o["d"] if o["swt_c"] >= o["d"] else o["swt_c"]
        if out["purity"]["swt_C"] < min(o["d"], level):
            errors.append(f"{where}: output not pure to {min(o['d'], level)}")
    else:
        want = (o["n"] + 1, o["K"], o["R"])
    got = (params["n"], params["K"], params["R"])
    if got != want:
        errors.append(f"{where}: output (n, K, R) = {got}, rule gives {want}")
    if params["d"] is None or params["d"] < o["d"]:
        errors.append(f"{where}: output d = {params['d']} < input d = {o['d']}")


def check(plan: dict, summaries: list) -> List[str]:
    """Every mismatch between the outputs and the paper or the oracle."""
    errors: List[str] = []
    for op, got in zip(plan["ops"], summaries):
        if got is None:
            continue                      # a failed operation, counted apart
        if op["kind"] == "table":
            _check_table(op, got, errors)
        elif op["kind"] == "family":
            _check_family(op, got, errors)
        else:
            _check_cli(op, plan["inputs"][op["input"]], got, errors)
    return errors
