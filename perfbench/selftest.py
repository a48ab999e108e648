"""Self-test of the benchmark's own oracle and reference data.

    python3 perfbench/selftest.py

Never imports the library.  Checks that the brute-force oracle gives
((5,2,1,3))_2 for the five-qubit code and ((9,2,16,3))_2 with swt(C) = 2
for the Bacon-Shor code (both read from ``data/``), that an F_4-linear
code gives the same parameters whether it is described over F_4 or by
its F_2 generators, and that every catalog row and family formula
meets the Singleton bound with equality.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent


def _expect(name: str, got: dict, want: dict) -> None:
    bad = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    if bad:
        raise AssertionError(f"{name}: (got, expected) {bad}")
    print(f"ok  {name}: " + ", ".join(f"{k}={got[k]}" for k in want))


def main() -> int:
    try:
        for name, want in (
                ("five_qubit.json", {"n": 5, "K": 2, "R": 1, "d": 3}),
                ("bacon_shor.json", {"n": 9, "K": 2, "R": 16, "d": 3,
                                     "swt_c": 2})):
            with open(ROOT / "data" / name) as fh:
                got = oracle.brute_force_file(json.load(fh))
            _expect(name, got, want)

        # an F_4-linear code: generators over F_4, and the same code as
        # the F_2 span of g and x*g (x encoded as 2, x*1 = 2, x*2 = 3, x*3 = 1)
        g = [1, 2, 0, 3, 0, 1]
        x_times = {0: 0, 1: 2, 2: 3, 3: 1}
        linear = oracle.brute_force(2, [1, 1, 1], 3, [g], coeff_degree=2)
        additive = oracle.brute_force(2, [1, 1, 1], 3,
                                      [g, [x_times[v] for v in g]])
        _expect("F_4-linear code over F_4 and over F_2", additive,
                {k: linear[k] for k in ("K", "R", "d", "swt_c")})

        for q, rows in oracle.PAPER_CATALOG.items():
            for row in rows:
                if not oracle.singleton_tight(*row):
                    raise AssertionError(f"catalog row {row}_{q} is not MDS")
        for family in ("v", "vi"):
            for q in (4, 5, 7):
                for delta, r in oracle.family_members(family, q, range(5)):
                    params = oracle.family_params(family, q, delta, r)
                    if not oracle.singleton_tight(*params):
                        raise AssertionError(f"family {family}: {params}")
        print("ok  catalog rows and family formulas are Singleton-tight")
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
