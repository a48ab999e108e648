"""Reproduction of the catalog of optimal pure MDS subsystem codes.

Each row pairs a subsystem code [[n,k,r,d]]_q with the classical parent
code [n,kappa,dist]_{q^2} it is derived from.  The parent is an
evaluation (Reed-Solomon) code: a run of kappa consecutive monomials
evaluated on the nonzero field elements (plain rows), on the whole field
(extended rows, one extra evaluation point), or punctured by one
coordinate (starred rows).  The gauge code is the symplectic expansion
of the parent; with iota = dim(Y intersect Y^perp_h) the derived
parameters are k = n - kappa - iota and r = kappa - iota, d = iota + 1.
Every row evaluates the run x^0 .. x^(kappa-1) (reported as offset 0).
No Y is built: the gauge code is expanded from the kappa evaluation rows,
its rank 2 kappa checks dim Y = kappa, and it is derived once, in "skip"
mode, with the row's (log_p K, log_p R) required; its radical D, read off
the Gram matrix of the generators, is the expansion of Y intersect
Y^perp_h, and the derived code is the row's code.

Verification per row:
* parent distance: Y evaluates the exponent run on the points that
  :func:`subsystem_codes.rs.grs_distance` checks, so Y is a generalized
  Reed-Solomon code and its distance is n - kappa + 1 with no search
  (``verified_algebraic``, for every q and independent of the threshold).
  A punctured row evaluates on all points but the last: the punctured code.
* radical self-orthogonality: D pairs to zero with itself.
* dimensions by the derivation, d and purity by
  :func:`subsystem_codes.rules.certify_mds`.
  For q = 3, d and swt(C) by the exact engine of ``derive``: one scan of
  C, D's rows first, and the MacWilliams transform of A(D) (no scan of
  D^perp_s, 3^14 elements).  For q in {4, 5, 7} D^perp_s is beyond the
  threshold (e.g. 4^26 elements), so the Singleton bound gives
  d <= iota + 1 (method ``witness``) and purity is asserted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import rs
from .codes import AdditiveCode, _pairings
from .gf import TowerSpec
from .rules import (ALGEBRAIC, VERIFIED, _derive_checked, _expand,
                    _tower_for_q, certify_mds)
from .subsystem import DEFAULT_POLICY, Policy, SubsystemCode

__all__ = ["Table1Row", "generate_table", "rows_to_csv", "rows_to_json"]

# (subsystem n,k,r,d), (parent n,kappa,dist), modification mark
_ROWS: Dict[int, List[Tuple[Tuple[int, int, int, int],
                            Tuple[int, int, int], str]]] = {
    3: [((8, 1, 5, 2), (8, 6, 3), ""),
        ((8, 4, 2, 2), (8, 3, 6), ""),
        ((8, 5, 1, 2), (8, 2, 7), ""),
        ((9, 1, 4, 3), (9, 6, 4), "extended"),
        ((9, 4, 1, 3), (9, 3, 7), "extended")],
    4: [((15, 1, 10, 3), (15, 12, 4), ""),
        ((15, 9, 2, 3), (15, 4, 12), ""),
        ((15, 10, 1, 3), (15, 3, 13), ""),
        ((16, 1, 9, 4), (16, 12, 5), "extended")],
    5: [((24, 1, 17, 4), (24, 20, 5), ""),
        ((24, 16, 2, 4), (24, 5, 20), ""),
        ((24, 17, 1, 4), (24, 4, 21), ""),
        ((24, 19, 1, 3), (24, 3, 22), ""),
        ((24, 21, 1, 2), (24, 2, 23), ""),
        ((23, 1, 18, 3), (23, 20, 4), "punctured"),
        ((23, 16, 3, 3), (23, 5, 19), "punctured")],
    7: [((48, 1, 37, 6), (48, 42, 7), "")],
}


@dataclass
class Table1Row:
    """One reproduced row: codes and verification."""

    q: int
    subsystem: Tuple[int, int, int, int]
    parent: Tuple[int, int, int]
    mark: str                        # "" | "extended" | "punctured"
    code: SubsystemCode
    verification: Dict[str, str]

    def subsystem_bracket(self) -> str:
        n, k, r, d = self.subsystem
        return f"[[{n},{k},{r},{d}]]_{self.q}"

    def parent_bracket(self) -> str:
        n, kappa, dist = self.parent
        return f"[{n},{kappa},{dist}]_{self.q}^2"

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "subsystem": self.subsystem_bracket(),
            "parent": self.parent_bracket(),
            "mark": self.mark,
            "offset": 0,             # the run starts at x^0 on every row
            "verification": dict(self.verification),
        }


def _parent_code(tower: TowerSpec, parent: Tuple[int, int, int],
                 mark: str) -> AdditiveCode:
    """The symplectic expansion of one row's parent Y, the evaluation code
    of x^0 .. x^(kappa-1): :func:`rs.grs_distance` proves its distance and
    the expansion's rank 2 kappa its dimension."""
    pts = rs._field_points(tower.top, mark == "extended")
    if mark == "punctured":
        pts = pts[:-1]
    exps = np.arange(parent[1])
    if (len(pts), parent[1], rs.grs_distance(pts, exps)) != parent:
        raise AssertionError(f"the parent is not the row's {parent}")
    return _expand(tower, tower.top.pow_arr(pts, exps[:, None]))


def generate_table(q: int,
                   policy: Policy = DEFAULT_POLICY) -> List[Table1Row]:
    """Rebuild and verify all catalog rows for one field size."""
    if q not in _ROWS:
        raise ValueError(f"no catalog rows for q = {q}; "
                         f"available: {sorted(_ROWS)}")
    tower = _tower_for_q(q)
    m = tower.base.m
    out = []
    for subsystem, parent, mark in _ROWS[q]:
        # _derive_checked checks k and r, certify_mds's zero slack checks d
        _, k, r, d = subsystem
        res = _derive_checked("generate_table",
                              _parent_code(tower, parent, mark), k * m, r * m,
                              ("dimensions",), Policy("skip"))
        D = res.output.D
        if _pairings(D.mat, D.mat, D.n, D.field, D.t).any():
            raise AssertionError("the radical is not self-orthogonal")
        certify_mds(res, d, "distance", policy)
        out.append(Table1Row(q, subsystem, parent, mark, res.output, {
            "parent_distance": ALGEBRAIC, "radical_self_orthogonal": VERIFIED,
            **res.verification, "mds_slack_zero": VERIFIED}))
    return out


def rows_to_csv(rows: List[Table1Row]) -> str:
    """CSV mirroring the catalog columns plus a verification summary."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["subsystem", "parent", "mark", "offset", "verification"])
    for row in rows:
        summary = ";".join(f"{k}={v}" for k, v in row.verification.items())
        w.writerow([row.subsystem_bracket(), row.parent_bracket(),
                    row.mark, 0, summary])
    return buf.getvalue()


def rows_to_json(rows: List[Table1Row]) -> List[dict]:
    return [row.to_json() for row in rows]
