"""Reproduction of the catalog of optimal pure MDS subsystem codes.

Each row pairs a subsystem code [[n,k,r,d]]_q with the classical parent
code [n,kappa,dist]_{q^2} it is derived from.  The parent is an
evaluation (Reed-Solomon) code: a run of kappa consecutive monomials
evaluated on the nonzero field elements (plain rows), on the whole field
(extended rows, one extra evaluation point), or punctured by one
coordinate (starred rows).  The gauge code is the symplectic expansion
of the parent; with iota = dim(Y intersect Y^perp_h) the derived
parameters are k = n - kappa - iota and r = kappa - iota, d = iota + 1.
The monomial run offset is searched so that iota matches the row; the
chosen instantiation is recorded, since several offsets can work.  Each
tried offset derives the expansion of Y once (:func:`derive` in "skip"
mode): its radical D, read off the Gram matrix of the generators, is the
expansion of Y intersect Y^perp_h, so the offset fits when dim D = 2 iota.
That derived code is the row's code; no radical is computed twice.

Verification per row:
* parent distance: Y is built from the points and the exponent run that
  :func:`subsystem_codes.rs.grs_distance` checks, so Y is a generalized
  Reed-Solomon code and its distance is n - kappa + 1 with no search
  (``verified_algebraic``, for every q and independent of the threshold).
  A punctured row evaluates on the points minus the last one, which gives
  the punctured code, since the reduced basis is unique.
* radical self-orthogonality: D pairs to zero with itself.
* dimensions, d and purity by :func:`subsystem_codes.rules.certify_mds`.
  For q = 3, swt(C) by enumeration, and d and purity by a complete search
  of the radical's C(n, d-1) coordinate sets and zero Singleton slack (no
  scan of D^perp_s, 3^14 elements).  For q in {4, 5, 7} D^perp_s is beyond
  the threshold (e.g. 4^26 elements), so the Singleton bound gives
  d <= iota + 1 (method ``witness``) and purity is asserted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from . import rs
from .codes import ClassicalCode, _pairings
from .gf import TowerSpec
from .rules import (ALGEBRAIC, VERIFIED, _tower_for_q, certify_mds,
                    hermitian_to_symplectic)
from .subsystem import DEFAULT_POLICY, Policy, SubsystemCode, derive

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
    """One reproduced row: codes, chosen instantiation, verification."""

    q: int
    subsystem: Tuple[int, int, int, int]
    parent: Tuple[int, int, int]
    mark: str                        # "" | "extended" | "punctured"
    offset: int                      # first monomial exponent of the run
    code: Optional[SubsystemCode] = None
    verification: Dict[str, str] = dc_field(default_factory=dict)

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
            "offset": self.offset,
            "verification": dict(self.verification),
        }


def _parent_code(tower: TowerSpec, parent: Tuple[int, int, int], mark: str,
                 offset: int) -> Tuple[ClassicalCode, int]:
    """The evaluation code for one row at a given monomial-run offset, with
    the distance its points and exponents prove (:func:`rs.grs_distance`)."""
    kappa = parent[1]
    pts = rs._field_points(tower.top, mark == "extended")
    if mark == "punctured":
        pts = pts[:-1]
    exps = range(offset, offset + kappa)
    return (rs.evaluation_code(tower.top, pts, exps),
            rs.grs_distance(pts, exps))


def _find_offset(tower: TowerSpec, parent: Tuple[int, int, int], mark: str,
                 iota: int) -> Tuple[int, ClassicalCode, int, SubsystemCode]:
    """Smallest monomial-run offset giving the required radical dimension,
    with the parent Y, its proved distance and the derived code of its
    expansion, whose radical D has dimension 2 iota over F_q."""
    # extended rows evaluate the fixed run x^0 .. x^(kappa-1)
    offsets = [0] if mark == "extended" else range(tower.base.q**2 - 1)
    for offset in offsets:
        Y, dist = _parent_code(tower, parent, mark, offset)
        C = hermitian_to_symplectic(Y, require_self_orthogonal=False)
        code = derive(C, Policy("skip"))
        if code.D.rank == 2 * iota:
            return offset, Y, dist, code
    raise RuntimeError("no monomial run reproduces this row")


def _verify_parent(Y: ClassicalCode, dist: int,
                   parent: Tuple[int, int, int]) -> str:
    """Tag of the parent distance ``dist`` that Y's construction proves."""
    n, kappa, recorded = parent
    if (Y.n, Y.rank) != (n, kappa):
        raise AssertionError("parent dimensions do not match the row")
    if dist != recorded:
        raise AssertionError("parent distance does not match the row")
    return ALGEBRAIC


def generate_table(q: int,
                   policy: Policy = DEFAULT_POLICY) -> List[Table1Row]:
    """Rebuild and verify all catalog rows for one field size."""
    if q not in _ROWS:
        raise ValueError(f"no catalog rows for q = {q}; "
                         f"available: {sorted(_ROWS)}")
    tower = _tower_for_q(q)
    out = []
    for subsystem, parent, mark in _ROWS[q]:
        n, k, r, d = subsystem
        iota = parent[1] - r
        if (k, d) != (n - parent[1] - iota, iota + 1):
            raise AssertionError("row bookkeeping is inconsistent")
        offset, Y, dist, code = _find_offset(tower, parent, mark, iota)
        row = Table1Row(q, subsystem, parent, mark, offset)

        row.verification["parent_distance"] = _verify_parent(Y, dist, parent)

        D = code.D
        if _pairings(D.mat, D.mat, D.n, D.field, D.t).any():
            raise AssertionError("the radical is not self-orthogonal")
        row.verification["radical_self_orthogonal"] = VERIFIED

        d_tag, pure_tag = certify_mds(code, d, policy)
        m = tower.base.m
        if (code.k_exp, code.r_exp) != (k * m, r * m):
            raise AssertionError("subsystem dimensions do not match the row")
        row.verification["dimensions"] = VERIFIED
        row.verification["distance"] = d_tag
        row.verification["pure"] = pure_tag
        # certify_mds refuses a code with Singleton slack
        row.verification["mds_slack_zero"] = VERIFIED
        row.code = code
        out.append(row)
    return out


def rows_to_csv(rows: List[Table1Row]) -> str:
    """CSV mirroring the catalog columns plus a verification summary."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["subsystem", "parent", "mark", "offset", "verification"])
    for row in rows:
        summary = ";".join(f"{k}={v}" for k, v in row.verification.items())
        w.writerow([row.subsystem_bracket(), row.parent_bracket(),
                    row.mark, row.offset, summary])
    return buf.getvalue()


def rows_to_json(rows: List[Table1Row]) -> List[dict]:
    return [row.to_json() for row in rows]
