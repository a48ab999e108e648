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
tried offset reads its radical off the kappa x kappa Gram matrix conj(Y) Y^T
(:meth:`ClassicalCode.hermitian_radical`); Y^perp_h is never built.

Verification levels per row (by :func:`subsystem_codes.rules.certify_mds`):
* q = 3: the parent distance and swt(C) by enumeration; d and purity by
  a complete search of the radical's C(n, d-1) coordinate sets and zero
  Singleton slack (no scan of D^perp_s, 3^14 elements).
* q in {4, 5, 7}: parameter bookkeeping, Hermitian self-orthogonality of
  the radical's preimage, MDS dimensions and zero Singleton slack;
  D^perp_s is beyond the threshold (e.g. 4^26 elements), so the Singleton
  bounds give d <= iota + 1 (method ``witness``) and, for a parent beyond
  it too, dist <= n - kappa + 1; purity is asserted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from . import rs
from .codes import ClassicalCode, EnumerationLimitError
from .gf import TowerSpec
from .rules import (VERIFIED, WITNESS, _tower_for_q, certify_mds,
                    hermitian_to_symplectic)
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
                 offset: int) -> ClassicalCode:
    """The evaluation code for one row at a given monomial-run offset."""
    top = tower.base.q ** 2
    n, kappa, _ = parent
    if mark == "extended":
        pts = rs._field_points(tower.top, True)
        return rs.evaluation_code(tower.top, pts, range(kappa))
    pts = rs._field_points(tower.top, False)
    exps = [(offset + i) % (top - 1) for i in range(kappa)]
    code = rs.evaluation_code(tower.top, pts, exps)
    if mark == "punctured":
        code = code.puncture(code.n - 1)
    return code


def _find_offset(tower: TowerSpec, parent: Tuple[int, int, int], mark: str,
                 iota: int) -> Tuple[int, ClassicalCode, ClassicalCode]:
    """Smallest monomial-run offset giving the required radical dimension,
    with the parent Y and its radical Y intersect Y^perp_h."""
    # extended rows evaluate the fixed run x^0 .. x^(kappa-1)
    offsets = [0] if mark == "extended" else range(tower.base.q**2 - 1)
    for offset in offsets:
        Y = _parent_code(tower, parent, mark, offset)
        Ys = Y.hermitian_radical()
        if Ys.rank == iota:
            return offset, Y, Ys
    raise RuntimeError("no monomial run reproduces this row")


def _verify_parent(Y: ClassicalCode, parent: Tuple[int, int, int],
                   policy: Policy) -> str:
    n, kappa, dist = parent
    if (Y.n, Y.rank) != (n, kappa):
        raise AssertionError("parent dimensions do not match the row")
    if dist != n - kappa + 1:
        raise AssertionError("parent is not MDS in the recorded row")
    try:
        if Y.min_wt(threshold=policy.threshold) != dist:
            raise AssertionError("parent distance mismatch")
        return VERIFIED
    except EnumerationLimitError:
        # the classical Singleton bound: dist <= n - kappa + 1
        return WITNESS


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
        offset, Y, Ys = _find_offset(tower, parent, mark, iota)
        row = Table1Row(q, subsystem, parent, mark, offset)

        row.verification["parent_distance"] = _verify_parent(Y, parent, policy)

        if not Ys.is_hermitian_self_orthogonal():
            raise AssertionError("radical preimage is not self-orthogonal")
        row.verification["radical_self_orthogonal"] = VERIFIED

        C = hermitian_to_symplectic(Y, require_self_orthogonal=False)
        code, d_tag, pure_tag = certify_mds(C, d, policy)
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
