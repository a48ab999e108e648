"""Reed-Solomon style evaluation codes over F_{q^2}.

An evaluation code is spanned by rows (pt^u)_{pt in points} for a
consecutive run of monomial exponents u.  With a run of size kappa the
code is MDS with parameters [n, kappa, n-kappa+1]: a codeword x^a * g(x)
with deg g <= kappa-1 has at most kappa-1 zeros among nonzero evaluation
points.

The Hermitian self-orthogonal members used by the MDS subsystem families
evaluate x^1..x^delta on the nonzero field elements (lengths q-1, q^2-1)
or x^0..x^delta on the full field (lengths q, q^2; these are the parity
extensions of the corresponding punctured codes).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import linalg
from .codes import ClassicalCode
from .gf import FieldSpec, TowerSpec

__all__ = ["evaluation_code", "hermitian_self_orthogonal_rs",
           "mds_min_weight_codeword"]


def evaluation_code(field: FieldSpec, points: Sequence[int],
                    exponents: Sequence[int]) -> ClassicalCode:
    """Code spanned by the rows (pt^u for pt in points), one per exponent."""
    points = [int(p) for p in points]
    if len(set(points)) != len(points):
        raise ValueError("evaluation points must be distinct")
    rows = [[field.pow(pt, u) for pt in points] for u in exponents]
    code = ClassicalCode(len(points), field, rows)
    if code.rank != len(list(exponents)):
        raise ValueError("evaluation map is not injective for these exponents")
    return code


def _field_points(field: FieldSpec, include_zero: bool) -> List[int]:
    """All (nonzero) field elements in generator-power order, deterministic."""
    pts = [1]
    g = field.generator
    cur = 1
    for _ in range(field.q - 2):
        cur = field.mul(cur, g)
        pts.append(cur)
    if include_zero:
        pts.append(0)
    return pts


def hermitian_self_orthogonal_rs(tower: TowerSpec, length: int,
                                 delta: int) -> ClassicalCode:
    """The self-orthogonal evaluation code behind a given family length.

    length must be one of q-1, q, q^2-1, q^2 for q = tower.base.q.  The
    result has dimension delta (lengths q-1, q^2-1; exponents 1..delta) or
    delta+1 (lengths q, q^2; exponents 0..delta, points include zero).
    For delta = 0 the zero code is returned for the shorter lengths.
    """
    q = tower.base.q
    top = tower.top
    if length == q - 1:
        pts = [tower.embed(x) for x in _field_points(tower.base, False)]
        exps = range(1, delta + 1)
    elif length == q:
        pts = [tower.embed(x) for x in _field_points(tower.base, True)]
        exps = range(0, delta + 1)
    elif length == q * q - 1:
        pts = _field_points(top, False)
        exps = range(1, delta + 1)
    elif length == q * q:
        pts = _field_points(top, True)
        exps = range(0, delta + 1)
    else:
        raise ValueError(f"unsupported length {length} for q = {q}")
    code = evaluation_code(top, pts, exps)
    if not code.is_hermitian_self_orthogonal():
        raise AssertionError(
            f"constructed code of length {length}, delta {delta} is not "
            "Hermitian self-orthogonal")
    return code


def mds_min_weight_codeword(
        code: ClassicalCode,
        accept: Optional[Callable[[np.ndarray], bool]] = None) -> np.ndarray:
    """The first codeword of weight n - k + 1 that ``accept`` takes.

    Solves for codewords vanishing on k-1 cyclically consecutive
    coordinates; for an MDS code the solution space is one-dimensional
    and its nonzero codewords have weight exactly n - k + 1.  Every kernel
    vector of each window is tried in turn.  Raises RuntimeError when no
    window yields an accepted codeword of that weight.
    """
    n, k = code.n, code.rank
    if k == 0:
        raise ValueError("zero code has no nonzero codeword")
    target = n - k + 1
    for start in range(n):
        coords = [(start + i) % n for i in range(k - 1)]
        ker = linalg.nullspace(code.mat[:, coords].T, code.field)
        for x in ker:
            cw = linalg.matmul(x.reshape(1, -1), code.mat, code.field)[0]
            if int((cw != 0).sum()) == target and (accept is None
                                                    or accept(cw)):
                return cw
    raise RuntimeError("no minimum-weight codeword found; code may not be MDS")
