"""Reed-Solomon style evaluation codes over F_{q^2}.

An evaluation code is spanned by rows (pt^u)_{pt in points} for a
consecutive run of monomial exponents u = a, .., a+kappa-1.  On distinct
points it is a generalized Reed-Solomon code, MDS with parameters
[n, kappa, n-kappa+1] (MacWilliams & Sloane, ch. 11): a codeword
(pt^a g(pt)) with deg g <= kappa-1 vanishes on at most kappa-1 points,
provided every multiplier pt^a is nonzero, that is a = 0 whenever 0 is a
point.  :func:`grs_distance` checks these conditions on the points and
exponents a code is built from.

The Hermitian self-orthogonal members used by the MDS subsystem families
evaluate x^1..x^delta on the nonzero elements of F_q or F_{q^2} (lengths
q-1, q^2-1) or x^0..x^delta on the whole field (lengths q, q^2; these are
the parity extensions of the corresponding punctured codes).  Points are
taken in generator-power order from the exp table, every row comes from
one array power (``FieldSpec.pow_arr``), and the families expand these
rows as they are: no code over F_{q^2} is built.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .codes import ClassicalCode, _hermitian_gram
from .gf import FieldSpec, TowerSpec

__all__ = ["evaluation_code", "grs_distance", "hermitian_self_orthogonal_rs",
           "mds_min_weight_codeword"]


def evaluation_code(field: FieldSpec, points: Sequence[int],
                    exponents: Sequence[int]) -> ClassicalCode:
    """Code spanned by the rows (pt^u for pt in points), one per exponent."""
    points = np.asarray(points, dtype=np.int64)
    exponents = np.asarray(exponents, dtype=np.int64)
    if len(set(points.tolist())) != len(points):
        raise ValueError("evaluation points must be distinct")
    code = ClassicalCode(len(points), field,
                         field.pow_arr(points, exponents[:, None]))
    if code.rank != len(exponents):
        raise ValueError("evaluation map is not injective for these exponents")
    return code


def grs_distance(points: Sequence[int], exponents: Sequence[int]) -> int:
    """n - kappa + 1, the distance of :func:`evaluation_code` (points,
    exponents), proved from its construction with no search.

    The exponents must be a run a, a+1, .., a+kappa-1 with a >= 0 and
    kappa >= 1, the points distinct with kappa <= n, and a = 0 whenever 0
    is a point.  Raises AssertionError naming the first condition that
    fails.
    """
    points = [int(pt) for pt in points]
    exponents = [int(e) for e in exponents]
    n, kappa = len(points), len(exponents)
    a = exponents[0] if exponents else 0
    if not exponents or a < 0 or exponents != list(range(a, a + kappa)):
        raise AssertionError("the exponents are not a run a, a+1, .. with "
                             "a >= 0")
    if len(set(points)) != n:
        raise AssertionError("the evaluation points are not distinct")
    if kappa > n:
        raise AssertionError(f"kappa = {kappa} exceeds the length n = {n}")
    if a > 0 and 0 in points:
        raise AssertionError(f"the multiplier 0^{a} of the point 0 vanishes")
    return n - kappa + 1


def _field_points(field: FieldSpec, include_zero: bool,
                  step: int = 1) -> np.ndarray:
    """g^0, g^step, g^(2 step), ... below g^(q-1) for the generator g, then
    0 if asked: a slice of the exp table."""
    pts = field._exp[:field.q - 1:step]
    return np.append(pts, 0) if include_zero else pts


def hermitian_self_orthogonal_rs(tower: TowerSpec, length: int,
                                 delta: int) -> np.ndarray:
    """The evaluation rows over F_{q^2} behind a given family length.

    length must be one of q-1, q, q^2-1, q^2 for q = tower.base.q.  The
    points are the nonzero elements of F_q (length <= q) or of F_{q^2},
    with 0 added for lengths q and q^2, and the exponents 1..delta (none
    for delta = 0) or, with 0, 0..delta.  :func:`grs_distance` proves the
    rows independent; their Hermitian Gram matrix is zero.
    """
    q = tower.base.q
    if length not in (q - 1, q, q * q - 1, q * q):
        raise ValueError(f"unsupported length {length} for q = {q}")
    with_zero = length in (q, q * q)
    # F_q* in F_{q^2} is generated by g^(q+1)
    pts = _field_points(tower.top, with_zero, q + 1 if length <= q else 1)
    exps = np.arange(1 - with_zero, delta + 1)
    if len(exps):
        grs_distance(pts, exps)
    rows = tower.top.pow_arr(pts, exps[:, None])
    if _hermitian_gram(tower.top, rows).any():
        raise AssertionError(
            f"constructed code of length {length}, delta {delta} is not "
            "Hermitian self-orthogonal")
    return rows


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
