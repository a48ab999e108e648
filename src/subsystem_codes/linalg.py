"""Row reduction, rank, null spaces and linear solves over a FieldSpec.

Matrices are 2-D ``numpy.int64`` arrays of integer-encoded field elements.
Sizes here are small (at most a few hundred rows/columns), so clarity wins
over asymptotics; the hot enumeration loops live in ``_enum``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .gf import FieldSpec

__all__ = ["rref", "rank", "nullspace", "row_space_contains", "solve", "matmul"]


def _as_matrix(mat, ncols: Optional[int] = None) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, ncols or 0)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return a


def rref(mat, field: FieldSpec) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form.

    Returns the RREF with zero rows dropped, plus the pivot column list.
    """
    a = _as_matrix(mat).copy()
    rows, cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = field.mul_arr(a[r], field.inv(int(a[r, c])))
        for i in range(rows):
            if i != r and a[i, c] != 0:
                factor = field.neg(int(a[i, c]))
                a[i] = field.add_arr(a[i], field.mul_arr(a[r], factor))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def rank(mat, field: FieldSpec) -> int:
    return rref(mat, field)[0].shape[0]


def nullspace(mat, field: FieldSpec) -> np.ndarray:
    """Canonical basis of {v : mat @ v = 0}, one vector per row."""
    a = _as_matrix(mat)
    rows, cols = a.shape
    r, pivots = rref(a, field)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = field.neg(int(r[j, fc]))
    return basis


def row_space_contains(rref_mat: np.ndarray, pivots: List[int], v,
                       field: FieldSpec) -> Optional[np.ndarray]:
    """Coefficients x with x @ rref_mat == v, or None if v is outside.

    ``rref_mat``/``pivots`` must come from :func:`rref`.
    """
    v = np.asarray(v, dtype=np.int64).copy()
    coeffs = np.zeros(rref_mat.shape[0], dtype=np.int64)
    for j, pc in enumerate(pivots):
        c = int(v[pc])
        if c != 0:
            coeffs[j] = c
            v = field.add_arr(v, field.mul_arr(rref_mat[j], field.neg(c)))
    if np.any(v != 0):
        return None
    return coeffs


def solve(a, b, field: FieldSpec) -> Optional[np.ndarray]:
    """One solution x of a @ x = b (free variables set to zero), or None."""
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch")
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = rref(aug, field)
    x = np.zeros(a.shape[1], dtype=np.int64)
    for j, pc in enumerate(pivots):
        if pc == a.shape[1]:
            return None  # inconsistent system
        x[pc] = r[j, a.shape[1]]
    return x


def matmul(a, b, field: FieldSpec) -> np.ndarray:
    """Matrix product over the field."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if field.m == 1:
        return (a @ b) % field.p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        col = a[:, k]
        if not col.any():
            continue
        out = field.add_arr(out, field.mul_arr(col.reshape(-1, 1), b[k]))
    return out
