"""Row reduction, rank, null spaces and linear solves over a FieldSpec.

Matrices are 2-D ``numpy.int64`` arrays of integer-encoded field elements.
Every function works on whole arrays: ``rref`` clears a pivot column in all
rows with one array step, and ``matmul`` over GF(p^m) is one integer product
mod p on the F_p digits.  One elimination gives ``solve_many`` the solution
for every right-hand side and the kernel, and ``reduced_nullspace`` the
kernel's reduced basis.  The hot enumeration loops live in ``_enum``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .gf import FieldSpec

__all__ = ["rref", "rank", "nullspace", "reduced_nullspace",
           "row_space_contains", "solve_many", "solve", "matmul"]


def _as_matrix(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
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
        if r == rows:
            break
        # entries are >= 0, so the largest is nonzero if any is; the RREF
        # is unique, so which nonzero row becomes the pivot does not matter
        piv = r + int(a[r:, c].argmax())
        if a[piv, c] == 0:
            continue
        if piv != r:
            a[r], a[piv] = a[piv].copy(), a[r].copy()
        # row r is zero left of c, so only the columns from c on change
        tail = a[:, c:]
        if tail[r, 0] != 1:
            tail[r] = field.mul_arr(tail[r], field.inv(int(tail[r, 0])))
        f = tail[:, 0].copy()
        f[r] = 0
        if np.count_nonzero(f):
            if field.m == 1:
                tail -= f[:, None] * tail[r]
                tail %= field.p
            else:
                tail[:] = field.add_arr(
                    tail, field.mul_arr(field.neg_arr(f)[:, None], tail[r]))
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(mat, field: FieldSpec) -> int:
    return rref(mat, field)[0].shape[0]


def nullspace(mat, field: FieldSpec) -> np.ndarray:
    """Canonical basis of {v : mat @ v = 0}, one vector per row."""
    a = _as_matrix(mat)
    return solve_many(a, np.zeros((a.shape[0], 0), dtype=np.int64), field)[1]


def reduced_nullspace(mat, field: FieldSpec) -> Tuple[np.ndarray, List[int]]:
    """Reduced echelon basis of {v : mat @ v = 0} and its pivots in one
    elimination: by matroid duality the :func:`nullspace` basis of the
    reversed columns, with rows and columns reversed, is already reduced."""
    basis = nullspace(_as_matrix(mat)[:, ::-1], field)[::-1, ::-1].copy()
    return basis, (basis != 0).argmax(axis=1).tolist() if basis.size else []


def row_space_contains(rref_mat: np.ndarray, pivots: List[int], v,
                       field: FieldSpec) -> Optional[np.ndarray]:
    """Coefficients x with x @ rref_mat == v, or None if v is outside.

    ``rref_mat``/``pivots`` must come from :func:`rref`: the only candidate
    is x = v[pivots], since the pivot columns hold an identity.
    """
    v = np.asarray(v, dtype=np.int64)
    coeffs = v[pivots]
    if not np.array_equal(matmul(coeffs[None, :], rref_mat, field)[0], v):
        return None
    return coeffs


def solve_many(a, b, field: FieldSpec) -> Optional[tuple]:
    """Solutions of a @ x = b[:, j] with free variables zero, one row per
    column j, and the :func:`nullspace` basis of a, from one elimination
    of [a | b]; None if some column of b is inconsistent."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch")
    cols = a.shape[1]
    r, pivots = rref(np.concatenate([a, b], axis=1), field)
    if pivots and pivots[-1] >= cols:
        return None
    free = [c for c in range(cols) if c not in pivots]
    basis = np.eye(cols, dtype=np.int64)[free]
    basis[:, pivots] = field.neg_arr(r[:, free].T)
    x = np.zeros((b.shape[1], cols), dtype=np.int64)
    x[:, pivots] = r[:, cols:].T
    return x, basis


def solve(a, b, field: FieldSpec) -> Optional[np.ndarray]:
    """One solution x of a @ x = b (free variables set to zero), or None."""
    solved = solve_many(a, np.reshape(b, (-1, 1)), field)
    return None if solved is None else solved[0][0]


def matmul(a, b, field: FieldSpec) -> np.ndarray:
    """Matrix product over the field.

    Over GF(p^m) an entry x of ``a`` acts on the digits of an entry of ``b``
    as the m x m matrix over F_p whose column l is the digits of x alpha^l,
    so the product is one integer product mod p on the digits.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    p, m = field.p, field.m
    if m == 1:
        return (a @ b) % p
    (r, k), c = a.shape, b.shape[1]
    acts = field._dig[field.mul_arr(a[:, :, None], field._pw)]
    lhs = acts.transpose(0, 3, 1, 2).reshape(r * m, k * m)
    rhs = field._dig[b].transpose(0, 2, 1).reshape(k * m, c)
    digits = ((lhs @ rhs) % p).reshape(r, m, c)
    return digits.transpose(0, 2, 1) @ field._pw
