"""Row reduction and solving over small fields."""

import numpy as np
import pytest

from subsystem_codes import linalg
from subsystem_codes.codes import (AdditiveCode, ClassicalCode, _conj,
                                   _pairings, dual_symp)
from subsystem_codes.gf import FieldSpec


@pytest.fixture(params=[(2, 1), (3, 1), (2, 2), (3, 2)])
def field(request):
    return FieldSpec(*request.param)


def test_rref_idempotent_and_rank(field):
    rng = np.random.default_rng(7)
    for _ in range(25):
        mat = rng.integers(0, field.q, size=(4, 6)).astype(np.int64)
        red, piv = linalg.rref(mat, field)
        again, piv2 = linalg.rref(red, field)
        assert np.array_equal(red, again)
        assert piv == piv2
        assert red.shape[0] == len(piv) == linalg.rank(mat, field)
        # pivot columns hold an identity
        for i, c in enumerate(piv):
            col = red[:, c]
            assert col[i] == 1 and (col != 0).sum() == 1


def test_nullspace_annihilates(field):
    rng = np.random.default_rng(8)
    for _ in range(25):
        mat = rng.integers(0, field.q, size=(3, 6)).astype(np.int64)
        ker = linalg.nullspace(mat, field)
        prod = linalg.matmul(mat, ker.T, field)
        assert not prod.any()
        assert ker.shape[0] == 6 - linalg.rank(mat, field)
        assert linalg.rank(ker, field) == ker.shape[0]


def test_solve_and_membership(field):
    rng = np.random.default_rng(9)
    for _ in range(25):
        mat = rng.integers(0, field.q, size=(4, 5)).astype(np.int64)
        x = rng.integers(0, field.q, size=5).astype(np.int64)
        b = linalg.matmul(mat, x.reshape(-1, 1), field)[:, 0]
        sol = linalg.solve(mat, b, field)
        assert sol is not None
        assert np.array_equal(
            linalg.matmul(mat, sol.reshape(-1, 1), field)[:, 0], b)
        red, piv = linalg.rref(mat.T, field)
        # any row-space combination must be recognized as a member
        v = linalg.matmul(x.reshape(1, -1), mat.T, field)[0]
        coeffs = linalg.row_space_contains(red, piv, v, field)
        assert coeffs is not None


def test_solve_infeasible():
    f = FieldSpec(2)
    mat = np.array([[1, 0], [1, 0]], dtype=np.int64)
    assert linalg.solve(mat, np.array([1, 0]), f) is None


def test_matmul_matches_naive():
    f = FieldSpec(2, 2)
    rng = np.random.default_rng(10)
    a = rng.integers(0, 4, size=(3, 4)).astype(np.int64)
    b = rng.integers(0, 4, size=(4, 2)).astype(np.int64)
    got = linalg.matmul(a, b, f)
    for i in range(3):
        for j in range(2):
            acc = 0
            for k in range(4):
                acc = f.add(acc, f.mul(int(a[i, k]), int(b[k, j])))
            assert got[i, j] == acc


# -- an independent scalar oracle -------------------------------------------
#
# Gauss-Jordan elimination one entry at a time with the scalar field.add,
# field.mul and field.inv; -x is (-1)*x, and -1 is the element p - 1.

def _naive_rref(mat, f):
    a = [[int(x) for x in row] for row in mat]
    minus_one = f.p - 1
    pivots, r = [], 0
    for c in range(np.shape(mat)[1]):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = f.inv(a[r][c])
        a[r] = [f.mul(s, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                g = f.mul(minus_one, a[i][c])
                a[i] = [f.add(x, f.mul(g, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _naive_matmul(a, b, f):
    rows, inner = np.shape(a)
    cols = np.shape(b)[1]
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] = f.add(out[i][j], f.mul(int(a[i][k]), int(b[k][j])))
    return out


def _naive_nullspace(mat, f):
    """The basis with one free column set to 1 and the other free ones 0."""
    cols = np.shape(mat)[1]
    red, pivots = _naive_rref(mat, f)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for j, pc in enumerate(pivots):
            v[pc] = f.mul(f.p - 1, red[j][fc])
        basis.append(v)
    return basis


# GF(3^6) adds a field of degree 6 with 729 elements
_ORACLE_FIELDS = [(2, 1), (7, 1), (2, 2), (2, 4), (5, 2), (7, 2), (3, 6)]


def _shapes(f, rng):
    """Matrices of every shape class the oracle test covers."""
    q = f.q
    low = _naive_matmul(rng.integers(0, q, (5, 2)), rng.integers(0, q, (2, 6)), f)
    yield "no rows", np.zeros((0, 5), dtype=np.int64)
    yield "no columns", np.zeros((4, 0), dtype=np.int64)
    yield "empty", np.zeros((0, 0), dtype=np.int64)
    yield "all zeros", np.zeros((3, 5), dtype=np.int64)
    yield "identity", np.eye(4, dtype=np.int64)
    yield "rank deficient", np.array(low, dtype=np.int64)
    yield "repeated row", np.repeat(rng.integers(0, q, (1, 6)), 3, axis=0)
    yield "tall", rng.integers(0, q, (7, 3))
    yield "wide", rng.integers(0, q, (3, 8))
    while True:
        square = rng.integers(0, q, (4, 4))
        if len(_naive_rref(square, f)[1]) == 4:
            yield "full rank", square
            return


@pytest.mark.parametrize("pm", _ORACLE_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_linalg_matches_scalar_oracle(pm):
    f = FieldSpec(*pm)
    rng = np.random.default_rng(sum(pm))
    for label, mat in _shapes(f, rng):
        rows, cols = mat.shape
        red, piv = linalg.rref(mat, f)
        want, want_piv = _naive_rref(mat, f)
        assert red.tolist() == want and piv == want_piv, label
        assert red.shape == (len(piv), cols), label
        assert linalg.rank(mat, f) == len(want_piv), label
        ker = linalg.nullspace(mat, f)
        assert ker.tolist() == _naive_nullspace(mat, f), label
        assert ker.shape == (cols - len(piv), cols), label

        # membership: a combination of the rows is inside, and a vector is
        # inside exactly when appending it keeps the rank
        for v in (_naive_matmul(rng.integers(0, f.q, (1, rows)), mat, f)[0],
                  rng.integers(0, f.q, cols).tolist()):
            coeffs = linalg.row_space_contains(red, piv, v, f)
            inside = len(_naive_rref(want + [v], f)[1]) == len(want_piv)
            assert (coeffs is not None) == inside, label
            if inside:
                assert _naive_matmul([coeffs], red, f)[0] == list(v), label

        # solve: consistent right-hand sides give a solution, and the
        # solution with free variables zero is the oracle's
        for b in (_naive_matmul(mat, rng.integers(0, f.q, (cols, 1)), f),
                  rng.integers(0, f.q, (rows, 1)).tolist()):
            b = [row[0] for row in b]
            aug, aug_piv = _naive_rref(
                [list(r) + [x] for r, x in zip(mat.tolist(), b)]
                if rows else np.zeros((0, cols + 1), dtype=np.int64), f)
            x = linalg.solve(mat, np.array(b, dtype=np.int64), f)
            if cols in aug_piv:
                assert x is None, label
                continue
            want_x = [0] * cols
            for j, pc in enumerate(aug_piv):
                want_x[pc] = aug[j][cols]
            assert x is not None and x.tolist() == want_x, label

        for inner_cols in (0, 1, 5):
            other = rng.integers(0, f.q, (cols, inner_cols))
            got = linalg.matmul(mat, other, f)
            assert got.shape == (rows, inner_cols), label
            assert got.tolist() == _naive_matmul(mat, other, f), label


@pytest.mark.parametrize("pm", _ORACLE_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_reduced_nullspace_matches_scalar_oracle(pm):
    # one elimination gives the reduced basis of the kernel: the oracle
    # reduces the one-free-column basis a second time
    f = FieldSpec(*pm)
    rng = np.random.default_rng(100 + sum(pm))
    for label, mat in _shapes(f, rng):
        basis, piv = linalg.reduced_nullspace(mat, f)
        ker = _naive_nullspace(mat, f)
        want, want_piv = _naive_rref(
            np.array(ker, dtype=np.int64).reshape(len(ker), mat.shape[1]), f)
        assert basis.tolist() == want and piv == want_piv, label
        assert basis.shape == (len(want), mat.shape[1]), label
        assert basis.flags.c_contiguous and basis.dtype == np.int64, label


def _random_additive(rng, f, t):
    n = int(rng.integers(1, 5))
    rows = int(rng.integers(0, 2 * n * f.m // t + 2))
    return AdditiveCode(n, f, rng.integers(0, f.q, (rows, 2 * n)), t)


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 3)])
def test_duals_match_reduced_nullspace_reference(p, m, t):
    # the reference reduces the kernel basis again; the duals build the
    # code straight from the one-elimination basis
    f = FieldSpec(p, m)
    rng = np.random.default_rng(p * 100 + m * 10 + t)
    for _ in range(25):
        code = _random_additive(rng, f, t)
        a = _pairings(code.mat, None, code.n, f, t)
        want = AdditiveCode._from_coeff_matrix(
            code.n, f, t, linalg.nullspace(a, code.coeff_field))
        got = dual_symp(code)
        assert got == want
        assert got.pivots == want.pivots and got.rank == want.rank
        assert (got.n, got.field, got.t) == (code.n, f, t)
    for _ in range(10):
        length = int(rng.integers(1, 7))
        cc = ClassicalCode(length, f, rng.integers(
            0, f.q, (int(rng.integers(0, length + 2)), length)))
        for kind in ("euclidean", "hermitian") if m % 2 == 0 else ("euclidean",):
            mat = cc.mat if kind == "euclidean" else _conj(f, cc.mat)
            want = ClassicalCode(length, f, linalg.nullspace(mat, f))
            got = cc.dual(kind)
            assert got == want and got.pivots == want.pivots
            assert got.rank == want.rank == length - cc.rank


def test_solve_many_matches_single_solves(field):
    rng = np.random.default_rng(11)
    for _ in range(25):
        mat = rng.integers(0, field.q, size=(4, 6)).astype(np.int64)
        b = linalg.matmul(mat, rng.integers(0, field.q, (6, 3)), field)
        x, ker = linalg.solve_many(mat, b, field)
        assert np.array_equal(ker, linalg.nullspace(mat, field))
        for j in range(3):
            assert np.array_equal(x[j], linalg.solve(mat, b[:, j], field))
    bad = np.array([[1, 0], [1, 0]], dtype=np.int64)
    assert linalg.solve_many(bad, np.array([[0, 1], [0, 0]]), field) is None
