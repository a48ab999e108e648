"""Additive and classical codes: canonical form, duals, weights."""

import json
from copy import copy
from itertools import product

import numpy as np
import pytest

from subsystem_codes import _enum, codes, linalg
from subsystem_codes.codes import (WITNESS_RANDOM_SAMPLES, AdditiveCode,
                                   ClassicalCode, EnumerationLimitError,
                                   dual_symp, intersect, min_swt,
                                   min_swt_coset, radical, swt_distribution,
                                   _split)
from subsystem_codes.gf import FieldSpec
from subsystem_codes.known import bacon_shor_code, five_qubit_code
from subsystem_codes.rs import evaluation_code
from subsystem_codes.subsystem import DEFAULT_POLICY, Policy, derive


def _elements(code):
    """Independent oracle: all code vectors by explicit span construction."""
    cf = code.coeff_field
    k = code.rank
    out = set()
    for coeffs in product(range(cf.q), repeat=k):
        v = np.zeros(code.ncols, dtype=np.int64)
        for c, row in zip(coeffs, code.mat):
            v = cf.add_arr(v, cf.mul_arr(row, c))
        out.add(tuple(int(x) for x in code._contract_row(v)))
    return out


def _swt(v):
    """Symplectic weight of (x|y): the positions i with (x_i, y_i) != 0."""
    n = len(v) // 2
    return sum(1 for x, y in zip(v[:n], v[n:]) if x or y)


def _hermitian(f, x, y):
    """<x|y>_h = sum x_i^sqrt(q) y_i, entry by entry in scalar operations."""
    acc = 0
    for a, b in zip(x, y):
        acc = f.add(acc, f.mul(f.pow(int(a), f.p**(f.m // 2)), int(b)))
    return acc


def _oracle_min_swt(code):
    return min(_swt(v) for v in _elements(code) if any(v))


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 2)])
def test_min_swt_against_oracle(p, m, t):
    field = FieldSpec(p, m)
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(2, 4))
        gens = rng.integers(0, field.q, size=(2, 2 * n))
        code = AdditiveCode(n, field, gens, coeff_degree=t)
        if code.rank == 0:
            continue
        assert min_swt(code) == _oracle_min_swt(code)


def _dense_gram(n, field, t):
    """The form's Gram matrix M on coefficient coordinates, built entry by
    entry: blocks -T at (x_i, y_i) and T at (y_i, x_i), T_ab =
    tr(alpha_a alpha_b) for t = 1 and T = (1) for t = m."""
    u = field.m // t
    tr = [[field.trace(field.mul(field.p**a, field.p**b)) if u > 1 else 1
           for b in range(u)] for a in range(u)]
    cf = codes._coeff_field(field, t)
    M = np.zeros((2 * n * u, 2 * n * u), dtype=np.int64)
    for i in range(n):
        for a in range(u):
            for b in range(u):
                M[i * u + a, (n + i) * u + b] = cf.neg(tr[a][b])
                M[(n + i) * u + a, i * u + b] = tr[a][b]
    return M


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 1),
                                   (2, 3, 3)])
def test_pairings_match_dense_gram_product(p, m, t):
    # U M is read off U's x and y blocks; the reference multiplies by M
    field = FieldSpec(p, m)
    cf = codes._coeff_field(field, t)
    rng = np.random.default_rng(40 + p + m + t)
    for n in (1, 2, 4):
        M = _dense_gram(n, field, t)
        for rows in (0, 1, 3):
            U = rng.integers(0, cf.q, (rows, len(M)))
            V = rng.integers(0, cf.q, (2, len(M)))
            UM = linalg.matmul(U, M, cf)
            assert np.array_equal(codes._pairings(U, None, n, field, t), UM)
            assert np.array_equal(codes._pairings(U, V, n, field, t),
                                  linalg.matmul(UM, V.T, cf))
        u = rng.integers(0, cf.q, len(M))
        assert np.array_equal(codes._pairings(u, None, n, field, t)[0],
                              linalg.matmul(u[None], M, cf)[0])


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2)])
def test_dual_involution_and_size(p, m, t):
    field = FieldSpec(p, m)
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        gens = rng.integers(0, field.q, size=(3, 2 * n))
        code = AdditiveCode(n, field, gens, coeff_degree=t)
        dual = dual_symp(code)
        assert dual_symp(dual) == code
        assert code.rank_p + dual.rank_p == 2 * n * m
        # duality is genuine orthogonality
        assert not codes._pairings(code.mat, dual.mat, n, field, t).any()


def test_canonical_equality_and_membership():
    f = FieldSpec(2)
    a = AdditiveCode(2, f, [[1, 0, 1, 0], [0, 1, 0, 1]])
    b = AdditiveCode(2, f, [[1, 1, 1, 1], [0, 1, 0, 1]])
    assert a == b and hash(a) == hash(b)
    assert a.contains_vector([1, 1, 1, 1])
    assert not a.contains_vector([1, 0, 0, 0])
    assert a.contains_code(AdditiveCode(2, f, [[1, 1, 1, 1]]))


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 2), (2, 3, 1)])
def test_contains_code_matches_rowwise_membership(p, m, t):
    f = FieldSpec(p, m)
    rng = np.random.default_rng(10 * p + m + t)
    n = 3

    def rows(k, q=f.q, cols=2 * n):
        return rng.integers(0, q, (k, cols))

    for _ in range(12):
        big = AdditiveCode(n, f, rows(rng.integers(0, 4)), t)
        classical = ClassicalCode(2 * n, f, rows(rng.integers(0, 4)))
        # unrelated codes, then a subcode spanned by the code's rows
        others = [AdditiveCode(n, f, rows(k), t) for k in (0, 1, 2)]
        cf = big.coeff_field
        others.append(AdditiveCode._from_coeff_matrix(n, f, t, linalg.matmul(
            rows(2, cf.q, big.rank), big.mat, cf)))
        for other in others:
            assert big.contains_code(other) == all(
                big.contains_vector(other._contract_row(r))
                for r in other.mat)
        assert big.contains_code(others[-1])
        others = [ClassicalCode(2 * n, f, rows(k)) for k in (0, 1, 2)]
        others.append(ClassicalCode(2 * n, f, linalg.matmul(
            rows(2, f.q, classical.rank), classical.mat, f)))
        for other in others:
            assert classical.contains_code(other) == all(
                classical.contains_vector(r) for r in other.mat)
        assert classical.contains_code(others[-1])
    # a classical code of another length or field is refused, as an
    # additive one is
    code = ClassicalCode(4, f, [[1, 0, 0, 1]])
    for other in (ClassicalCode(5, f, [[1, 0, 0, 1, 0]]),
                  ClassicalCode(4, FieldSpec(5), [[1, 0, 0, 1]])):
        with pytest.raises(ValueError, match="different spaces"):
            code.contains_code(other)


def test_as_additive_preserves_set():
    f = FieldSpec(2, 2)
    code = AdditiveCode(2, f, [[1, 2, 0, 3]], coeff_degree=2)
    add = code.as_additive()
    assert add.t == 1
    assert add.rank_p == code.rank_p
    assert _elements(code) == _elements(add)


def test_intersect_matches_sets():
    f = FieldSpec(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = AdditiveCode(2, f, rng.integers(0, 3, size=(2, 4)))
        b = AdditiveCode(2, f, rng.integers(0, 3, size=(2, 4)))
        cap = intersect(a, b)
        assert _elements(cap) == _elements(a) & _elements(b)


def _eliminated_intersection(x, y):
    """The elimination ClassicalCode.intersect ran before it delegated to
    codes.intersect: a·x for the first x.rank entries a of each kernel
    vector of the stacked rows' transpose, validated again as generators."""
    stacked = np.concatenate([x.mat, y.mat], axis=0)
    ker = linalg.nullspace(stacked.T, x.field)
    vecs = linalg.matmul(ker[:, : x.rank], x.mat, x.field)
    return ClassicalCode(x.n, x.field, vecs)


def _classical_words(code):
    """All codewords of a classical code, every combination of its rows."""
    coeffs = list(product(range(code.field.q), repeat=code.rank))
    coeffs = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), code.rank)
    return {tuple(w) for w in linalg.matmul(coeffs, code.mat,
                                            code.field).tolist()}


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2)])
def test_classical_intersect_matches_elimination(p, m):
    f = FieldSpec(p, m)
    rng = np.random.default_rng(40 + p * m)
    n = 4
    zero = ClassicalCode(n, f, [])
    whole = ClassicalCode(n, f, np.eye(n, dtype=np.int64))
    codes_in = [zero, whole] + [
        ClassicalCode(n, f, rng.integers(0, f.q, (k, n)))
        for k in (1, 2, 2, 3, 3)]
    for x in codes_in:
        assert x.intersect(zero) == zero and x.intersect(whole) == x
        for y in codes_in:
            cap, ref = x.intersect(y), _eliminated_intersection(x, y)
            assert cap == ref == intersect(x, y)
            assert cap.pivots == ref.pivots
            if f.q == 3:
                assert _classical_words(cap) == (_classical_words(x)
                                                 & _classical_words(y))


def test_additive_and_classical_codes_never_compare_equal():
    f = FieldSpec(2, 2)
    rows = [[1, 2, 0, 3], [0, 1, 1, 0]]
    a = AdditiveCode(2, f, rows, coeff_degree=2)
    c = ClassicalCode(4, f, rows)
    assert np.array_equal(a.mat, c.mat) and a.rank_p == c.rank_p
    same_n = copy(c)
    same_n.n = a.n          # the kind alone tells the two spaces apart
    for other in (c, same_n):
        assert a != other and other != a
        for x, y in ((a, other), (other, a)):
            with pytest.raises(ValueError, match="different spaces"):
                x.contains_code(y)
            with pytest.raises(ValueError, match="different spaces"):
                intersect(x, y)


def test_classical_contains_vector_validates_entries():
    f = FieldSpec(2, 2)
    code = ClassicalCode(3, f, [[1, 2, 3]])
    assert code.contains_vector([2, 3, 1]) and not code.contains_vector([1, 0, 0])
    with pytest.raises(ValueError, match="entry 4 is not an element of GF"):
        code.contains_vector([4, 0, 0])
    with pytest.raises(ValueError, match="must have 3 entries"):
        code.contains_vector([1, 2])


def test_shared_coset_checks_for_both_kinds():
    f = FieldSpec(3)
    big = ClassicalCode(3, f, [[1, 1, 0], [0, 1, 1]])
    other = ClassicalCode(3, f, [[1, 0, 0]])
    zero = ClassicalCode(3, f, [])
    additive = AdditiveCode(2, f, [[1, 0, 0, 0], [0, 1, 0, 0]])
    not_sub = AdditiveCode(2, f, [[0, 0, 1, 0]])
    for run in (lambda: big.min_wt_coset(other),
                lambda: min_swt_coset(additive, not_sub)):
        with pytest.raises(ValueError, match="B is not a subcode of A"):
            run()
    for run in (zero.min_wt, lambda: big.min_wt_coset(big),
                lambda: min_swt(AdditiveCode.zero(2, f)),
                lambda: min_swt_coset(additive, additive, Policy("witness"))):
        with pytest.raises(ValueError, match="the difference set is empty"):
            run()
    assert big.min_wt_coset(zero) == (big.min_wt(), "exhaustive")
    # a scan that returns its method has no "skip" mode to return
    for run in (lambda: big.min_wt_coset(zero, Policy("skip")),
                lambda: min_swt_coset(additive, None, Policy("skip"))):
        with pytest.raises(ValueError, match="'skip' measures no weight"):
            run()


def _radical_inputs(field, t, rng):
    """Random codes, codes with D = C and codes with D = 0, length 3."""
    n, q, p, m = 3, field.q, field.p, field.m
    for _ in range(3):
        for k in range(1, 6):
            yield AdditiveCode(n, field, rng.integers(0, q, (k, 2 * n)), t)
    # vectors (x|0) pair to zero with each other: self-orthogonal
    x_only = np.zeros((3, 2 * n), dtype=np.int64)
    x_only[:, :n] = rng.integers(0, q, (3, n))
    yield AdditiveCode(n, field, x_only, t)
    # F_q (x_i|0) + F_q (0|x_i) is a hyperbolic plane for each i, so the
    # whole space and the first two planes have a zero radical
    eye = np.eye(2 * n, dtype=np.int64)
    full = np.vstack([eye * p**j for j in range(m)])
    yield AdditiveCode(n, field, full, t)
    yield AdditiveCode(n, field, full[np.arange(len(full)) % n != 2], t)


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 2), (5, 1, 1)])
def test_radical_matches_intersection_with_dual(p, m, t):
    field = FieldSpec(p, m)
    codes_in = list(_radical_inputs(field, t, np.random.default_rng(p * m)))
    if (p, m) == (2, 1):
        codes_in.append(five_qubit_code())
    kinds = set()
    for code in codes_in:
        rad = radical(code)
        assert rad == intersect(code, dual_symp(code))
        kinds.add("zero" if rad.rank == 0 else
                  "self-orthogonal" if rad == code else "proper")
    assert kinds == {"zero", "self-orthogonal", "proper"}


@pytest.mark.parametrize("p,m", [(3, 2), (2, 4), (5, 2), (7, 2)])
def test_hermitian_radical_matches_intersection_with_dual(p, m):
    f = FieldSpec(p, m)
    points = [f.pow(f.generator, i) for i in range(f.q - 1)]
    s = p**(m // 2)
    dims = set()
    for kappa in (2, s, f.q // 2):
        for offset in (0, 1, 2, s + 1):
            Y = evaluation_code(f, points, [(offset + i) % (f.q - 1)
                                            for i in range(kappa)])
            for code in (Y, Y.puncture(Y.n - 1)):
                rad = code.hermitian_radical()
                assert rad == code.intersect(code.dual("hermitian"))
                dims.add(rad.rank)
    assert 0 in dims and len(dims) > 2


def _assert_reduced_as(code, kernel, of):
    """``code`` is in the form rref gives the rows a·of.mat, a the first
    of.rank entries of each ``kernel`` vector: matrix and pivots."""
    mat, piv = linalg.rref(linalg.matmul(kernel[:, :of.rank], of.mat,
                                         of.coeff_field), of.coeff_field)
    assert np.array_equal(code.mat, mat) and code.pivots == piv


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                   (2, 2, 2)])
def test_read_off_radical_and_intersection_equal_rref(p, m, t):
    # radical and intersect take a·mat as it is, with no second rref
    field = FieldSpec(p, m)
    rng = np.random.default_rng(70 + p * m + t)
    zero = AdditiveCode.zero(3, field, t)
    codes_in = [zero, dual_symp(zero)] + list(_radical_inputs(field, t, rng))
    for x in codes_in:
        gram = codes._pairings(x.mat, x.mat, x.n, field, t)
        _assert_reduced_as(radical(x), linalg.nullspace(gram, x.coeff_field),
                           x)
    for x in codes_in[::3]:
        for y in codes_in[1::4]:
            stacked = np.concatenate([x.mat, y.mat]).T
            _assert_reduced_as(intersect(x, y),
                               linalg.nullspace(stacked, x.coeff_field), x)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_read_off_hermitian_radical_equals_rref(p, m):
    f = FieldSpec(p, m)
    rng = np.random.default_rng(80 + p)
    n = 4
    codes_in = [ClassicalCode(n, f, []),
                ClassicalCode(n, f, np.eye(n, dtype=np.int64))] + [
        ClassicalCode(n, f, rng.integers(0, f.q, (k, n)))
        for k in (1, 2, 2, 3, 3)]
    for x in codes_in:
        gram = codes._hermitian_gram(f, x.mat)
        _assert_reduced_as(x.hermitian_radical(),
                           linalg.nullspace(gram, f), x)


def test_min_swt_coset_none_is_the_zero_code(monkeypatch):
    # B None means A minus {0}; a small sample count makes witness mode
    # run its random search on every input
    monkeypatch.setattr(codes, "WITNESS_RANDOM_SAMPLES", 2**5)
    rng = np.random.default_rng(17)
    cases = [bacon_shor_code(), five_qubit_code()]
    for p, m, t in [(3, 1, 1), (2, 2, 1), (2, 2, 2)]:
        f = FieldSpec(p, m)
        cases.append(AdditiveCode(3, f, rng.integers(0, f.q, (3, 6)), t))
    for a in cases:
        zero = AdditiveCode.zero(a.n, a.field, a.t)
        for mode in ("exact", "witness"):
            assert (min_swt_coset(a, None, Policy(mode))
                    == min_swt_coset(a, zero, Policy(mode)))
        assert min_swt_coset(a, None)[0] == min_swt(a)
    empty = AdditiveCode.zero(3, FieldSpec(2))
    with pytest.raises(ValueError, match="difference set is empty"):
        min_swt_coset(empty, None)


def test_min_swt_coset_oracle():
    f = FieldSpec(2)
    rng = np.random.default_rng(12)
    hits = 0
    while hits < 10:
        a = AdditiveCode(3, f, rng.integers(0, 2, size=(4, 6)))
        b_row = a.mat[:1] if a.rank else None
        if a.rank < 2:
            continue
        b = AdditiveCode._from_coeff_matrix(3, f, 1, a.mat[:1])
        got, method = min_swt_coset(a, b)
        assert method == "exhaustive"
        ea, eb = _elements(a), _elements(b)
        want = min(_swt(v) for v in ea - eb)
        assert got == want
        hits += 1


def test_witness_mode_upper_bounds():
    f = FieldSpec(2)
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = AdditiveCode(3, f, rng.integers(0, 2, size=(4, 6)))
        if a.rank < 2:
            continue
        b = AdditiveCode._from_coeff_matrix(3, f, 1, a.mat[:1])
        exact, _ = min_swt_coset(a, b)
        wit, method = min_swt_coset(a, b, Policy("witness"))
        assert method == "witness"
        assert wit >= exact  # witness can only overestimate
        # small spaces are fully covered by the combination stage
        assert wit == exact


def test_witness_on_small_span_is_exhaustive_value(monkeypatch):
    # D^perp_s of Bacon-Shor has 2^14 elements, fewer than the random
    # search would draw: witness mode scans it and gets the exact minimum
    from subsystem_codes import codes
    from subsystem_codes.known import bacon_shor_code, five_qubit_code
    C = bacon_shor_code()
    D = derive(C, Policy(distance_mode="skip")).D
    exact, _ = min_swt_coset(dual_symp(D), C)

    def no_search(*args):
        raise AssertionError("random witness search on a small span")

    monkeypatch.setattr(codes, "_witness_search", no_search)
    assert min_swt_coset(dual_symp(D), C, Policy("witness")) == (exact,
                                                                 "witness")
    # beyond the sample count the random search still runs
    monkeypatch.setattr(codes, "WITNESS_RANDOM_SAMPLES", 2**13)
    with pytest.raises(AssertionError, match="random witness search"):
        min_swt_coset(dual_symp(D), C, Policy("witness"))


@pytest.mark.parametrize("t,gen,entry", [
    (1, [7, 0, 0, 1], "7"), (2, [7, 0, 0, 1], "7"),
    (1, [-1, 0, 0, 1], "-1"), (2, [-1, 0, 0, 1], "-1"),
    (1, [1.5, 0, 0, 1], "1.5"), (2, [0, 1.5, 0, 1], "1.5"),
    (1, [True, 0, 0, 1], "True"), (2, [0, 1, 0, True], "True"),
])
def test_additive_rejects_bad_entries(t, gen, entry):
    with pytest.raises(ValueError, match=f"entry {entry} is not an element"):
        AdditiveCode(2, FieldSpec(2, 2), [gen], coeff_degree=t)


def test_rejects_bad_shapes_and_classical_entries():
    f = FieldSpec(2, 2)
    for t in (1, 2):
        with pytest.raises(ValueError, match="must have 4 entries"):
            AdditiveCode(2, f, [[1, 0, 0]], coeff_degree=t)
    for gen, entry in (([9, 1], "9"), ([-1, 1], "-1"), ([1.5, 1], "1.5")):
        with pytest.raises(ValueError, match=f"entry {entry} is not"):
            ClassicalCode(2, f, [gen])
    with pytest.raises(ValueError, match="must have 2 entries"):
        ClassicalCode(2, f, [[1, 1, 1]])


def test_threshold_enforced(monkeypatch):
    # beyond the threshold a scan that returns its method falls back to a
    # witness bound, as derive does; a scan that returns a bare number
    # enumerates in every mode, so it refuses the span
    f = FieldSpec(2)
    code = AdditiveCode(3, f, np.eye(6, dtype=np.int64))
    small = Policy(threshold=4)
    for policy in (small, Policy("witness", 4), Policy("skip", 4)):
        for scan in (lambda: min_swt(code, policy),
                     lambda: swt_distribution(code, policy),
                     lambda: ClassicalCode(6, f, np.eye(6, dtype=np.int64))
                     .min_wt(policy)):
            with pytest.raises(EnumerationLimitError):
                scan()
    assert min_swt(code, Policy("skip")) == 1
    rng = np.random.default_rng(21)
    a = AdditiveCode(4, f, rng.integers(0, 2, size=(6, 8)))
    b = AdditiveCode._from_coeff_matrix(4, f, 1, a.mat[:2])
    X = ClassicalCode(8, f, rng.integers(0, 2, size=(5, 8)))
    sub = ClassicalCode(8, f, X.mat[:1])
    assert 2**max(a.rank_p, X.rank_p) <= WITNESS_RANDOM_SAMPLES

    def words(Y):           # a binary classical code's words, by span
        return {tuple(np.array(c) @ Y.mat % 2)
                for c in product(range(2), repeat=Y.rank)}

    want = {"swt": min(_swt(v) for v in _elements(a) - _elements(b)),
            "wt": min(sum(map(bool, v)) for v in words(X) - words(sub))}
    scans = {"swt": lambda policy: min_swt_coset(a, b, policy),
             "wt": lambda policy: X.min_wt_coset(sub, policy)}
    for kind, scan in scans.items():
        assert scan(DEFAULT_POLICY) == (want[kind], "exhaustive")
        # at most WITNESS_RANDOM_SAMPLES vectors: the span is scanned whole
        assert scan(small) == (want[kind], "witness")
    # beyond the sample count the random search gives an upper bound
    monkeypatch.setattr(codes, "WITNESS_RANDOM_SAMPLES", 4)
    for kind, scan in scans.items():
        got, method = scan(small)
        assert method == "witness" and got >= want[kind]


def test_refused_scan_builds_no_layout(monkeypatch):
    # the span size comes from the rank, so a scan beyond the threshold is
    # refused before any prime-field layout is built
    laid_out = []
    real_layout = codes._layout
    monkeypatch.setattr(codes, "_layout", lambda code, rows: laid_out.append(
        code) or real_layout(code, rows))
    shor = bacon_shor_code()
    classical = ClassicalCode(4, FieldSpec(2, 2), np.eye(4, dtype=np.int64))
    for scan in (lambda: min_swt(shor, Policy(threshold=8)),
                 lambda: min_swt(shor, Policy("witness", 8)),
                 lambda: swt_distribution(shor, Policy(threshold=8)),
                 lambda: classical.min_wt(Policy(threshold=4**3))):
        with pytest.raises(EnumerationLimitError):
            scan()
    assert laid_out == []
    assert min_swt(shor, Policy(threshold=2**shor.rank_p)) == 2
    assert classical.min_wt(Policy(threshold=4**4)) == 1
    assert len(laid_out) == 2


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2)])
def test_hermitian_self_orthogonal_matches_pairwise_products(p, m):
    f = FieldSpec(p, m)
    points = [f.pow(f.generator, i) for i in range(f.q - 1)]
    rng = np.random.default_rng(p * m)
    candidates = [ClassicalCode(f.q - 1, f, []),
                  ClassicalCode(4, f, rng.integers(0, f.q, (2, 4)))]
    candidates += [evaluation_code(f, points, range(1, delta + 1))
                   for delta in range(1, min(2 * p + 1, f.q - 1) + 1)]
    seen = set()
    for code in candidates:
        pairwise = all(_hermitian(f, g, h) == 0
                       for g in code.mat for h in code.mat)
        assert code.is_hermitian_self_orthogonal() == pairwise, code
        assert code.dual("hermitian").contains_code(code) == pairwise, code
        seen.add(pairwise)
    assert seen == {True, False}
    # conjugation needs a square field
    for code in (ClassicalCode(2, FieldSpec(p), [[1, 1]]),
                 ClassicalCode(2, FieldSpec(2, 3), [[1, 1]])):
        with pytest.raises(ValueError, match="square field"):
            code.is_hermitian_self_orthogonal()


def test_swt_distribution_counts():
    f = FieldSpec(2)
    code = AdditiveCode(2, f, [[1, 0, 1, 0], [0, 1, 0, 1]])
    dist = swt_distribution(code)
    assert dist.sum() == 4
    weights = sorted(_swt(v) for v in _elements(code))
    assert list(np.repeat(np.arange(dist.size), dist)) == weights


def test_json_roundtrip(tmp_path):
    f = FieldSpec(3, 2)
    code = AdditiveCode(2, f, [[1, 4, 0, 2]], coeff_degree=2)
    path = tmp_path / "code.json"
    code.save(path)
    data = json.loads(path.read_text())
    assert data["coeff_degree"] == 2 and data["n"] == 2
    assert AdditiveCode.load(path) == code


def test_classical_duals_and_weights():
    f = FieldSpec(2, 2)
    code = ClassicalCode(3, f, [[1, 1, 0], [0, 2, 2]])
    eu = code.dual("euclidean")
    assert eu.rank == 1
    for g in code.mat:
        for h in eu.mat:
            acc = 0
            for x, y in zip(g, h):
                acc = f.add(acc, f.mul(int(x), int(y)))
            assert acc == 0
    he = code.dual("hermitian")
    for g in code.mat:
        for h in he.mat:
            assert _hermitian(f, g, h) == 0
    assert code.min_wt() == 2


def test_classical_modifications():
    f = FieldSpec(3)
    code = ClassicalCode(3, f, [[1, 1, 1]])
    ext = code.extend_parity()
    assert ext.n == 4
    for row in ext.mat:
        acc = 0
        for v in row:
            acc = f.add(acc, int(v))
        assert acc == 0
    pun = ext.puncture(3)
    assert pun == code
    with pytest.raises(ValueError):
        code.puncture(5)


def test_split_matches_row_by_row(monkeypatch):
    """B's rows, then A's rows whose pivot is not one of B's, in A's order:
    together rank A rows spanning A, found with no elimination."""
    rng = np.random.default_rng(9)
    rref, calls = linalg.rref, []

    def counting(mat, field):
        calls.append(np.shape(mat))
        return rref(mat, field)

    for p in (2, 3, 5, 7):
        fp = FieldSpec(p)
        for _ in range(40):
            ncols = int(rng.integers(1, 8))
            a = rng.integers(0, p, size=(int(rng.integers(0, ncols + 1)),
                                         ncols))
            if linalg.rank(a, fp) < len(a):
                continue
            mix = rng.integers(0, p, size=(int(rng.integers(0, len(a) + 1)),
                                           len(a)))
            A = ClassicalCode(ncols, fp, a)
            B = ClassicalCode(ncols, fp, linalg.matmul(mix, a, fp))
            monkeypatch.setattr(linalg, "rref", counting)
            rows = _split(A, B)
            monkeypatch.setattr(linalg, "rref", rref)
            assert not calls
            assert np.array_equal(rows[:B.rank], B.mat)
            rest = [next(i for i, g in enumerate(A.mat)
                         if np.array_equal(g, row)) for row in rows[B.rank:]]
            assert rest == sorted(set(rest))
            assert not {A.pivots[i] for i in rest} & set(B.pivots)
            assert len(rows) == A.rank == linalg.rank(rows, fp)
            assert linalg.rank(np.concatenate([rows, A.mat]), fp) == A.rank


def _brute_dual_swt(D):
    """Independent oracle: min swt over the nonzero x of F_q^{2n} with
    tr<h|x> = 0 for every h of an F_p-basis of D, by listing all of
    F_q^{2n}; None when only x = 0 is left."""
    f, n = D.field, D.n
    xs = np.array(list(product(range(f.q), repeat=2 * n)), dtype=np.int64)
    ok = np.ones(len(xs), dtype=bool)
    for g in map(D._contract_row, D.mat):
        for j in range(D.t):               # alpha^j g spans D over F_p
            h = f.mul_arr(g, f.p**j)
            form = np.zeros(len(xs), dtype=np.int64)
            for i in range(n):
                form = f.add_arr(form, f.add_arr(
                    f.mul_arr(xs[:, n + i], h[i]),
                    f.neg_arr(f.mul_arr(xs[:, i], h[n + i]))))
            ok &= f._trace_table[form] == 0
    weights = ((xs[:, :n] != 0) | (xs[:, n:] != 0)).sum(axis=1)[ok]
    weights = weights[weights > 0]
    return int(weights.min()) if weights.size else None


@pytest.mark.parametrize("p,m,t,lengths", [
    (2, 1, 1, (1, 2, 3, 4, 5)), (3, 1, 1, (1, 2, 3, 4)),
    (2, 2, 1, (1, 2, 3)), (2, 2, 2, (1, 2, 3)), (5, 1, 1, (1, 2, 3))])
def test_dual_swt_exceeds_matches_brute_force(p, m, t, lengths):
    # "every w-set of coordinates gives full column rank" holds iff every
    # nonzero vector of D^perp_s has weight > w, in both directions; the
    # zero code and the whole space are among the inputs
    f = FieldSpec(p, m)
    rng = np.random.default_rng(60 + 10 * p + m + t)
    outcomes, weights = set(), set()
    for n in lengths:
        dim = 2 * n * m // t
        # alpha^j e_i for every coordinate entry i: the whole space
        whole = np.eye(2 * n, dtype=np.int64)[:, None, :] * f._pw[:, None]
        inputs = [AdditiveCode.zero(n, f, t),
                  AdditiveCode(n, f, whole.reshape(-1, 2 * n), t)]
        inputs += [AdditiveCode(n, f, rng.integers(0, f.q, size=(
            int(rng.integers(1, dim + 1)), 2 * n)), t) for _ in range(8)]
        for D in inputs:
            oracle = _brute_dual_swt(D)
            weights.add(oracle)
            for w in range(n + 2):
                expect = oracle is None or oracle > w
                assert codes.dual_swt_exceeds(D, w) == expect, (n, w, D.mat)
                outcomes.add(expect)
    # both answers, D^perp_s = {0}, and minima above 1 all occur
    assert outcomes == {True, False}
    assert None in weights and {1, 2} <= weights


def _fp_class_min(a, b):
    """Reference: the F_p scalar-class scan.  Prime-field rows alpha^j g of
    every row g (B's, then those of A outside the span so far, one at a
    time), and counters [p^i, 2 p^i) for every prime-field row i."""
    f, fp = a.field, FieldSpec(a.field.p)

    def prime_rows(code):
        rows = []
        for g in code.mat:
            for j in range(f.m):
                digits = f._dig[f.mul_arr(g, f.p**j)]
                if isinstance(code, AdditiveCode):    # (x_i, y_i) together
                    digits = digits.reshape(2, code.n, f.m).transpose(1, 0, 2)
                rows.append(digits.reshape(-1))
        return rows

    kept = [] if b is None else prime_rows(b)
    kb = len(kept)
    for row in prime_rows(a):
        if linalg.rank(np.array(kept + [row]), fp) > len(kept):
            kept.append(row)
    gens = np.array(kept)
    size = gens.shape[1] // a.n
    return min(_enum.min_weight_range(gens[:i + 1], f.p, a.n, size, f.p**i,
                                      2 * f.p**i)
               for i in range(kb, len(gens)))


@pytest.mark.parametrize("p,m,shapes", [
    (2, 2, ((6, 4), (3, 4))), (2, 3, ((5, 3), (3, 3))),
    (3, 2, ((5, 3), (3, 3))), (2, 4, ((4, 3), (2, 3))),
    (5, 2, ((4, 3), (2, 3)))])
def test_scalar_class_scan_matches_prime_field_classes(p, m, shapes):
    # one vector per F_q scalar class gives the same minima as one per F_p
    # class, for classical codes over F_q and F_q-linear additive codes,
    # with zero-code B, whole-space A and one-row A among the cases
    f = FieldSpec(p, m)
    rng = np.random.default_rng(80 + f.q)
    (nc, kc), (na, ka) = shapes
    classical = [ClassicalCode(2, f, np.eye(2, dtype=np.int64)),
                 ClassicalCode(nc, f, rng.integers(1, f.q, size=(1, nc)))]
    additive = [AdditiveCode(1, f, np.eye(2, dtype=np.int64), m),
                AdditiveCode(na, f, rng.integers(1, f.q, size=(1, 2 * na)), m)]
    for _ in range(3):
        classical.append(ClassicalCode(nc, f, rng.integers(0, f.q, size=(
            kc, nc))))
        additive.append(AdditiveCode(na, f, rng.integers(0, f.q, size=(
            ka, 2 * na)), m))
    checked = 0
    for X in classical:
        assert X.min_wt() == _fp_class_min(X, None)
        for kb in range(X.rank):
            sub = ClassicalCode(X.n, f, X.mat[rng.permutation(X.rank)[:kb]])
            assert X.min_wt_coset(sub) == (_fp_class_min(X, sub),
                                           "exhaustive")
            checked += 1
    for A in additive:
        assert min_swt(A) == _fp_class_min(A, None)
        assert min_swt_coset(A, None, Policy("witness"))[0] == min_swt(A)
        for kb in range(A.rank):
            rows = A.mat[rng.permutation(A.rank)[:kb]]
            sub = AdditiveCode(A.n, f, rows, m)
            want = _fp_class_min(A, sub)
            assert min_swt_coset(A, sub) == (want, "exhaustive")
            assert min_swt_coset(A, sub, Policy("witness")) == (
                want, "witness")
            checked += 1
    assert checked >= 20
