"""Finite field arithmetic tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsystem_codes import gf
from subsystem_codes.codes import ClassicalCode, _hermitian_gram
from subsystem_codes.gf import FieldSpec, TowerSpec, conway_polynomial

# classical table values for the standard (Conway) moduli, as coefficient
# lists c_0..c_m of x^m + c_{m-1} x^{m-1} + ... + c_0
KNOWN_MODULI = {
    (2, 1): [1, 1],
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (3, 1): [1, 1],
    (3, 2): [2, 2, 1],
    (5, 2): [2, 4, 1],
    (7, 2): [3, 6, 1],
}


@pytest.mark.parametrize("pm,coeffs", KNOWN_MODULI.items())
def test_standard_moduli(pm, coeffs):
    p, m = pm
    assert conway_polynomial(p, m) == tuple(coeffs)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1),
                                 (5, 2), (7, 2)])
def test_field_axioms_sampled(p, m):
    f = FieldSpec(p, m)
    rng = np.random.default_rng(0)
    xs = rng.integers(0, f.q, size=30)
    ys = rng.integers(0, f.q, size=30)
    zs = rng.integers(0, f.q, size=30)
    for x, y, z in zip(xs, ys, zs):
        x, y, z = int(x), int(y), int(z)
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.neg(x)) == 0
        if x != 0:
            assert f.mul(x, f.inv(x)) == 1


# ids of the Conway cases are "p-m"; a named modulus adds its name
_GENERATOR_CASES = {
    "2-2": (2, 2, None), "3-2": (3, 2, None), "2-4": (2, 4, None),
    "2-1": (2, 1, None), "7-1": (7, 1, None),
    "3-2-x2+1": (3, 2, (1, 0, 1)),        # x has order 4 of 8
    "2-10-all-ones": (2, 10, (1,) * 11),  # x has order 11 of 1023
}


@pytest.mark.parametrize("p,m,modulus", list(_GENERATOR_CASES.values()),
                         ids=list(_GENERATOR_CASES))
def test_generator_is_primitive(p, m, modulus):
    f = FieldSpec(p, m, modulus)
    seen = set()
    cur = 1
    for _ in range(f.q - 1):
        seen.add(cur)
        cur = f.mul(cur, f.generator)
    assert len(seen) == f.q - 1
    assert cur == 1


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 4)])
def test_trace_properties(p, m):
    f = FieldSpec(p, m)
    # trace is F_p-linear, surjective onto F_p, and Frobenius-invariant
    vals = set()
    for x in range(f.q):
        t = f.trace(x)
        assert 0 <= t < p
        vals.add(t)
        assert f.trace(f.pow(x, p)) == t
    assert vals == set(range(p))
    for x in range(min(f.q, 16)):
        for y in range(min(f.q, 16)):
            assert f.trace(f.add(x, y)) == (f.trace(x) + f.trace(y)) % p


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_field_element_ops(a, b):
    # scalar add/neg/mul against polynomial arithmetic on the digits
    f = FieldSpec(3, 2)
    x, y = f.digits(a), f.digits(b)
    assert f.add(a, b) == f.from_digits(u + v for u, v in zip(x, y))
    assert f.add(a, f.neg(b)) == f.from_digits(u - v for u, v in zip(x, y))
    assert f.neg(a) == f.from_digits(-u for u in x)
    assert f.add(a, f.neg(a)) == 0
    assert f.mul(a, b) == f.from_digits(
        gf._poly_mulmod(list(x), list(y), f.modulus, f.p))


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_tower_embedding(p, m):
    base = FieldSpec(p, m)
    tw = TowerSpec(base)
    top, q, embed = tw.top, base.q, tw._embed.tolist()
    # the embedding is a ring homomorphism (products by schoolbook)
    for a in range(q):
        for b in range(q):
            assert embed[base.add(a, b)] == top.add(embed[a], embed[b])
            assert embed[_oracle_mul(base, a, b)] == _oracle_mul(
                top, embed[a], embed[b])
    # the {1, beta} expansion tables invert x = u + beta*v
    for x in range(top.q):
        u, v = int(tw._ex_u[x]), int(tw._ex_v[x])
        assert top.add(embed[u], _oracle_mul(top, tw.beta, embed[v])) == x
    # conjugation x -> x^q fixes exactly the base field
    xs = np.arange(top.q)
    assert sorted(xs[top.pow_arr(xs, q) == xs]) == sorted(embed)


def test_vectorized_ops_match_scalar():
    rng = np.random.default_rng(1)
    # a prime field and extension fields below and above q = 512
    for f in (FieldSpec(3, 2), FieldSpec(5), FieldSpec(2, 10)):
        a = rng.integers(0, f.q, size=40)
        b = rng.integers(0, f.q, size=40)
        add = f.add_arr(a, b)
        neg = f.neg_arr(a)
        for i in range(40):
            assert add[i] == f.add(int(a[i]), int(b[i]))
            assert neg[i] == f.neg(int(a[i]))
        # every scalar of the small fields, a sample of GF(2^10)'s
        for c in (range(f.q) if f.q <= 9
                  else [0, 1] + rng.integers(2, f.q, size=7).tolist()):
            mul = f.mul_arr(a, c)
            for i in range(40):
                assert mul[i] == f.mul(int(a[i]), c)
        # a column against a row broadcasts to a matrix
        col, row = a[:6].reshape(-1, 1), b[:5]
        mul = f.mul_arr(col, row)
        assert mul.shape == (6, 5)
        for i in range(6):
            for j in range(5):
                assert mul[i, j] == f.mul(int(col[i, 0]), int(row[j]))


def _oracle_mul(f, a, b):
    """Schoolbook product of two elements as polynomials mod the modulus."""
    prod = gf._poly_mulmod(list(f.digits(a)), list(f.digits(b)),
                           f.modulus, f.p)
    return f.from_digits(prod)


def _oracle_pow(f, a, e):
    """a^e by square-and-multiply on schoolbook products; a negative e
    raises a^(q-2), the inverse of a nonzero a, to -e, and 0^e is 0."""
    if e < 0:
        return 0 if a == 0 else _oracle_pow(f, _oracle_pow(f, a, f.q - 2), -e)
    result = 1
    while e:
        if e & 1:
            result = _oracle_mul(f, result, a)
        a = _oracle_mul(f, a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("p,m,modulus", [
    (2, 2, None), (3, 2, None), (5, 2, None), (7, 2, None),
    (3, 2, (1, 0, 1)),        # x^2 + 1: x is not primitive
    (2, 9, None),
    (2, 10, (1,) * 11),       # x is not primitive, q > 512
])
def test_tables_match_polynomial_products(p, m, modulus):
    f = FieldSpec(p, m, modulus)
    q = f.q
    if q <= 49:
        pairs = np.array([(a, b) for a in range(q) for b in range(q)])
        elems = range(q)
    else:
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, q, size=(400, 2))
        elems = [0, 1] + rng.integers(2, q, size=100).tolist()
    want = [_oracle_mul(f, int(a), int(b)) for a, b in pairs]
    assert [f.mul(int(a), int(b)) for a, b in pairs] == want
    assert f.mul_arr(pairs[:, 0], pairs[:, 1]).tolist() == want
    for a in elems:
        for e in (0, 1, 2, p, q - 2, q - 1, q, 2 * q + 3):
            assert f.pow(a, e) == _oracle_pow(f, a, e)
        if a:
            assert _oracle_mul(f, a, f.inv(a)) == 1
            assert f.pow(a, -1) == f.inv(a)
        # tr(a) = a + a^p + ... + a^(p^(m-1)) by polynomial products
        acc, x = 0, a
        for _ in range(m):
            acc = f.add(acc, x)
            x = _oracle_pow(f, x, p)
        assert f.trace(a) == acc
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    # pow_arr against the oracle: 0^0 = 1, negative and int64-sized
    # exponents, broadcasting
    a = np.array([0, 1] + list(elems)[2:12])
    e = np.array([0, 1, 2, -1, -3, p, q - 2, q - 1, q, 2 * q + 3, 2**62 + 1])
    got = f.pow_arr(a[:, None], e)
    assert got.shape == (len(a), len(e))
    assert got.tolist() == [[_oracle_pow(f, int(x), int(y)) for y in e]
                            for x in a]
    assert f.pow_arr(a, 0).tolist() == [1] * len(a)
    assert f.pow_arr(0, e).tolist() == [int(y == 0) for y in e]


def test_user_modulus_runs_no_conway_search():
    conway_polynomial.cache_clear()
    f = FieldSpec(3, 10, (2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1))
    assert conway_polynomial.cache_info().currsize == 0
    assert f.q == 3**10
    # a tower needs the Conway modulus of its base field
    with pytest.raises(ValueError, match="Conway moduli"):
        TowerSpec(FieldSpec(3, 2, (1, 0, 1)))


def test_invalid_field_parameters():
    with pytest.raises(ValueError):
        FieldSpec(4)          # not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    # the cap is checked first, so a large p is never trial-divided (for
    # the prime 2^61 - 1 that takes minutes) and a large m never gives p^m
    with pytest.raises(ValueError, match="exceeds supported cap"):
        FieldSpec(2**64)


# -- irreducibility against products of factors ------------------------------

def _monic(p, m):
    """Every monic polynomial of degree m over F_p, low degree first."""
    return [low + (1,) for low in itertools.product(range(p), repeat=m)]


def _convolve(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _mobius(n):
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_irreducibility_matches_factor_products(p, top):
    for m in range(1, top + 1):
        # reducible iff a product of two monic factors of degree >= 1
        reducible = {_convolve(a, b, p) for d in range(1, m)
                     for a in _monic(p, d) for b in _monic(p, m - d)}
        irreducible = [f for f in _monic(p, m)
                       if gf._poly_is_irreducible(f, p)]
        assert set(irreducible) == set(_monic(p, m)) - reducible
        # the count of monic irreducibles: (1/m) sum_{d|m} mu(d) p^(m/d)
        # (Lidl & Niederreiter, Finite Fields, Thm. 3.25)
        assert m * len(irreducible) == sum(
            _mobius(d) * p**(m // d) for d in range(1, m + 1) if m % d == 0)


@pytest.mark.parametrize("p,m,modulus", [
    (2, 2, (1, 0, 1)),                  # (x + 1)^2
    (3, 4, (1, 0, 2, 0, 1)),            # (x^2 + 1)^2, no linear factor
    # (x^8 + x^4 + x^3 + x + 1)^2: only factors of degree m/2, at the cap
    (2, 16, (1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_reducible_modulus_is_refused(p, m, modulus):
    with pytest.raises(ValueError, match="not irreducible"):
        FieldSpec(p, m, modulus)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_hermitian_product_matches_schoolbook(p, m):
    f = FieldSpec(p, m)
    root = p**(m // 2)
    rng = np.random.default_rng(15)
    for n in (0, 1, 2, 5, 9):
        for _ in range(6):
            code = ClassicalCode(n, f, rng.integers(0, f.q, size=(3, n)))
            gram = _hermitian_gram(f, code.mat)
            assert gram.shape == (code.rank, code.rank)
            for i, x in enumerate(code.mat.tolist()):
                for j, y in enumerate(code.mat.tolist()):
                    # sum x_i^sqrt(q) y_i, adding digit vectors mod p
                    want = [0] * m
                    for a, b in zip(x, y):
                        term = f.digits(_oracle_mul(
                            f, _oracle_pow(f, a, root), b))
                        want = [u + v for u, v in zip(want, term)]
                    assert gram[i, j] == f.from_digits(want)
