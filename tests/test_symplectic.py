"""Hyperbolic decomposition and symplectic basis completion."""

import numpy as np
import pytest

from subsystem_codes.codes import AdditiveCode, dual_symp, intersect
from subsystem_codes.gf import FieldSpec
from subsystem_codes.symplectic import (extend_to_full_symplectic_basis,
                                        fresh_pair, hyperbolic_decompose)


def _random_code(rng, field, n, t, max_gens=4):
    gens = rng.integers(0, field.q, size=(int(rng.integers(1, max_gens + 1)),
                                          2 * n))
    return AdditiveCode(n, field, gens, coeff_degree=t)


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 2)])
def test_decomposition_properties(p, m, t):
    field = FieldSpec(p, m)
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        code = _random_code(rng, field, n, t)
        if code.rank == 0:
            continue
        dec = hyperbolic_decompose(code)
        dec.validate()                      # pairing relations
        assert dec.span() == code           # spans the input
        assert dec.s + 2 * dec.r == code.rank
        # the isotropic part spans the radical
        radical = intersect(code, dual_symp(code))
        if dec.s:
            iso = AdditiveCode._from_coeff_matrix(
                n, field, t, np.stack(dec.isotropic))
        else:
            iso = AdditiveCode.zero(n, field, t)
        assert iso == radical


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 2)])
def test_basis_completion(p, m, t):
    field = FieldSpec(p, m)
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(1, 3))
        code = _random_code(rng, field, n, t)
        dec = hyperbolic_decompose(code)
        basis = extend_to_full_symplectic_basis(dec)
        basis.validate()                    # full rank + pairing relations
        dim = 2 * n * m // t
        assert 2 * len(basis.pairs) == dim
        # fresh pairs commute with everything in the input code
        for x, z in basis.pairs[basis.fresh_from:]:
            for g in code.mat:
                assert dec.form(x, g) == 0
                assert dec.form(z, g) == 0
        # the one-pair step gives exactly the first fresh pair
        if basis.fresh_from < len(basis.pairs):
            x, z = fresh_pair(dec)
            fx, fz = basis.pairs[basis.fresh_from]
            assert np.array_equal(x, fx) and np.array_equal(z, fz)
        else:
            with pytest.raises(ValueError, match="no room left"):
                fresh_pair(dec)


def test_determinism():
    field = FieldSpec(2)
    code = AdditiveCode(3, field, [[1, 0, 0, 0, 1, 0], [0, 1, 0, 1, 0, 1],
                                   [1, 1, 0, 0, 0, 1]])
    d1 = hyperbolic_decompose(code)
    d2 = hyperbolic_decompose(code)
    for a, b in zip(d1.all_vectors(), d2.all_vectors()):
        assert np.array_equal(a, b)
    b1 = extend_to_full_symplectic_basis(d1)
    b2 = extend_to_full_symplectic_basis(d2)
    for (x1, z1), (x2, z2) in zip(b1.pairs, b2.pairs):
        assert np.array_equal(x1, x2) and np.array_equal(z1, z2)


def test_self_orthogonal_code_is_all_isotropic():
    field = FieldSpec(2)
    code = AdditiveCode(2, field, [[1, 1, 0, 0], [0, 0, 1, 1]])
    dec = hyperbolic_decompose(code)
    assert dec.r == 0 and dec.s == code.rank
