"""Hyperbolic decomposition and symplectic basis completion."""

from dataclasses import replace

import numpy as np
import pytest

from subsystem_codes import linalg, rs
from subsystem_codes.codes import (AdditiveCode, ClassicalCode,
                                   _coeff_field, _pairings, dual_symp,
                                   intersect)
from subsystem_codes.gf import FieldSpec
from subsystem_codes.rules import (MdsFamilySpec, _adjoin_fresh_pairs,
                                   _tower_for_q, hermitian_to_symplectic)
from subsystem_codes.symplectic import (HyperbolicDecomposition,
                                        _partner_pairs,
                                        extend_to_full_symplectic_basis,
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
        basis.validate()                    # pairing relations
        dim = 2 * n * m // t
        assert basis.s == 0 and 2 * basis.r == dim
        fresh_from = dec.s + dec.r
        # fresh pairs commute with everything in the input code
        for x, z in basis.pairs[fresh_from:]:
            for g in code.mat:
                assert dec.pairings(x, g)[0, 0] == 0
                assert dec.pairings(z, g)[0, 0] == 0
        # the one-pair step gives exactly the first fresh pair
        if fresh_from < basis.r:
            x, z = fresh_pair(dec)
            fx, fz = basis.pairs[fresh_from]
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


def _bad_decompositions():
    """(name, decomposition, check) for inputs that break the relations."""
    x0, x1, _, z0, z1, _ = np.eye(6, dtype=np.int64)  # n = 3: <x_i|z_i> = 1

    def dec(p, isotropic, pairs):
        return HyperbolicDecomposition(3, FieldSpec(p), 1, isotropic, pairs)
    yield ("pair that does not pair", dec(2, [], [(x0, x1)]),
           lambda d: d.pairings(*d.pairs[0])[0, 0] == 0)
    yield ("isotropic vectors that pair", dec(2, [x0, z0], []),
           lambda d: d.pairings(*d.isotropic)[0, 0] != 0)
    yield ("dependent isotropic vectors", dec(3, [x0, 2 * x0], []),
           lambda d: linalg.rank(d.matrix(), d.field) == 1)
    yield ("isotropic vector that pairs with a pair",
           dec(2, [x0 + z1], [(x1, z1)]),
           lambda d: d.pairings(d.isotropic[0], d.pairs[0][0])[0, 0] != 0)


@pytest.mark.parametrize("complete", [fresh_pair,
                                      extend_to_full_symplectic_basis])
def test_invalid_decomposition_fails_by_name(complete):
    # _partner_pairs does not validate its input: the callers validate the
    # completed pairs, and a bad input must still fail by name
    for name, dec, check in _bad_decompositions():
        assert check(dec), name
        with pytest.raises((AssertionError, ValueError)) as err:
            complete(dec)
        if err.type is ValueError:
            assert "no room left" in str(err.value), name


# -- the partner and complement steps against the per-partner algorithm ----
#
# The reference solves for each partner on its own, then moves it by the
# isotropic vectors of the earlier, already corrected partners, one at a
# time; it reduces the complement's kernel basis a second time.

def _reference_partners(dec):
    cf = dec.coeff_field()
    rows = dec.pairings(dec.matrix(), None)
    pairs = []
    for i, z in enumerate(dec.isotropic):
        rhs = np.zeros(len(rows), dtype=np.int64)
        rhs[i] = cf.neg(1)
        x0 = linalg.solve(rows, rhs, cf)
        assert x0 is not None
        x = x0
        for xj, zj in pairs:                # x -= <x_j|x0_i> z_j
            c = int(dec.pairings(xj, x0)[0, 0])
            x = cf.add_arr(x, cf.neg_arr(cf.mul_arr(c, zj)))
        pairs.append((x, z))
    return pairs


def _reference_fresh_pair(dec):
    cf = dec.coeff_field()
    pairs = _reference_partners(dec) + list(dec.pairs)
    V = replace(dec, isotropic=[], pairs=pairs).matrix()
    comp, _ = linalg.rref(linalg.nullspace(dec.pairings(V, None), cf), cf)
    vals = dec.pairings(comp[0], comp[1:])[0]
    hit = np.flatnonzero(vals)[0]
    return comp[0], cf.mul_arr(comp[1 + hit], cf.inv(int(vals[hit])))


def _same_pairs(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a, c) and np.array_equal(b, d)
        for (a, b), (c, d) in zip(got, want))


def _isotropic_heavy_code(rng, field, n, t):
    """Vectors each pairing to 0 with the ones before, then up to two
    random vectors, so radicals of several vectors are common."""
    cf = _coeff_field(field, t)
    dim = 2 * n * field.m // t
    rows = np.zeros((0, dim), dtype=np.int64)
    for _ in range(int(rng.integers(1, dim // 2 + 1))):
        ker = linalg.nullspace(_pairings(rows, None, n, field, t), cf)
        rows = np.vstack([rows, linalg.matmul(
            rng.integers(0, cf.q, (1, len(ker))), ker, cf)])
    extra = rng.integers(0, cf.q, (int(rng.integers(0, 3)), dim))
    return AdditiveCode._from_coeff_matrix(n, field, t,
                                           np.vstack([rows, extra]))


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (5, 1, 1),
                                   (2, 2, 1), (2, 2, 2), (3, 2, 2),
                                   (7, 1, 1), (3, 2, 1), (5, 2, 2)])
def test_partners_match_per_partner_solves(p, m, t):
    field = FieldSpec(p, m)
    rng = np.random.default_rng(30 + 7 * p + m + t)
    several = 0
    for _ in range(60):
        code = _isotropic_heavy_code(rng, field, int(rng.integers(1, 5)), t)
        if code.rank == 0:
            continue
        dec = hyperbolic_decompose(code)
        several += dec.s >= 2
        assert _same_pairs(_partner_pairs(dec), _reference_partners(dec))
        if 2 * (dec.s + dec.r) < dec.dim:
            assert _same_pairs([fresh_pair(dec)], [_reference_fresh_pair(dec)])
    assert several >= 5


@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 2, 1),
                                   (2, 2, 2), (3, 2, 2)])
def test_basis_layout(p, m, t):
    # partners first, each with its isotropic vector as z, then dec's own
    # pairs unchanged, then fresh pairs that commute with the code
    field = FieldSpec(p, m)
    rng = np.random.default_rng(40 + 7 * p + m + t)
    mixed = 0
    for _ in range(15):
        code = _isotropic_heavy_code(rng, field, int(rng.integers(1, 4)), t)
        dec = hyperbolic_decompose(code)
        basis = extend_to_full_symplectic_basis(dec)
        s, r = dec.s, dec.r
        mixed += s >= 1 and r >= 1
        assert 2 * basis.r == dec.dim
        for (_, z), iso in zip(basis.pairs[:s], dec.isotropic):
            assert np.array_equal(z, iso)
        assert _same_pairs(basis.pairs[s:s + r], dec.pairs)
        fresh = replace(dec, isotropic=[], pairs=basis.pairs[s + r:]).matrix()
        assert len(fresh) == dec.dim - 2 * (s + r)
        assert not dec.pairings(fresh, code.mat).any()
    assert mixed >= 2


def _family_members():
    """The member with the largest delta for each constructive family and
    q <= 9; over q = 8, 9 only one of the lengths q^2 - 1 and q^2, with
    delta = 1."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for family in ("iii", "iv", "v", "vi"):
            if (q, family) in ((8, "vi"), (9, "v")):
                continue
            large = q >= 8 and family in ("v", "vi")
            for delta in (1,) if large else range(q, -1, -1):
                try:
                    spec = MdsFamilySpec(q=q, family=family, delta=delta)
                except ValueError:
                    continue
                yield q, spec.target_params()[0], delta
                break


def _family_code(q, n, delta):
    """The expansion of a family member's rows before any pair is added."""
    tower = _tower_for_q(q)
    rows = rs.hermitian_self_orthogonal_rs(tower, n, delta)
    return hermitian_to_symplectic(ClassicalCode(n, tower.top, rows))


def test_adjunction_chains_match_per_partner_solves():
    steps = 0
    for q, n, delta in _family_members():
        C = _family_code(q, n, delta)
        for _ in range(3):
            dec = hyperbolic_decompose(C)
            if 2 * (dec.s + dec.r) >= dec.dim:
                with pytest.raises(ValueError, match="no room left"):
                    _adjoin_fresh_pairs(C, 1)
                break
            assert _same_pairs(_partner_pairs(dec), _reference_partners(dec))
            pair = _reference_fresh_pair(dec)
            assert _same_pairs([fresh_pair(dec)], [pair])
            want = replace(dec, pairs=dec.pairs + [pair]).span()
            C = _adjoin_fresh_pairs(C, 1)
            assert C == want
            steps += 1
    assert steps >= 50


def test_adjunction_eliminates_once_per_step(monkeypatch):
    # family vi, q = 5, delta = 3 has 8 isotropic generators; adjoining a
    # pair reduces the span, the partner system, the complement and the
    # output span once each: no system as large as R is solved per partner
    C = _family_code(5, 25, 3)
    dec = hyperbolic_decompose(C)
    assert dec.s >= 4
    sizes = []
    rref = linalg.rref

    def counting(mat, field):
        sizes.append(np.shape(mat)[0])
        return rref(mat, field)

    monkeypatch.setattr(linalg, "rref", counting)
    _adjoin_fresh_pairs(C, 1)
    assert sum(rows >= C.rank for rows in sizes) <= 4
