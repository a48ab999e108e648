"""Acceptance gate: one printed PASS/FAIL line per criterion.

Each test checks one release criterion end to end and always prints its
verdict, even under pytest's output capture.
"""

import time
from itertools import combinations, product

import numpy as np
import pytest

from subsystem_codes.bounds import hamming_check, singleton_check
from subsystem_codes.codes import (AdditiveCode, ClassicalCode, _pairings,
                                   dual_symp, intersect, min_swt_coset,
                                   swt_distribution)
from subsystem_codes.gf import FieldSpec
from subsystem_codes.known import bacon_shor_code, five_qubit_code
from subsystem_codes.rules import (MdsFamilySpec, _extend_code, extend_length,
                                   grow_k, hermitian_to_symplectic,
                                   mds_family, shrink_k)
from subsystem_codes.subsystem import (Policy, PurityError, SubsystemCode,
                                       bracket_params, derive)
from subsystem_codes.table1 import generate_table


def _hamming_distribution(X):
    """Independent oracle: the Hamming weights of all of X's codewords,
    listed as every combination of its rows in field table operations."""
    f = X.field
    coeffs = np.array(list(product(range(f.q), repeat=X.rank)),
                      dtype=np.int64).reshape(-1, X.rank)
    words = np.zeros((len(coeffs), X.n), dtype=np.int64)
    for c, row in zip(coeffs.T, X.mat):
        words = f.add_arr(words, f.mul_arr(c[:, None], row))
    return np.bincount((words != 0).sum(axis=1), minlength=X.n + 1)


@pytest.fixture()
def verdict(capfd):
    """Print one verdict line per criterion, past pytest's capture."""
    def _print(label, ok):
        with capfd.disabled():
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
        assert ok, label
    return _print


def test_criterion_1_catalog_q3_exact(verdict):
    rows = generate_table(3)
    ok = (len(rows) == 5
          and all(r.verification["parent_distance"] == "verified_algebraic"
                  and {v for c, v in r.verification.items()
                       if c != "parent_distance"} == {"verified_exhaustive"}
                  for r in rows)
          and all(r.code.d == r.subsystem[3] and r.code.is_pure
                  for r in rows))
    verdict("catalog q=3 reproduced with exhaustive distances", ok)


def test_criterion_2_catalog_large_q(verdict):
    ok = True
    for q, count in [(4, 4), (5, 7), (7, 1)]:
        rows = generate_table(q)
        ok &= len(rows) == count
        for r in rows:
            v = r.verification
            ok &= v["parent_distance"] == "verified_algebraic"
            ok &= v["dimensions"] == "verified_exhaustive"
            ok &= v["radical_self_orthogonal"] == "verified_exhaustive"
            ok &= v["mds_slack_zero"] == "verified_exhaustive"
            ok &= v["distance"] in ("verified_exhaustive",
                                    "witness_consistent")
    verdict("catalog q=4,5,7 reproduced with witness-backed distances", ok)


def test_criterion_3_grid_code(verdict):
    t0 = time.monotonic()
    code = derive(bacon_shor_code())
    elapsed = time.monotonic() - t0
    ok = (code.params() == (9, 2, 16, 3)
          and code.d_method == "exhaustive"
          and code.swt_c == 2
          and code.purity == ("impure", 2)
          and elapsed <= 1.0)
    try:
        grow_k(code)
        ok = False
    except PurityError:
        pass
    verdict("3x3 grid code: ((9,2,16,3)), impure to 2, trade refused", ok)


def test_criterion_4_trade_roundtrip(verdict):
    t0 = time.monotonic()
    five = derive(five_qubit_code())
    shrunk = shrink_k(five)
    grown = grow_k(shrunk.output)
    elapsed = time.monotonic() - t0
    ok = (five.params() == (5, 2, 1, 3)
          and shrunk.output.params() == (5, 1, 2, 3)
          and grown.output.params() == (5, 2, 1, 3)
          and all(v == "verified_exhaustive"
                  for v in shrunk.verification.values())
          and all(v == "verified_exhaustive"
                  for v in grown.verification.values())
          and elapsed <= 1.0)
    verdict("five-qubit shrink/grow roundtrip verified in <= 1s", ok)


def _random_hermitian_self_orthogonal(rng, field, n):
    """X cap X^perp_h of a random code is Hermitian self-orthogonal."""
    gens = rng.integers(0, field.q, size=(int(rng.integers(1, n + 2)), n))
    X = ClassicalCode(n, field, gens)
    return X.intersect(X.dual("hermitian"))


def test_criterion_5_expansion_isometry(verdict):
    checked = 0
    ok = True
    for p, m in [(2, 2), (3, 2)]:
        field = FieldSpec(p, m)
        rng = np.random.default_rng(100 + p)
        while checked < (60 if p == 2 else 120):
            n = int(rng.integers(2, 7))
            X = _random_hermitian_self_orthogonal(rng, field, n)
            if X.rank == 0 or field.p ** (2 * X.rank) > 2 ** 16:
                continue
            C = hermitian_to_symplectic(X)
            ok &= C.rank_p == 2 * X.rank                   # |C| = |X|
            ok &= dual_symp(C).contains_code(C)            # C <= C^perp_s
            ok &= np.array_equal(swt_distribution(C),
                                 _hamming_distribution(X))
            Cd = dual_symp(C)
            Xd = X.dual("hermitian")
            if Xd.rank > X.rank:
                wc, tag = min_swt_coset(Cd, C)
                ww, wtag = Xd.min_wt_coset(X)
                ok &= (wc, tag) == (ww, wtag) == (ww, "exhaustive")
            checked += 1
    verdict(f"expansion is a weight isometry on {checked} random "
             "self-orthogonal codes", ok)


def test_criterion_6_rule_claims_exhaustive(verdict):
    checked = 0
    ok = True
    for p in (2, 3):
        field = FieldSpec(p)
        rng = np.random.default_rng(200 + p)
        while checked < (60 if p == 2 else 120):
            n = int(rng.integers(1, 5))
            C = AdditiveCode(n, field,
                             rng.integers(0, p, size=(n + 1, 2 * n)))
            if C.rank == 0:
                continue
            code = derive(C)
            if code.K == 1:
                continue
            # length extension: K, R, purity to 1, d preserved or better
            ext = extend_length(code)
            out = ext.output
            ok &= (out.K, out.R) == (code.K, code.R)
            ok &= out.d >= code.d and out.swt_c == 1
            ok &= dual_symp(_extend_code(C)) == _extend_code(dual_symp(C))
            ok &= all(v == "verified_exhaustive"
                      for v in ext.verification.values())
            # dimension trade: K/p for p*R without losing distance
            if code.k_exp >= 1 and (code.k_exp > 1 or code.is_pure):
                res = shrink_k(code)
                sh = res.output
                ok &= (sh.K, sh.R) == (code.K // p, code.R * p)
                ok &= sh.K == 1 or sh.d >= code.d
            checked += 1
    verdict(f"length/trade rule claims hold exhaustively on {checked} "
             "random codes", ok)


def _all_small_codes(n):
    """Every additive code on n binary pairs from <= 4 generators, deduped."""
    vectors = [v for v in product((0, 1), repeat=2 * n) if any(v)]
    seen = set()
    for size in range(1, 5):
        for rows in combinations(vectors, size):
            code = AdditiveCode(n, FieldSpec(2), np.array(rows))
            if code in seen:
                continue
            seen.add(code)
            yield code


def test_criterion_7_algebraic_invariants(verdict):
    ok = True
    total = 0
    for n in (1, 2):
        for C in _all_small_codes(n):
            D = intersect(C, dual_symp(C))
            ok &= dual_symp(dual_symp(C)) == C
            ok &= C.rank_p + dual_symp(C).rank_p == 2 * n
            ok &= dual_symp(D).contains_code(D)        # radical is isotropic
            code = derive(C, Policy(distance_mode="skip"))
            ok &= code.k_exp + code.r_exp == n - D.rank_p
            ok &= code.k_exp - code.r_exp == n - C.rank_p
            ok &= code.case == ("b" if code.k_exp == 0 else "a")
            total += 1
    rng = np.random.default_rng(300)
    randomized = 0
    for p, m in [(2, 2), (3, 1), (5, 1)]:
        field = FieldSpec(p, m)
        for _ in range(340):
            n = int(rng.integers(1, 4))
            C = AdditiveCode(n, field, rng.integers(0, field.q, size=(3, 2 * n)))
            dual = dual_symp(C)
            ok &= dual_symp(dual) == C
            ok &= C.rank_p + dual.rank_p == 2 * n * m
            ok &= not _pairings(C.mat, dual.mat, n, field, C.t).any()
            randomized += 1
    ok &= total >= 60 and randomized >= 1000
    verdict(f"duality/dimension invariants on {total} exhaustive + "
             f"{randomized} random codes", ok)


def test_criterion_8_bounds(verdict):
    five = derive(five_qubit_code())
    ok = hamming_check(five).perfect
    specs = [MdsFamilySpec(q=5, family="iii", delta=1, r=1),
             MdsFamilySpec(q=3, family="iv", delta=0, r=0),
             MdsFamilySpec(q=3, family="v", delta=1, r=5),
             MdsFamilySpec(q=3, family="vi", delta=1, r=4),
             MdsFamilySpec(q=4, family="v", delta=1, r=2),
             MdsFamilySpec(q=7, family="iii", delta=2, r=0)]
    for spec in specs:
        res = mds_family(spec)
        rec = (bracket_params(res.output)
               if isinstance(res.output, SubsystemCode) else res.output)
        ok &= singleton_check(rec).slack == 0
    verdict("perfect five-qubit code and zero Singleton slack on all "
             "family outputs", ok)
