"""Deriving subsystem codes and their parameter records."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subsystem_codes import codes, linalg, subsystem
from subsystem_codes.codes import (DEFAULT_THRESHOLD, AdditiveCode, dual_symp,
                                   intersect)
from subsystem_codes.gf import FieldSpec
from subsystem_codes.known import bacon_shor_code, five_qubit_code
from subsystem_codes.rules import shrink_k
from subsystem_codes.subsystem import (ParamRecord, Policy, PurityError,
                                       analysis_report, bracket_params, derive)

_DATA = Path(__file__).resolve().parents[1] / "data"


def test_five_qubit():
    code = derive(five_qubit_code())
    assert code.params() == (5, 2, 1, 3)
    assert code.case == "a"            # K > 1, so D^perp_s strictly contains C
    assert code.is_pure
    assert code.swt_c == 4
    assert bracket_params(code).bracket() == "[[5,1,0,3]]_2"


def _five_qubit_file():
    return AdditiveCode.load(_DATA / "five_qubit.json")


def _bacon_shor_file():
    return AdditiveCode.load(_DATA / "bacon_shor.json")


@pytest.mark.parametrize("make", [five_qubit_code, bacon_shor_code,
                                  _five_qubit_file, _bacon_shor_file])
def test_derive_reduces_no_empty_matrix(monkeypatch, make):
    # D is read off the reduced kernel of C's Gram matrix and the coset's
    # rows off the pivots of C and D^perp_s, so a derive reduces two
    # matrices, C's Gram matrix and the pairings of D giving D^perp_s
    C, shapes, real = make(), [], linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda mat, field: shapes.append(
        np.shape(mat)) or real(mat, field))
    derive(C)
    assert len(shapes) == 2
    assert all(0 not in shape for shape in shapes)


def test_bacon_shor():
    code = derive(bacon_shor_code())
    assert code.params() == (9, 2, 16, 3)
    assert code.d_method == "exhaustive"
    assert code.purity == ("impure", 2)
    assert bracket_params(code).bracket() == "[[9,1,4,3]]_2"


def test_dimension_formula_random():
    rng = np.random.default_rng(30)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        field = FieldSpec(p, m)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            gens = rng.integers(0, field.q, size=(3, 2 * n))
            C = AdditiveCode(n, field, gens)
            if C.rank == 0:
                continue
            code = derive(C, Policy(distance_mode="skip"))
            D = intersect(C, dual_symp(C))
            # K * R = q^n / |D|, K / R = q^n / |C|
            assert code.k_exp + code.r_exp == n * m - D.rank_p
            assert code.k_exp - code.r_exp == n * m - C.rank_p
            assert code.case == ("b" if code.k_exp == 0 else "a")


def test_case_b_distance_over_dual():
    # C = D^perp_s: a self-dual-like stabilizer with K = 1
    f = FieldSpec(2)
    C = AdditiveCode(1, f, [[1, 0], [0, 1]])
    code = derive(C)
    assert code.case == "b"
    assert code.K == 1
    assert code.d == 1


def test_k1_codes_are_pure():
    # every K = 1 code the deriver accepts must be pure (d is computed
    # over the whole dual of the radical in that case)
    f = FieldSpec(2)
    rng = np.random.default_rng(31)
    seen = 0
    while seen < 10:
        gens = rng.integers(0, 2, size=(4, 4))
        C = AdditiveCode(2, f, gens)
        if C.rank == 0:
            continue
        code = derive(C)
        if code.K == 1:
            assert code.is_pure
            seen += 1


# lhs kind, rhs kind, verdict on 3 >= 2 (and 3 >= 3), verdict on 2 >= 3
@pytest.mark.parametrize("lhs,rhs,ge,lt", [
    ("exact", "exact", True, False),
    ("exact", "witness", True, None),
    ("exact", "lower", None, False),
    ("exact", "unknown", None, None),
    ("stated", "stated", True, False),
    ("witness", "exact", None, False),
    ("witness", "witness", None, None),
    ("witness", "lower", None, False),
    ("witness", "unknown", None, None),
    ("lower", "exact", True, None),
    ("lower", "witness", True, None),
    ("lower", "lower", None, None),
    ("lower", "unknown", None, None),
    ("unknown", "exact", None, None),
    ("unknown", "witness", None, None),
    ("unknown", "lower", None, None),
    ("unknown", "unknown", None, None),
])
def test_ge_verdict_table(lhs, rhs, ge, lt):
    # each value is the interval its method proves: exact (a proof, or a
    # stated number), [1, x] for a witness, [x, oo) for a lower bound and
    # [1, oo) unknown; lhs >= rhs is proved iff lo(lhs) >= hi(rhs) and
    # refuted iff hi(lhs) < lo(rhs)
    verdict = subsystem.ge_verdict
    assert verdict(*_value(lhs, 3), *_value(rhs, 2)) is ge
    assert verdict(*_value(lhs, 3), *_value(rhs, 3)) is ge
    assert verdict(*_value(lhs, 2), *_value(rhs, 3)) is lt


def _value(kind, x):
    return {"exact": (x, "exhaustive"), "stated": (x, None),
            "witness": (x, "witness"), "lower": (x, "lower"),
            "unknown": (None, None)}[kind]


@pytest.mark.parametrize("lhs", ["exact", "stated", "witness", "lower",
                                 "unknown"])
@pytest.mark.parametrize("rhs,proved", [
    ("exact", True), ("witness", True), ("lower", None), ("unknown", None)])
def test_ge_verdict_against_one(lhs, rhs, proved):
    # every value is at least 1, so lhs >= rhs is proved whatever backs lhs
    # once rhs is at most 1: exactly 1, or a witness 1
    for x in (1, 2):
        assert subsystem.ge_verdict(*_value(lhs, x), *_value(rhs, 1)) is proved


@given(lhs=st.one_of(st.none(), st.integers(1, 6)),
       rhs=st.one_of(st.none(), st.integers(2, 6)),
       lhs_method=st.sampled_from(["exhaustive", "witness"]),
       rhs_method=st.sampled_from(["exhaustive", "witness"]))
def test_ge_verdict_keeps_the_exactness_rule_above_one(lhs, rhs, lhs_method,
                                                       rhs_method):
    # with rhs > 1 the bounds give the rule they replaced: lhs >= rhs needs
    # an exact lhs, lhs < rhs an exact rhs, and an unknown value is open
    exact = lhs is not None and rhs is not None and (
        lhs_method if lhs >= rhs else rhs_method) == "exhaustive"
    assert subsystem.ge_verdict(lhs, lhs_method, rhs, rhs_method) is (
        lhs >= rhs if exact else None)


def test_interval_reads_each_method():
    interval = subsystem.interval
    assert interval(3, "exhaustive") == interval(3, None) == (3, 3)
    assert interval(3, "witness") == (1, 3)
    assert interval(3, "lower") == (3, None)
    assert interval(None, None) == (1, None)
    for word in ("exact", "analytic", "Witness", ""):
        with pytest.raises(ValueError, match="unknown distance method"):
            interval(3, word)
        with pytest.raises(ValueError, match="unknown distance method"):
            subsystem.ParamRecord(n=3, q=2, k=1, r=0, d=2, d_method=word)


def test_purity_impure_needs_a_proved_distance():
    shor = derive(bacon_shor_code())          # swt(C) = 2 < d = 3, both exact
    assert shor.purity == ("impure", 2)
    # a witness d only bounds the true d from above: swt(C) = 2 proves
    # purity to 2, and impurity is not shown
    assert replace(shor, d_method="witness").purity == ("pure_to", 2)
    assert replace(shor, d_method="witness",
                   swt_c_method="witness").purity == ("pure_to", 1)
    # a witness swt(C) below a proved d still shows impurity
    assert replace(shor, swt_c_method="witness").purity == ("impure", 2)
    five = derive(five_qubit_code())          # swt(C) = 4 >= d = 3
    assert replace(five, d_method="witness").purity == ("pure", None)
    assert replace(five, swt_c_method="witness").purity == ("pure_to", 1)


def test_witness_overshoot_is_no_impurity(monkeypatch):
    # a witness search that overshoots (here: always n) reads d = 5 for a
    # K = 1 code with exact swt(C) = 3; that proves nothing about purity,
    # so derive must not refuse the code
    monkeypatch.setattr(codes, "WITNESS_RANDOM_SAMPLES", 8)
    monkeypatch.setattr(codes, "_witness_search",
                        lambda gens, p, n_groups, *rest: n_groups)
    C = shrink_k(derive(five_qubit_code())).output.C
    code = derive(C, Policy("witness"))
    assert (code.K, code.d, code.d_method) == (1, 5, "witness")
    assert (code.swt_c, code.swt_c_method) == (3, "exhaustive")
    assert code.purity == ("pure_to", 3)


def test_distance_modes():
    C = five_qubit_code()
    exact = derive(C, Policy(distance_mode="exact"))
    wit = derive(C, Policy(distance_mode="witness"))
    skip = derive(C, Policy(distance_mode="skip"))
    assert exact.d == 3 and exact.d_method == "exhaustive"
    assert wit.d_method == "witness" and wit.d >= 3
    assert skip.d is None
    with pytest.raises(ValueError):
        derive(C, Policy(distance_mode="bogus"))


def test_policy_validation():
    assert Policy() == Policy("exact", DEFAULT_THRESHOLD, 0)
    for mode in ("bogus", "auto"):      # the library's modes are the CLI's
        with pytest.raises(ValueError, match="unknown distance mode"):
            Policy(distance_mode=mode)
    with pytest.raises(ValueError, match="threshold must be >= 1"):
        Policy(threshold=0)
    for seed in (-1, -2):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            Policy(seed=seed)


def test_auto_downgrade():
    # "exact" falls back to a witness bound beyond the threshold, recorded
    # in the method; it never raises
    C = bacon_shor_code()
    code = derive(C, Policy("exact", threshold=8))
    assert code.d_method == "witness"
    assert code.d >= 3                  # upper bound can only overestimate
    assert derive(C, Policy(threshold=8)).d_method == "witness"


def test_param_record_validation():
    with pytest.raises(ValueError):
        ParamRecord(n=3, q=2, k=3, r=1)      # K*R > q^n
    rec = ParamRecord(n=5, q=4, k=Fraction(1, 2), r=0, d=2)
    assert rec.bracket() == "[[5,1/2,0,2]]_4"
    assert rec.to_json()["k"] == "1/2"


@pytest.mark.parametrize("k,r,name", [(-1, 0, "k = -1"), (1, -1, "r = -1"),
                                      (Fraction(-1, 2), 0, "k = -1/2")])
def test_param_record_refuses_negative_dimensions(k, r, name):
    # k and r are log_q of dimensions: a negative one describes no code
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        ParamRecord(n=5, q=4, k=k, r=r, d=3, pure=True)
    assert ParamRecord(n=5, q=4, k=0, r=0, d=3).bracket() == "[[5,0,0,3]]_4"


def test_analysis_report_shape():
    rep = analysis_report(derive(five_qubit_code()))
    assert rep["bracket"] == "[[5,1,0,3]]_2"
    assert rep["purity"]["kind"] == "pure"
    assert rep["distance"]["method"] == "exhaustive"
    assert rep["params"]["K"] == 2
