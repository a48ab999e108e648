"""Singleton and Hamming bound reports."""

from fractions import Fraction

import pytest

from subsystem_codes.bounds import hamming_check, singleton_check
from subsystem_codes.known import bacon_shor_code, five_qubit_code
from subsystem_codes.rules import MdsFamilySpec, mds_family
from subsystem_codes.subsystem import (ParamRecord, PurityError,
                                       bracket_params, derive)


def _rec(n, q, k, r, d, **kw):
    return ParamRecord(n=n, q=q, k=Fraction(k), r=Fraction(r), d=d, **kw)


def test_five_qubit_is_perfect():
    code = derive(five_qubit_code())
    rep = hamming_check(code)
    assert rep.bound == "hamming"
    assert rep.slack == 0 and rep.perfect
    # sphere volume 1 + 5*3 = 16 = 2^4 exactly


def test_short_code_not_perfect():
    rep = hamming_check(_rec(4, 2, 2, 0, 2, pure=True))
    assert rep.slack == 2 ** 2 - 1 == 3
    assert not rep.perfect


def test_singleton_mds_and_slack():
    rep = singleton_check(_rec(8, 3, 5, 1, 2, linear=True))
    assert rep.slack == 0 and rep.mds
    rep2 = singleton_check(_rec(9, 2, 1, 4, 3, linear=True))
    assert rep2.slack == 0 and rep2.mds
    rep3 = singleton_check(_rec(5, 2, 1, 0, 3, linear=True))
    assert rep3.slack == 0


def test_singleton_nonlinear_is_conjectural():
    rep = singleton_check(_rec(8, 3, 5, 1, 2, linear=False))
    assert rep.slack == 0 and not rep.mds
    assert any("conjectural" in n for n in rep.notes)


def test_singleton_linear_violation_raises():
    with pytest.raises(AssertionError):
        singleton_check(_rec(5, 2, 4, 1, 3, linear=True))


def test_witness_distance_past_a_bound_is_noted():
    # a witness d is an upper bound, so only a proved d can break a bound
    note = "the witness d exceeds the bound, so the true d is smaller"
    rep = singleton_check(_rec(5, 2, 4, 1, 3, linear=True, d_method="witness"))
    assert (rep.slack, rep.mds, rep.notes) == (-4, False, [note])
    with pytest.raises(AssertionError):
        hamming_check(_rec(3, 4, 2, 0, 3, pure=True))
    rep = hamming_check(_rec(3, 4, 2, 0, 3, pure=True, d_method="witness"))
    assert (rep.slack, rep.perfect, rep.notes[-1]) == (-42, False, note)


def test_hamming_requires_purity():
    with pytest.raises(PurityError):
        hamming_check(_rec(9, 2, 1, 4, 3, pure=False))
    with pytest.raises(PurityError):
        hamming_check(_rec(9, 2, 1, 4, 3))          # purity unknown
    with pytest.raises(PurityError):
        hamming_check(derive(bacon_shor_code()))    # impure to 2


def test_bounds_need_distance_and_integers():
    with pytest.raises(ValueError):
        singleton_check(_rec(5, 2, 1, 0, None))
    with pytest.raises(ValueError):
        singleton_check(ParamRecord(n=5, q=4, k=Fraction(1, 2), r=Fraction(0),
                                    d=2, linear=False))


def test_hamming_slack_monotone_in_distance():
    # shrinking the claimed distance can only loosen the bound
    prev = None
    for d in (5, 3, 1):
        rep = hamming_check(_rec(11, 2, 1, 0, d, pure=True))
        if prev is not None:
            assert rep.slack >= prev
        prev = rep.slack


def test_family_outputs_attain_singleton():
    cases = [("iii", 5, 1, 1), ("iv", 3, 0, 0), ("v", 3, 1, 5),
             ("vi", 3, 1, 4), ("iii", 7, 2, 0), ("v", 4, 1, 2)]
    for fam, q, delta, r in cases:
        res = mds_family(MdsFamilySpec(q=q, family=fam, delta=delta, r=r))
        rec = bracket_params(res.output)
        rec.linear = True
        rep = singleton_check(rec)
        assert rep.slack == 0 and rep.mds, (fam, q, delta, r)


def test_report_json_shape():
    rep = singleton_check(_rec(8, 3, 5, 1, 2, linear=True))
    data = rep.to_json()
    assert data == {"bound": "singleton", "slack": 0, "attained": True,
                    "notes": []}
